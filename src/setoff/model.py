"""Core data model: intents, settlement artifacts, the ledger, and ascertainment.

All monetary quantities are exact non-negative integers counted in minor units
of a single unit of account (or of a named asset, for currency-labelled
fields). No floats appear anywhere on a settlement path.

Canonical serialization (byte-for-byte):
    Every intent serializes to compact UTF-8 JSON (separators ``,`` and ``:``,
    ASCII-escaped) with a fixed field order and no ascertainment token:

    obligation:  type, id, debtor, creditor, amount, unit, due_date
    acceptance:  type, id, origin, target, kind, limit, currency, repayment_due
    tender:      type, id, sender, source, kind, max_amount, price

    ``limit`` is an integer or ``null`` (null means unlimited). ``price`` is a
    decimal or rational string such as ``"3"`` or ``"7/2"`` (unit-of-account
    minor units per currency minor unit) whose numerator and denominator in
    lowest terms are at most ``MAX_AMOUNT``, or ``null`` for unit-of-account
    tenders. Dates are ``YYYY-MM-DD`` strings or ``null``. Ascertainment
    tokens are computed over exactly these bytes.
"""

from __future__ import annotations

import hmac
import json
import sys
from dataclasses import dataclass
from datetime import date
from enum import Enum
from fractions import Fraction

from .errors import AmountError, IntentError

AgentId = str

# The bound on what an intent declares: an obligation's amount, an
# acceptance's limit and a tender's max_amount. Nothing derived from intents
# is bounded by it: sums, flows, balances and budgets are exact ints of any
# size.
MAX_AMOUNT = 2**63 - 1


def as_quantity(value: object) -> int:
    """Validate ``value`` as a derived quantity: a non-negative int of any size."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise AmountError(f"amount must be an integer, got {value!r}")
    if value < 0:
        raise AmountError(f"amount must be non-negative, got {value}")
    return value


def as_amount(value: object) -> int:
    """Validate ``value`` as a declared Amount: a quantity within MAX_AMOUNT."""
    if as_quantity(value) > MAX_AMOUNT:
        raise AmountError(f"amount {value} exceeds the checked range")
    return value


def sub_amount(a: int, b: int) -> int:
    """``a - b`` for amounts; going negative is an error, never a wrap."""
    result = a - b
    if result < 0:
        raise AmountError(f"amount subtraction {a} - {b} is negative")
    return result


def _require_id(value: object, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise IntentError(f"{what} must be a non-empty string, got {value!r}")
    return value


def _require_date(value: str | None, what: str) -> str | None:
    if value is None:
        return None
    try:
        date.fromisoformat(value)
    except (TypeError, ValueError) as exc:
        raise IntentError(f"{what} must be an ISO date (YYYY-MM-DD): {value!r}") from exc
    return value


class AcceptanceKind(str, Enum):
    DEPOSIT = "deposit"
    REPAYMENT = "repayment"


class TenderKind(str, Enum):
    ASSIGNMENT = "assignment"
    OVERDRAFT = "overdraft"


@dataclass(frozen=True, slots=True)
class Obligation:
    """A debt edge: ``debtor`` owes ``creditor`` ``amount`` minor units of ``unit``."""

    id: str
    debtor: AgentId
    creditor: AgentId
    amount: int
    unit: str
    due_date: str | None = None
    ascertainment: str | None = None

    def __post_init__(self) -> None:
        _require_id(self.id, "obligation id")
        _require_id(self.debtor, "debtor")
        _require_id(self.creditor, "creditor")
        _require_id(self.unit, "unit")
        as_amount(self.amount)
        if self.amount == 0:
            raise IntentError(f"obligation {self.id} has zero amount")
        if self.debtor == self.creditor:
            raise IntentError(f"obligation {self.id} is a self-edge ({self.debtor})")
        _require_date(self.due_date, "due_date")


@dataclass(frozen=True, slots=True)
class Acceptance:
    """A creditor's standing offer to be paid in a given asset.

    ``deposit`` acceptances name a liquidity source as target: flow into them
    increases the origin's balance there. ``repayment`` acceptances name a
    borrower as target: flow drawn against them becomes a new dated obligation
    from the borrower back to the origin.
    """

    id: str
    origin: AgentId
    target: AgentId
    kind: AcceptanceKind
    currency: str
    limit: int | None = None
    repayment_due: str | None = None
    ascertainment: str | None = None

    def __post_init__(self) -> None:
        _require_id(self.id, "acceptance id")
        _require_id(self.origin, "origin")
        _require_id(self.target, "target")
        _require_id(self.currency, "currency")
        if not isinstance(self.kind, AcceptanceKind):
            raise IntentError(f"acceptance {self.id} has invalid kind {self.kind!r}")
        if self.limit is not None:
            as_amount(self.limit)
        if self.kind is AcceptanceKind.REPAYMENT:
            if self.origin == self.target:
                raise IntentError(f"acceptance {self.id} lends to its own origin")
            if self.limit is None:
                raise IntentError(f"repayment acceptance {self.id} needs a finite limit")
        _require_date(self.repayment_due, "repayment_due")


@dataclass(frozen=True, slots=True)
class Tender:
    """An offer to spend liquidity: assign an existing balance or draw a credit line.

    ``price`` converts the source's asset into unit-of-account minor units and
    is mandatory exactly when the asset differs from the unit of account.
    """

    id: str
    sender: AgentId
    source: AgentId
    kind: TenderKind
    max_amount: int
    price: Fraction | None = None
    ascertainment: str | None = None

    def __post_init__(self) -> None:
        _require_id(self.id, "tender id")
        _require_id(self.sender, "sender")
        _require_id(self.source, "source")
        if not isinstance(self.kind, TenderKind):
            raise IntentError(f"tender {self.id} has invalid kind {self.kind!r}")
        as_amount(self.max_amount)
        if self.price is not None:
            if not isinstance(self.price, Fraction):
                raise IntentError(f"tender {self.id} price must be a Fraction")
            if self.price <= 0:
                raise IntentError(f"tender {self.id} price must be positive")
            # Compare, never str(): a price past Python's int-to-str digit limit
            # could not even be printed.
            if self.price.numerator > MAX_AMOUNT or self.price.denominator > MAX_AMOUNT:
                raise IntentError(
                    f"malformed intent: tender {self.id} price needs a numerator and "
                    f"denominator of at most {MAX_AMOUNT}"
                )


Intent = Obligation | Acceptance | Tender


@dataclass(frozen=True, slots=True)
class SettlementRecord:
    """One half of a discharged edge, addressed to one of its two endpoints.

    ``amount`` is in unit-of-account minor units. For edges denominated in
    another asset, ``currency_amount`` carries the (amount, asset code)
    actually moved in that asset.
    """

    edge_ref: str
    party: AgentId
    amount: int
    currency_amount: tuple[int, str] | None = None

    def __post_init__(self) -> None:
        _require_id(self.edge_ref, "edge_ref")
        _require_id(self.party, "party")
        as_quantity(self.amount)
        if self.currency_amount is not None:
            as_quantity(self.currency_amount[0])
            _require_id(self.currency_amount[1], "currency_amount asset")


@dataclass(frozen=True, slots=True)
class Transfer:
    """A direct asset movement produced by pairing a tender with an acceptance."""

    payer: AgentId
    payee: AgentId
    asset: str
    amount: int

    def __post_init__(self) -> None:
        _require_id(self.payer, "payer")
        _require_id(self.payee, "payee")
        _require_id(self.asset, "asset")
        as_quantity(self.amount)


@dataclass(frozen=True, slots=True)
class SettlementFlow:
    """A balanced set of settlement records plus the transfers that fund it."""

    epoch_id: int
    records: tuple[SettlementRecord, ...] = ()
    transfers: tuple[Transfer, ...] = ()


@dataclass(frozen=True, slots=True)
class NoticeEntry:
    obligation_id: str
    discharged: int
    remaining: int


@dataclass(frozen=True, slots=True)
class SetOffNotice:
    """Per-party statement of which obligations were reduced and what remains."""

    party: AgentId
    epoch_id: int
    entries: tuple[NoticeEntry, ...] = ()


class Ledger:
    """Mutable settlement state: asset balances and open obligations.

    Balances of ordinary agents never go negative. The issuer of an asset may
    carry a negative balance in its own asset: that is its outstanding
    issuance, and it keeps per-asset conservation exact.
    """

    def __init__(
        self,
        balances: dict[AgentId, dict[str, int]] | None = None,
        open_obligations: dict[str, Obligation] | None = None,
    ) -> None:
        self.balances: dict[AgentId, dict[str, int]] = {}
        for agent, per_asset in (balances or {}).items():
            for asset, amount in per_asset.items():
                self.set_balance(agent, asset, amount)
        self.open_obligations: dict[str, Obligation] = dict(open_obligations or {})

    def balance(self, agent: AgentId, asset: str) -> int:
        return self.balances.get(agent, {}).get(asset, 0)

    def set_balance(self, agent: AgentId, asset: str, amount: int) -> None:
        if not isinstance(amount, int) or isinstance(amount, bool):
            raise AmountError(f"balance must be an integer, got {amount!r}")
        self.balances.setdefault(agent, {})[asset] = amount

    def adjust_balance(self, agent: AgentId, asset: str, delta: int) -> int:
        new = self.balance(agent, asset) + delta
        self.set_balance(agent, asset, new)
        return new

    def copy(self) -> "Ledger":
        return Ledger(
            balances={a: dict(per) for a, per in self.balances.items()},
            open_obligations=dict(self.open_obligations),
        )

    def to_obj(self) -> dict:
        balances = {
            agent: {asset: amt for asset, amt in sorted(per.items()) if amt != 0}
            for agent, per in sorted(self.balances.items())
        }
        balances = {a: per for a, per in balances.items() if per}
        return {
            "balances": balances,
            "open_obligations": {
                ob_id: intent_to_obj(ob)
                for ob_id, ob in sorted(self.open_obligations.items())
            },
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Ledger":
        ledger = cls(balances=obj.get("balances", {}))
        for ob_id, ob_obj in obj.get("open_obligations", {}).items():
            ob = intent_from_obj(ob_obj)
            if not isinstance(ob, Obligation):
                raise IntentError(f"ledger entry {ob_id} is not an obligation")
            ledger.open_obligations[ob_id] = ob
        return ledger


# --- canonical serialization -------------------------------------------------


def intent_to_obj(intent: Intent, include_ascertainment: bool = True) -> dict:
    """Render an intent as a JSON-ready dict in the documented field order."""
    if isinstance(intent, Obligation):
        obj = {
            "type": "obligation",
            "id": intent.id,
            "debtor": intent.debtor,
            "creditor": intent.creditor,
            "amount": intent.amount,
            "unit": intent.unit,
            "due_date": intent.due_date,
        }
    elif isinstance(intent, Acceptance):
        obj = {
            "type": "acceptance",
            "id": intent.id,
            "origin": intent.origin,
            "target": intent.target,
            "kind": intent.kind.value,
            "limit": intent.limit,
            "currency": intent.currency,
            "repayment_due": intent.repayment_due,
        }
    elif isinstance(intent, Tender):
        obj = {
            "type": "tender",
            "id": intent.id,
            "sender": intent.sender,
            "source": intent.source,
            "kind": intent.kind.value,
            "max_amount": intent.max_amount,
            "price": None if intent.price is None else str(intent.price),
        }
    else:
        raise IntentError(f"not an intent: {intent!r}")
    if include_ascertainment:
        obj["ascertainment"] = intent.ascertainment
    return obj


def _price(price: object) -> Fraction:
    """``Fraction(price)``, refusing first a decimal exponent no price in range has.

    ``Fraction("1e<exp>")`` builds ``10**exp`` in full, which takes seconds
    once exp runs to millions. ``int()`` reads each digit run of a price
    string, so none has more than ``sys.get_int_max_str_digits()`` digits
    (the string's length when that limit is off). A price whose numerator
    and denominator are at most MAX_AMOUNT, 19 digits, then has an exponent
    of at most that many digits plus 18 either way; the bound allows one more.
    """
    if isinstance(price, str):
        _, e, exp = price.lower().rpartition("e")
        try:
            exponent = abs(int(exp)) if e else 0
        except ValueError:  # no exponent after all: Fraction reads or refuses it
            exponent = 0
        bound = (sys.get_int_max_str_digits() or len(price)) + len(str(MAX_AMOUNT))
        if exponent > bound:
            raise IntentError(f"malformed intent: price exponent beyond +-{bound}")
    return Fraction(price)


def intent_from_obj(obj: dict) -> Intent:
    """Parse a JSON object back into an intent; inverse of intent_to_obj."""
    if not isinstance(obj, dict):
        raise IntentError(f"intent must be an object, got {type(obj).__name__}")
    kind = obj.get("type")
    token = obj.get("ascertainment")
    try:
        if kind == "obligation":
            return Obligation(
                id=obj["id"],
                debtor=obj["debtor"],
                creditor=obj["creditor"],
                amount=obj["amount"],
                unit=obj["unit"],
                due_date=obj.get("due_date"),
                ascertainment=token,
            )
        if kind == "acceptance":
            return Acceptance(
                id=obj["id"],
                origin=obj["origin"],
                target=obj["target"],
                kind=AcceptanceKind(obj["kind"]),
                currency=obj["currency"],
                limit=obj.get("limit"),
                repayment_due=obj.get("repayment_due"),
                ascertainment=token,
            )
        if kind == "tender":
            price = obj.get("price")
            if isinstance(price, bool):  # Fraction(True) would read it as 1
                raise IntentError(f"malformed intent: price {price!r} is not a number")
            return Tender(
                id=obj["id"],
                sender=obj["sender"],
                source=obj["source"],
                kind=TenderKind(obj["kind"]),
                max_amount=obj["max_amount"],
                price=None if price is None else _price(price),
                ascertainment=token,
            )
    except KeyError as exc:
        raise IntentError(f"intent is missing field {exc.args[0]!r}") from exc
    except (ArithmeticError, ValueError, TypeError) as exc:  # Fraction("1/0"), Fraction(inf)
        raise IntentError(f"malformed intent: {exc}") from exc
    raise IntentError(f"unknown intent type {kind!r}")


_CANONICAL = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True)


def canonical_serialize(intent: Intent) -> bytes:
    """Deterministic bytes for signing; excludes the ascertainment token."""
    obj = intent_to_obj(intent, include_ascertainment=False)
    return _CANONICAL.encode(obj).encode("utf-8")


def flow_to_obj(f: SettlementFlow) -> dict:
    obj: dict = {
        "epoch_id": f.epoch_id,
        "records": [
            {
                "edge_ref": r.edge_ref,
                "party": r.party,
                "amount": r.amount,
                "currency_amount": (
                    None
                    if r.currency_amount is None
                    else [r.currency_amount[0], r.currency_amount[1]]
                ),
            }
            for r in f.records
        ],
        "transfers": [
            {"payer": t.payer, "payee": t.payee, "asset": t.asset, "amount": t.amount}
            for t in f.transfers
        ],
    }
    return obj


def flow_from_obj(obj: dict) -> SettlementFlow:
    try:
        records = tuple(
            SettlementRecord(
                edge_ref=r["edge_ref"],
                party=r["party"],
                amount=r["amount"],
                currency_amount=(
                    None
                    if r.get("currency_amount") is None
                    else (r["currency_amount"][0], r["currency_amount"][1])
                ),
            )
            for r in obj.get("records", ())
        )
        transfers = tuple(
            Transfer(
                payer=t["payer"], payee=t["payee"], asset=t["asset"], amount=t["amount"]
            )
            for t in obj.get("transfers", ())
        )
        return SettlementFlow(
            epoch_id=obj["epoch_id"], records=records, transfers=transfers
        )
    except KeyError as exc:
        raise IntentError(f"flow is missing field {exc.args[0]!r}") from exc


# --- ascertainment -----------------------------------------------------------


class KeyRegistry:
    """Maps agent ids to their ascertainment keys.

    ``version`` counts registrations, so a holder of counts that depend on
    which intents ascertain can tell when to recount.
    """

    def __init__(self, keys: dict[AgentId, bytes] | None = None) -> None:
        self._keys: dict[AgentId, bytes] = dict(keys or {})
        self.version = 0

    def register(self, agent: AgentId, key: bytes) -> None:
        self._keys[agent] = key
        self.version += 1

    def key_for(self, agent: AgentId) -> bytes | None:
        return self._keys.get(agent)


def bound_party(intent: Intent) -> AgentId:
    """The agent whose key must ascertain the intent."""
    if isinstance(intent, Obligation):
        return intent.debtor
    if isinstance(intent, Acceptance):
        return intent.origin
    return intent.sender


def _token(key: bytes, intent: Intent) -> str:
    """HMAC-SHA256 of the intent's canonical bytes under ``key``, hex-encoded."""
    return hmac.digest(key, canonical_serialize(intent), "sha256").hex()


def ascertain(intent: Intent, registry: KeyRegistry) -> Intent:
    """Return a copy of ``intent`` carrying a valid ascertainment token.

    The copy takes the intent's fields as they are: ``intent`` passed its
    field checks when it was made, so they do not run again.
    """
    party = bound_party(intent)
    key = registry.key_for(party)
    if key is None:
        raise IntentError(f"no key registered for {party}")
    signed = object.__new__(type(intent))
    for name in intent.__slots__:
        object.__setattr__(signed, name, getattr(intent, name))
    object.__setattr__(signed, "ascertainment", _token(key, intent))
    return signed


def verify_ascertainment(intent: Intent, registry: KeyRegistry) -> bool:
    """True iff the intent carries a valid token from its bound party's key."""
    if not isinstance(intent.ascertainment, str):
        return False
    key = registry.key_for(bound_party(intent))
    if key is None:
        return False
    return hmac.compare_digest(_token(key, intent), intent.ascertainment)
