"""Obligation graphs: pooled intents, aggregation, net positions, flow networks.

The pipeline is pool -> aggregate() -> ObligationGraph -> build_network() ->
FlowNetwork. Aggregation is forgiving: an intent that cannot enter the graph,
such as a foreign-currency tender without a price, is excluded and reported.
``resolve_tender`` and ``resolve_deposit`` are the one admission rule for
liquidity; validation and settlement re-derive edges through them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import GraphBuildError
from .model import (
    Acceptance,
    AcceptanceKind,
    AgentId,
    Intent,
    KeyRegistry,
    Ledger,
    MAX_AMOUNT,
    Obligation,
    Tender,
    TenderKind,
    as_quantity,
    bound_party,
    verify_ascertainment,
)

# Sorts None due dates after every real ISO date.
_NO_DATE = "9999-99-99"

# Prefix for synthesized infinite acceptances of the default liquidity source.
DEFAULT_ACCEPT_PREFIX = "accept:default:"

# Exclusion reason for a tender or deposit acceptance in a currency with no issuer.
_UNKNOWN_CURRENCY = "unknown currency {}"


class EpochPool:
    """All intents submitted for one clearing epoch, plus epoch configuration.

    ``currencies`` maps asset codes to their issuing liquidity sources. When
    ``default_source`` is set, every non-issuer agent implicitly holds an
    unlimited deposit acceptance of that source in the unit of account.

    The pool counts its intents per bound party, and remembers each intent
    it has ascertained together with the key that checked it, so each intent
    is verified once until its party's key changes.

    From the first ``totals()`` call on, the pool also keeps the net
    position of each agent over its admitted obligations (ascertained, in
    the epoch unit, as ``aggregate`` admits them), their total debt and
    their NID, so that ``add`` and ``remove`` update two agents each and a
    query is O(1). A pool that is never asked pays nothing for them. A key
    registered after the last count makes the next query count again.
    """

    def __init__(
        self,
        unit: str,
        currencies: dict[str, AgentId] | None = None,
        default_source: AgentId | None = None,
        registry: KeyRegistry | None = None,
    ) -> None:
        self.unit = unit
        self.currencies: dict[str, AgentId] = dict(currencies or {})
        if default_source is not None:
            registered = self.currencies.setdefault(unit, default_source)
            if registered != default_source:
                raise GraphBuildError(
                    f"default source {default_source} is not the issuer of {unit}"
                )
        self.default_source = default_source
        issuers: dict[AgentId, str] = {}
        for code, issuer in self.currencies.items():
            if issuer in issuers:
                raise GraphBuildError(
                    f"{issuer} cannot issue both {issuers[issuer]} and {code}"
                )
            issuers[issuer] = code
        self._issuer_assets = issuers
        self.registry = registry or KeyRegistry()
        self.obligations: dict[str, Obligation] = {}
        self.acceptances: dict[str, Acceptance] = {}
        self.tenders: dict[str, Tender] = {}
        self.preverified: set[str] = set()
        self._held: dict[AgentId, int] = {}
        self._ascertained: dict[str, tuple[Intent, bytes]] = {}
        # Running totals of admitted obligations; None until the first query.
        self._net: dict[AgentId, int] | None = None
        self._nid = 0
        self._debt = 0
        self._counted_at = -1  # registry.version of the last count

    def issuer_of(self, asset: str) -> AgentId | None:
        return self.currencies.get(asset)

    def asset_of(self, issuer: AgentId) -> str | None:
        return self._issuer_assets.get(issuer)

    def add(self, intent: Intent, preverified: bool = False) -> None:
        """Admit one intent; duplicate ids are an error."""
        if self.get(intent.id) is not None:
            raise GraphBuildError(f"duplicate intent id {intent.id}")
        if isinstance(intent, Obligation):
            self.obligations[intent.id] = intent
        elif isinstance(intent, Acceptance):
            self.acceptances[intent.id] = intent
        elif isinstance(intent, Tender):
            self.tenders[intent.id] = intent
        else:
            raise GraphBuildError(f"not an intent: {intent!r}")
        if preverified:
            self.preverified.add(intent.id)
        party = bound_party(intent)
        self._held[party] = self._held.get(party, 0) + 1
        if self._net is not None:
            self._count(intent, 1)

    def remove(self, intent_id: str) -> None:
        """Withdraw one pooled intent, with its count and verification marks."""
        intent = self.get(intent_id)
        if intent is None:
            raise GraphBuildError(f"no intent {intent_id} in the pool")
        if self._net is not None:
            self._count(intent, -1)  # before the ascertainment mark goes
        for table in (self.obligations, self.acceptances, self.tenders):
            table.pop(intent_id, None)
        self.preverified.discard(intent_id)
        self._ascertained.pop(intent_id, None)
        party = bound_party(intent)
        self._held[party] -= 1
        if not self._held[party]:
            del self._held[party]

    def totals(self) -> tuple[int, int]:
        """(NID, total debt) of the admitted obligations, as ``aggregate`` admits them."""
        if self._net is None or self._counted_at != self.registry.version:
            self._net, self._nid, self._debt = {}, 0, 0
            self._counted_at = self.registry.version
            for ob in self.obligations.values():
                self._count(ob, 1)
        return self._nid, self._debt

    def _count(self, intent: Intent, sign: int) -> None:
        """Add (sign 1) or take out (sign -1) one intent's part of current totals."""
        if not (
            self._counted_at == self.registry.version
            and isinstance(intent, Obligation)
            and intent.unit == self.unit
            and self.is_ascertained(intent)
        ):
            return
        amount = sign * intent.amount
        self._debt += amount
        for agent, delta in ((intent.debtor, -amount), (intent.creditor, amount)):
            old = self._net.get(agent, 0)
            new = self._net[agent] = old + delta
            self._nid += max(0, -new) - max(0, -old)

    def held_by(self, party: AgentId) -> int:
        """How many pooled intents ``party`` is the bound party of."""
        return self._held.get(party, 0)

    def get(self, intent_id: str) -> Intent | None:
        return (
            self.obligations.get(intent_id)
            or self.acceptances.get(intent_id)
            or self.tenders.get(intent_id)
        )

    def is_ascertained(self, intent: Intent) -> bool:
        """True if preverified or its token checks out under its party's key.

        A success is remembered as (intent, key) by intent id. It answers a
        later check only for the same intent object under the same key
        object, so a rotated key or another intent under the same id is
        verified afresh. Failures are not remembered.
        """
        if intent.id in self.preverified:
            return True
        key = self.registry.key_for(bound_party(intent))
        seen = self._ascertained.get(intent.id)
        if seen is not None and seen[0] is intent and seen[1] is key:
            return True
        if not verify_ascertainment(intent, self.registry):
            return False
        self._ascertained[intent.id] = (intent, key)
        return True


def match_repayments(pool: EpochPool, tender: Tender) -> list[Acceptance]:
    """Ascertained repayment acceptances that back an overdraft tender."""
    matches = [
        a
        for a in pool.acceptances.values()
        if a.kind is AcceptanceKind.REPAYMENT
        and a.origin == tender.source
        and a.target == tender.sender
        and pool.is_ascertained(a)
    ]
    matches.sort(key=lambda a: (a.repayment_due or _NO_DATE, a.id))
    return matches


@dataclass(frozen=True, slots=True)
class AggregatedEdge:
    """All open obligations between one ordered (debtor, creditor) pair."""

    debtor: AgentId
    creditor: AgentId
    amount: int
    obligations: tuple[str, ...]  # contributing ids, oldest due date first, then id


@dataclass(frozen=True, slots=True)
class TenderEdge:
    """A tender resolved against the epoch's currency registry.

    For assignments the liquidity enters from the issuer itself and
    ``facility`` is None; for overdrafts ``facility`` is the lender whose
    matched repayment acceptances back the draw. ``cap`` is the declared
    unit-of-account cap: ``max_amount`` at the price and, for an overdraft,
    no more than the sum of ``matched_caps``. A matched line's cap is its
    limit at the price, floored on its own so settlement can attribute the
    whole draw across the credit lines, and at most ``MAX_AMOUNT``, since
    each line's share becomes a repayment obligation.
    """

    tender_id: str
    sender: AgentId
    issuer: AgentId
    currency: str
    kind: TenderKind
    max_amount: int
    cap: int
    price: Fraction | None  # None = asset is the unit of account
    facility: AgentId | None = None
    matched_acceptances: tuple[str, ...] = ()
    matched_caps: tuple[int, ...] = ()

    @property
    def payer(self) -> AgentId:
        """Whose balance the transfers debit: the sender's or the facility's."""
        return self.sender if self.facility is None else self.facility


@dataclass(frozen=True, slots=True)
class AcceptanceEdge:
    """A deposit acceptance (explicit or synthesized default) ready for routing."""

    edge_id: str
    origin: AgentId
    issuer: AgentId
    currency: str
    limit: int | None  # None = unlimited


@dataclass
class ObligationGraph:
    """Frozen per-epoch view: aggregated debt plus priced liquidity edges."""

    unit: str
    nodes: tuple[AgentId, ...]
    edges: dict[tuple[AgentId, AgentId], AggregatedEdge]
    tender_edges: tuple[TenderEdge, ...]
    acceptance_edges: tuple[AcceptanceEdge, ...]
    pool: EpochPool
    excluded: tuple[tuple[str, str], ...] = ()

    def total_debt(self) -> int:
        return sum(e.amount for e in self.edges.values())


@dataclass(frozen=True, slots=True)
class NetPosition:
    agent: AgentId
    payables: int
    receivables: int

    @property
    def net(self) -> int:
        return self.receivables - self.payables


def resolve_tender(pool: EpochPool, tender: Tender) -> TenderEdge | str:
    """Price and cap one ascertained tender, or say why it cannot be used.

    This is the one admission rule for tenders: ``aggregate`` excludes a
    tender with the returned reason, and validation and settlement re-derive
    the same edge from the raw pool.
    """
    matches: list[Acceptance] = []
    facility = None
    if tender.kind is TenderKind.ASSIGNMENT:
        currency = pool.asset_of(tender.source)
        if currency is None:
            return f"source {tender.source} is not a liquidity source"
    else:
        matches = match_repayments(pool, tender)
        if not matches:
            return "overdraft tender has no matching repayment acceptance"
        currencies = {a.currency for a in matches}
        if len(currencies) > 1:
            return "matching repayment acceptances disagree on currency"
        currency = currencies.pop()
        facility = tender.source
    issuer = pool.issuer_of(currency)
    if issuer is None:
        return _UNKNOWN_CURRENCY.format(currency)
    price = None if currency == pool.unit else tender.price
    if currency != pool.unit and price is None:
        return f"tender has no price for {currency}"
    cap = floor_mul_price(tender.max_amount, price)
    line_caps = tuple(
        min(floor_mul_price(a.limit or 0, price), MAX_AMOUNT) for a in matches
    )
    if matches:
        cap = min(cap, sum(line_caps))
    return TenderEdge(
        tender_id=tender.id,
        sender=tender.sender,
        issuer=issuer,
        currency=currency,
        kind=tender.kind,
        max_amount=tender.max_amount,
        cap=cap,
        price=price,
        facility=facility,
        matched_acceptances=tuple(a.id for a in matches),
        matched_caps=line_caps,
    )


def resolve_deposit(pool: EpochPool, acc: Acceptance) -> AcceptanceEdge | str:
    """Route one ascertained deposit acceptance, or say why it cannot be used."""
    issuer = pool.issuer_of(acc.currency)
    if issuer is None:
        return _UNKNOWN_CURRENCY.format(acc.currency)
    if acc.target != issuer:
        return f"target {acc.target} does not issue {acc.currency}"
    return AcceptanceEdge(
        edge_id=acc.id,
        origin=acc.origin,
        issuer=issuer,
        currency=acc.currency,
        limit=acc.limit,
    )


def aggregate(pool: EpochPool) -> ObligationGraph:
    """Fold a pool into an obligation graph.

    Unascertained or inconsistent intents are excluded and reported in
    ``graph.excluded`` rather than failing the epoch.
    """
    excluded: list[tuple[str, str]] = []
    nodes: set[AgentId] = set()

    def admit(intent: Intent) -> bool:
        if pool.is_ascertained(intent):
            return True
        excluded.append((intent.id, "ascertainment failed"))
        return False

    by_pair: dict[tuple[AgentId, AgentId], list[Obligation]] = {}
    for ob in sorted(pool.obligations.values(), key=lambda o: o.id):
        if not admit(ob):
            continue
        if ob.unit != pool.unit:
            excluded.append((ob.id, f"unit {ob.unit} is not the epoch unit {pool.unit}"))
            continue
        by_pair.setdefault((ob.debtor, ob.creditor), []).append(ob)
        nodes.update((ob.debtor, ob.creditor))

    edges: dict[tuple[AgentId, AgentId], AggregatedEdge] = {}
    for pair, obs in sorted(by_pair.items()):
        obs.sort(key=lambda o: (o.due_date or _NO_DATE, o.id))
        edges[pair] = AggregatedEdge(
            debtor=pair[0],
            creditor=pair[1],
            amount=sum(o.amount for o in obs),
            obligations=tuple(o.id for o in obs),
        )

    acceptance_edges: list[AcceptanceEdge] = []
    for acc in sorted(pool.acceptances.values(), key=lambda a: a.id):
        if not admit(acc):
            continue
        if acc.kind is AcceptanceKind.REPAYMENT:
            nodes.update((acc.origin, acc.target))
            continue
        resolved = resolve_deposit(pool, acc)
        if isinstance(resolved, str):
            excluded.append((acc.id, resolved))
            continue
        acceptance_edges.append(resolved)
        nodes.add(acc.origin)

    tender_edges: list[TenderEdge] = []
    for tender in sorted(pool.tenders.values(), key=lambda t: t.id):
        if not admit(tender):
            continue
        resolved = resolve_tender(pool, tender)
        if isinstance(resolved, str):
            excluded.append((tender.id, resolved))
            continue
        tender_edges.append(resolved)
        nodes.add(tender.sender)

    if pool.default_source is not None:
        issuer_agents = set(pool.currencies.values())
        for agent in sorted(nodes):
            if agent in issuer_agents:
                continue
            acceptance_edges.append(
                AcceptanceEdge(
                    edge_id=f"{DEFAULT_ACCEPT_PREFIX}{agent}",
                    origin=agent,
                    issuer=pool.default_source,
                    currency=pool.unit,
                    limit=None,
                )
            )

    referenced_issuers = {e.issuer for e in tender_edges} | {
        e.issuer for e in acceptance_edges
    }
    nodes.update(referenced_issuers)
    nodes.update(e.facility for e in tender_edges if e.facility is not None)

    return ObligationGraph(
        unit=pool.unit,
        nodes=tuple(sorted(nodes)),
        edges=edges,
        tender_edges=tuple(tender_edges),
        acceptance_edges=tuple(sorted(acceptance_edges, key=lambda e: e.edge_id)),
        pool=pool,
        excluded=tuple(excluded),
    )


def net_positions(g: ObligationGraph) -> dict[AgentId, NetPosition]:
    """Per-agent payables/receivables over obligation edges only."""
    payables: dict[AgentId, int] = {a: 0 for a in g.nodes}
    receivables: dict[AgentId, int] = {a: 0 for a in g.nodes}
    for (debtor, creditor), edge in g.edges.items():
        payables[debtor] += edge.amount
        receivables[creditor] += edge.amount
    return {
        a: NetPosition(agent=a, payables=payables[a], receivables=receivables[a])
        for a in g.nodes
    }


def compute_nid(g: ObligationGraph) -> int:
    """Net internal debt: the minimum liquidity that can discharge all debt."""
    return sum(max(0, -p.net) for p in net_positions(g).values())


# --- flow network ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ObArc:
    tail: int
    head: int
    cap: int
    debtor: AgentId
    creditor: AgentId


@dataclass(frozen=True, slots=True)
class TenderArc:
    node: int  # sender index
    cap: int   # unit-of-account minor units
    edge: TenderEdge
    pot: int | None = None  # index into the stage's pots; None = drawn from S


@dataclass(frozen=True, slots=True)
class AcceptArc:
    node: int  # origin index
    cap: int | None  # None = unlimited
    edge: AcceptanceEdge
    pot: int | None = None  # the facility pot its receipts may feed; None = to T only


@dataclass(frozen=True, slots=True)
class Pot:
    """A payer's new money in one stage: the arc S->pot its tenders draw through.

    ``cap`` is the most unit-of-account flow the payer's balance funds, None
    for unlimited. A facility's pot also takes back what its own acceptances
    receive (``recycles``), so a credit line that clears a cycle through its
    lender draws no new money.
    """

    payer: AgentId
    cap: int | None
    recycles: bool


@dataclass(frozen=True, slots=True)
class Stage:
    """One currency circuit: processed separately, in ascending code order."""

    currency: str
    tender_arcs: tuple[TenderArc, ...]
    accept_arcs: tuple[AcceptArc, ...]
    pots: tuple[Pot, ...] = ()


@dataclass
class FlowNetwork:
    unit: str
    nodes: tuple[AgentId, ...]
    ob_arcs: tuple[ObArc, ...]
    stages: tuple[Stage, ...]
    budget: int | None
    graph: ObligationGraph


def floor_mul_price(amount: int, price: Fraction | None) -> int:
    """Convert a currency amount to unit-of-account units, flooring dust."""
    if price is None:
        return amount
    return int(amount * price)  # Fraction * int is exact; int() floors positives


def floor_div_price(amount_uoa: int, price: Fraction | None) -> int:
    """Convert a unit-of-account flow back to currency units, flooring dust.

    The floored remainder stays with the tenderer.
    """
    if price is None:
        return amount_uoa
    return int(Fraction(amount_uoa) / price)


def stage_min_prices(tender_edges: Iterable[TenderEdge]) -> dict[str, Fraction]:
    """Lowest tender price per foreign currency.

    Finite foreign-currency limits convert at this price: any mix of tenders
    at or above it cannot overfill the limit in currency units.
    """
    prices: dict[str, Fraction] = {}
    for te in tender_edges:
        if te.price is not None and (
            te.currency not in prices or te.price < prices[te.currency]
        ):
            prices[te.currency] = te.price
    return prices


def accept_cap(
    ae: AcceptanceEdge, unit: str, min_prices: dict[str, Fraction]
) -> int | None:
    """A deposit acceptance's unit-of-account cap; None = unlimited.

    A finite foreign limit with no priced tender in its stage takes nothing.
    """
    if ae.limit is None:
        return None
    if ae.currency == unit:
        return ae.limit
    price = min_prices.get(ae.currency)
    return 0 if price is None else floor_mul_price(ae.limit, price)


def stage_pots(
    tender_edges: Iterable[TenderEdge], issuer: AgentId | None, ledger: Ledger | None
) -> tuple[Pot, ...]:
    """The pots of one stage's tenders, in payer order.

    A payer's cap is the most unit-of-account flow whose floored currency
    cost, at the lowest price p among its tenders, stays within its balance
    b: floor(x / p) <= b exactly when x <= ceil((b + 1) * p) - 1, and a
    negative balance funds nothing. Issuers, and every payer when there is
    no ledger, are unlimited. A payer gets a pot only if its cap is below the sum of its
    tenders' caps, or if it is a facility: some tender's sender is not its
    payer. Every other tender draws straight from S.
    """
    by_payer: dict[AgentId, list[TenderEdge]] = {}
    for te in tender_edges:
        by_payer.setdefault(te.payer, []).append(te)
    pots = []
    for payer, edges in sorted(by_payer.items()):
        cap = None
        if ledger is not None and payer != issuer:
            b = max(0, ledger.balance(payer, edges[0].currency))
            prices = [te.price for te in edges if te.price is not None]
            cap = math.ceil((b + 1) * min(prices)) - 1 if prices else b
        facility = any(te.sender != payer for te in edges)
        if facility or (cap is not None and cap < sum(te.cap for te in edges)):
            pots.append(Pot(payer=payer, cap=cap, recycles=facility))
    return tuple(pots)


def build_network(
    g: ObligationGraph,
    budget: int | None = None,
    seed: int | None = None,
    ledger: Ledger | None = None,
) -> FlowNetwork:
    """Lower an obligation graph to the solver's flow network.

    Obligation arcs carry the aggregated amounts at unit cost -1; liquidity
    arcs carry converted unit-of-account capacities at cost 0, grouped into
    per-currency stages. Every tender arc carries its declared cap. A payer
    that ``ledger`` may leave short, and every credit-line facility, draws
    through a pot (``stage_pots``), so any flow of the network overdraws
    nobody, and a facility's acceptances may feed its own pot again. The
    budget caps the flow out of S, that is new money.

    ``seed`` deterministically permutes arc order, selecting among equally
    optimal solutions; without it, order is lexicographic.
    """
    if budget is not None:
        as_quantity(budget)
    rng = random.Random(seed) if seed is not None else None

    firm_nodes: set[AgentId] = set()
    for debtor, creditor in g.edges:
        firm_nodes.update((debtor, creditor))
    firm_nodes.update(e.sender for e in g.tender_edges)
    firm_nodes.update(e.origin for e in g.acceptance_edges)
    nodes = tuple(sorted(firm_nodes))
    node_index = {a: i for i, a in enumerate(nodes)}

    ob_arcs = [
        ObArc(
            tail=node_index[edge.debtor],
            head=node_index[edge.creditor],
            cap=edge.amount,
            debtor=edge.debtor,
            creditor=edge.creditor,
        )
        for _, edge in sorted(g.edges.items())
    ]
    if rng is not None:
        rng.shuffle(ob_arcs)

    by_currency: dict[str, tuple[list[TenderEdge], list[AcceptanceEdge]]] = {}
    for te in g.tender_edges:
        by_currency.setdefault(te.currency, ([], []))[0].append(te)
    for ae in g.acceptance_edges:
        by_currency.setdefault(ae.currency, ([], []))[1].append(ae)

    min_prices = stage_min_prices(g.tender_edges)
    stages = []
    for currency in sorted(by_currency):
        tender_edges, accept_edges = by_currency[currency]
        pots = stage_pots(tender_edges, g.pool.issuer_of(currency), ledger)
        pot_of = {pot.payer: k for k, pot in enumerate(pots)}
        tender_arcs = [
            TenderArc(node=node_index[te.sender], cap=te.cap, edge=te, pot=pot_of.get(te.payer))
            for te in tender_edges
        ]
        recycling = {pot.payer: k for k, pot in enumerate(pots) if pot.recycles}
        accept_arcs = [
            AcceptArc(
                node=node_index[ae.origin],
                cap=accept_cap(ae, g.unit, min_prices),
                edge=ae,
                pot=recycling.get(ae.origin),
            )
            for ae in accept_edges
        ]
        if rng is not None:
            rng.shuffle(tender_arcs)
            rng.shuffle(accept_arcs)
        stages.append(
            Stage(
                currency=currency,
                tender_arcs=tuple(tender_arcs),
                accept_arcs=tuple(accept_arcs),
                pots=pots,
            )
        )

    return FlowNetwork(
        unit=g.unit,
        nodes=nodes,
        ob_arcs=tuple(ob_arcs),
        stages=tuple(stages),
        budget=budget,
        graph=g,
    )


def dump_graph(g: ObligationGraph) -> str:
    """Debug dump, one edge per line; stable across runs for fixtures.

    Lines: ``unit <code>``, ``ob <debtor> <creditor> <amount>``,
    ``tender <id> <sender> <issuer> <kind> <currency> <max> <price|->``,
    ``accept <edge-id> <origin> <issuer> <currency> <limit|inf>``.
    """
    lines = [f"unit {g.unit}"]
    for _, edge in sorted(g.edges.items()):
        lines.append(f"ob {edge.debtor} {edge.creditor} {edge.amount}")
    for te in g.tender_edges:
        price = "-" if te.price is None else str(te.price)
        lines.append(
            f"tender {te.tender_id} {te.sender} {te.issuer} {te.kind.value}"
            f" {te.currency} {te.max_amount} {price}"
        )
    for ae in g.acceptance_edges:
        limit = "inf" if ae.limit is None else str(ae.limit)
        lines.append(
            f"accept {ae.edge_id} {ae.origin} {ae.issuer} {ae.currency} {limit}"
        )
    return "\n".join(lines) + "\n"
