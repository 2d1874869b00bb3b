"""Settlement flow validity.

A flow may only be applied if it passes five checks, run in order:

1. Ascertainment: every referenced intent carries a verifiable commitment.
2. SubsetFlow: amounts are positive and fit within the referenced edges.
3. BalancedFlow: every firm receives exactly as much as it pays.
4. PairedRecords: every edge settles with one matching record per party.
5. NonNegativeBalance: applying the transfers overdraws nobody but issuers.

The first failing check stops the run, since later checks assume the earlier
ones hold. Edge capacities are re-derived here from the raw pool intents,
through the resolvers aggregation uses, not read back from the aggregated
graph, so a corrupted flow cannot smuggle amounts past the caps by targeting
aggregation output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import (
    DEFAULT_ACCEPT_PREFIX,
    ObligationGraph,
    accept_cap,
    resolve_deposit,
    resolve_tender,
    stage_min_prices,
)
from .model import AcceptanceKind, AgentId, Ledger, SettlementFlow

CHECKS = (
    "Ascertainment",
    "SubsetFlow",
    "BalancedFlow",
    "PairedRecords",
    "NonNegativeBalance",
)


@dataclass(frozen=True)
class Violation:
    check: str
    ids: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.check}[{','.join(self.ids)}]: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


_VALID = ValidationReport(ok=True, violations=())


def _fail(check: str, violations: list[Violation]) -> ValidationReport:
    assert all(v.check == check for v in violations)
    return ValidationReport(ok=False, violations=tuple(violations))


@dataclass(frozen=True)
class _EdgeSpec:
    """One settleable edge: its record parties and unit-of-account capacity."""

    kind: str  # "obligation" | "tender" | "acceptance"
    endpoints: tuple[AgentId, AgentId]  # obligation: (debtor, creditor);
    # tender: (issuer, sender); acceptance: (origin, issuer)
    cap: int | None  # None = unlimited


def _stage_min_prices(pool) -> dict[str, Fraction]:
    # Lowest prices among the pool's admissible tenders: finite foreign
    # acceptance limits convert at them, as in network construction.
    priced = (
        resolve_tender(pool, t)
        for t in pool.tenders.values()
        if t.price is not None and pool.is_ascertained(t)
    )
    return stage_min_prices(te for te in priced if not isinstance(te, str))


def _resolve_ref(
    g: ObligationGraph,
    ref: str,
    min_prices: dict[str, Fraction],
) -> tuple[_EdgeSpec | None, str | None]:
    pool = g.pool

    ob = pool.obligations.get(ref)
    if ob is not None:
        if ob.unit != pool.unit:
            return None, f"obligation unit {ob.unit} is not the epoch unit {pool.unit}"
        return _EdgeSpec("obligation", (ob.debtor, ob.creditor), ob.amount), None

    tender = pool.tenders.get(ref)
    if tender is not None:
        te = resolve_tender(pool, tender)
        if isinstance(te, str):
            return None, te
        # The declared economic cap only. Whether the payer can fund the
        # transfers is NonNegativeBalance's job: a draw that exits at its own
        # facility needs no assets at all.
        return _EdgeSpec("tender", (te.issuer, te.sender), te.cap), None

    acc = pool.acceptances.get(ref)
    if acc is not None:
        if acc.kind is not AcceptanceKind.DEPOSIT:
            return None, "repayment acceptances carry no settlement flow"
        ae = resolve_deposit(pool, acc)
        if isinstance(ae, str):
            return None, ae
        cap = accept_cap(ae, pool.unit, min_prices)
        return _EdgeSpec("acceptance", (ae.origin, ae.issuer), cap), None

    if ref.startswith(DEFAULT_ACCEPT_PREFIX):
        agent = ref[len(DEFAULT_ACCEPT_PREFIX):]
        if pool.default_source is None:
            return None, "no default liquidity source is configured"
        if agent in set(pool.currencies.values()):
            return None, f"issuer {agent} holds no default acceptance"
        if agent not in g.nodes:
            return None, f"{agent} is not part of the obligation graph"
        return _EdgeSpec("acceptance", (agent, pool.default_source), None), None

    return None, "unknown edge reference"


def is_valid_flow(
    g: ObligationGraph,
    f: SettlementFlow,
    ledger: Ledger | None = None,
) -> ValidationReport:
    """Run the five validity checks against a graph and optional ledger.

    The ledger feeds only the final NonNegativeBalance simulation; without
    one that check is skipped, the mode used when exploring flows that will
    never be applied.
    """
    pool = g.pool
    refs: dict[str, list] = {}
    for rec in f.records:
        refs.setdefault(rec.edge_ref, []).append(rec)

    # 1. Ascertainment
    violations = []
    for ref in sorted(refs):
        intent = pool.get(ref)
        if intent is not None and not pool.is_ascertained(intent):
            violations.append(
                Violation("Ascertainment", (ref,), "intent is not ascertained")
            )
    if violations:
        return _fail("Ascertainment", violations)

    # 2. SubsetFlow
    min_prices = _stage_min_prices(pool)
    specs: dict[str, _EdgeSpec] = {}
    for ref in sorted(refs):
        spec, err = _resolve_ref(g, ref, min_prices)
        if spec is None:
            violations.append(Violation("SubsetFlow", (ref,), err or "unresolvable"))
        else:
            specs[ref] = spec
    for ref in sorted(refs):
        recs = refs[ref]
        if any(rec.amount <= 0 for rec in recs):
            violations.append(
                Violation("SubsetFlow", (ref,), "record amounts must be positive")
            )
            continue
        spec = specs.get(ref)
        if spec is None or spec.cap is None:
            continue
        by_party: dict[AgentId, int] = {}
        for rec in recs:
            by_party[rec.party] = by_party.get(rec.party, 0) + rec.amount
        # When an edge's endpoints coincide, the pair of records lands on one
        # party, so its sum counts the flow twice.
        self_pair = spec.endpoints[0] == spec.endpoints[1]
        for party in sorted(by_party):
            amount = by_party[party] // 2 if self_pair else by_party[party]
            if amount > spec.cap:
                violations.append(
                    Violation(
                        "SubsetFlow",
                        (ref,),
                        f"flow {amount} exceeds capacity {spec.cap}",
                    )
                )
                break
    if violations:
        return _fail("SubsetFlow", violations)

    # 3. BalancedFlow
    inflow: dict[AgentId, int] = {}
    outflow: dict[AgentId, int] = {}
    for ref, recs in refs.items():
        spec = specs[ref]
        if spec.kind == "obligation":
            debtor, creditor = spec.endpoints
            for rec in recs:
                if rec.party == debtor:
                    outflow[debtor] = outflow.get(debtor, 0) + rec.amount
                elif rec.party == creditor:
                    inflow[creditor] = inflow.get(creditor, 0) + rec.amount
        elif spec.kind == "tender":
            issuer, sender = spec.endpoints
            if issuer == sender:
                # An issuer tendering its own currency: the pair of records
                # describes a single inflow at the firm role.
                total = sum(rec.amount for rec in recs if rec.party == sender)
                inflow[sender] = inflow.get(sender, 0) + total // 2
            else:
                for rec in recs:
                    if rec.party == sender:
                        inflow[sender] = inflow.get(sender, 0) + rec.amount
        else:
            origin, acc_issuer = spec.endpoints
            if origin == acc_issuer:
                # The issuer taking deposits of its own currency: one outflow
                # at the firm role, described by the record pair.
                total = sum(rec.amount for rec in recs if rec.party == origin)
                outflow[origin] = outflow.get(origin, 0) + total // 2
            else:
                for rec in recs:
                    if rec.party == origin:
                        outflow[origin] = outflow.get(origin, 0) + rec.amount
    for agent in sorted(set(inflow) | set(outflow)):
        got, paid = inflow.get(agent, 0), outflow.get(agent, 0)
        if got != paid:
            violations.append(
                Violation(
                    "BalancedFlow", (agent,), f"receives {got} but pays {paid}"
                )
            )
    if violations:
        return _fail("BalancedFlow", violations)

    # 4. PairedRecords
    for ref in sorted(refs):
        recs = refs[ref]
        spec = specs[ref]
        if len(recs) != 2:
            violations.append(
                Violation(
                    "PairedRecords", (ref,), f"expected 2 records, found {len(recs)}"
                )
            )
            continue
        a, b = recs
        if a.amount != b.amount:
            violations.append(
                Violation("PairedRecords", (ref,), "paired records disagree on amount")
            )
        elif a.currency_amount != b.currency_amount:
            violations.append(
                Violation(
                    "PairedRecords",
                    (ref,),
                    "paired records disagree on currency amount",
                )
            )
        if sorted((a.party, b.party)) != sorted(spec.endpoints):
            violations.append(
                Violation(
                    "PairedRecords",
                    (ref,),
                    f"record parties {sorted((a.party, b.party))} are not the"
                    f" edge parties {sorted(spec.endpoints)}",
                )
            )
    if violations:
        return _fail("PairedRecords", violations)

    # 5. NonNegativeBalance
    if ledger is not None:
        deltas: dict[tuple[AgentId, str], int] = {}
        for tr in f.transfers:
            if tr.amount <= 0:
                violations.append(
                    Violation(
                        "NonNegativeBalance",
                        (tr.payer, tr.payee),
                        "transfer amounts must be positive",
                    )
                )
                continue
            deltas[(tr.payer, tr.asset)] = deltas.get((tr.payer, tr.asset), 0) - tr.amount
            deltas[(tr.payee, tr.asset)] = deltas.get((tr.payee, tr.asset), 0) + tr.amount
        for (agent, asset), delta in sorted(deltas.items()):
            if pool.issuer_of(asset) == agent:
                continue  # issuers may run negative: they issue
            end = ledger.balance(agent, asset) + delta
            if end < 0:
                violations.append(
                    Violation(
                        "NonNegativeBalance",
                        (agent,),
                        f"balance in {asset} would end at {end}",
                    )
                )
        if violations:
            return _fail("NonNegativeBalance", violations)

    return _VALID
