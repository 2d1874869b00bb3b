"""Settlement flow validity.

A flow may only be applied if it passes five checks, run in order:

1. Ascertainment: every referenced intent carries a verifiable commitment.
2. SubsetFlow: amounts are positive and fit within the referenced edges.
3. BalancedFlow: every firm receives exactly as much as it pays.
4. PairedRecords: every edge settles with one matching record per party.
5. NonNegativeBalance: applying the transfers overdraws nobody but issuers.

Checks 2 and 3 read one rule. On each edge one endpoint pays and one
receives: an obligation's debtor pays its creditor, a tender's sender
receives, and a deposit acceptance's origin pays; the issuer end of a tender
or acceptance stays outside firm balances. A party's flow on an edge is the
sum of its records there, halved when both endpoints are one party.

The first failing check stops the run, since later checks assume the earlier
ones hold. Edge capacities are re-derived here from the raw pool intents,
through the resolvers aggregation uses, not read back from the aggregated
graph, so a corrupted flow cannot smuggle amounts past the caps by targeting
aggregation output.

``settle.apply_flow`` runs all five checks on every flow it settles, once
per epoch. The solver asks none of them: ``build_network`` bounds each
payer's new money by its balance, so the flow it returns needs no retry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import (
    DEFAULT_ACCEPT_PREFIX,
    EpochPool,
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
    """One settleable edge: its record parties and unit-of-account capacity.

    ``payer`` and ``payee`` are the firms that pay and receive its flow; an
    issuer end is None.
    """

    endpoints: tuple[AgentId, AgentId]
    payer: AgentId | None
    payee: AgentId | None
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
    pool: EpochPool,
    nodes: set[AgentId],
    ref: str,
    min_prices: dict[str, Fraction],
) -> _EdgeSpec | str:
    """The edge a record reference settles, or why it settles none."""
    ob = pool.obligations.get(ref)
    if ob is not None:
        if ob.unit != pool.unit:
            return f"obligation unit {ob.unit} is not the epoch unit {pool.unit}"
        return _EdgeSpec((ob.debtor, ob.creditor), ob.debtor, ob.creditor, ob.amount)

    tender = pool.tenders.get(ref)
    if tender is not None:
        te = resolve_tender(pool, tender)
        if isinstance(te, str):
            return te
        # The declared economic cap only. Whether the payer can fund the
        # transfers is NonNegativeBalance's job: a draw that exits at its own
        # facility needs no assets at all.
        return _EdgeSpec((te.issuer, te.sender), None, te.sender, te.cap)

    acc = pool.acceptances.get(ref)
    if acc is not None:
        if acc.kind is not AcceptanceKind.DEPOSIT:
            return "repayment acceptances carry no settlement flow"
        ae = resolve_deposit(pool, acc)
        if isinstance(ae, str):
            return ae
        cap = accept_cap(ae, pool.unit, min_prices)
        return _EdgeSpec((ae.origin, ae.issuer), ae.origin, None, cap)

    if ref.startswith(DEFAULT_ACCEPT_PREFIX):
        agent = ref[len(DEFAULT_ACCEPT_PREFIX):]
        if pool.default_source is None:
            return "no default liquidity source is configured"
        if pool.asset_of(agent) is not None:
            return f"issuer {agent} holds no default acceptance"
        if agent not in nodes:
            return f"{agent} is not part of the obligation graph"
        return _EdgeSpec((agent, pool.default_source), agent, None, None)

    return "unknown edge reference"


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
    nodes = set(g.nodes)
    specs: dict[str, _EdgeSpec] = {}
    for ref in sorted(refs):
        spec = _resolve_ref(pool, nodes, ref, min_prices)
        if isinstance(spec, str):
            violations.append(Violation("SubsetFlow", (ref,), spec))
        else:
            specs[ref] = spec
    flows: dict[str, dict[AgentId, int]] = {}  # each party's flow per reference
    for ref in sorted(refs):
        if any(rec.amount <= 0 for rec in refs[ref]):
            violations.append(
                Violation("SubsetFlow", (ref,), "record amounts must be positive")
            )
            continue
        spec = specs.get(ref)
        if spec is None:
            continue
        sums: dict[AgentId, int] = {}
        for rec in refs[ref]:
            sums[rec.party] = sums.get(rec.party, 0) + rec.amount
        if spec.endpoints[0] == spec.endpoints[1]:
            # An issuer tendering its own currency, or taking deposits of it:
            # both records of the pair name it for one flow.
            sums = {party: total // 2 for party, total in sums.items()}
        flows[ref] = sums
        if spec.cap is not None and max(sums.values()) > spec.cap:
            over = min(party for party, amount in sums.items() if amount > spec.cap)
            detail = f"flow {sums[over]} exceeds capacity {spec.cap}"
            violations.append(Violation("SubsetFlow", (ref,), detail))
    if violations:
        return _fail("SubsetFlow", violations)

    # 3. BalancedFlow
    inflow: dict[AgentId, int] = {}
    outflow: dict[AgentId, int] = {}
    for ref, spec in specs.items():
        for agent, totals in ((spec.payer, outflow), (spec.payee, inflow)):
            if agent is not None:
                totals[agent] = totals.get(agent, 0) + flows[ref].get(agent, 0)
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

    # 5. NonNegativeBalance: transfers are positive and overdraw nobody but
    # the asset's issuer.
    if ledger is None:
        return _VALID
    deltas: dict[tuple[AgentId, str], int] = {}
    for tr in f.transfers:
        if tr.amount <= 0:
            detail = "transfer amounts must be positive"
            violations.append(Violation("NonNegativeBalance", (tr.payer, tr.payee), detail))
            continue
        deltas[(tr.payer, tr.asset)] = deltas.get((tr.payer, tr.asset), 0) - tr.amount
        deltas[(tr.payee, tr.asset)] = deltas.get((tr.payee, tr.asset), 0) + tr.amount
    for (agent, asset), delta in sorted(deltas.items()):
        end = ledger.balance(agent, asset) + delta
        if end < 0 and pool.issuer_of(asset) != agent:  # issuers may run negative
            detail = f"balance in {asset} would end at {end}"
            violations.append(Violation("NonNegativeBalance", (agent,), detail))
    if violations:
        return _fail("NonNegativeBalance", violations)
    return _VALID
