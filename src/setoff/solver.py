"""Clearing solver: maximum debt discharge at minimum liquidity.

Obligation arcs cost -1 per unit and everything else costs 0, so a min-cost
flow is exactly a maximum-discharge settlement, and liquidity is only ever
injected along paths that clear at least as much debt as they spend.

``cancel_cycles`` computes the pure set-off component (no liquidity), and
``solve`` adds the budgeted chains on top of it and renders the result as a
settlement flow with paired records and direct transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection

from . import kernel
from .graph import (
    FlowNetwork,
    ObligationGraph,
    build_network,
    floor_div_price,
    floor_mul_price,
)
from .model import AgentId, Ledger, SettlementFlow, SettlementRecord, Transfer
from .validate import balance_violations


@dataclass(frozen=True)
class FlowSolution:
    """Solver-level view of a flow, before record decomposition.

    ``arc_flows`` is keyed by ``ob:<debtor>><creditor>`` for aggregated
    obligation arcs and by intent/edge id for liquidity arcs; zero flows are
    omitted.
    """

    arc_flows: dict[str, int]
    cleared_debt: int
    liquidity_used: dict[str, int]


def _ob_key(debtor: str, creditor: str) -> str:
    return f"ob:{debtor}>{creditor}"


def cancel_cycles(net: FlowNetwork) -> FlowSolution:
    """Maximum set-off achievable with zero liquidity.

    Every negative-cost residual cycle is eliminated; the resulting flow is
    balanced at every node, so net positions are untouched.
    """
    obligations = [(a.tail, a.head, a.cap) for a in net.ob_arcs]
    cycle_ob = kernel.solve_min_cost(len(net.nodes), obligations, [], None)[0]
    arc_flows = {
        _ob_key(a.debtor, a.creditor): f
        for a, f in zip(net.ob_arcs, cycle_ob)
        if f
    }
    return FlowSolution(
        arc_flows=arc_flows,
        cleared_debt=sum(cycle_ob),
        liquidity_used={},
    )


def solve_network(
    net: FlowNetwork, epoch_id: int = 0, *, residual: kernel.Residual | None = None
) -> tuple[SettlementFlow, FlowSolution]:
    """Full solve on a prepared network; returns the flow and the solver view.

    ``residual`` shares kernel phase 1 with other solves over the same
    obligation arcs (see ``setoff._mincost``); it is filled on first use.
    """
    _, final_ob, tender_flow, accept_flow, stage_liquidity = kernel.solve_min_cost(
        len(net.nodes),
        [(a.tail, a.head, a.cap) for a in net.ob_arcs],
        [
            ([(a.node, a.cap) for a in stage.tender_arcs],
             [(a.node, a.cap) for a in stage.accept_arcs])
            for stage in net.stages
        ],
        net.budget,
        residual=residual,
    )
    g = net.graph
    pool = g.pool

    records: list[SettlementRecord] = []
    arc_flows: dict[str, int] = {}

    # Aggregated obligation flows split back into contributing obligations,
    # oldest due date first, then smallest id.
    flow_by_pair: dict[tuple[str, str], int] = {}
    for arc, flow in zip(net.ob_arcs, final_ob):
        if flow:
            flow_by_pair[(arc.debtor, arc.creditor)] = flow
            arc_flows[_ob_key(arc.debtor, arc.creditor)] = flow
    for pair in sorted(flow_by_pair):
        edge = g.edges[pair]
        remaining = flow_by_pair[pair]
        for ob_id in edge.obligations:
            if remaining == 0:
                break
            take = min(remaining, pool.obligations[ob_id].amount)
            remaining -= take
            records.append(SettlementRecord(edge_ref=ob_id, party=edge.debtor, amount=take))
            records.append(SettlementRecord(edge_ref=ob_id, party=edge.creditor, amount=take))

    transfers: dict[tuple[str, str, str], int] = {}
    liquidity: dict[str, int] = {}
    for stage, t_flows, a_flows, injected in zip(
        net.stages, tender_flow, accept_flow, stage_liquidity
    ):
        tender_used = [(ta.edge, f) for ta, f in zip(stage.tender_arcs, t_flows) if f]
        accept_used = [(aa.edge, f) for aa, f in zip(stage.accept_arcs, a_flows) if f]
        tender_used.sort(key=lambda item: item[0].tender_id)
        accept_used.sort(key=lambda item: item[0].edge_id)
        total_in = sum(f for _, f in tender_used)
        total_out = sum(f for _, f in accept_used)
        if total_in != total_out:
            raise AssertionError(
                f"stage {stage.currency} unbalanced: {total_in} in, {total_out} out"
            )
        if injected:
            liquidity[stage.currency] = injected
        foreign = stage.currency != net.unit

        # Pair tender inflows with acceptance outflows in order. Currency
        # conversion is cumulative per tender so the floored dust is taken
        # once, not per chunk.
        received: dict[str, int] = {}
        ti = ai = 0
        t_rem = a_rem = 0
        t_cum = t_cum_converted = 0
        while ti < len(tender_used):
            if t_rem == 0:
                t_edge, t_rem = tender_used[ti]
                t_cum = t_cum_converted = 0
                payer = t_edge.payer
            if a_rem == 0:
                a_edge, a_rem = accept_used[ai]
            chunk = min(t_rem, a_rem)
            t_cum += chunk
            converted = floor_div_price(t_cum, t_edge.price) - t_cum_converted
            t_cum_converted += converted
            received[a_edge.edge_id] = received.get(a_edge.edge_id, 0) + converted
            if converted and payer != a_edge.origin:
                key = (payer, a_edge.origin, stage.currency)
                transfers[key] = transfers.get(key, 0) + converted
            t_rem -= chunk
            a_rem -= chunk
            if t_rem == 0:
                ti += 1
            if a_rem == 0:
                ai += 1

        for t_edge, flow in tender_used:
            arc_flows[t_edge.tender_id] = flow
            currency_amount = (
                (floor_div_price(flow, t_edge.price), stage.currency) if foreign else None
            )
            records.append(
                SettlementRecord(
                    edge_ref=t_edge.tender_id,
                    party=t_edge.issuer,
                    amount=flow,
                    currency_amount=currency_amount,
                )
            )
            records.append(
                SettlementRecord(
                    edge_ref=t_edge.tender_id,
                    party=t_edge.sender,
                    amount=flow,
                    currency_amount=currency_amount,
                )
            )
        for a_edge, flow in accept_used:
            arc_flows[a_edge.edge_id] = flow
            currency_amount = (
                (received.get(a_edge.edge_id, 0), stage.currency) if foreign else None
            )
            records.append(
                SettlementRecord(
                    edge_ref=a_edge.edge_id,
                    party=a_edge.origin,
                    amount=flow,
                    currency_amount=currency_amount,
                )
            )
            records.append(
                SettlementRecord(
                    edge_ref=a_edge.edge_id,
                    party=a_edge.issuer,
                    amount=flow,
                    currency_amount=currency_amount,
                )
            )

    flow = SettlementFlow(
        epoch_id=epoch_id,
        records=tuple(records),
        transfers=tuple(
            Transfer(payer=k[0], payee=k[1], asset=k[2], amount=v)
            for k, v in transfers.items()
        ),
    )
    cleared = sum(final_ob)
    solution = FlowSolution(
        arc_flows=arc_flows,
        cleared_debt=cleared,
        liquidity_used=liquidity,
    )
    return flow, solution


def clamp_network(
    net: FlowNetwork, ledger: Ledger, payers: Collection[AgentId]
) -> FlowNetwork:
    """``net`` with the tenders of ``payers`` capped by their balances in ``ledger``.

    Assignments debit the sender's balance, overdrafts the facility's. Each
    payer and currency has one balance pot, which its tenders split in
    tender-id order rather than each seeing the whole. Each tender draws the
    least currency amount whose converted value covers its declared cap,
    not its whole ``max_amount``. Issuers are exempt; they may issue. Every
    other arc, and the arc order, stays as in ``net``.

    The clamp is conservative: a draw that exits at its own facility nets to
    nothing and needs no balance, but that is only known after routing.
    """
    drawn: dict[tuple[AgentId, str], int] = {}
    caps: dict[str, int] = {}
    for te in net.graph.tender_edges:
        payer = te.payer
        if payer not in payers or payer == te.issuer:
            continue
        # The least currency amount whose converted value covers the cap.
        want = floor_div_price(te.cap, te.price)
        if floor_mul_price(want, te.price) < te.cap:
            want += 1
        pot = (payer, te.currency)
        used = drawn.get(pot, 0)
        taken = min(want, max(0, ledger.balance(payer, te.currency)) - used)
        drawn[pot] = used + taken
        caps[te.tender_id] = min(te.cap, floor_mul_price(taken, te.price))
    stages = tuple(
        replace(
            stage,
            tender_arcs=tuple(
                replace(a, cap=caps.get(a.edge.tender_id, a.edge.cap))
                for a in stage.tender_arcs
            ),
        )
        for stage in net.stages
    )
    return replace(net, stages=stages)


def solve_settleable(
    g: ObligationGraph,
    budget: int | None,
    ledger: Ledger,
    *,
    epoch_id: int = 0,
    seed: int | None = None,
) -> tuple[SettlementFlow, FlowSolution]:
    """Solve so the result can be applied to ``ledger`` as-is.

    The graph is lowered once. The first round runs on declared capacities
    alone: transfers net out wherever a draw exits at its own payer, so
    balances often do not bind (a credit line can clear a cycle through the
    lender with no assets at all). If that flow would overdraw someone, the
    overdrawn payers join the clamp set, ``clamp_network`` re-caps their
    tenders on the lowered network, starting from the declared caps, and
    the solve repeats; tenders that turned out to need no assets keep their
    declared capacity. Rounds ask only the balance check; ``apply_flow``
    runs all five on the flow that is settled.

    The rounds end when the balance check names no payer outside the clamp
    set, and that round's flow is returned. On a ledger where every
    non-issuer balance is non-negative, no clamped payer is ever named: its
    tenders draw their covering amounts from one balance pot, so its
    transfers cannot overdraw it, and an agent that pays nothing only
    receives. So each round adds a payer, and the last overdraws nobody. On
    a ledger that already overdraws a non-issuer, the returned flow still
    overdraws it, and ``apply_flow`` refuses it.

    A round changes only tender capacities: nodes, obligation arcs and the
    seeded arc order are the same every time. So kernel phase 1 runs once,
    and every round starts phase 2 from its residual.
    """
    net = declared = build_network(g, budget=budget, seed=seed)
    residual = kernel.Residual()
    clamped: frozenset[AgentId] = frozenset()
    while True:
        flow, solution = solve_network(net, epoch_id=epoch_id, residual=residual)
        offenders = {v.ids[0] for v in balance_violations(g.pool, flow, ledger)}
        if offenders <= clamped:
            return flow, solution
        clamped = clamped | offenders
        net = clamp_network(declared, ledger, clamped)


def solve(
    g: ObligationGraph,
    budget: int | None = None,
    *,
    ledger: Ledger | None = None,
    epoch_id: int = 0,
    seed: int | None = None,
) -> SettlementFlow:
    """Clear an obligation graph: set-off cycles first, then budgeted chains.

    When ``ledger`` is given, the output is settleable against it as-is.
    ``seed`` picks deterministically among equally optimal flows.
    """
    if ledger is not None:
        flow, _ = solve_settleable(g, budget, ledger, epoch_id=epoch_id, seed=seed)
        return flow
    net = build_network(g, budget=budget, seed=seed)
    flow, _ = solve_network(net, epoch_id=epoch_id)
    return flow
