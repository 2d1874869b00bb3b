"""Clearing solver: maximum debt discharge at minimum liquidity.

Obligation arcs cost -1 per unit and everything else costs 0, so a min-cost
flow is exactly a maximum-discharge settlement, and liquidity is only ever
injected along paths that clear at least as much debt as they spend.

``cancel_cycles`` computes the pure set-off component (no liquidity), and
``solve`` adds the budgeted chains on top of it and renders the result as a
settlement flow with paired records and direct transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import kernel
from .graph import (
    FlowNetwork,
    ObligationGraph,
    build_network,
    floor_div_price,
)
from .model import AgentId, Ledger, SettlementFlow, SettlementRecord, Transfer


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


class _KernelRun(NamedTuple):
    cycle_ob: list[int]
    final_ob: list[int]
    tender: list[int]
    accept: list[int]
    stage_liquidity: list[int]


def _run_kernel(
    net: FlowNetwork, with_stages: bool, residual: kernel.Residual | None = None
) -> _KernelRun:
    ob_tail = [a.tail for a in net.ob_arcs]
    ob_head = [a.head for a in net.ob_arcs]
    ob_cap = [a.cap for a in net.ob_arcs]
    t_ptr, t_node, t_cap = [0], [], []
    a_ptr, a_node, a_cap = [0], [], []
    if with_stages:
        for stage in net.stages:
            for ta in stage.tender_arcs:
                t_node.append(ta.node)
                t_cap.append(ta.cap)
            t_ptr.append(len(t_node))
            for aa in stage.accept_arcs:
                a_node.append(aa.node)
                a_cap.append(-1 if aa.cap is None else aa.cap)
            a_ptr.append(len(a_node))
    budget = -1 if net.budget is None else net.budget
    out = kernel.solve_min_cost(
        len(net.nodes),
        ob_tail, ob_head, ob_cap,
        t_ptr, t_node, t_cap,
        a_ptr, a_node, a_cap,
        budget,
        residual=residual,
    )
    return _KernelRun(*out)


def _ob_key(debtor: str, creditor: str) -> str:
    return f"ob:{debtor}>{creditor}"


def cancel_cycles(net: FlowNetwork) -> FlowSolution:
    """Maximum set-off achievable with zero liquidity.

    Every negative-cost residual cycle is eliminated; the resulting flow is
    balanced at every node, so net positions are untouched.
    """
    run = _run_kernel(net, with_stages=False)
    arc_flows = {
        _ob_key(a.debtor, a.creditor): f
        for a, f in zip(net.ob_arcs, run.cycle_ob)
        if f
    }
    cleared = sum(run.cycle_ob)
    return FlowSolution(
        arc_flows=arc_flows,
        cleared_debt=cleared,
        liquidity_used={},
    )


def solve_network(
    net: FlowNetwork, epoch_id: int = 0, *, residual: kernel.Residual | None = None
) -> tuple[SettlementFlow, FlowSolution]:
    """Full solve on a prepared network; returns the flow and the solver view.

    ``residual`` shares kernel phase 1 with other solves over the same
    obligation arcs (see ``setoff._mincost``); it is filled on first use.
    """
    run = _run_kernel(net, with_stages=True, residual=residual)
    g = net.graph
    pool = g.pool

    records: list[SettlementRecord] = []
    arc_flows: dict[str, int] = {}

    # Aggregated obligation flows split back into contributing obligations,
    # oldest due date first, then smallest id.
    flow_by_pair: dict[tuple[str, str], int] = {}
    for arc, flow in zip(net.ob_arcs, run.final_ob):
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
    t_at = a_at = 0
    for s, stage in enumerate(net.stages):
        tender_used = []
        for ta in stage.tender_arcs:
            if run.tender[t_at]:
                tender_used.append((ta.edge, run.tender[t_at]))
            t_at += 1
        accept_used = []
        for aa in stage.accept_arcs:
            if run.accept[a_at]:
                accept_used.append((aa.edge, run.accept[a_at]))
            a_at += 1
        tender_used.sort(key=lambda item: item[0].tender_id)
        accept_used.sort(key=lambda item: item[0].edge_id)
        total_in = sum(f for _, f in tender_used)
        total_out = sum(f for _, f in accept_used)
        if total_in != total_out:
            raise AssertionError(
                f"stage {stage.currency} unbalanced: {total_in} in, {total_out} out"
            )
        if run.stage_liquidity[s]:
            liquidity[stage.currency] = run.stage_liquidity[s]
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
    cleared = sum(run.final_ob)
    solution = FlowSolution(
        arc_flows=arc_flows,
        cleared_debt=cleared,
        liquidity_used=liquidity,
    )
    return flow, solution


def solve_settleable(
    g: ObligationGraph,
    budget: int | None,
    ledger: Ledger,
    *,
    epoch_id: int = 0,
    seed: int | None = None,
) -> tuple[SettlementFlow, FlowSolution]:
    """Solve so the result can be applied to ``ledger`` as-is.

    The first pass runs on declared capacities alone: transfers net out
    wherever a draw exits at its own payer, so balances often do not bind
    (a credit line can clear a cycle through the lender with no assets at
    all). If that flow would overdraw someone, only the overdrawn payers'
    tenders are clamped to their balances and the solve repeats; tenders
    that turned out to need no assets keep their declared capacity. Each
    round either validates or adds a payer to the clamp set, so the loop
    ends; clamping everyone is the last resort.

    A round changes only tender capacities: nodes, obligation arcs and their
    seeded order are the same every time. So kernel phase 1 runs once, and
    every round starts phase 2 from its residual.
    """
    from .validate import is_valid_flow

    residual = kernel.Residual()
    net = build_network(g, budget=budget, seed=seed)
    flow, solution = solve_network(net, epoch_id=epoch_id, residual=residual)
    report = is_valid_flow(g, flow, ledger)

    clamped: set[AgentId] = set()
    while not report.ok:
        offenders = {
            v.ids[0]
            for v in report.violations
            if v.check == "NonNegativeBalance" and v.ids
        }
        if not offenders or offenders <= clamped:
            break
        clamped |= offenders
        net = build_network(
            g, budget=budget, ledger=ledger, seed=seed, clamp_payers=clamped
        )
        flow, solution = solve_network(net, epoch_id=epoch_id, residual=residual)
        report = is_valid_flow(g, flow, ledger)

    if report.ok or not any(
        v.check == "NonNegativeBalance" for v in report.violations
    ):
        return flow, solution
    net = build_network(g, budget=budget, ledger=ledger, seed=seed)
    return solve_network(net, epoch_id=epoch_id, residual=residual)


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
