"""Clearing solver: maximum debt discharge at minimum liquidity.

Obligation arcs cost -1 per unit and everything else costs 0, so a min-cost
flow is exactly a maximum-discharge settlement, and liquidity is only ever
injected along paths that clear at least as much debt as they spend.

``cancel_cycles`` computes the pure set-off component (no liquidity), and
``solve`` adds the budgeted chains on top of it and renders the result as a
settlement flow with paired records and direct transfers. Given a ledger,
``build_network`` bounds each payer's new money by its balance in the
network itself, so one solve gives a flow that overdraws nobody.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import kernel
from .graph import (
    AcceptanceEdge,
    FlowNetwork,
    ObligationGraph,
    TenderEdge,
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


def _pair(
    tenders: list[list], accepts: list[list]
) -> Iterator[tuple[TenderEdge, AcceptanceEdge, int]]:
    """Match ``[edge, flow]`` items in order until either list runs out.

    Yields (tender edge, acceptance edge, amount) chunks, and takes each
    chunk off both items' flows in place.
    """
    ti = ai = 0
    while ti < len(tenders) and ai < len(accepts):
        t, a = tenders[ti], accepts[ai]
        chunk = min(t[1], a[1])
        if chunk:
            yield t[0], a[0], chunk
            t[1] -= chunk
            a[1] -= chunk
        ti += t[1] == 0
        ai += a[1] == 0


def solve_network(net: FlowNetwork, epoch_id: int = 0) -> tuple[SettlementFlow, FlowSolution]:
    """Full solve on a prepared network; returns the flow and the solver view.

    ``liquidity_used`` is the new money per currency: the flow out of S.
    """
    _, final_ob, tender_flow, accept_flow, stage_liquidity = kernel.solve_min_cost(
        len(net.nodes),
        [(a.tail, a.head, a.cap) for a in net.ob_arcs],
        [
            ([(a.node, a.cap, a.pot) for a in stage.tender_arcs],
             [(a.node, a.cap, a.pot) for a in stage.accept_arcs],
             [pot.cap for pot in stage.pots])
            for stage in net.stages
        ],
        net.budget,
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

        # Each agent's own acceptances take its own tenders first; that moves
        # no currency, and it is where a facility's recycled receipts go. The
        # rest pair in id order. Conversion is cumulative per tender, and the
        # part paid to others converts first, starting from zero, so a payer
        # pays sum floor(n_i / p_i) over its tenders' flows n_i to others,
        # which its pot keeps within its balance.
        t_left = [[e, f] for e, f in tender_used]
        a_left = [[e, f] for e, f in accept_used]
        own_t: dict[AgentId, list[list]] = {}
        own_a: dict[AgentId, list[list]] = {}
        for item in t_left:
            own_t.setdefault(item[0].payer, []).append(item)
        for item in a_left:
            own_a.setdefault(item[0].origin, []).append(item)
        self_pairs = [
            chunk
            for agent in sorted(own_t.keys() & own_a.keys())
            for chunk in _pair(own_t[agent], own_a[agent])
        ]
        received: dict[str, int] = {}
        cum: dict[str, tuple[int, int]] = {}  # tender id -> (flow, converted) so far
        for t_edge, a_edge, chunk in (*_pair(t_left, a_left), *self_pairs):
            flow_so_far, converted_so_far = cum.get(t_edge.tender_id, (0, 0))
            flow_so_far += chunk
            converted = floor_div_price(flow_so_far, t_edge.price) - converted_so_far
            cum[t_edge.tender_id] = (flow_so_far, converted_so_far + converted)
            received[a_edge.edge_id] = received.get(a_edge.edge_id, 0) + converted
            if converted and t_edge.payer != a_edge.origin:
                key = (t_edge.payer, a_edge.origin, stage.currency)
                transfers[key] = transfers.get(key, 0) + converted

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


def solve_settleable(
    g: ObligationGraph,
    budget: int | None,
    ledger: Ledger,
    *,
    epoch_id: int = 0,
    seed: int | None = None,
) -> tuple[SettlementFlow, FlowSolution]:
    """Solve so the result can be applied to ``ledger`` as-is.

    One lowering and one kernel call. ``build_network`` gives every payer
    whose balance can bind a pot capped by that balance, and every
    credit-line facility a pot its own receipts feed back, so no flow of
    the network overdraws a payer and the kernel's optimum is the most debt
    a settleable flow clears. A ledger that already overdraws a non-issuer
    still overdraws it, and ``apply_flow``, which runs all five checks,
    refuses that flow.
    """
    net = build_network(g, budget=budget, seed=seed, ledger=ledger)
    return solve_network(net, epoch_id=epoch_id)


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
    net = build_network(g, budget=budget, seed=seed, ledger=ledger)
    flow, _ = solve_network(net, epoch_id=epoch_id)
    return flow
