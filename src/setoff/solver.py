"""Clearing solver: maximum debt discharge at minimum liquidity.

Obligation arcs cost -1 per unit and everything else costs 0, so a min-cost
flow is exactly a maximum-discharge settlement, and liquidity is only ever
injected along paths that clear at least as much debt as they spend.

``cancel_cycles`` computes the pure set-off component (no liquidity) on its
own. ``solve_settleable`` makes one kernel call, whose phase 1 cancels the
cycles and whose phase 2 adds the budgeted chains, and ``solve_network``
renders the result as a settlement flow with paired records and direct
transfers. Given a ledger, ``build_network`` bounds each payer's new money
by its balance in the network itself, so one solve gives a flow that
overdraws nobody.
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
    """The totals of a flow; its per-edge amounts are the flow's records."""

    cleared_debt: int
    liquidity_used: dict[str, int]


def cancel_cycles(net: FlowNetwork) -> dict[tuple[AgentId, AgentId], int]:
    """Maximum set-off achievable with zero liquidity, per (debtor, creditor).

    Every negative-cost residual cycle is eliminated; the resulting flow is
    balanced at every node, so net positions are untouched. Zero flows are
    omitted.
    """
    obligations = [(a.tail, a.head, a.cap) for a in net.ob_arcs]
    cycle_ob = kernel.solve_min_cost(len(net.nodes), obligations, [], None)[0]
    return {(a.debtor, a.creditor): f for a, f in zip(net.ob_arcs, cycle_ob) if f}


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


def _record_pair(
    edge_ref: str, first: AgentId, second: AgentId, amount: int,
    currency_amount: tuple[int, str] | None = None,
) -> tuple[SettlementRecord, SettlementRecord]:
    """The two records of one settled edge, one per party, in that order."""
    return (
        SettlementRecord(edge_ref, first, amount, currency_amount),
        SettlementRecord(edge_ref, second, amount, currency_amount),
    )


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

    # Aggregated obligation flows split back into contributing obligations,
    # oldest due date first, then smallest id.
    flow_by_pair: dict[tuple[str, str], int] = {}
    for arc, flow in zip(net.ob_arcs, final_ob):
        if flow:
            flow_by_pair[(arc.debtor, arc.creditor)] = flow
    for pair in sorted(flow_by_pair):
        edge = g.edges[pair]
        remaining = flow_by_pair[pair]
        for ob_id in edge.obligations:
            if remaining == 0:
                break
            take = min(remaining, pool.obligations[ob_id].amount)
            remaining -= take
            records += _record_pair(ob_id, edge.debtor, edge.creditor, take)

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
            moved = (floor_div_price(flow, t_edge.price), stage.currency) if foreign else None
            records += _record_pair(t_edge.tender_id, t_edge.issuer, t_edge.sender, flow, moved)
        for a_edge, flow in accept_used:
            moved = (received.get(a_edge.edge_id, 0), stage.currency) if foreign else None
            records += _record_pair(a_edge.edge_id, a_edge.origin, a_edge.issuer, flow, moved)

    flow = SettlementFlow(
        epoch_id=epoch_id,
        records=tuple(records),
        transfers=tuple(
            Transfer(payer=k[0], payee=k[1], asset=k[2], amount=v)
            for k, v in transfers.items()
        ),
    )
    return flow, FlowSolution(cleared_debt=sum(final_ob), liquidity_used=liquidity)


def solve_settleable(
    g: ObligationGraph,
    budget: int | None = None,
    ledger: Ledger | None = None,
    *,
    epoch_id: int = 0,
    seed: int | None = None,
) -> tuple[SettlementFlow, FlowSolution]:
    """Clear an obligation graph so the flow can be applied to ``ledger`` as-is.

    One lowering and one kernel call, whose phase 1 cancels the cycles and
    whose phase 2 adds the chains the budget funds. ``build_network`` gives
    every payer whose balance can bind a pot capped by that balance, and
    every credit-line facility a pot its own receipts feed back, so no flow
    of the network overdraws a payer and the kernel's optimum is the most
    debt a settleable flow clears. Without a ledger no balance binds. A
    ledger that already overdraws a non-issuer still overdraws it, and
    ``apply_flow``, which runs all five checks, refuses that flow. ``seed``
    picks deterministically among equally optimal flows.
    """
    net = build_network(g, budget=budget, seed=seed, ledger=ledger)
    return solve_network(net, epoch_id=epoch_id)

