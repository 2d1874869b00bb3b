"""Min-cost flow kernel, in pure Python; ``setoff.kernel`` is its entry point.

The kernel solves the clearing problem in two phases over one residual graph:

Phase 1 (cycle component): every obligation arc (cost -1) is saturated, which
leaves a per-node imbalance equal to its net position. A min-cost rebalance of
those imbalances (Dijkstra with Johnson potentials; all residual costs are
non-negative under the potential invariant) then returns exactly the flow that
cannot ride a cycle. The result is the min-cost circulation on obligation arcs
alone: the maximum debt dischargeable with zero liquidity, with every
negative-cost residual cycle eliminated. Phase 1 still augments one shortest
path per pass. The phase 2 routine would make the ``simulate`` sweep about ten
times faster, but the benchmark keeps every sweep pass's graph, so its peak
memory would then break its bound; phase 1 follows once the benchmark stops
that (ROADMAP item 1).

Phase 2 (chain component), per currency stage. A tender is an arc into its
node from the source S, or from a pot node P when it names one. A pot is an
arc S->P whose cap bounds the new money its tenders draw. An acceptance is an
arc from its node to the sink T, or, when it names a pot, to that pot's
receipt node R, which feeds both T and, by a recycle arc R->P capped at the
pot's tender caps, the pot itself. Recycle arcs close cycles that avoid S and
T: a credit line clearing a cycle through its own lender. So each stage
first runs a cycle pass, phase 1's saturate-and-rebalance on the stage's
arcs: every recycle arc of negative reduced cost is saturated, and the
excess it leaves is routed back at minimum cost. Then liquidity is pushed
from S to T one cost level at a time (primal-dual; Ahuja, Magnanti & Orlin,
*Network Flows*, ch. 9). One Dijkstra pass finds the shortest S->T path;
while its true cost is negative (each unit of new money must discharge at
least one unit of debt), its distances are folded into the potentials, and
Dinic-style blocking flows are pushed over the zero-reduced-cost arcs until
T is unreachable over them or the budget is spent. Every such path is a
shortest path, so the flow stays min-cost for its value, and each pass finds
a new, dearer level. Stage arcs are frozen before the next stage; obligation
residuals are shared. The budget caps the flow out of S, that is new money.

All quantities are integers, and None means unlimited. Ties break on node
index, and arc order is the caller's, so identical inputs give identical
outputs. ``INF`` only marks an unreached node; unlimited capacities and
budgets are sized from the inputs, so any amount a Python int holds is exact.
"""

from __future__ import annotations

from heapq import heappop, heappush

INF = 1 << 62


def _add_arc(to, res, cost, adj, u: int, v: int, cap: int, c: int) -> int:
    i = len(to)
    to.append(v)
    res.append(cap)
    cost.append(c)
    adj[u].append(i)
    to.append(u)
    res.append(0)
    cost.append(-c)
    adj[v].append(i + 1)
    return i


def _dijkstra(src, snk, to, res, cost, adj, pi, dist, pred) -> bool:
    """Shortest src->snk path by reduced cost; True if snk is reachable."""
    for v in range(len(dist)):
        dist[v] = INF
        pred[v] = -1
    dist[src] = 0
    heap: list[tuple[int, int]] = [(0, src)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        if u == snk:
            return True
        base = d + pi[u]
        for i in adj[u]:
            if res[i] <= 0:
                continue
            v = to[i]
            nd = base + cost[i] - pi[v]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = i
                heappush(heap, (nd, v))
    return dist[snk] < INF


def _augment(src, snk, to, res, pi, dist, pred, limit: int) -> int:
    """Push along the found path, then fold distances into potentials."""
    amt = limit
    v = snk
    while v != src:
        i = pred[v]
        if res[i] < amt:
            amt = res[i]
        v = to[i ^ 1]
    v = snk
    while v != src:
        i = pred[v]
        res[i] -= amt
        res[i ^ 1] += amt
        v = to[i ^ 1]
    _fold(pi, dist, dist[snk])
    return amt


def _fold(pi, dist, d_snk: int) -> None:
    """Add each node's distance, capped at the sink's, to its potential.

    Afterwards no residual arc has negative reduced cost, and the arcs of
    every shortest src->snk path have reduced cost zero.
    """
    for w in range(len(pi)):
        pi[w] += dist[w] if dist[w] < d_snk else d_snk


def _blocking_flows(src, snk, to, res, cost, adj, pi, limit: int) -> int:
    """Push up to ``limit`` over the admissible arcs until snk is unreachable.

    An arc is admissible when it has residual capacity and zero reduced cost,
    so every src->snk path over such arcs is a shortest path. Each round
    levels the nodes by BFS from src, then pushes a blocking flow by DFS along
    arcs that climb one level, with a current-arc pointer per node; dead ends
    drop out of the round. The levels keep the DFS off zero-cost 2-cycles,
    such as a partly filled obligation arc and its reverse.
    """
    size = len(pi)
    adm = [
        [i for i in arcs if cost[i] + pi[u] == pi[to[i]]]
        for u, arcs in enumerate(adj)
    ]
    pushed = 0
    while pushed < limit:
        level = [-1] * size
        level[src] = 0
        queue = [src]
        for u in queue:
            up = level[u] + 1
            for i in adm[u]:
                v = to[i]
                if level[v] < 0 and res[i] > 0:
                    level[v] = up
                    queue.append(v)
        if level[snk] < 0:
            break
        ptr = [0] * size
        path: list[int] = []
        u = src
        while pushed < limit:
            if u == snk:
                amt = limit - pushed
                for i in path:
                    if res[i] < amt:
                        amt = res[i]
                for i in path:
                    res[i] -= amt
                    res[i ^ 1] += amt
                pushed += amt
                # Retreat to the tail of the first arc the push saturated.
                for k, i in enumerate(path):
                    if res[i] == 0:
                        del path[k:]
                        u = to[i ^ 1]
                        break
                continue
            arcs = adm[u]
            p = ptr[u]
            up = level[u] + 1
            while p < len(arcs):
                i = arcs[p]
                if res[i] > 0 and level[to[i]] == up:
                    break
                p += 1
            ptr[u] = p
            if p < len(arcs):
                path.append(arcs[p])
                u = to[arcs[p]]
            elif path:
                level[u] = -1
                u = to[path.pop() ^ 1]
                ptr[u] += 1
            else:
                break
    return pushed


def _node(adj, pi, potential: int = 0) -> int:
    """Append one node; returns its index."""
    adj.append([])
    pi.append(potential)
    return len(pi) - 1


def _cycles(n: int, obligations: list[tuple[int, int, int]]):
    """Phase 1: the residual graph with the cycle component, and its potentials.

    Returns ``(to, res, cost, adj, pi, ob_arc)``: arc ``i`` runs to ``to[i]``
    with residual capacity ``res[i]`` and cost ``cost[i]``, arc ``i ^ 1`` is
    its reverse, ``adj[u]`` lists the arcs leaving ``u``, and ``ob_arc[k]``
    is obligation ``k``'s arc. Nodes ``n`` and ``n + 1`` are S and T.
    """
    src = n
    snk = n + 1
    size = n + 2
    to: list[int] = []
    res: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(size)]

    # Obligation arcs enter saturated; the imbalance they leave behind is
    # exactly each node's net position.
    excess = [0] * size
    ob_arc = []
    for tail, head, cap in obligations:
        i = _add_arc(to, res, cost, adj, tail, head, cap, -1)
        ob_arc.append(i)
        res[i] = 0
        res[i + 1] = cap
        excess[head] += cap
        excess[tail] -= cap

    # Rebalance the saturation imbalances at minimum cost. No path carries
    # more than its first arc, an imbalance, so the limit never binds.
    aux = []
    for v in range(n):
        if excess[v] > 0:
            aux.append(_add_arc(to, res, cost, adj, src, v, excess[v], 0))
        elif excess[v] < 0:
            aux.append(_add_arc(to, res, cost, adj, v, snk, -excess[v], 0))
    pi = [0] * size
    dist = [INF] * size
    pred = [-1] * size
    limit = sum(cap for _, _, cap in obligations)
    while _dijkstra(src, snk, to, res, cost, adj, pi, dist, pred):
        _augment(src, snk, to, res, pi, dist, pred, limit)
    for i in aux:
        res[i] = 0
        res[i ^ 1] = 0
    return to, res, cost, adj, pi, ob_arc


def _recycle(to, res, cost, adj, pi, recycle: list[int]) -> None:
    """The cycle pass: saturate each negative recycle arc, then rebalance.

    Saturating an arc of negative reduced cost leaves its head an excess and
    its tail a deficit, and every residual arc of non-negative reduced cost.
    The excess is routed back at minimum cost from an auxiliary source to an
    auxiliary sink, one cost level per shortest-path pass, until all of it
    is moved. It always can be: each saturated arc's reverse leads back.
    """
    excess: dict[int, int] = {}
    for i in recycle:
        if res[i] > 0 and cost[i] + pi[to[i ^ 1]] - pi[to[i]] < 0:
            amt = res[i]
            res[i] = 0
            res[i ^ 1] += amt
            excess[to[i]] = excess.get(to[i], 0) + amt
            excess[to[i ^ 1]] = excess.get(to[i ^ 1], 0) - amt
    if not excess:
        return
    src = _node(adj, pi)
    snk = _node(adj, pi)
    aux = []
    for v in sorted(excess):
        if excess[v] > 0:
            aux.append(_add_arc(to, res, cost, adj, src, v, excess[v], 0))
        else:
            aux.append(_add_arc(to, res, cost, adj, v, snk, -excess[v], 0))
    pi[src] = max(pi[v] for v in excess if excess[v] > 0)
    pi[snk] = min(pi[v] for v in excess if excess[v] < 0)
    dist = [INF] * len(pi)
    pred = [-1] * len(pi)
    left = sum(amt for amt in excess.values() if amt > 0)
    while left > 0 and _dijkstra(src, snk, to, res, cost, adj, pi, dist, pred):
        _fold(pi, dist, dist[snk])
        left -= _blocking_flows(src, snk, to, res, cost, adj, pi, left)
    for i in aux:
        res[i] = 0
        res[i ^ 1] = 0


def solve(
    n: int,
    obligations: list[tuple[int, int, int]],
    stages: list[
        tuple[
            list[tuple[int, int, int | None]],
            list[tuple[int, int | None, int | None]],
            list[int | None],
        ]
    ],
    budget: int | None,
) -> tuple[list[int], list[int], list[list[int]], list[list[int]], list[int]]:
    """Run both phases and report flows.

    Args:
        n: number of graph nodes, indexed 0..n-1.
        obligations: ``(tail, head, cap)`` arcs, debtor -> creditor, cap > 0.
        stages: one ``(tenders, accepts, pots)`` per currency, in solve
            order. ``pots[k]`` is the cap of pot k's arc S->P; None is
            unlimited. A tender ``(node, cap, pot)`` is an arc S->node, or
            P->node from pot ``pot``. An acceptance ``(node, cap, pot)`` is
            an arc node->T, or node->R into pot ``pot``'s receipt node; its
            cap None is unlimited. Caps are unit-of-account integers.
        budget: cap on the total flow out of S across stages; None is unlimited.

    Returns:
        ``(cycle_ob_flow, final_ob_flow, tender_flow, accept_flow,
        stage_liquidity)``: one flow per obligation arc, one list of flows
        per stage for its tenders and its acceptances, and each stage's
        flow out of S, its new money.
    """
    to, res, cost, adj, pi, ob_arc = _cycles(n, obligations)
    cycle_ob_flow = [res[i ^ 1] for i in ob_arc]

    # Phase 2: inject liquidity along debt-clearing chains, one currency at a
    # time and one cost level per pass. A level is worth taking only while
    # its true cost is negative.
    src = n
    snk = n + 1
    # No flow exceeds the obligations and tenders together, so this never
    # binds as a cap or budget.
    unlimited = sum(cap for _, _, cap in obligations) + sum(
        cap for tenders, _, _ in stages for _, cap, _ in tenders
    )
    remaining = unlimited if budget is None else budget
    tender_flow: list[list[int]] = []
    accept_flow: list[list[int]] = []
    stage_liquidity: list[int] = []
    for tenders, accepts, pots in stages:
        # A pot's potential is the max over its tender heads and a receipt's
        # the min over its acceptance tails (potentials are never negative),
        # so no new arc but a recycle arc starts with negative reduced cost.
        pot_node = [_node(adj, pi) for _ in pots]
        drawn = [0] * len(pots)
        for v, cap, pot in tenders:
            if pot is not None:
                drawn[pot] += cap
                pi[pot_node[pot]] = max(pi[pot_node[pot]], pi[v])
        receipt: dict[int, int] = {}
        for v, _, pot in accepts:
            if pot is not None:
                r = receipt.get(pot)
                if r is None:
                    r = receipt[pot] = _node(adj, pi, INF)
                pi[r] = min(pi[r], pi[v])

        stage_arcs = [
            _add_arc(to, res, cost, adj, src, p, unlimited if cap is None else cap, 0)
            for p, cap in zip(pot_node, pots)
        ]
        t_arcs = [
            _add_arc(to, res, cost, adj, src if pot is None else pot_node[pot], v, cap, 0)
            for v, cap, pot in tenders
        ]
        a_arcs = [
            _add_arc(
                to, res, cost, adj, v, snk if pot is None else receipt[pot],
                unlimited if cap is None else cap, 0,
            )
            for v, cap, pot in accepts
        ]
        recycle = []
        for pot in sorted(receipt):
            r = receipt[pot]
            stage_arcs.append(_add_arc(to, res, cost, adj, r, snk, unlimited, 0))
            recycle.append(_add_arc(to, res, cost, adj, r, pot_node[pot], drawn[pot], 0))
        if n > 0:
            pi[src] = max(pi[v] for v in range(n))
            pi[snk] = min(pi[v] for v in range(n))
        _recycle(to, res, cost, adj, pi, recycle)

        dist = [INF] * len(pi)
        pred = [-1] * len(pi)
        liquidity = 0
        while remaining > 0 and _dijkstra(src, snk, to, res, cost, adj, pi, dist, pred):
            if dist[snk] - pi[src] + pi[snk] >= 0:
                break
            _fold(pi, dist, dist[snk])
            pushed = _blocking_flows(src, snk, to, res, cost, adj, pi, remaining)
            liquidity += pushed
            remaining -= pushed
        stage_liquidity.append(liquidity)
        tender_flow.append([res[i ^ 1] for i in t_arcs])
        accept_flow.append([res[i ^ 1] for i in a_arcs])
        for i in stage_arcs + t_arcs + a_arcs + recycle:
            res[i] = 0
            res[i ^ 1] = 0

    final_ob_flow = [res[i ^ 1] for i in ob_arc]
    return cycle_ob_flow, final_ob_flow, tender_flow, accept_flow, stage_liquidity
