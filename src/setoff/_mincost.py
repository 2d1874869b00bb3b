"""Min-cost flow kernel, in pure Python; ``setoff.kernel`` is its entry point.

The kernel solves the clearing problem in two phases over one residual graph:

Phase 1 (cycle component): every obligation arc (cost -1) is saturated, which
leaves a per-node imbalance equal to its net position. A min-cost rebalance of
those imbalances (Dijkstra with Johnson potentials; all residual costs are
non-negative under the potential invariant) then returns exactly the flow that
cannot ride a cycle. The result is the min-cost circulation on obligation arcs
alone: the maximum debt dischargeable with zero liquidity, with every
negative-cost residual cycle eliminated.

Phase 2 (chain component): per currency stage, tender arcs S->sender and
acceptance arcs origin->T are attached, and liquidity is pushed one cost
level at a time (primal-dual; Ahuja, Magnanti & Orlin, *Network Flows*,
ch. 9). One Dijkstra pass finds the shortest S->T path; while its true cost is
negative (each unit of injected liquidity must discharge at least one unit of
debt), its distances are folded into the potentials, and Dinic-style blocking
flows are pushed over the zero-reduced-cost arcs until T is unreachable over
them or the budget is spent. Every such path is a shortest path, so the flow
stays min-cost for its value, and each pass finds a new, dearer level. Stage
arcs are frozen before the next stage; obligation residuals are shared.
Phase 1 still augments one shortest path per pass. The same routine there
makes the ``simulate`` sweep about ten times faster, but the benchmark keeps
every sweep pass's graph, so its peak memory would then break its bound; phase
1 follows once the benchmark stops that (ROADMAP item 1).

Phase 1 depends on the obligation arcs alone. Its output is a ``Residual``:
the arc arrays, the potentials after phase 1 and the cycle flows. Phase 2
starts from a copy of it and never writes to it, so one residual serves any
number of solves over the same obligation arcs, whatever their tenders,
acceptances and budget, and each gives the output of a fresh solve. Pass an
empty ``Residual()`` to ``solve`` to share it: the first solve fills it, and
a later solve over other obligation arcs raises ``ValueError``.

All quantities are integers, and None means unlimited. Ties break on node
index, and arc order is the caller's, so identical inputs give identical
outputs. ``INF`` only marks an unreached node; unlimited capacities and
budgets are sized from the inputs, so any amount a Python int holds is exact.
"""

from __future__ import annotations

from heapq import heappop, heappush

INF = 1 << 62


class Residual:
    """Phase 1's residual graph over one set of obligation arcs.

    Nodes ``n`` and ``n + 1`` are the source and the sink. Arc ``i`` runs to
    ``to[i]`` with residual capacity ``res[i]`` and cost ``cost[i]``; arc
    ``i ^ 1`` is its reverse, and ``adj[u]`` lists the arcs leaving ``u``.
    ``pi`` are the potentials after phase 1, ``ob_arc[k]`` is obligation
    ``k``'s arc and ``cycle_ob_flow[k]`` its cycle flow. ``obligations`` is
    the ``(n, obligations)`` it was built from, None while empty.
    """

    __slots__ = ("obligations", "to", "res", "cost", "adj", "pi", "ob_arc", "cycle_ob_flow")

    def __init__(self) -> None:
        self.obligations: tuple | None = None


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


def _cycles(r: Residual, n: int, obligations: tuple[tuple[int, int, int], ...]) -> None:
    """Phase 1: fill the empty residual ``r`` with the cycle component."""
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

    r.obligations = (n, obligations)
    r.to, r.res, r.cost, r.adj, r.pi = to, res, cost, adj, pi
    r.ob_arc = ob_arc
    r.cycle_ob_flow = [res[i ^ 1] for i in ob_arc]


def solve(
    n: int,
    obligations: list[tuple[int, int, int]],
    stages: list[tuple[list[tuple[int, int]], list[tuple[int, int | None]]]],
    budget: int | None,
    residual: Residual | None = None,
) -> tuple[list[int], list[int], list[list[int]], list[list[int]], list[int]]:
    """Run both phases and report flows.

    Args:
        n: number of graph nodes, indexed 0..n-1.
        obligations: ``(tail, head, cap)`` arcs, debtor -> creditor, cap > 0.
        stages: one ``(tenders, accepts)`` per currency, in solve order. A
            tender ``(node, cap)`` is an arc S->node; an acceptance
            ``(node, cap)`` is an arc node->T whose cap None is unlimited.
            Caps are unit-of-account integers.
        budget: cap on total injected liquidity across stages; None is unlimited.
        residual: phase 1 of these obligation arcs, shared between solves;
            an empty one is filled here. None runs phase 1 for this call only.

    Returns:
        ``(cycle_ob_flow, final_ob_flow, tender_flow, accept_flow,
        stage_liquidity)``: one flow per obligation arc, one list of flows
        per stage for its tenders and its acceptances, and each stage's
        injected liquidity.
    """
    obligations = tuple(obligations)
    if residual is None:
        residual = Residual()
    if residual.obligations is None:
        _cycles(residual, n, obligations)
    elif residual.obligations != (n, obligations):
        raise ValueError("the residual was built from other obligation arcs")

    # Phase 2: inject liquidity along debt-clearing chains, one currency at a
    # time and one cost level per pass. A level is worth taking only while
    # its true cost is negative.
    to = residual.to.copy()
    res = residual.res.copy()
    cost = residual.cost.copy()
    adj = [arcs.copy() for arcs in residual.adj]
    pi = residual.pi.copy()
    src = n
    snk = n + 1
    dist = [INF] * (n + 2)
    pred = [-1] * (n + 2)
    # No augmenting path carries more than its first arc, a tender, so this
    # never binds as a cap or budget.
    unlimited = sum(cap for _, _, cap in obligations) + sum(
        cap for tenders, _ in stages for _, cap in tenders
    )
    remaining = unlimited if budget is None else budget
    tender_flow: list[list[int]] = []
    accept_flow: list[list[int]] = []
    stage_liquidity: list[int] = []
    for tenders, accepts in stages:
        t_arcs = [_add_arc(to, res, cost, adj, src, v, cap, 0) for v, cap in tenders]
        a_arcs = [
            _add_arc(to, res, cost, adj, v, snk, unlimited if cap is None else cap, 0)
            for v, cap in accepts
        ]
        if n > 0:
            pi[src] = max(pi[v] for v in range(n))
            pi[snk] = min(pi[v] for v in range(n))
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
        for i in t_arcs + a_arcs:
            res[i] = 0
            res[i ^ 1] = 0

    final_ob_flow = [res[i ^ 1] for i in residual.ob_arc]
    cycle_ob_flow = residual.cycle_ob_flow.copy()
    return cycle_ob_flow, final_ob_flow, tender_flow, accept_flow, stage_liquidity
