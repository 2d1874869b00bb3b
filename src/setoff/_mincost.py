"""Min-cost flow kernel, in pure Python; ``setoff.kernel`` is its entry point.

The kernel solves the clearing problem over one residual graph, by one
operation done first on the obligations and then once per currency stage:
saturate every arc of negative reduced cost, then route the excess this
leaves back at minimum cost (``_saturate``). Routing goes one cost level at a
time (``_route``; primal-dual, Ahuja, Magnanti & Orlin, *Network Flows*,
ch. 9). One Dijkstra pass with Johnson potentials finds the shortest path;
its heap holds the ints ``d * size + v``, which order as the pairs ``(d, v)``
do, so nodes pop by distance with ties on node index. Its distances are
folded into the potentials, so every residual arc keeps a non-negative
reduced cost, and Dinic-style blocking flows are pushed over the arcs of zero
reduced cost until the sink is unreachable over them or a limit is met.
Every such path is a shortest path, so the flow stays min-cost for its
value, and each pass finds a new, dearer level.

Phase 1 (cycle component) saturates every obligation arc (cost -1), which
leaves each node an imbalance equal to its net position, and routes it back:
what cannot ride a cycle returns. The result is the min-cost circulation on
obligation arcs alone, the maximum debt dischargeable with zero liquidity.
Phase 1 differs only in its routing: it pushes one shortest path per pass
(``_push_path``), not one cost level. By cost level the ``simulate`` sweep
runs about ten times faster, but the benchmark keeps every sweep pass's
graph, so its peak memory would then break its bound; phase 1 follows once
the benchmark stops that (ROADMAP item 1), and so does ending a Dijkstra pass
as soon as no node nearer than the sink is left, for the same reason.

Phase 2 (chain component), per currency stage. A tender is an arc into its
node from the source S, or from a pot node P when it names one. A pot is an
arc S->P whose cap bounds the new money its tenders draw. An acceptance is an
arc from its node to the sink T, or, when it names a pot, to that pot's
receipt node R, which feeds both T and, by a recycle arc R->P capped at the
pot's tender caps, the pot itself. Recycle arcs close cycles that avoid S and
T: a credit line clearing a cycle through its own lender. So each stage first
runs a cycle pass, which saturates the recycle arcs and routes their excess
back. Then it routes new money from S to T while a level's true cost is
negative: each unit of new money must discharge at least one unit of debt.
The budget caps the flow out of S, that is new money. Stage arcs are closed
before the next stage; obligation residuals are shared.

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
    """Shortest src->snk path by reduced cost; True if snk is reachable.

    A heap key is the int ``d * size + v``: with ``0 <= v < size`` ints order
    as the pairs ``(d, v)`` do, so ties still break on node index. ``pred``
    is not reset: only ``_push_path`` reads it, along the path to snk found in
    this pass, and every node on that path was reached in this pass.
    """
    size = len(dist)
    dist[:] = [INF] * size
    dist[src] = 0
    heap = [src]
    while heap:
        d, u = divmod(heappop(heap), size)
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
                heappush(heap, nd * size + v)
    return dist[snk] < INF


def _push_path(src, snk, to, res, pred, limit: int) -> None:
    """Push as much as the found path takes, up to ``limit``."""
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


def _fold(pi, dist, d_snk: int) -> None:
    """Add each node's distance, capped at the sink's, to its potential.

    Afterwards no residual arc has negative reduced cost, and the arcs of
    every shortest src->snk path have reduced cost zero.
    """
    pi[:] = [p + (d if d < d_snk else d_snk) for p, d in zip(pi, dist)]


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


def _route(src, snk, to, res, cost, adj, pi, limit: int, ceiling: int) -> int:
    """Push up to ``limit`` from src to snk at minimum cost; returns the amount.

    One cost level per pass: stops when ``limit`` is pushed, when snk is
    unreachable, or when a level's true cost per unit exceeds ``ceiling``.
    """
    dist = [INF] * len(pi)
    pred = [-1] * len(pi)
    pushed = 0
    while pushed < limit and _dijkstra(src, snk, to, res, cost, adj, pi, dist, pred):
        if dist[snk] - pi[src] + pi[snk] > ceiling:
            break
        _fold(pi, dist, dist[snk])
        pushed += _blocking_flows(src, snk, to, res, cost, adj, pi, limit - pushed)
    return pushed


def _saturate(to, res, cost, adj, pi, arcs: list[int]):
    """Saturate each of ``arcs`` with negative reduced cost; returns what to route.

    A saturated arc leaves its head an excess and its tail a deficit, and
    every residual arc a non-negative reduced cost. Nodes that net to zero,
    such as each node of a pure cycle, drop out. A new source gets an arc to
    each excess and a new sink one from each deficit; with the largest and
    the smallest potential of those nodes, no new arc costs less than zero.
    Returns ``(source, sink, total excess)``, or None if nothing is left to
    route. All of it can be routed: each saturated arc's reverse leads back.
    """
    excess: dict[int, int] = {}
    for i in arcs:
        if res[i] > 0 and cost[i] + pi[to[i ^ 1]] - pi[to[i]] < 0:
            amt = res[i]
            res[i] = 0
            res[i ^ 1] += amt
            excess[to[i]] = excess.get(to[i], 0) + amt
            excess[to[i ^ 1]] = excess.get(to[i ^ 1], 0) - amt
    nodes = sorted(v for v, amt in excess.items() if amt)
    if not nodes:
        return None
    src = _node(adj, pi, max(pi[v] for v in nodes if excess[v] > 0))
    snk = _node(adj, pi, min(pi[v] for v in nodes if excess[v] < 0))
    for v in nodes:
        if excess[v] > 0:
            _add_arc(to, res, cost, adj, src, v, excess[v], 0)
        else:
            _add_arc(to, res, cost, adj, v, snk, -excess[v], 0)
    return src, snk, sum(excess[v] for v in nodes if excess[v] > 0)


def _close(res, arcs) -> None:
    """Take ``arcs`` and their reverses out of the residual graph."""
    for i in arcs:
        res[i] = 0
        res[i ^ 1] = 0


def _cycles(n: int, obligations: list[tuple[int, int, int]]):
    """Phase 1: the residual graph with the cycle component, and its potentials.

    Returns ``(to, res, cost, adj, pi, ob_arc)``: arc ``i`` runs to ``to[i]``
    with residual capacity ``res[i]`` and cost ``cost[i]``, arc ``i ^ 1`` is
    its reverse, ``adj[u]`` lists the arcs leaving ``u``, and ``ob_arc[k]``
    is obligation ``k``'s arc. Nodes ``n`` and ``n + 1`` are S and T, still
    without arcs.
    """
    to: list[int] = []
    res: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n + 2)]
    pi = [0] * (n + 2)
    ob_arc = [_add_arc(to, res, cost, adj, tail, head, cap, -1) for tail, head, cap in obligations]
    aux = _saturate(to, res, cost, adj, pi, ob_arc)
    if aux is not None:
        src, snk, excess = aux
        dist = [INF] * len(pi)
        pred = [-1] * len(pi)
        while _dijkstra(src, snk, to, res, cost, adj, pi, dist, pred):
            _fold(pi, dist, dist[snk])
            _push_path(src, snk, to, res, pred, excess)
        _close(res, adj[src] + adj[snk])
    return to, res, cost, adj, pi, ob_arc


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
        aux = _saturate(to, res, cost, adj, pi, recycle)
        if aux is not None:
            cycle_src, cycle_snk, excess = aux
            _route(cycle_src, cycle_snk, to, res, cost, adj, pi, excess, INF)
            _close(res, adj[cycle_src] + adj[cycle_snk])

        liquidity = _route(src, snk, to, res, cost, adj, pi, remaining, -1)
        remaining -= liquidity
        stage_liquidity.append(liquidity)
        tender_flow.append([res[i ^ 1] for i in t_arcs])
        accept_flow.append([res[i ^ 1] for i in a_arcs])
        _close(res, stage_arcs + t_arcs + a_arcs + recycle)

    final_ob_flow = [res[i ^ 1] for i in ob_arc]
    return cycle_ob_flow, final_ob_flow, tender_flow, accept_flow, stage_liquidity
