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
acceptance arcs origin->T are attached and successive shortest S->T paths are
augmented while their true cost stays negative (each unit of injected
liquidity must discharge at least one unit of debt) and budget remains. Stage
arcs are frozen before the next stage; obligation residuals are shared.

All quantities are integers. Ties break on node index, and arc order is the
caller's, so identical inputs give identical outputs. ``INF`` only marks an
unreached node; "unlimited" capacities and budgets are sized from the inputs,
so any amount a Python int holds is exact.
"""

from __future__ import annotations

from heapq import heappop, heappush

INF = 1 << 62


def solve(
    n: int,
    ob_tail: list[int],
    ob_head: list[int],
    ob_cap: list[int],
    t_ptr: list[int],
    t_node: list[int],
    t_cap: list[int],
    a_ptr: list[int],
    a_node: list[int],
    a_cap: list[int],
    budget: int,
) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """Run both phases and report flows.

    Args:
        n: number of graph nodes, indexed 0..n-1.
        ob_tail/ob_head/ob_cap: obligation arcs (debtor -> creditor, cap > 0).
        t_ptr/t_node/t_cap: tender arcs per stage; stage s owns indices
            t_ptr[s]:t_ptr[s+1]. Caps are unit-of-account integers.
        a_ptr/a_node/a_cap: acceptance arcs per stage; cap -1 means unlimited.
        budget: cap on total injected liquidity across stages; -1 = unlimited.

    Returns:
        (cycle_ob_flow, final_ob_flow, tender_flow, accept_flow, stage_liquidity)
    """
    n_stages = len(t_ptr) - 1
    # No augmenting path carries more than its first arc: an imbalance in
    # phase 1, a tender in phase 2. So this never binds as a cap or budget.
    unlimited = sum(ob_cap) + sum(t_cap)
    src = n
    snk = n + 1
    size = n + 2

    to: list[int] = []
    res: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(size)]

    def add_arc(u: int, v: int, cap: int, c: int) -> int:
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

    # Obligation arcs enter saturated; the imbalance they leave behind is
    # exactly each node's net position.
    excess = [0] * size
    ob_arc = []
    for k in range(len(ob_tail)):
        i = add_arc(ob_tail[k], ob_head[k], ob_cap[k], -1)
        ob_arc.append(i)
        res[i] = 0
        res[i + 1] = ob_cap[k]
        excess[ob_head[k]] += ob_cap[k]
        excess[ob_tail[k]] -= ob_cap[k]

    pi = [0] * size
    dist = [INF] * size
    pred = [-1] * size

    def dijkstra() -> bool:
        """Shortest src->snk path by reduced cost; True if snk is reachable."""
        for v in range(size):
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

    def augment(limit: int) -> int:
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
        d_snk = dist[snk]
        for w in range(size):
            pi[w] += dist[w] if dist[w] < d_snk else d_snk
        return amt

    # Phase 1: rebalance the saturation imbalances at minimum cost.
    aux = []
    for v in range(n):
        if excess[v] > 0:
            aux.append(add_arc(src, v, excess[v], 0))
        elif excess[v] < 0:
            aux.append(add_arc(v, snk, -excess[v], 0))
    while dijkstra():
        augment(unlimited)
    for i in aux:
        res[i] = 0
        res[i ^ 1] = 0

    cycle_ob_flow = [res[i ^ 1] for i in ob_arc]

    # Phase 2: inject liquidity along debt-clearing chains, one currency at a
    # time. A path is worth taking only while its true cost is negative.
    remaining = unlimited if budget < 0 else budget
    tender_flow = [0] * len(t_node)
    accept_flow = [0] * len(a_node)
    stage_liquidity = [0] * n_stages
    for s in range(n_stages):
        stage_arcs: list[tuple[bool, int, int]] = []
        for j in range(t_ptr[s], t_ptr[s + 1]):
            stage_arcs.append((True, j, add_arc(src, t_node[j], t_cap[j], 0)))
        for j in range(a_ptr[s], a_ptr[s + 1]):
            cap = a_cap[j] if a_cap[j] >= 0 else unlimited
            stage_arcs.append((False, j, add_arc(a_node[j], snk, cap, 0)))
        if n > 0:
            pi[src] = max(pi[v] for v in range(n))
            pi[snk] = min(pi[v] for v in range(n))
        while remaining > 0 and dijkstra():
            if dist[snk] - pi[src] + pi[snk] >= 0:
                break
            pushed = augment(remaining)
            stage_liquidity[s] += pushed
            remaining -= pushed
        for is_tender, j, i in stage_arcs:
            flow = res[i ^ 1]
            if is_tender:
                tender_flow[j] = flow
            else:
                accept_flow[j] = flow
            res[i] = 0
            res[i ^ 1] = 0

    final_ob_flow = [res[i ^ 1] for i in ob_arc]
    return cycle_ob_flow, final_ob_flow, tender_flow, accept_flow, stage_liquidity
