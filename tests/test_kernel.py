"""The min-cost flow kernel: entry point and flow postconditions."""

import hashlib
import random
from pathlib import Path

import pytest

from setoff import _mincost, kernel
from setoff._mincost import INF, solve as python_solve
from setoff.experiments import SyntheticGraphConfig, attach_default_liquidity, generate
from setoff.graph import build_network, compute_nid

from support import credit_epoch, reference_dijkstra, reference_fold

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def random_instance(seed: int):
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    obligations = []
    if n >= 2:
        for _ in range(rng.randint(0, 8)):
            tail = rng.randrange(n)
            head = rng.randrange(n)
            if tail != head:
                obligations.append((tail, head, rng.randint(1, 10)))
    stages = []
    for _ in range(rng.randint(0, 2) if n else 0):
        stages.append(random_stage(rng, n, 3, 10))
    budget = rng.choice([None, rng.randint(0, 15)])
    return n, obligations, stages, budget


def random_stage(rng: random.Random, n: int, arcs: int, cap: int):
    """Random tenders and acceptances over nodes 0..n-1, some of them through pots."""
    pots = [rng.choice([None, rng.randint(0, cap)]) for _ in range(rng.randint(0, 2))]

    def pot():
        return rng.choice([None, *range(len(pots))])

    tenders = [(rng.randrange(n), rng.randint(0, cap), pot()) for _ in range(rng.randint(0, arcs))]
    accepts = [
        (rng.randrange(n), rng.choice([None, rng.randint(0, cap)]), pot())
        for _ in range(rng.randint(0, arcs))
    ]
    return tenders, accepts, pots


def test_python_backend_always_available() -> None:
    assert kernel.available_backends() == {"python": _mincost}
    assert kernel.get_backend() == "python"


def test_kernel_postconditions_random() -> None:
    for seed in range(60):
        inst = random_instance(seed)
        n, obligations, stages, budget = inst
        cycle, final, tender, accept, stage_liq = python_solve(*inst)
        assert len(tender) == len(accept) == len(stage_liq) == len(stages)
        for flow, (_, _, cap) in zip(cycle, obligations):
            assert 0 <= flow <= cap
        for flow, (_, _, cap) in zip(final, obligations):
            assert 0 <= flow <= cap
        for s, (tenders, accepts, pots) in enumerate(stages):
            for flow, (_, cap, _) in zip(tender[s], tenders):
                assert 0 <= flow <= cap
            for flow, (_, cap, _) in zip(accept[s], accepts):
                assert 0 <= flow
                if cap is not None:
                    assert flow <= cap
            assert sum(tender[s]) == sum(accept[s]) >= stage_liq[s] >= 0
            # A pot's new money, what its tenders draw less what its
            # receipts feed back, stays within its cap.
            for k, cap in enumerate(pots):
                drawn = sum(f for f, (_, _, pot) in zip(tender[s], tenders) if pot == k)
                fed = sum(f for f, (_, _, pot) in zip(accept[s], accepts) if pot == k)
                if cap is not None:
                    assert drawn - fed <= cap
        if budget is not None:
            assert sum(stage_liq) <= budget


def test_solve_min_cost_dispatches_to_active_backend() -> None:
    inst = random_instance(3)
    assert kernel.solve_min_cost(*inst) == python_solve(*inst)


# --- the shortest-path pass against its reference -------------------------------


def pred_path(src, snk, to, pred, size: int):
    """The arcs of the pred path back from snk to src, or None if it never gets there."""
    path = []
    v = snk
    while v != src and len(path) < size:
        path.append(pred[v])
        v = to[pred[v] ^ 1]
    return path if v == src else None


def test_dijkstra_and_fold_match_their_reference() -> None:
    # The heap key d * size + v must pop nodes in the order the pair (d, v)
    # does, ties included, and each pass must start from fresh distances
    # though not from fresh preds. Potentials near 2**60 give arc costs near
    # 2**60, and reduced costs of 2**58 put heap keys past 2**60, some past
    # 2**64; most reduced costs are zero, so ties abound. Each pass pushes
    # the reference's path, so both passes meet the same residual graph the
    # next time.
    passes = big = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        to: list[int] = []
        res: list[int] = []
        cost: list[int] = []
        adj: list[list[int]] = [[] for _ in range(n)]
        pi = [rng.choice((0, 2**60)) + rng.randint(0, 3) for _ in range(n)]
        for _ in range(rng.randint(n, 4 * n)):
            u, v = rng.sample(range(n), 2)
            reduced = rng.choice((0, 0, 0, 1, 2**58 - rng.randint(0, 9), 2**58))
            i = _mincost._add_arc(to, res, cost, adj, u, v, rng.randint(1, 5),
                                  pi[v] - pi[u] + reduced)
            if reduced == 0:
                res[i ^ 1] = rng.randint(0, 2)
        src, snk = rng.sample(range(n), 2)
        ref_pi = pi[:]
        dist, pred, ref_dist, ref_pred = [INF] * n, [-1] * n, [INF] * n, [-1] * n
        while True:
            found = _mincost._dijkstra(src, snk, to, res, cost, adj, pi, dist, pred)
            assert found == reference_dijkstra(src, snk, to, res, cost, adj, ref_pi,
                                               ref_dist, ref_pred), seed
            assert dist[snk] == ref_dist[snk], seed
            if not found:
                break
            assert pred_path(src, snk, to, pred, n) == pred_path(src, snk, to, ref_pred, n)
            _mincost._fold(pi, dist, dist[snk])
            reference_fold(ref_pi, ref_dist, ref_dist[snk])
            assert pi == ref_pi, seed
            _mincost._push_path(src, snk, to, res, ref_pred, INF)
            passes += 1
            big += any(2**58 <= d < INF for d in dist)
    assert passes > 500 and big > 150, (passes, big)


# --- one stage against networkx ----------------------------------------------------


def network_simplex_stage(n, obligations, stage, budget) -> int:
    """Maximum debt one stage clears, by networkx as one min-cost circulation.

    The kernel's arcs as they are: S->pot, tender, acceptance, receipt->T and
    recycle arcs at cost 0, obligations at cost -1, and a T->S arc capped by
    the budget. Node ids are tuples, so none clashes with a firm index.
    """
    import networkx as nx

    tenders, accepts, pots = stage
    source, sink = ("S",), ("T",)

    def capacity(cap):
        return {} if cap is None else {"capacity": cap}

    net = nx.MultiDiGraph()
    net.add_nodes_from([source, sink, *range(n)])
    for tail, head, cap in obligations:
        net.add_edge(tail, head, capacity=cap, weight=-1)
    drawn = [0] * len(pots)
    for k, cap in enumerate(pots):
        net.add_edge(source, ("P", k), weight=0, **capacity(cap))
    for v, cap, pot in tenders:
        net.add_edge(source if pot is None else ("P", pot), v, capacity=cap, weight=0)
        if pot is not None:
            drawn[pot] += cap
    for v, cap, pot in accepts:
        net.add_edge(v, sink if pot is None else ("R", pot), weight=0, **capacity(cap))
    for pot in {pot for _, _, pot in accepts if pot is not None}:
        net.add_edge(("R", pot), sink, weight=0)
        net.add_edge(("R", pot), ("P", pot), capacity=drawn[pot], weight=0)
    net.add_edge(sink, source, weight=0, **capacity(budget))
    cost, _ = nx.network_simplex(net)
    return -cost


def test_one_stage_with_pots_matches_network_simplex() -> None:
    # Pots and recycle arcs close cycles that avoid S and T; the cycle pass
    # must find them before the S->T levels, or the stage stops short.
    pytest.importorskip("networkx")
    recycled = 0  # instances that clear more than their cycles with no new money
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        obligations = []
        for _ in range(rng.randint(1, 3 * n)):
            tail, head = rng.sample(range(n), 2)
            obligations.append((tail, head, rng.randint(1, 30)))
        stage = random_stage(rng, n, 5, 30)
        budget = rng.choice([None, rng.randint(0, 40)])
        cycle, final, _, _, liquidity = python_solve(n, obligations, [stage], budget)
        assert sum(final) == network_simplex_stage(n, obligations, stage, budget), seed
        recycled += sum(final) > sum(cycle) and liquidity == [0]
    assert recycled >= 10


def staged_variants(seed: int, n_variants: int = 4):
    """One random obligation set and several random stage sets and budgets on it."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    arcs = []
    for _ in range(rng.randint(1, 3 * n)):
        tail, head = rng.randrange(n), rng.randrange(n)
        if tail != head:
            arcs.append((tail, head, rng.randint(1, 40)))
    variants = []
    for _ in range(n_variants):
        stages = []
        for _ in range(rng.randint(1, 3)):
            tenders = [
                (rng.randrange(n), rng.randint(0, 50), None) for _ in range(rng.randint(0, 4))
            ]
            accepts = [
                (rng.randrange(n), rng.choice([None, rng.randint(0, 50)]), None)
                for _ in range(rng.randint(0, 4))
            ]
            stages.append((tenders, accepts, []))
        budget = rng.choice([None, rng.randint(0, 80)])
        variants.append((stages, budget))
    return (n, arcs), variants


# --- phase 2 work ------------------------------------------------------------------


def phase2_passes(monkeypatch, n, obligations, stages, budget) -> list[tuple[int, int, int]]:
    """Phase 2's shortest-path passes against the cost levels they found.

    Returns ``(passes, distinct negative true path costs, stages)`` per group
    of stages, for stages without pots. Passes are told apart by arc count,
    so a stage that adds no arcs shares its group with the stage before it.
    """
    stages_at: dict[int, int] = {}
    arcs = len(_mincost._cycles(n, obligations)[0])
    for tenders, accepts, pots in stages:
        assert not pots
        arcs += 2 * (len(tenders) + len(accepts))
        stages_at[arcs] = stages_at.get(arcs, 0) + 1
    passes = dict.fromkeys(stages_at, 0)
    costs: dict[int, set[int]] = {arcs: set() for arcs in stages_at}
    dijkstra = _mincost._dijkstra
    in_phase1 = False
    cycles = _mincost._cycles

    def phase1(*args):
        nonlocal in_phase1
        in_phase1 = True
        try:
            return cycles(*args)
        finally:
            in_phase1 = False

    def counting(src, snk, to, res, cost, adj, pi, dist, pred):
        found = dijkstra(src, snk, to, res, cost, adj, pi, dist, pred)
        if not in_phase1:
            passes[len(to)] += 1
            true_cost = dist[snk] - pi[src] + pi[snk]
            if found and true_cost < 0:
                costs[len(to)].add(true_cost)
        return found

    monkeypatch.setattr(_mincost, "_dijkstra", counting)
    monkeypatch.setattr(_mincost, "_cycles", phase1)
    python_solve(n, obligations, stages, budget)
    monkeypatch.undo()
    return [(passes[a], len(costs[a]), stages_at[a]) for a in stages_at]


def sweep_graph():
    """The 250-firm, 1000-obligation lognormal graph of seed 100, with liquidity."""
    return attach_default_liquidity(
        generate(SyntheticGraphConfig(nodes=250, edges=1000, seed=100, amount_dist="lognormal"))
    )


def kernel_instance(net):
    """The kernel's arguments for a lowered network, as ``solve_network`` passes them."""
    return (
        len(net.nodes),
        [(a.tail, a.head, a.cap) for a in net.ob_arcs],
        [
            ([(a.node, a.cap, a.pot) for a in s.tender_arcs],
             [(a.node, a.cap, a.pot) for a in s.accept_arcs],
             [pot.cap for pot in s.pots])
            for s in net.stages
        ],
        net.budget,
    )


def test_phase2_makes_one_pass_per_cost_level(monkeypatch) -> None:
    g = sweep_graph()
    nid = compute_nid(g)
    for budget in (None, nid // 2):
        inst = kernel_instance(build_network(g, budget=budget))
        [(passes, levels, _)] = phase2_passes(monkeypatch, *inst)
        assert levels > 1 and passes <= levels + 1, (budget, passes, levels)
    for seed in range(150):
        obligations, variants = staged_variants(seed)
        for variant in variants:
            for passes, levels, stages in phase2_passes(monkeypatch, *obligations, *variant):
                assert passes <= levels + stages, (seed, passes, levels)


# --- pinned outputs and work --------------------------------------------------------


def pinned_instances(family: str):
    """The kernel inputs whose outputs are pinned, one family at a time.

    ``staged``: multi-stage random instances. ``credit``: small credit epochs
    lowered with their ledgers, so with pots and recycle arcs, in two arc
    orders. ``sweep``: the sweep graph at no budget and at half its NID.
    """
    if family == "staged":
        for seed in range(150):
            (n, arcs), variants = staged_variants(seed)
            for stages, budget in variants:
                yield n, arcs, stages, budget
    elif family == "credit":
        for seed in range(150):
            g, ledger, budget = credit_epoch(random.Random(seed))
            for arc_seed in (None, seed):
                yield kernel_instance(build_network(g, budget, arc_seed, ledger))
    else:
        g = sweep_graph()
        for budget in (None, compute_nid(g) // 2):
            yield kernel_instance(build_network(g, budget=budget))


# SHA-256 over the ``repr`` of every full return, in order. A change here is
# a change of tie-break: another of several equally optimal flows.
PINNED_OUTPUTS = {
    "credit": "59a4fbac1abe93de730b3adf9e0d29e4cf6e9b873807ea6382ba4f1a0cc34ba5",
    "staged": "7f1a6ef192183538099ac73a871f050fd577b0a33dc7c2470b6e770404d7ebc5",
    "sweep": "106ceb755225f57ad81092026d341893ab506b838ae89c6d8061547650361299",
}


@pytest.mark.parametrize("family", sorted(PINNED_OUTPUTS))
def test_kernel_outputs_are_pinned(family: str) -> None:
    digest = hashlib.sha256()
    recycling = 0  # instances with an acceptance into a pot's receipt node
    for inst in pinned_instances(family):
        digest.update(repr(python_solve(*inst)).encode())
        recycling += any(pot is not None for _, accepts, _ in inst[2] for _, _, pot in accepts)
    assert digest.hexdigest() == PINNED_OUTPUTS[family]
    assert (recycling > 0) == (family == "credit")


def dijkstra_passes(monkeypatch, run) -> list[tuple[int, int, int]]:
    """Shortest-path passes of each kernel solve that ``run()`` makes.

    One ``(phase 1, cycle pass, phase 2)`` triple per solve. Phase 1 is what
    runs inside ``_cycles``; after it, phase 2's passes start at S, node
    ``n``, and the cycle pass's at a node of its own.
    """
    solves: list[list[int]] = []
    dijkstra, cycles = _mincost._dijkstra, _mincost._cycles
    in_phase1 = False
    source = -1

    def phase1(n, obligations):
        nonlocal in_phase1, source
        solves.append([0, 0, 0])
        in_phase1, source = True, n
        try:
            return cycles(n, obligations)
        finally:
            in_phase1 = False

    def counting(src, *args):
        solves[-1][0 if in_phase1 else 2 if src == source else 1] += 1
        return dijkstra(src, *args)

    monkeypatch.setattr(_mincost, "_dijkstra", counting)
    monkeypatch.setattr(_mincost, "_cycles", phase1)
    try:
        run()
    finally:
        monkeypatch.undo()
    return [tuple(counts) for counts in solves]


def test_kernel_work_is_pinned(monkeypatch, tmp_path: Path) -> None:
    # Equal outputs cannot show an extra pass; these counts can.
    g = sweep_graph()
    for budget, phase2 in ((None, 10), (compute_nid(g) // 2, 9)):
        inst = kernel_instance(build_network(g, budget=budget))
        assert dijkstra_passes(monkeypatch, lambda: python_solve(*inst)) == [(741, 0, phase2)]

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import workloads

    inp = inputs.epoch_credit(100)
    passes = dijkstra_passes(monkeypatch, lambda: workloads.store_pass(inp, tmp_path / "s"))
    assert passes == [(358, 7, 15), (240, 0, 11)]
