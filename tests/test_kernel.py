"""The min-cost flow kernel: entry point and flow postconditions."""

import random

from setoff import _mincost, kernel
from setoff._mincost import solve as python_solve


def random_instance(seed: int):
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    arcs = []
    if n >= 2:
        for _ in range(rng.randint(0, 8)):
            tail = rng.randrange(n)
            head = rng.randrange(n)
            if tail != head:
                arcs.append((tail, head, rng.randint(1, 10)))
    n_stages = rng.randint(0, 2) if n else 0
    t_ptr, t_node, t_cap = [0], [], []
    a_ptr, a_node, a_cap = [0], [], []
    for _ in range(n_stages):
        for _ in range(rng.randint(0, 3)):
            t_node.append(rng.randrange(n))
            t_cap.append(rng.randint(0, 10))
        for _ in range(rng.randint(0, 3)):
            a_node.append(rng.randrange(n))
            a_cap.append(rng.choice([-1, rng.randint(0, 10)]))
        t_ptr.append(len(t_node))
        a_ptr.append(len(a_node))
    budget = rng.choice([-1, rng.randint(0, 15)])
    return (
        n,
        [a[0] for a in arcs],
        [a[1] for a in arcs],
        [a[2] for a in arcs],
        t_ptr, t_node, t_cap,
        a_ptr, a_node, a_cap,
        budget,
    )


def test_python_backend_always_available() -> None:
    assert kernel.available_backends() == {"python": _mincost}
    assert kernel.get_backend() == "python"


def test_kernel_postconditions_random() -> None:
    for seed in range(60):
        inst = random_instance(seed)
        (n, ob_tail, ob_head, ob_cap, t_ptr, t_node, t_cap,
         a_ptr, a_node, a_cap, budget) = inst
        cycle, final, tender, accept, stage_liq = python_solve(*inst)
        for flow, cap in zip(cycle, ob_cap):
            assert 0 <= flow <= cap
        for flow, cap in zip(final, ob_cap):
            assert 0 <= flow <= cap
        for flow, cap in zip(tender, t_cap):
            assert 0 <= flow <= cap
        for flow, cap in zip(accept, a_cap):
            assert 0 <= flow
            if cap != -1:
                assert flow <= cap
        for s in range(len(t_ptr) - 1):
            t_total = sum(tender[t_ptr[s]:t_ptr[s + 1]])
            a_total = sum(accept[a_ptr[s]:a_ptr[s + 1]])
            assert t_total == a_total == stage_liq[s]
        if budget != -1:
            assert sum(stage_liq) <= budget


def test_solve_min_cost_dispatches_to_active_backend() -> None:
    inst = random_instance(3)
    assert kernel.solve_min_cost(*inst) == python_solve(*inst)
