"""The min-cost flow kernel: entry point and flow postconditions."""

import random

import pytest

from setoff import _mincost, kernel
from setoff._mincost import solve as python_solve


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
        tenders = [(rng.randrange(n), rng.randint(0, 10)) for _ in range(rng.randint(0, 3))]
        accepts = [
            (rng.randrange(n), rng.choice([None, rng.randint(0, 10)]))
            for _ in range(rng.randint(0, 3))
        ]
        stages.append((tenders, accepts))
    budget = rng.choice([None, rng.randint(0, 15)])
    return n, obligations, stages, budget


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
        for s, (tenders, accepts) in enumerate(stages):
            for flow, (_, cap) in zip(tender[s], tenders):
                assert 0 <= flow <= cap
            for flow, (_, cap) in zip(accept[s], accepts):
                assert 0 <= flow
                if cap is not None:
                    assert flow <= cap
            assert sum(tender[s]) == sum(accept[s]) == stage_liq[s]
        if budget is not None:
            assert sum(stage_liq) <= budget


def test_solve_min_cost_dispatches_to_active_backend() -> None:
    inst = random_instance(3)
    assert kernel.solve_min_cost(*inst) == python_solve(*inst)


# --- phase 1 shared between solves -------------------------------------------------


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
            tenders = [(rng.randrange(n), rng.randint(0, 50)) for _ in range(rng.randint(0, 4))]
            accepts = [
                (rng.randrange(n), rng.choice([None, rng.randint(0, 50)]))
                for _ in range(rng.randint(0, 4))
            ]
            stages.append((tenders, accepts))
        budget = rng.choice([None, rng.randint(0, 80)])
        variants.append((stages, budget))
    return (n, arcs), variants


def residual_state(r: _mincost.Residual) -> tuple:
    """A deep copy of everything the residual holds."""
    return (
        r.obligations, r.to.copy(), r.res.copy(), r.cost.copy(),
        [arcs.copy() for arcs in r.adj], r.pi.copy(), r.ob_arc.copy(), r.cycle_ob_flow.copy(),
    )


def test_shared_residual_matches_fresh_solve() -> None:
    for seed in range(150):
        obligations, variants = staged_variants(seed)
        residual = kernel.Residual()
        first = None
        for variant in variants:
            shared = kernel.solve_min_cost(*obligations, *variant, residual=residual)
            if first is None:
                first, filled = shared, residual_state(residual)
            assert shared == python_solve(*obligations, *variant), seed
            assert residual_state(residual) == filled, seed  # phase 2 never writes it
        assert kernel.solve_min_cost(*obligations, *variants[0], residual=residual) == first


def test_residual_refuses_other_obligation_arcs() -> None:
    (n, arcs), variants = staged_variants(7)
    residual = kernel.Residual()
    kernel.solve_min_cost(n, arcs, *variants[0], residual=residual)
    other = [(tail, head, cap + 1) for tail, head, cap in arcs]
    with pytest.raises(ValueError, match="other obligation arcs"):
        kernel.solve_min_cost(n, other, *variants[0], residual=residual)
