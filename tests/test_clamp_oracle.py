"""The clamp rounds against an exact integer program on small credit epochs.

``solve_settleable`` keeps a flow settleable by clamping overdrawn payers'
tenders to their balances and solving again. That is conservative, so its
cleared debt is a lower bound on the most debt a balance-bounded flow can
clear. The oracle here computes that most, exactly: a mixed-integer program
(``scipy.optimize.milp``) over the arc flows of the lowered network, with

* conservation at every firm node,
* tender, acceptance and obligation arc caps,
* total tender flow at most the budget, and
* ``tendered(u) - accepted(u) <= balance(u)`` for every non-issuer payer u,

which is exactly "the transfers overdraw nobody" in a single-currency stage:
a payer pays out what it tenders, less what it takes back as an origin.
"""

import random

import pytest

from setoff import (
    Acceptance,
    AcceptanceKind,
    Obligation,
    Tender,
    TenderKind,
    aggregate,
    build_network,
    compute_nid,
    solve_settleable,
)
from setoff import solver

from support import HUB, UNIT, add_signed, counting_calls, funded_ledger, make_pool

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")


def credit_epoch(rng: random.Random):
    """A single-currency epoch of 3-8 firms with assignments, credit lines and balances."""
    firms = [f"f{i}" for i in range(rng.randint(3, 8))]
    pool = make_pool(*firms)
    for i in range(rng.randint(len(firms), 2 * len(firms))):
        debtor, creditor = rng.sample(firms, 2)
        add_signed(pool, Obligation(id=f"ob{i}", debtor=debtor, creditor=creditor,
                                    amount=rng.randint(1, 50), unit=UNIT))
    for i, sender in enumerate(rng.sample(firms, rng.randint(0, len(firms)))):
        add_signed(pool, Tender(id=f"t:a{i}", sender=sender, source=HUB,
                                kind=TenderKind.ASSIGNMENT, max_amount=rng.randint(1, 40)))
    for i in range(rng.randint(0, 3)):
        sender, lender = rng.sample(firms, 2)
        add_signed(pool, Acceptance(id=f"acc{i}", origin=lender, target=sender,
                                    kind=AcceptanceKind.REPAYMENT, currency=UNIT,
                                    limit=rng.randint(1, 40)))
        add_signed(pool, Tender(id=f"t:d{i}", sender=sender, source=lender,
                                kind=TenderKind.OVERDRAFT, max_amount=rng.randint(1, 40)))
    g = aggregate(pool)
    ledger = funded_ledger(*(
        (firm, UNIT, rng.choice((0, rng.randint(0, 30)))) for firm in firms
    ))
    budget = rng.choice((None, compute_nid(g) // 2, rng.randint(0, 60)))
    return g, ledger, budget


def most_clearable(g, ledger, budget) -> int:
    """The most debt any integral, balance-bounded flow clears (the MILP optimum)."""
    net = build_network(g, budget=budget)
    (stage,) = net.stages
    n_ob, n_t = len(net.ob_arcs), len(stage.tender_arcs)
    n_vars = n_ob + n_t + len(stage.accept_arcs)
    upper = [a.cap for a in net.ob_arcs] + [a.cap for a in stage.tender_arcs] + [
        np.inf if a.cap is None else a.cap for a in stage.accept_arcs
    ]
    rows, lower_b, upper_b = [], [], []

    def row(terms, lo, hi):
        r = np.zeros(n_vars)
        for var, coef in terms:
            r[var] += coef
        rows.append(r)
        lower_b.append(lo)
        upper_b.append(hi)

    for node in range(len(net.nodes)):  # inflow - outflow = 0
        terms = [(i, 1) for i, a in enumerate(net.ob_arcs) if a.head == node]
        terms += [(i, -1) for i, a in enumerate(net.ob_arcs) if a.tail == node]
        terms += [(n_ob + j, 1) for j, a in enumerate(stage.tender_arcs) if a.node == node]
        terms += [(n_ob + n_t + k, -1) for k, a in enumerate(stage.accept_arcs) if a.node == node]
        row(terms, 0, 0)
    if budget is not None:
        row([(n_ob + j, 1) for j in range(n_t)], -np.inf, budget)
    payers = {a.edge.payer for a in stage.tender_arcs} - {g.pool.issuer_of(UNIT)}
    for u in sorted(payers):
        terms = [(n_ob + j, 1) for j, a in enumerate(stage.tender_arcs) if a.edge.payer == u]
        terms += [(n_ob + n_t + k, -1)
                  for k, a in enumerate(stage.accept_arcs) if a.edge.origin == u]
        row(terms, -np.inf, max(0, ledger.balance(u, UNIT)))

    result = optimize.milp(
        c=np.array([-1.0] * n_ob + [0.0] * (n_vars - n_ob)),
        integrality=np.ones(n_vars),
        bounds=optimize.Bounds(np.zeros(n_vars), np.array(upper, dtype=float)),
        constraints=[optimize.LinearConstraint(np.array(rows), lower_b, upper_b)],
    )
    assert result.status == 0, result.message
    return round(-result.fun)


def test_clamp_rounds_clear_at_most_the_exact_optimum(monkeypatch) -> None:
    clamp_calls = counting_calls(monkeypatch, solver, "clamp_network")
    clamped = short = 0
    for seed in range(150):
        g, ledger, budget = credit_epoch(random.Random(seed))
        clamp_calls.clear()
        _, solution = solve_settleable(g, budget, ledger)
        best = most_clearable(g, ledger, budget)
        assert solution.cleared_debt <= best, seed
        if not clamp_calls:  # the first round overdrew nobody: it is the optimum
            assert solution.cleared_debt == best, seed
        clamped += bool(clamp_calls)
        short += solution.cleared_debt < best
    assert clamped >= 30  # the clamp rounds are exercised
    assert short >= 1  # and the oracle can tell them short
