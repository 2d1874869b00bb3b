"""One solve against an exact integer program on small credit epochs.

``solve_settleable`` lowers each payer's balance into the flow network as a
pot, so its kernel optimum should be the most debt a settleable flow clears.
The oracle here computes that most, exactly: a mixed-integer program
(``scipy.optimize.milp``) over the arc flows of the declared network, with

* conservation at every firm node,
* tender, acceptance and obligation arc caps,
* per payer u, new money ``n_u >= tendered(u) - accepted(u)`` and
  ``0 <= n_u <= balance(u)``, with no upper bound for the issuer, and
* total new money ``sum n_u`` at most the budget,

which is exactly "the transfers overdraw nobody" in a single-currency stage:
a payer pays out what it tenders, less what it takes back as an origin. A
credit line that clears a cycle through its own lender takes back all it
pays, so it draws no new money.

A second test mixes two currencies at differing prices, where the oracle
does not reach, and asks only that ``apply_flow`` accepts every flow.
"""

import random
from fractions import Fraction

import pytest

from setoff import (
    Acceptance,
    AcceptanceKind,
    Obligation,
    Tender,
    TenderKind,
    aggregate,
    apply_flow,
    build_network,
    compute_nid,
    solve_settleable,
)
from setoff.solver import cancel_cycles

from support import HUB, UNIT, add_signed, credit_epoch, funded_ledger, make_pool

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")


def most_clearable(g, ledger, budget) -> int:
    """The most debt any integral, balance-bounded flow clears (the MILP optimum)."""
    net = build_network(g)
    (stage,) = net.stages
    ob_arcs, tenders, accepts = net.ob_arcs, stage.tender_arcs, stage.accept_arcs
    payers = sorted({a.edge.payer for a in tenders})
    n_ob, n_t, n_a = len(ob_arcs), len(tenders), len(accepts)
    n_vars = n_ob + n_t + n_a + len(payers)
    issuer = g.pool.issuer_of(UNIT)
    upper = (
        [a.cap for a in ob_arcs]
        + [a.cap for a in tenders]
        + [np.inf if a.cap is None else a.cap for a in accepts]
        + [np.inf if u == issuer else max(0, ledger.balance(u, UNIT)) for u in payers]
    )
    rows, lower_b, upper_b = [], [], []

    def row(terms, lo, hi):
        r = np.zeros(n_vars)
        for var, coef in terms:
            r[var] += coef
        rows.append(r)
        lower_b.append(lo)
        upper_b.append(hi)

    for node in range(len(net.nodes)):  # inflow - outflow = 0 at every firm
        terms = [(i, 1) for i, a in enumerate(ob_arcs) if a.head == node]
        terms += [(i, -1) for i, a in enumerate(ob_arcs) if a.tail == node]
        terms += [(n_ob + j, 1) for j, a in enumerate(tenders) if a.node == node]
        terms += [(n_ob + n_t + k, -1) for k, a in enumerate(accepts) if a.node == node]
        row(terms, 0, 0)
    new_money = n_ob + n_t + n_a
    for p, u in enumerate(payers):  # tendered(u) - accepted(u) - n_u <= 0
        terms = [(n_ob + j, 1) for j, a in enumerate(tenders) if a.edge.payer == u]
        terms += [(n_ob + n_t + k, -1) for k, a in enumerate(accepts) if a.edge.origin == u]
        row(terms + [(new_money + p, -1)], -np.inf, 0)
    if budget is not None:
        row([(new_money + p, 1) for p in range(len(payers))], -np.inf, budget)

    result = optimize.milp(
        c=np.array([-1.0] * n_ob + [0.0] * (n_vars - n_ob)),
        integrality=np.ones(n_vars),
        bounds=optimize.Bounds(np.zeros(n_vars), np.array(upper, dtype=float)),
        constraints=[optimize.LinearConstraint(np.array(rows), lower_b, upper_b)],
    )
    assert result.status == 0, result.message
    return round(-result.fun)


def test_one_solve_clears_the_exact_optimum() -> None:
    bound = recycled = 0
    for seed in range(150):
        g, ledger, budget = credit_epoch(random.Random(seed))
        best = most_clearable(g, ledger, budget)
        for arc_seed in (None, seed, seed + 1000):
            flow, solution = solve_settleable(g, budget, ledger, seed=arc_seed)
            assert solution.cleared_debt == best, (seed, arc_seed)
            apply_flow(ledger.copy(), flow, g)  # and it settles as it is
        # The oracle is exercised: balances bind, and with no assets at all
        # credit lines still clear beyond the cycles, through their lenders.
        rich = funded_ledger(*((u, UNIT, 10**6) for u in g.nodes))
        bound += solve_settleable(g, budget, rich)[1].cleared_debt > best
        _, broke = solve_settleable(g, budget, funded_ledger())
        recycled += broke.cleared_debt > sum(cancel_cycles(build_network(g)).values())
    assert bound >= 30 and recycled >= 10


FX = "EURX"
PRICES = (Fraction(9, 10), Fraction(1), Fraction(11, 10), Fraction(3, 2), Fraction(2))


def two_currency_epoch(rng: random.Random):
    """UOA and EURX: 1-2 tenders per payer at mixed prices, deposits, credit lines in either."""
    firms = [f"f{i}" for i in range(rng.randint(3, 7))]
    pool = make_pool(*firms, currencies={UNIT: HUB, FX: "ecb"})
    for i in range(rng.randint(len(firms), 2 * len(firms))):
        debtor, creditor = rng.sample(firms, 2)
        add_signed(pool, Obligation(id=f"ob{i}", debtor=debtor, creditor=creditor,
                                    amount=rng.randint(1, 50), unit=UNIT))
    for firm in firms:
        if rng.random() < 0.6:
            add_signed(pool, Acceptance(id=f"dep:{firm}", origin=firm, target="ecb",
                                        kind=AcceptanceKind.DEPOSIT, currency=FX,
                                        limit=rng.choice((None, rng.randint(1, 40)))))
    for sender in rng.sample(firms, rng.randint(1, len(firms))):
        for k in range(rng.randint(1, 2)):
            fx = rng.random() < 0.6
            add_signed(pool, Tender(id=f"t:{sender}:{k}", sender=sender,
                                    source="ecb" if fx else HUB, kind=TenderKind.ASSIGNMENT,
                                    max_amount=rng.randint(1, 40),
                                    price=rng.choice(PRICES) if fx else None))
    for i in range(rng.randint(0, 3)):
        sender, lender = rng.sample(firms, 2)
        fx = rng.random() < 0.5
        add_signed(pool, Acceptance(id=f"line{i}", origin=lender, target=sender,
                                    kind=AcceptanceKind.REPAYMENT, currency=FX if fx else UNIT,
                                    limit=rng.randint(1, 40)))
        add_signed(pool, Tender(id=f"t:d{i}", sender=sender, source=lender,
                                kind=TenderKind.OVERDRAFT, max_amount=rng.randint(1, 40),
                                price=rng.choice(PRICES) if fx else None))
    g = aggregate(pool)
    ledger = funded_ledger(*(
        (firm, code, rng.choice((0, rng.randint(0, 30))))
        for firm in firms
        for code in (UNIT, FX)
    ))
    budget = rng.choice((None, compute_nid(g) // 2, rng.randint(0, 60)))
    return g, ledger, budget


def test_mixed_price_flows_overdraw_nobody() -> None:
    # A payer pays sum floor(n_i / p_i) over its tenders' flows n_i to
    # others, at most its pot's cap converted at its lowest price, so no
    # price mix overdraws it.
    fx_paid = 0
    for seed in range(400):
        g, ledger, budget = two_currency_epoch(random.Random(seed))
        flow, _ = solve_settleable(g, budget, ledger, seed=seed)
        applied = apply_flow(ledger.copy(), flow, g)  # raises InvalidFlow on an overdraft
        fx_paid += any(asset == FX and delta < 0 for (_, asset), delta in applied.balance_deltas.items())
    assert fx_paid >= 100  # EURX transfers are exercised
