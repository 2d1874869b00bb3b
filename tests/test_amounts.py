"""One amount bound: intents are range-checked, everything derived is exact.

``MAX_AMOUNT`` bounds what an intent declares. Sums, flows, balances and
budgets are exact ints of any size, so an epoch whose totals pass the bound
clears like any other.
"""

import random
from dataclasses import replace

from setoff import (
    EpochPool,
    Obligation,
    Tender,
    TenderKind,
    aggregate,
    apply_flow,
    build_network,
    compute_nid,
    is_valid_flow,
    solve_settleable,
)
from setoff.experiments import SyntheticGraphConfig, generate
from setoff.model import MAX_AMOUNT, ascertain
from setoff.settle import NEW_OBLIGATION_PREFIX
from setoff.solver import solve_network

from support import (
    HUB,
    UNIT,
    add_signed,
    funded_ledger,
    make_pool,
    overdraft_past_the_bound_pool,
)

BIG = 2**62  # within the bound; two of them are not


def test_two_chains_into_one_creditor_settle_a_flow_past_the_bound() -> None:
    pool = make_pool("A", "B", "C")
    for debtor in ("A", "B"):
        add_signed(pool, Obligation(id=f"ob:{debtor}", debtor=debtor, creditor="C",
                                    amount=BIG, unit=UNIT))
        add_signed(pool, Tender(id=f"t:{debtor}", sender=debtor, source=HUB,
                                kind=TenderKind.ASSIGNMENT, max_amount=BIG))
    g = aggregate(pool)
    ledger = funded_ledger(("A", UNIT, BIG), ("B", UNIT, BIG))
    flow = solve_settleable(g, ledger=ledger)[0]
    (exit_record,) = {r.amount for r in flow.records if r.edge_ref == "accept:default:C"}
    assert exit_record == 2 * BIG > MAX_AMOUNT
    assert is_valid_flow(g, flow, ledger).ok
    applied = apply_flow(ledger, flow, g)
    assert applied.cleared_debt == 2 * BIG
    assert ledger.balance("C", UNIT) == 2 * BIG
    assert ledger.open_obligations == {}


def test_two_obligations_on_one_pair_sum_past_the_bound() -> None:
    pool = make_pool("A", "B")
    for i in range(2):
        add_signed(pool, Obligation(id=f"ob{i}", debtor="A", creditor="B",
                                    amount=BIG, unit=UNIT))
        add_signed(pool, Tender(id=f"t{i}", sender="A", source=HUB,
                                kind=TenderKind.ASSIGNMENT, max_amount=BIG))
    g = aggregate(pool)
    assert g.edges[("A", "B")].amount == 2 * BIG
    assert g.total_debt() == compute_nid(g) == 2 * BIG
    ledger = funded_ledger(("A", UNIT, 2 * BIG))
    flow, solution = solve_settleable(g, None, ledger)
    assert solution.cleared_debt == 2 * BIG
    assert solution.liquidity_used == {UNIT: 2 * BIG}
    applied = apply_flow(ledger, flow, g)
    assert applied.discharged == {"ob0": BIG, "ob1": BIG}


def test_overdraft_line_caps_are_each_a_declarable_amount() -> None:
    g = aggregate(overdraft_past_the_bound_pool())
    (te,) = g.tender_edges
    assert te.matched_acceptances == ("line",)
    assert te.matched_caps == (MAX_AMOUNT,)
    assert te.cap == MAX_AMOUNT


def test_overdraft_past_the_bound_settles_within_it() -> None:
    g = aggregate(overdraft_past_the_bound_pool())
    ledger = funded_ledger()
    flow, solution = solve_settleable(g, None, ledger)
    applied = apply_flow(ledger, flow, g)
    assert applied.cleared_debt == MAX_AMOUNT
    assert solution.liquidity_used == {"EURX": MAX_AMOUNT}
    (repayment,) = applied.new_obligations
    assert repayment.id == f"{NEW_OBLIGATION_PREFIX}0:t:draw:line"
    assert (repayment.debtor, repayment.creditor) == ("alice", "bank")
    assert repayment.amount == MAX_AMOUNT


SCALE = 2**60


def scaled(g, factor: int):
    """The graph's pool again, every obligation amount times ``factor``, and at
    every firm an assignment tender of the default source capped at ``7 * factor``."""
    pool = g.pool
    out = EpochPool(unit=pool.unit, currencies=pool.currencies,
                    default_source=pool.default_source, registry=pool.registry)
    for ob in pool.obligations.values():
        out.add(ascertain(replace(ob, amount=ob.amount * factor), pool.registry))
    for firm in g.nodes:
        if pool.asset_of(firm) is None:
            out.add(Tender(id=f"tender:default:{firm}", sender=firm, source=pool.default_source,
                           kind=TenderKind.ASSIGNMENT, max_amount=7 * factor), preverified=True)
    return aggregate(out)


def cleared(g, budget):
    _, solution = solve_network(build_network(g, budget=budget))
    return solution.cleared_debt


def test_clearing_scales_exactly_past_the_bound() -> None:
    rng = random.Random(11)
    past_the_bound = 0
    for seed in range(40):
        n = rng.randint(2, 8)
        config = SyntheticGraphConfig(nodes=n, edges=rng.randint(1, min(14, n * (n - 1))),
                                      seed=seed, amount_low=1, amount_high=7)
        base = generate(config)
        big = scaled(base, SCALE)
        base = scaled(base, 1)
        assert big.total_debt() == SCALE * base.total_debt()
        assert compute_nid(big) == SCALE * compute_nid(base)
        budget = compute_nid(base) // 2
        for b in (None, budget):
            want = cleared(base, b)
            assert cleared(big, None if b is None else b * SCALE) == SCALE * want, seed
        past_the_bound += big.total_debt() > MAX_AMOUNT
    assert past_the_bound >= 20
