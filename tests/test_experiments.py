"""Synthetic graphs, the liquidity multiplier sweep, and the exhaustive oracle."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from setoff import (
    Acceptance,
    AcceptanceKind,
    AmountError,
    EpochPool,
    GraphBuildError,
    Obligation,
    Tender,
    TenderKind,
    aggregate,
    ascertain,
    compute_nid,
    experiments,
    kernel,
    verify_ascertainment,
)
from setoff.experiments import (
    CURVE_CSV_HEADER,
    MultiplierPoint,
    SyntheticGraphConfig,
    attach_default_liquidity,
    curve_to_csv,
    generate,
    multiplier_curve,
)
from setoff.graph import build_network
from setoff.solver import solve_network

from support import (
    HUB,
    UNIT,
    OracleBoundError,
    add_signed,
    brute_force_oracle,
    counting_calls,
    counting_verify,
    cycle_pool,
    dump_graph,
    make_pool,
)


# --- generation -------------------------------------------------------------------


def test_generate_is_deterministic() -> None:
    config = SyntheticGraphConfig(nodes=12, edges=30, seed=5)
    assert dump_graph(generate(config)) == dump_graph(generate(config))


def test_generate_seeds_differ() -> None:
    a = generate(SyntheticGraphConfig(nodes=12, edges=30, seed=5))
    b = generate(SyntheticGraphConfig(nodes=12, edges=30, seed=6))
    assert dump_graph(a) != dump_graph(b)


def test_generate_shape() -> None:
    g = generate(SyntheticGraphConfig(nodes=10, edges=20, seed=1))
    assert sum(len(e.obligations) for e in g.edges.values()) == 20
    assert all(d != c for d, c in g.edges)
    assert not g.excluded
    assert "liquidity_hub" in g.nodes  # referenced by the implicit acceptances


def test_generate_amount_bounds() -> None:
    g = generate(SyntheticGraphConfig(
        nodes=8, edges=20, seed=2, amount_low=5, amount_high=7
    ))
    amounts = [g.pool.obligations[ob].amount
               for e in g.edges.values() for ob in e.obligations]
    assert all(5 <= a <= 7 for a in amounts)


def test_generate_lognormal_amounts_at_least_one() -> None:
    g = generate(SyntheticGraphConfig(
        nodes=10, edges=30, seed=3, amount_dist="lognormal",
        lognormal_mu=0.0, lognormal_sigma=2.0,
    ))
    amounts = [g.pool.obligations[ob].amount
               for e in g.edges.values() for ob in e.obligations]
    assert all(a >= 1 for a in amounts)
    assert len(set(amounts)) > 1


def test_generate_parameter_errors() -> None:
    with pytest.raises(GraphBuildError, match="at least 2 nodes"):
        generate(SyntheticGraphConfig(nodes=1, edges=0))
    with pytest.raises(GraphBuildError, match="will not fit"):
        generate(SyntheticGraphConfig(nodes=3, edges=7))
    with pytest.raises(GraphBuildError, match="unknown amount_dist"):
        generate(SyntheticGraphConfig(nodes=3, edges=3, amount_dist="zipf"))


@pytest.mark.parametrize("edges", [0, 3])
def test_generate_refuses_an_unknown_amount_dist_before_drawing(monkeypatch, edges: int) -> None:
    rngs = counting_calls(monkeypatch, random, "Random")
    with pytest.raises(GraphBuildError, match="unknown amount_dist 'bogus'"):
        generate(SyntheticGraphConfig(nodes=3, edges=edges, amount_dist="bogus"))
    assert rngs == []


def test_config_from_obj_rejects_unknown_fields() -> None:
    assert SyntheticGraphConfig.from_obj({"nodes": 4, "edges": 6}).nodes == 4
    with pytest.raises(GraphBuildError, match="unknown config fields.*placement"):
        SyntheticGraphConfig.from_obj({"nodes": 4, "placement": "all"})


# --- liquidity placement --------------------------------------------------------


def test_attach_net_debtor_tenders_cover_nid() -> None:
    g = generate(SyntheticGraphConfig(nodes=10, edges=25, seed=4))
    equipped = attach_default_liquidity(g)
    total_tender = sum(t.max_amount for t in equipped.pool.tenders.values())
    assert total_tender == compute_nid(g)
    assert all(t.id.startswith("tender:default:")
               for t in equipped.pool.tenders.values())
    # Obligations are untouched.
    assert dump_graph(g).splitlines()[1:26] == dump_graph(equipped).splitlines()[1:26]


# The SHA-256 of the 250-firm sweep graph's dump, and of its intents' tokens in pool
# order, one "<id> <token>" line each; the default tenders carry no token.
SWEEP_GRAPH_SHA256 = "d52692244f2610de3eaae1ed034e7cc11cd66ba11c2e26f81e2fe7e416c9b7c5"
SWEEP_TOKENS_SHA256 = "67fa1e64c9258fa7a1b2462f1deb279d1224d7fd583e3a77206d5451bf7d9d37"


def pool_intents(pool: EpochPool) -> list:
    return [*pool.obligations.values(), *pool.acceptances.values(), *pool.tenders.values()]


def test_sweep_graph_and_tokens_are_pinned() -> None:
    g = attach_default_liquidity(generate(SyntheticGraphConfig(
        nodes=250, edges=1000, seed=100, amount_dist="lognormal"
    )))
    tokens = "".join(f"{i.id} {i.ascertainment}\n" for i in pool_intents(g.pool))
    assert hashlib.sha256(dump_graph(g).encode()).hexdigest() == SWEEP_GRAPH_SHA256
    assert hashlib.sha256(tokens.encode()).hexdigest() == SWEEP_TOKENS_SHA256


def test_generated_intents_are_signed_and_not_checked_again(monkeypatch) -> None:
    checked = counting_verify(monkeypatch)
    adds = counting_calls(monkeypatch, EpochPool, "add")
    folds = counting_calls(monkeypatch, experiments, "aggregate")
    made = counting_calls(monkeypatch, Obligation, "__post_init__")
    g = generate(SyntheticGraphConfig(nodes=30, edges=120, seed=3))
    equipped = attach_default_liquidity(g)
    assert checked == []
    assert len(adds) == 120 + len(equipped.pool.tenders)
    assert len(folds) == 1  # generate's; the attachment folds nothing again
    assert len(made) == 120  # signing copies an obligation without checking it again
    # Every preverified intent is signed, but for the default tenders the
    # attachment makes itself, which carry no token.
    for graph in (g, equipped):
        for intent in pool_intents(graph.pool):
            if intent.id.startswith("tender:default:"):
                assert graph is equipped and intent.ascertainment is None
            else:
                assert verify_ascertainment(intent, graph.pool.registry), intent.id
    assert not g.excluded and not equipped.excluded


def test_attach_copies_the_pool_and_keeps_its_checks(monkeypatch) -> None:
    pool = make_pool("a", "b", "c")
    add_signed(pool, Obligation(id="o1", debtor="a", creditor="b", amount=30, unit=UNIT))
    add_signed(pool, Obligation(id="o2", debtor="b", creditor="c", amount=20, unit=UNIT))
    pool.add(ascertain(Obligation(id="o3", debtor="c", creditor="a", amount=5, unit=UNIT),
                       pool.registry), preverified=True)
    good = ascertain(Obligation(id="bad", debtor="a", creditor="c", amount=9, unit=UNIT),
                     pool.registry)
    pool.add(dataclasses.replace(good, amount=90))  # a token that does not match
    g = aggregate(pool)
    assert g.excluded == (("bad", "ascertainment failed"),)
    agents = ("a", "b", "c", HUB)
    before = ([dict(t) for t in (pool.obligations, pool.acceptances, pool.tenders)],
              set(pool.preverified), [pool.held_by(a) for a in agents])

    checked = counting_verify(monkeypatch)
    equipped = attach_default_liquidity(g)
    assert checked == []  # g's exclusion of "bad" carries over unchecked, like its admissions
    assert ("bad", "ascertainment failed") in equipped.excluded
    assert before == ([dict(t) for t in (pool.obligations, pool.acceptances, pool.tenders)],
                      set(pool.preverified), [pool.held_by(a) for a in agents])
    assert list(equipped.pool.tenders) == ["tender:default:a"]  # a is the one net debtor

    by_add = EpochPool(unit=UNIT, currencies={UNIT: HUB}, default_source=HUB,
                       registry=pool.registry)
    for intent in pool_intents(equipped.pool):
        by_add.add(intent)
    assert [equipped.pool.held_by(a) for a in agents] == [by_add.held_by(a) for a in agents]


def graph_parts(g) -> tuple:
    return g.nodes, g.edges, g.tender_edges, g.acceptance_edges, g.excluded


@pytest.mark.parametrize("placement", ["net_debtors", "all"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_attach_builds_the_aggregate_of_its_pool(seed: int, placement: str) -> None:
    g = generate(SyntheticGraphConfig(nodes=15, edges=40, seed=seed, amount_dist="lognormal"))
    equipped = attach_default_liquidity(g, placement)
    assert equipped.pool is not g.pool
    assert graph_parts(equipped) == graph_parts(aggregate(equipped.pool))


@pytest.mark.parametrize("placement", ["net_debtors", "all"])
def test_attach_builds_the_aggregate_of_a_mixed_pool(placement: str) -> None:
    # A foreign deposit acceptance, an overdraft backed by two repayment
    # lines, a foreign tender without a price and a token that does not match.
    pool = make_pool("a", "b", "c", "d", currencies={UNIT: HUB, "EURX": "bank"})
    for k, (debtor, creditor, amount) in enumerate(
        [("a", "b", 40), ("b", "c", 25), ("c", "d", 30), ("d", "a", 10), ("b", "d", 7)]
    ):
        add_signed(pool, Obligation(id=f"o{k}", debtor=debtor, creditor=creditor,
                                    amount=amount, unit=UNIT))
    add_signed(pool, Acceptance(id="acc:eurx", origin="c", target="bank",
                                kind=AcceptanceKind.DEPOSIT, currency="EURX", limit=50))
    for k, due in enumerate(["2027-03-01", "2027-01-31"]):
        add_signed(pool, Acceptance(id=f"line{k}", origin="d", target="b",
                                    kind=AcceptanceKind.REPAYMENT, currency=UNIT,
                                    limit=6, repayment_due=due))
    add_signed(pool, Tender(id="x:draw", sender="b", source="d",
                            kind=TenderKind.OVERDRAFT, max_amount=20))
    add_signed(pool, Tender(id="t:eurx", sender="a", source="bank",
                            kind=TenderKind.ASSIGNMENT, max_amount=9))
    good = ascertain(Obligation(id="o:bad", debtor="a", creditor="c", amount=9, unit=UNIT),
                     pool.registry)
    pool.add(dataclasses.replace(good, amount=90))
    g = aggregate(pool)
    assert ("t:eurx", "tender has no price for EURX") in g.excluded
    assert ("o:bad", "ascertainment failed") in g.excluded
    assert [te.tender_id for te in g.tender_edges] == ["x:draw"]
    assert g.tender_edges[0].matched_acceptances == ("line1", "line0")
    assert "acc:eurx" in [ae.edge_id for ae in g.acceptance_edges]

    equipped = attach_default_liquidity(g, placement)
    assert len(equipped.pool.tenders) > 2
    assert graph_parts(equipped) == graph_parts(aggregate(equipped.pool))


def test_attach_all_places_tenders_everywhere() -> None:
    g = generate(SyntheticGraphConfig(nodes=6, edges=10, seed=4))
    tenders = attach_default_liquidity(g, placement="all").pool.tenders
    firms = [a for a in g.nodes if a != "liquidity_hub"]
    assert len(tenders) == len(firms)
    assert all(t.max_amount == g.total_debt() for t in tenders.values())


def test_attach_errors() -> None:
    g = generate(SyntheticGraphConfig(nodes=6, edges=10, seed=4))
    with pytest.raises(GraphBuildError, match="unknown placement"):
        attach_default_liquidity(g, placement="everywhere")
    bare = aggregate(make_pool("a", "b", default_source=None))
    with pytest.raises(GraphBuildError, match="no default liquidity source"):
        attach_default_liquidity(bare)


# --- multiplier curve ------------------------------------------------------------


def test_curve_pure_cycle_clears_at_zero() -> None:
    g = attach_default_liquidity(aggregate(cycle_pool_closed()))
    (point,) = multiplier_curve(g, [0.0])
    assert point.budget == 0
    assert point.debt_cleared_fraction == 1.0
    assert point.avg_ap_cleared_fraction == 1.0


def cycle_pool_closed():
    # A balanced 3-cycle: every firm's payable equals its receivable.
    pool = make_pool("x", "y", "z")
    for k, (d, c) in enumerate([("x", "y"), ("y", "z"), ("z", "x")]):
        add_signed(pool, Obligation(id=f"o{k}", debtor=d, creditor=c,
                                    amount=10, unit=UNIT))
    return pool


def test_curve_acyclic_needs_liquidity() -> None:
    pool = make_pool("x", "y")
    add_signed(pool, Obligation(id="o", debtor="x", creditor="y", amount=10, unit=UNIT))
    g = attach_default_liquidity(aggregate(pool))
    zero, half, full = multiplier_curve(g, [0.0, 0.5, 1.0])
    assert zero.cleared_debt == 0 and zero.debt_cleared_fraction == 0.0
    assert half.budget == 5 and half.cleared_debt == 5
    assert full.debt_cleared_fraction == 1.0


def test_curve_monotone_and_saturates_at_nid() -> None:
    g = attach_default_liquidity(generate(SyntheticGraphConfig(
        nodes=12, edges=35, seed=9
    )))
    total = g.total_debt()
    nid_fraction = compute_nid(g) / total
    fractions = [0.0, nid_fraction / 2, nid_fraction, 1.0]
    points = multiplier_curve(g, fractions)
    cleared = [p.cleared_debt for p in points]
    assert cleared == sorted(cleared)
    assert points[2].debt_cleared_fraction == 1.0
    assert points[3].debt_cleared_fraction == 1.0
    assert points[1].debt_cleared_fraction < 1.0


def test_curve_budget_floors_fraction() -> None:
    pool = make_pool("x", "y")
    add_signed(pool, Obligation(id="o", debtor="x", creditor="y", amount=7, unit=UNIT))
    g = attach_default_liquidity(aggregate(pool))
    (point,) = multiplier_curve(g, [0.5])
    assert point.budget == 3  # floor(0.5 * 7)


def test_curve_to_csv_layout() -> None:
    g = attach_default_liquidity(aggregate(cycle_pool_closed()))
    text = curve_to_csv(multiplier_curve(g, [0.0, 1.0]))
    lines = text.splitlines()
    assert lines[0] == ",".join(CURVE_CSV_HEADER)
    assert lines[1] == "0.0,1.0,1.0"
    assert len(lines) == 3


def test_curve_rejects_negative_budget() -> None:
    pool = make_pool("x", "y")
    add_signed(pool, Obligation(id="o", debtor="x", creditor="y", amount=10, unit=UNIT))
    g = attach_default_liquidity(aggregate(pool))
    # -0.05 of 10 truncates to budget 0; it is refused all the same.
    for bad in (-0.5, -0.05, -1e-12, math.nan, math.inf, -math.inf, 1e308):
        with pytest.raises(AmountError, match="non-negative"):
            multiplier_curve(g, [0.5, bad])


# --- the sweep against one solve per budget ---------------------------------------


def reference_point(g, fraction: float) -> MultiplierPoint:
    """The point from the kernel's per-arc flows, solved at the fraction's floored budget.

    It reads the obligation arcs' flows straight from one kernel call on the
    lowered network, not the records of the settlement flow the sweep reads.
    """
    total = g.total_debt()
    budget = int(fraction * total)
    net = build_network(g, budget=budget)
    ob_flows = kernel.solve_min_cost(
        len(net.nodes),
        [(a.tail, a.head, a.cap) for a in net.ob_arcs],
        [
            ([(a.node, a.cap, a.pot) for a in stage.tender_arcs],
             [(a.node, a.cap, a.pot) for a in stage.accept_arcs],
             [pot.cap for pot in stage.pots])
            for stage in net.stages
        ],
        net.budget,
    )[1]
    by_debtor: dict[str, int] = {}
    for arc, flow in zip(net.ob_arcs, ob_flows):
        by_debtor[arc.debtor] = by_debtor.get(arc.debtor, 0) + flow
    payables: dict[str, int] = {}
    for (debtor, _), edge in g.edges.items():
        payables[debtor] = payables.get(debtor, 0) + edge.amount
    cleared = sum(ob_flows)
    avg_ap = sum(by_debtor.get(d, 0) / p for d, p in payables.items() if p) / len(payables)
    return MultiplierPoint(
        liquidity_fraction=fraction,
        budget=budget,
        cleared_debt=cleared,
        debt_cleared_fraction=cleared / total,
        avg_ap_cleared_fraction=avg_ap,
    )


def every_budget(g) -> list[float]:
    """Fractions whose floored budgets are 0, 1, ..., total debt."""
    total = g.total_debt()
    fractions = [(b + 0.5) / total for b in range(total)] + [1.0]
    assert [int(f * total) for f in fractions] == list(range(total + 1))
    return fractions


def two_stage_graph(seed: int):
    """Random debts; net debtors tender hub units or EURX at 11/10 in turn.

    EURX sorts before the unit, so its chains run first and the unit's
    second; budgets then run out inside either stage or at the boundary.
    """
    rng = random.Random(seed)
    firms = [f"f{i}" for i in range(8)]
    pool = make_pool(*firms, currencies={UNIT: HUB, "EURX": "bank"})
    pairs = sorted({(rng.randrange(8), rng.randrange(8)) for _ in range(20)})
    net = dict.fromkeys(firms, 0)
    for k, (i, j) in enumerate(p for p in pairs if p[0] != p[1]):
        amount = rng.randint(1, 12)
        add_signed(pool, Obligation(id=f"ob{k}", debtor=firms[i], creditor=firms[j],
                                    amount=amount, unit=UNIT))
        net[firms[i]] -= amount
        net[firms[j]] += amount
    debtors = [f for f in firms if net[f] < 0]
    for k, firm in enumerate(debtors):
        if k % 2:
            tender = Tender(id=f"t:{firm}", sender=firm, source=HUB,
                            kind=TenderKind.ASSIGNMENT, max_amount=-net[firm])
        else:
            tender = Tender(id=f"t:{firm}", sender=firm, source="bank",
                            kind=TenderKind.ASSIGNMENT, max_amount=-net[firm],
                            price=Fraction(11, 10))
        add_signed(pool, tender)
    for firm in firms[::2]:
        add_signed(pool, Acceptance(id=f"acc:{firm}", origin=firm, target="bank",
                                    kind=AcceptanceKind.DEPOSIT, currency="EURX",
                                    limit=None))
    return aggregate(pool)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_curve_matches_per_budget_solves(seed: int) -> None:
    g = attach_default_liquidity(generate(SyntheticGraphConfig(
        nodes=8, edges=20, seed=seed, amount_high=15
    )))
    fractions = every_budget(g)
    assert multiplier_curve(g, fractions) == [reference_point(g, f) for f in fractions]


def test_curve_keeps_fraction_order_and_repeats() -> None:
    g = attach_default_liquidity(generate(SyntheticGraphConfig(
        nodes=10, edges=30, seed=11, amount_dist="lognormal"
    )))
    fractions = [0.5, 0.1, 0.5, 0.0, 1.0, 0.1, 0.25, 0.0]
    points = multiplier_curve(g, fractions)
    assert [p.liquidity_fraction for p in points] == fractions
    assert points == [reference_point(g, f) for f in fractions]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_curve_matches_per_budget_solves_across_stages(seed: int) -> None:
    g = two_stage_graph(seed)
    _, solution = solve_network(build_network(g))
    # Budgets below the EURX stage's liquidity run out inside it; the budget
    # equal to it runs out at the boundary; larger ones reach the unit stage.
    assert solution.liquidity_used["EURX"] > 1
    assert solution.liquidity_used[UNIT] > 0
    fractions = every_budget(g)
    assert multiplier_curve(g, fractions) == [reference_point(g, f) for f in fractions]


# --- exhaustive oracle ------------------------------------------------------------


def test_oracle_frozen_cycle_values() -> None:
    g = aggregate(cycle_pool())
    assert brute_force_oracle(g, 0) == 60
    assert brute_force_oracle(g, 10) == 80
    assert brute_force_oracle(g, 24) == 94
    assert brute_force_oracle(g, 25) == 95
    assert brute_force_oracle(g, 100) == 95


def test_oracle_single_edge() -> None:
    pool = make_pool("x", "y")
    add_signed(pool, Obligation(id="o", debtor="x", creditor="y", amount=10, unit=UNIT))
    g = aggregate(pool)
    assert brute_force_oracle(g, 0) == 0
    assert brute_force_oracle(g, 4) == 4
    assert brute_force_oracle(g, 10) == 10


def test_oracle_refuses_large_instances() -> None:
    g6 = generate(SyntheticGraphConfig(nodes=6, edges=8, seed=0))
    with pytest.raises(OracleBoundError, match="exceed the oracle bound"):
        brute_force_oracle(g6, 0)
    pool = make_pool("a", "b", "c")
    for k, (d, c) in enumerate([("a", "b"), ("b", "c"), ("c", "a")]):
        add_signed(pool, Obligation(id=f"o{k}", debtor=d, creditor=c,
                                    amount=1000, unit=UNIT))
    with pytest.raises(OracleBoundError, match="search space"):
        brute_force_oracle(aggregate(pool), 0)
