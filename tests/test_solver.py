"""Clearing solver: cycle set-off, budgeted chains, and full solves."""

import random

import pytest

from setoff import (
    Acceptance,
    AcceptanceKind,
    InvalidFlow,
    Ledger,
    Obligation,
    Tender,
    TenderKind,
    aggregate,
    apply_flow,
    build_network,
    compute_nid,
    net_positions,
    solve,
    solve_settleable,
)
from setoff import _mincost, kernel, solver, validate
from setoff.experiments import SyntheticGraphConfig, attach_default_liquidity, generate
from setoff.solver import cancel_cycles, solve_network
from setoff.validate import is_valid_flow

from support import (
    HUB,
    UNIT,
    add_signed,
    chain_pool,
    counting_calls,
    cycle_pool,
    funded_ledger,
    make_pool,
    p2p_loan_pool,
    random_liquidity_pool,
    two_currency_pool,
)


def tender_flows(solution) -> dict[str, int]:
    return {k: v for k, v in solution.arc_flows.items() if k.startswith(("t:", "tender:"))}


# --- cycle component -----------------------------------------------------------


def test_cancel_cycles_three_firm_cycle() -> None:
    net = build_network(aggregate(cycle_pool()))
    sol = cancel_cycles(net)
    assert sol.arc_flows == {"ob:A>B": 20, "ob:B>C": 20, "ob:C>A": 20}
    assert sol.cleared_debt == 60
    assert sol.liquidity_used == {}


def test_cancel_cycles_acyclic_graph_clears_nothing() -> None:
    net = build_network(aggregate(chain_pool(3)))
    sol = cancel_cycles(net)
    assert sol.cleared_debt == 0
    assert sol.arc_flows == {}


def test_cancel_cycles_two_cycle() -> None:
    pool = make_pool("a", "b")
    add_signed(pool, Obligation(id="o1", debtor="a", creditor="b", amount=20, unit=UNIT))
    add_signed(pool, Obligation(id="o2", debtor="b", creditor="a", amount=45, unit=UNIT))
    sol = cancel_cycles(build_network(aggregate(pool)))
    assert sol.cleared_debt == 40
    assert sol.arc_flows == {"ob:a>b": 20, "ob:b>a": 20}


def test_cancel_cycles_preserves_net_positions() -> None:
    for seed in range(25):
        g = generate(SyntheticGraphConfig(nodes=8, edges=20, seed=seed))
        sol = cancel_cycles(build_network(g))
        delta: dict[str, int] = {}
        for key, f in sol.arc_flows.items():
            debtor, creditor = key.removeprefix("ob:").split(">")
            delta[debtor] = delta.get(debtor, 0) - f
            delta[creditor] = delta.get(creditor, 0) + f
        assert all(v == 0 for v in delta.values()), f"seed {seed}: {delta}"


# --- full solve: frozen instances -------------------------------------------------


def test_solve_cycle_zero_budget() -> None:
    g = aggregate(cycle_pool(with_tenders=True))
    net = build_network(g, budget=0)
    flow, sol = solve_network(net)
    assert sol.cleared_debt == 60
    assert sol.liquidity_used == {}
    assert flow.transfers == ()
    discharged = {}
    for r in flow.records:
        if r.edge_ref.startswith("ob"):
            discharged[r.edge_ref] = r.amount
    assert discharged == {"ob0": 20, "ob1": 20, "ob2": 20}


def test_solve_cycle_full_budget() -> None:
    g = aggregate(cycle_pool(with_tenders=True))
    net = build_network(g, budget=25)
    flow, sol = solve_network(net)
    assert sol.cleared_debt == 95
    assert sol.liquidity_used == {UNIT: 25}
    assert sol.arc_flows["t:B"] == 10
    assert sol.arc_flows["t:C"] == 15
    # Both tenders exit at A, the one net creditor.
    moved = {(t.payer, t.payee): t.amount for t in flow.transfers}
    assert moved == {("B", "A"): 10, ("C", "A"): 15}


@pytest.mark.parametrize("k", [2, 4])
def test_solve_chain_single_transfer(k: int) -> None:
    g = aggregate(chain_pool(k))
    flow, sol = solve_network(build_network(g))
    assert sol.cleared_debt == 20 * k
    assert sol.liquidity_used == {UNIT: 20}
    assert flow.transfers == (
        flow.transfers[0],
    ) and flow.transfers[0].payer == "F0" and flow.transfers[0].payee == f"F{k}"
    assert flow.transfers[0].amount == 20 and flow.transfers[0].asset == UNIT


def test_solve_p2p_loan_without_assets() -> None:
    g = aggregate(p2p_loan_pool())
    ledger = Ledger()  # nobody holds anything
    flow, sol = solve_settleable(g, None, ledger)
    assert sol.cleared_debt == 20
    # The draw exits at carol, its own facility, and feeds her pot back: it
    # is no new money, and no transfer is needed.
    assert sol.liquidity_used == {}
    assert sol.arc_flows["t:draw"] == 10
    assert flow.transfers == ()
    assert is_valid_flow(g, flow, ledger).ok


def test_solve_two_currency_stages() -> None:
    g = aggregate(two_currency_pool())
    flow, sol = solve_network(build_network(g))
    assert sol.cleared_debt == 40
    assert sol.liquidity_used == {"ATOMX": 10, "USDX": 10}
    moved = {(t.payer, t.payee, t.asset): t.amount for t in flow.transfers}
    assert moved == {("A", "C", "USDX"): 10, ("D", "F", "ATOMX"): 5}
    # Tender records carry the currency leg alongside the unit amount.
    atom_records = [r for r in flow.records if r.edge_ref == "t:atom"]
    assert all(r.amount == 10 and r.currency_amount == (5, "ATOMX") for r in atom_records)


def test_solve_two_currency_budget_crosses_stages() -> None:
    g = aggregate(two_currency_pool())
    flow, sol = solve_network(build_network(g, budget=15))
    # Stages run in currency order: ATOMX drains 10, USDX gets the last 5.
    assert sol.liquidity_used == {"ATOMX": 10, "USDX": 5}
    assert sol.cleared_debt == 30


def test_solve_issuer_pays_own_debt() -> None:
    pool = make_pool("a")
    add_signed(pool, Obligation(id="o", debtor=HUB, creditor="a", amount=10, unit=UNIT))
    add_signed(pool, Tender(id="t", sender=HUB, source=HUB,
                            kind=TenderKind.ASSIGNMENT, max_amount=10))
    g = aggregate(pool)
    ledger = Ledger()
    flow, sol = solve_settleable(g, None, ledger)
    assert sol.cleared_debt == 10
    moved = {(t.payer, t.payee): t.amount for t in flow.transfers}
    assert moved == {(HUB, "a"): 10}
    assert is_valid_flow(g, flow, ledger).ok  # issuer may go negative


def test_solve_settleable_falls_back_to_clamped_network() -> None:
    # B can only fund 4 of its 10-unit tender, so its pot holds 4. B's 4
    # ride the B->C->A chain (2x), C's 15 ride C->A (1x): 60 set-off + 8 + 15.
    g = aggregate(cycle_pool(with_tenders=True))
    ledger = funded_ledger(("B", UNIT, 4), ("C", UNIT, 15))
    flow, sol = solve_settleable(g, 25, ledger)
    report = is_valid_flow(g, flow, ledger)
    assert report.ok
    assert sol.cleared_debt == 83
    assert sol.liquidity_used == {UNIT: 19}


def test_solve_settleable_clamps_only_overdrawn_payers() -> None:
    # The unfunded assignments get empty pots, but beta's draw on alpha
    # exits at alpha itself and needs no assets: alpha's pot takes back
    # what alpha receives, so the credit line clears the cycle on its own.
    pool = make_pool("alpha", "beta", "gamma")
    add_signed(pool, Obligation(id="o1", debtor="alpha", creditor="beta", amount=20, unit=UNIT))
    add_signed(pool, Obligation(id="o2", debtor="beta", creditor="gamma", amount=30, unit=UNIT))
    add_signed(pool, Obligation(id="o3", debtor="gamma", creditor="alpha", amount=45, unit=UNIT))
    add_signed(pool, Tender(id="t1", sender="beta", source=HUB,
                            kind=TenderKind.ASSIGNMENT, max_amount=10))
    add_signed(pool, Tender(id="t2", sender="gamma", source=HUB,
                            kind=TenderKind.ASSIGNMENT, max_amount=15))
    add_signed(pool, Acceptance(id="a:loan", origin="alpha", target="beta",
                                kind=AcceptanceKind.REPAYMENT, currency=UNIT,
                                limit=40, repayment_due="2027-03-01"))
    add_signed(pool, Tender(id="t:draw", sender="beta", source="alpha",
                            kind=TenderKind.OVERDRAFT, max_amount=40))
    g = aggregate(pool)
    ledger = Ledger()
    flow, sol = solve_settleable(g, None, ledger)
    assert is_valid_flow(g, flow, ledger).ok
    assert sol.cleared_debt == 80
    assert sol.liquidity_used == {}
    assert tender_flows(sol) == {"t:draw": 10}
    assert flow.transfers == ()


def partly_funded(seed: int):
    """A lognormal graph whose tender senders each hold a random part of their tender."""
    g = attach_default_liquidity(
        generate(SyntheticGraphConfig(nodes=30, edges=90, seed=seed, amount_dist="lognormal"))
    )
    rng = random.Random(seed)
    ledger = funded_ledger(
        *((te.sender, UNIT, rng.randint(0, te.max_amount)) for te in g.tender_edges)
    )
    return g, ledger


def test_solve_settleable_runs_kernel_phase_1_once(monkeypatch) -> None:
    g, ledger = partly_funded(1)
    solves = counting_calls(monkeypatch, kernel, "solve_min_cost")
    phase1 = counting_calls(monkeypatch, _mincost, "_cycles")
    validations = counting_calls(monkeypatch, validate, "is_valid_flow")
    _, solution = solve_settleable(g, compute_nid(g) // 2, ledger, seed=1)
    assert len(solves) == len(phase1) == 1
    assert len(validations) == 0  # apply_flow validates
    assert solution.liquidity_used  # the budget and balances bind


def test_solve_settleable_lowers_the_graph_once(monkeypatch) -> None:
    g, ledger = partly_funded(1)
    builds = counting_calls(monkeypatch, solver, "build_network")
    solves = counting_calls(monkeypatch, kernel, "solve_min_cost")
    solve_settleable(g, compute_nid(g) // 2, ledger, seed=1)
    assert len(builds) == len(solves) == 1
    [(_, kwargs)] = builds
    assert kwargs["ledger"] is ledger
    (stage,) = build_network(g, ledger=ledger).stages
    assert stage.pots  # some payers' balances bind


def test_one_solve_overdraws_no_payer() -> None:
    # Tenders in three currencies at random prices, overdrafts on credit
    # lines, and balances of zero or a little: whatever the network's
    # optimum, its flow passes all five checks.
    pots = 0
    for seed in range(300):
        rng = random.Random(seed)
        pool = random_liquidity_pool(rng)
        g = aggregate(pool)
        ledger = funded_ledger(*(
            (agent, code, rng.choice((0, rng.randint(0, 40))))
            for agent in g.nodes
            for code in pool.currencies
        ))
        for budget in (None, compute_nid(g) // 2):
            net = build_network(g, budget=budget, seed=seed, ledger=ledger)
            pots += sum(len(stage.pots) for stage in net.stages)
            flow, _ = solve_settleable(g, budget, ledger, seed=seed)
            assert is_valid_flow(g, flow, ledger).ok, (seed, budget)
    assert pots >= 100  # the pots are exercised


def test_a_non_issuer_that_starts_negative_is_refused() -> None:
    # b pays a 3 through a 3-unit tender, and a starts at -5: the 3 it
    # receives leave it at -2. a pays nothing, so no pot can help it, and
    # apply_flow refuses the flow.
    pool = make_pool("a", "b")
    add_signed(pool, Obligation(id="o", debtor="b", creditor="a", amount=3, unit=UNIT))
    add_signed(pool, Tender(id="t", sender="b", source=HUB,
                            kind=TenderKind.ASSIGNMENT, max_amount=3))
    g = aggregate(pool)
    ledger = funded_ledger(("a", UNIT, -5), ("b", UNIT, 3))
    flow, _ = solve_settleable(g, None, ledger)
    with pytest.raises(InvalidFlow) as refused:
        apply_flow(ledger, flow, g)
    assert [(v.check, v.ids) for v in refused.value.report.violations] == [
        ("NonNegativeBalance", ("a",))
    ]
    assert ledger.balance("a", UNIT) == -5


@pytest.mark.parametrize("seed", range(6))
def test_partly_funded_epochs_match_network_simplex(seed: int) -> None:
    pytest.importorskip("networkx")
    g, ledger = partly_funded(seed)
    for budget in (None, compute_nid(g) // 2):
        flow, sol = solve_settleable(g, budget, ledger, seed=seed)
        assert sol.cleared_debt == network_simplex_optimum(g, budget, ledger), budget
        assert is_valid_flow(g, flow, ledger).ok, budget


def test_solve_seed_determinism() -> None:
    g = aggregate(cycle_pool(with_tenders=True))
    a = solve(g, 25, seed=11)
    b = solve(g, 25, seed=11)
    assert a == b


def test_solve_budget_monotone() -> None:
    for seed in range(10):
        g = attach_default_liquidity(
            generate(SyntheticGraphConfig(nodes=10, edges=30, seed=seed))
        )
        cleared = []
        total = g.total_debt()
        for budget in [0, total // 8, total // 4, total // 2, total]:
            _, sol = solve_network(build_network(g, budget=budget))
            cleared.append(sol.cleared_debt)
        assert cleared == sorted(cleared), f"seed {seed}: {cleared}"


def test_solve_multiplier_bound_below_nid() -> None:
    # With tenders at net debtors, every budgeted unit clears at least itself.
    for seed in range(10):
        g = attach_default_liquidity(
            generate(SyntheticGraphConfig(nodes=8, edges=16, seed=seed))
        )
        nid = compute_nid(g)
        if nid < 2:
            continue
        _, base = solve_network(build_network(g, budget=0))
        for budget in {1, nid // 2, nid}:
            _, sol = solve_network(build_network(g, budget=budget))
            assert sol.cleared_debt - base.cleared_debt >= budget


def test_solve_nid_budget_clears_everything() -> None:
    for seed in range(20):
        g = attach_default_liquidity(
            generate(SyntheticGraphConfig(nodes=12, edges=40, seed=seed))
        )
        nid = compute_nid(g)
        _, sol = solve_network(build_network(g, budget=nid))
        assert sol.cleared_debt == g.total_debt(), f"seed {seed}"
        if nid > 0:
            _, short = solve_network(build_network(g, budget=nid - 1))
            assert short.cleared_debt < g.total_debt(), f"seed {seed}"


def test_solution_accounting_consistent() -> None:
    for seed in range(15):
        g = attach_default_liquidity(
            generate(SyntheticGraphConfig(nodes=9, edges=25, seed=seed))
        )
        nid = compute_nid(g)
        _, sol = solve_network(build_network(g, budget=nid // 2))
        ob_total = sum(v for k, v in sol.arc_flows.items() if k.startswith("ob:"))
        assert ob_total == sol.cleared_debt
        spent = sum(sol.liquidity_used.values())
        assert spent <= nid // 2


def test_unlimited_acceptance_and_budget_do_not_bind_above_2_62() -> None:
    # One obligation above 2^62, funded by a matching tender and drained by
    # the default source's unlimited acceptance: the whole of it clears.
    big = (1 << 62) + 5
    pool = make_pool("A", "B")
    add_signed(pool, Obligation(id="ob", debtor="A", creditor="B", amount=big, unit=UNIT))
    add_signed(
        pool,
        Tender(id="t:A", sender="A", source=HUB, kind=TenderKind.ASSIGNMENT, max_amount=big),
    )
    _, sol = solve_network(build_network(aggregate(pool)))
    assert sol.cleared_debt == big
    assert sol.liquidity_used == {UNIT: big}


def network_simplex_optimum(g, budget: int | None, ledger=None) -> int:
    """Maximum dischargeable debt, solved by networkx as one min-cost circulation.

    Obligations cost -1 per unit; tenders (source -> sender), acceptances
    (origin -> sink) and the sink -> source budget arc cost 0. An arc without
    a ``capacity`` is unlimited. Given a ledger, each sender's tenders draw
    from one node the source feeds with at most its balance.
    """
    import networkx as nx

    def capacity(cap: int | None) -> dict[str, int]:
        return {} if cap is None else {"capacity": cap}

    source, sink = ("source",), ("sink",)
    net = nx.MultiDiGraph()
    net.add_nodes_from([source, sink])
    for edge in g.edges.values():
        net.add_edge(edge.debtor, edge.creditor, capacity=edge.amount, weight=-1)
    for te in g.tender_edges:
        assert te.kind is TenderKind.ASSIGNMENT and te.price is None
        if ledger is None:
            net.add_edge(source, te.sender, capacity=te.max_amount, weight=0)
        else:
            funds = ("funds", te.sender)
            net.add_edge(source, funds, capacity=max(0, ledger.balance(te.sender, UNIT)), weight=0)
            net.add_edge(funds, te.sender, capacity=te.max_amount, weight=0)
    for ae in g.acceptance_edges:
        assert ae.currency == g.unit
        net.add_edge(ae.origin, sink, weight=0, **capacity(ae.limit))
    net.add_edge(sink, source, weight=0, **capacity(budget))
    cost, _ = nx.network_simplex(net)
    return -cost


@pytest.mark.parametrize(
    ("firms", "obligations", "seed"),
    [(20, 60, 0), (20, 80, 1), (60, 240, 2), (120, 400, 3), (200, 800, 4)],
)
def test_cleared_debt_matches_network_simplex(firms: int, obligations: int, seed: int) -> None:
    pytest.importorskip("networkx")
    g = attach_default_liquidity(
        generate(
            SyntheticGraphConfig(
                nodes=firms, edges=obligations, seed=seed, amount_dist="lognormal"
            )
        )
    )
    nid = compute_nid(g)
    # The middle three stop inside a cost level, part way through a blocking flow.
    for budget in (0, nid // 7, nid // 3 + 1, int(0.2 * g.total_debt()), nid // 2, nid, None):
        _, sol = solve_network(build_network(g, budget=budget))
        assert sol.cleared_debt == network_simplex_optimum(g, budget), f"budget {budget}"
