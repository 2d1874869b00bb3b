"""Pool aggregation, net positions, and lowering to the flow network."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from setoff import (
    Acceptance,
    AcceptanceKind,
    EpochPool,
    GraphBuildError,
    Obligation,
    Tender,
    TenderKind,
    aggregate,
    ascertain,
    build_network,
    compute_nid,
    net_positions,
)
from setoff.graph import (
    AcceptArc,
    AcceptanceEdge,
    AggregatedEdge,
    NetPosition,
    ObArc,
    Pot,
    Stage,
    TenderArc,
    TenderEdge,
    floor_div_price,
    floor_mul_price,
)
from setoff.model import NoticeEntry, SetOffNotice, SettlementFlow, SettlementRecord, Transfer

from support import (
    HUB,
    UNIT,
    add_signed,
    cycle_pool,
    chain_pool,
    counting_verify,
    dump_graph,
    funded_ledger,
    key_of,
    make_pool,
    p2p_loan_pool,
    registry_for,
    two_currency_pool,
)


def exclusion_reasons(g) -> dict[str, str]:
    return dict(g.excluded)


# --- aggregation ----------------------------------------------------------------


def test_aggregate_sums_parallel_obligations() -> None:
    pool = make_pool("a", "b")
    add_signed(pool, Obligation(id="o2", debtor="a", creditor="b", amount=5, unit=UNIT,
                                due_date="2026-10-01"))
    add_signed(pool, Obligation(id="o1", debtor="a", creditor="b", amount=7, unit=UNIT,
                                due_date="2026-09-01"))
    add_signed(pool, Obligation(id="o3", debtor="a", creditor="b", amount=1, unit=UNIT))
    g = aggregate(pool)
    edge = g.edges[("a", "b")]
    assert edge.amount == 13
    # Oldest due date first; dateless obligations last.
    assert edge.obligations == ("o1", "o2", "o3")
    assert g.total_debt() == 13


def test_aggregate_cycle_totals() -> None:
    g = aggregate(cycle_pool())
    assert g.total_debt() == 95
    assert set(g.edges) == {("A", "B"), ("B", "C"), ("C", "A")}
    assert not g.excluded


def test_aggregate_empty_pool() -> None:
    g = aggregate(make_pool())
    assert g.edges == {}
    assert g.total_debt() == 0
    assert compute_nid(g) == 0


def test_aggregate_excludes_unascertained() -> None:
    pool = make_pool("a", "b")
    pool.add(Obligation(id="o", debtor="a", creditor="b", amount=5, unit=UNIT))
    g = aggregate(pool)
    assert g.edges == {}
    assert exclusion_reasons(g)["o"] == "ascertainment failed"


def test_aggregate_excludes_foreign_unit_obligation() -> None:
    pool = make_pool("a", "b")
    add_signed(pool, Obligation(id="o", debtor="a", creditor="b", amount=5, unit="USDX"))
    g = aggregate(pool)
    assert "is not the epoch unit" in exclusion_reasons(g)["o"]


def test_aggregate_excludes_bad_deposit_acceptances() -> None:
    pool = make_pool("a", "b")
    add_signed(pool, Acceptance(id="acc:unknown", origin="a", target=HUB,
                                kind=AcceptanceKind.DEPOSIT, currency="NOPE"))
    add_signed(pool, Acceptance(id="acc:wrong", origin="a", target="b",
                                kind=AcceptanceKind.DEPOSIT, currency=UNIT))
    g = aggregate(pool)
    reasons = exclusion_reasons(g)
    assert reasons["acc:unknown"] == "unknown currency NOPE"
    assert reasons["acc:wrong"] == f"target b does not issue {UNIT}"


def test_aggregate_excludes_unsourced_assignment() -> None:
    pool = make_pool("a")
    add_signed(pool, Tender(id="t", sender="a", source="nobody",
                            kind=TenderKind.ASSIGNMENT, max_amount=5))
    g = aggregate(pool)
    assert exclusion_reasons(g)["t"] == "source nobody is not a liquidity source"


def test_aggregate_excludes_unmatched_overdraft() -> None:
    pool = make_pool("a", "b")
    add_signed(pool, Tender(id="t", sender="a", source="b",
                            kind=TenderKind.OVERDRAFT, max_amount=5))
    g = aggregate(pool)
    assert exclusion_reasons(g)["t"] == (
        "overdraft tender has no matching repayment acceptance"
    )


def test_aggregate_excludes_mixed_currency_overdraft() -> None:
    pool = make_pool("a", "b", currencies={UNIT: HUB, "USDX": "bankx"})
    add_signed(pool, Acceptance(id="acc1", origin="b", target="a",
                                kind=AcceptanceKind.REPAYMENT, currency=UNIT, limit=5))
    add_signed(pool, Acceptance(id="acc2", origin="b", target="a",
                                kind=AcceptanceKind.REPAYMENT, currency="USDX", limit=5))
    add_signed(pool, Tender(id="t", sender="a", source="b",
                            kind=TenderKind.OVERDRAFT, max_amount=5))
    g = aggregate(pool)
    assert exclusion_reasons(g)["t"] == (
        "matching repayment acceptances disagree on currency"
    )


def test_aggregate_excludes_overdraft_in_unknown_currency() -> None:
    pool = make_pool("a", "b")
    add_signed(pool, Acceptance(id="acc", origin="b", target="a",
                                kind=AcceptanceKind.REPAYMENT, currency="NOPE", limit=5))
    add_signed(pool, Tender(id="t", sender="a", source="b",
                            kind=TenderKind.OVERDRAFT, max_amount=5))
    g = aggregate(pool)
    assert exclusion_reasons(g)["t"] == "unknown currency NOPE"


def test_overdraft_matches_sorted_by_due_date() -> None:
    pool = make_pool("a", "b")
    add_signed(pool, Acceptance(id="acc:late", origin="b", target="a",
                                kind=AcceptanceKind.REPAYMENT, currency=UNIT, limit=3,
                                repayment_due="2027-06-01"))
    add_signed(pool, Acceptance(id="acc:early", origin="b", target="a",
                                kind=AcceptanceKind.REPAYMENT, currency=UNIT, limit=3,
                                repayment_due="2027-01-01"))
    add_signed(pool, Tender(id="t", sender="a", source="b",
                            kind=TenderKind.OVERDRAFT, max_amount=6))
    g = aggregate(pool)
    (te,) = g.tender_edges
    assert te.matched_acceptances == ("acc:early", "acc:late")
    assert te.cap == 6
    assert te.facility == "b"


def test_implicit_default_acceptances() -> None:
    g = aggregate(cycle_pool())
    ids = [e.edge_id for e in g.acceptance_edges]
    assert ids == ["accept:default:A", "accept:default:B", "accept:default:C"]
    assert all(e.limit is None and e.issuer == HUB
               for e in g.acceptance_edges)


def test_no_default_acceptances_without_default_source() -> None:
    g = aggregate(aggregate_pool := chain_pool(2))
    explicit = [e for e in g.acceptance_edges]
    assert [e.edge_id for e in explicit] == ["acc:tail"]
    assert aggregate_pool.default_source is None


# --- pool configuration ----------------------------------------------------------


def test_pool_rejects_conflicting_default_source() -> None:
    with pytest.raises(GraphBuildError):
        EpochPool(unit=UNIT, currencies={UNIT: "x"}, default_source="y")


def test_pool_rejects_issuer_of_two_currencies() -> None:
    with pytest.raises(GraphBuildError):
        EpochPool(unit=UNIT, currencies={"A1": "x", "A2": "x"})


def test_pool_rejects_duplicate_intent_id() -> None:
    pool = make_pool("a", "b")
    add_signed(pool, Obligation(id="o", debtor="a", creditor="b", amount=5, unit=UNIT))
    with pytest.raises(GraphBuildError):
        add_signed(pool, Obligation(id="o", debtor="b", creditor="a", amount=1, unit=UNIT))


def test_pool_rejects_non_intent() -> None:
    class Imposter:
        id = "x"

    with pytest.raises(GraphBuildError):
        make_pool().add(Imposter())


@pytest.mark.parametrize("make", [lambda: cycle_pool(with_tenders=True), p2p_loan_pool])
def test_pool_verifies_each_intent_once(make, monkeypatch) -> None:
    pool = make()
    checked = counting_verify(monkeypatch)
    graphs = [aggregate(pool) for _ in range(3)]
    assert sorted(checked) == sorted([*pool.obligations, *pool.acceptances, *pool.tenders])
    assert {dump_graph(g) for g in graphs} == {dump_graph(graphs[0])}
    assert graphs[0].excluded == ()


def test_verified_id_does_not_vouch_for_a_tampered_copy(monkeypatch) -> None:
    pool = cycle_pool()
    ob = pool.obligations["ob0"]
    assert pool.is_ascertained(ob)
    checked = counting_verify(monkeypatch)
    assert not pool.is_ascertained(replace(ob, amount=ob.amount + 1))
    assert pool.is_ascertained(ob)
    assert checked == ["ob0"]  # the tampered copy was checked, the original was remembered


def test_rotated_key_is_checked_afresh() -> None:
    pool = cycle_pool()
    ob = pool.obligations["ob0"]
    assert pool.is_ascertained(ob)
    pool.registry.register("A", key_of("someone else"))
    assert not pool.is_ascertained(ob)
    assert exclusion_reasons(aggregate(pool)) == {"ob0": "ascertainment failed"}
    pool.registry.register("A", key_of("A"))
    assert pool.is_ascertained(ob)


def fold_totals(pool) -> tuple[int, int]:
    g = aggregate(pool)
    return compute_nid(g), g.total_debt()


def test_pool_totals_follow_a_key_rotated_through_the_registry() -> None:
    pool = cycle_pool(with_tenders=True)
    assert pool.totals() == fold_totals(pool) == (25, 95)
    pool.registry.register("A", key_of("someone else"))
    assert pool.totals() == fold_totals(pool) == (45, 75)  # ob0 is not A's any more
    add_signed(pool, Obligation(id="ob3", debtor="A", creditor="C", amount=5, unit=UNIT))
    assert pool.totals() == fold_totals(pool) == (40, 80)
    pool.registry.register("A", key_of("A"))
    assert pool.totals() == fold_totals(pool) == (25, 95)  # and ob3 was signed by the other key
    pool.remove("ob3")
    pool.remove("ob1")
    assert pool.totals() == fold_totals(pool) == (45, 65)


def test_pool_totals_equal_a_fold_after_every_change() -> None:
    agents = ("A", "B", "C", "D")
    for seed in range(100):
        rng = random.Random(seed)
        pool = make_pool(*agents)
        signer = registry_for(*agents)
        for n in range(30):
            op = rng.choice(["add", "add", "foreign", "forged", "remove", "rotate", "ask"])
            if op == "remove" and pool.obligations:
                pool.remove(rng.choice(sorted(pool.obligations)))
            elif op == "rotate":
                agent = rng.choice(agents)
                pool.registry.register(agent, key_of(rng.choice([agent, "other"])))
            elif op in ("add", "foreign", "forged"):
                debtor, creditor = rng.sample(agents, 2)
                ob = Obligation(id=f"o{n}", debtor=debtor, creditor=creditor,
                                amount=rng.randint(1, 50), unit="EUR" if op == "foreign" else UNIT)
                signed = ascertain(ob, signer)
                pool.add(replace(signed, ascertainment="00" * 32) if op == "forged" else signed)
            if op == "ask" or rng.random() < 0.5:
                assert pool.totals() == fold_totals(pool), (seed, n, op)


def test_pool_counts_intents_per_bound_party() -> None:
    pool = p2p_loan_pool()
    # alice: ob:ab and her draw t:draw; bob: ob:bc; carol: the credit line acc:loan
    assert [pool.held_by(a) for a in ("alice", "bob", "carol", "dave")] == [2, 1, 1, 0]


def test_pool_remove_keeps_counts_and_marks_in_step() -> None:
    pool = p2p_loan_pool()
    draw = pool.tenders["t:draw"]
    assert pool.is_ascertained(draw)
    pool.preverified.add("t:draw")
    pool.remove("t:draw")
    assert pool.get("t:draw") is None and "t:draw" not in pool.tenders
    assert "t:draw" not in pool.preverified and "t:draw" not in pool._ascertained
    assert [pool.held_by(a) for a in ("alice", "bob", "carol")] == [1, 1, 1]
    pool.remove("ob:bc")
    assert "bob" not in pool._held
    pool.add(draw)  # the id is free again, and is verified afresh
    assert pool.held_by("alice") == 2 and "t:draw" not in pool.preverified
    with pytest.raises(GraphBuildError, match="no intent ob:bc"):
        pool.remove("ob:bc")


# --- net positions ---------------------------------------------------------------


def test_net_positions_cycle() -> None:
    g = aggregate(cycle_pool())
    pos = net_positions(g)
    assert pos["A"].net == 25
    assert pos["B"].net == -10
    assert pos["C"].net == -15
    assert pos["A"].payables == 20 and pos["A"].receivables == 45
    assert compute_nid(g) == 25


@given(st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 50)),
    min_size=1, max_size=10,
))
def test_net_positions_sum_to_zero(raw_edges) -> None:
    pool = make_pool(*{f"f{i}" for i in range(5)})
    k = 0
    for d, c, amt in raw_edges:
        if d == c:
            continue
        add_signed(pool, Obligation(id=f"o{k}", debtor=f"f{d}", creditor=f"f{c}",
                                    amount=amt, unit=UNIT))
        k += 1
    g = aggregate(pool)
    pos = net_positions(g)
    assert sum(p.net for p in pos.values()) == 0
    nid = compute_nid(g)
    assert nid >= 0
    assert (nid == 0) == all(p.net == 0 for p in pos.values())


# --- price conversion helpers ------------------------------------------------------


def test_floor_mul_price() -> None:
    assert floor_mul_price(10, None) == 10
    assert floor_mul_price(10, Fraction(3)) == 30
    assert floor_mul_price(3, Fraction(1, 2)) == 1  # dust floored


def test_floor_div_price() -> None:
    assert floor_div_price(10, None) == 10
    assert floor_div_price(30, Fraction(3)) == 10
    assert floor_div_price(5, Fraction(2)) == 2  # remainder stays with tenderer


# --- network lowering ---------------------------------------------------------------


def test_build_network_chain_structure() -> None:
    g = aggregate(chain_pool(3))
    net = build_network(g, budget=20)
    assert net.budget == 20
    assert [(a.debtor, a.creditor, a.cap) for a in net.ob_arcs] == [
        ("F0", "F1", 20), ("F1", "F2", 20), ("F2", "F3", 20),
    ]
    (stage,) = net.stages
    assert stage.currency == UNIT
    assert [(a.edge.tender_id, a.cap) for a in stage.tender_arcs] == [("t:head", 20)]
    assert [(a.edge.edge_id, a.cap) for a in stage.accept_arcs] == [("acc:tail", None)]


def test_build_network_prices_assignment_caps() -> None:
    g = aggregate(two_currency_pool())
    caps = {
        a.edge.tender_id: a.cap
        for stage in build_network(g).stages
        for a in stage.tender_arcs
    }
    assert caps == {"t:usd": 10, "t:atom": 10}  # 5 ATOMX at price 2 = 10 UOA


def test_aggregate_excludes_unpriced_foreign_tender() -> None:
    pool = make_pool("a", currencies={"USDX": "bankx"}, default_source=None)
    add_signed(pool, Tender(id="t:oops", sender="a", source="bankx",
                            kind=TenderKind.ASSIGNMENT, max_amount=5))
    g = aggregate(pool)
    assert exclusion_reasons(g)["t:oops"] == "tender has no price for USDX"
    assert g.tender_edges == ()
    assert build_network(g).stages == ()


def pots_of(net, currency: str = UNIT) -> tuple[tuple[Pot, ...], dict[str, int | None]]:
    """A stage's pots, and the pot each of its tenders draws through."""
    stage = next(s for s in net.stages if s.currency == currency)
    return stage.pots, {a.edge.tender_id: a.pot for a in stage.tender_arcs}


def test_balance_clamp_shares_one_pot() -> None:
    pool = make_pool("a", "b")
    add_signed(pool, Tender(id="t1", sender="a", source=HUB,
                            kind=TenderKind.ASSIGNMENT, max_amount=30))
    add_signed(pool, Tender(id="t2", sender="a", source=HUB,
                            kind=TenderKind.ASSIGNMENT, max_amount=30))
    g = aggregate(pool)
    net = build_network(g, ledger=funded_ledger(("a", UNIT, 35)))
    # Both tenders keep their declared caps and draw from a's one pot.
    assert pots_of(net) == ((Pot(payer="a", cap=35, recycles=False),), {"t1": 0, "t2": 0})
    assert [a.cap for a in net.stages[0].tender_arcs] == [30, 30]


def test_balance_clamp_exempts_issuer() -> None:
    pool = make_pool("a")
    add_signed(pool, Tender(id="t", sender=HUB, source=HUB,
                            kind=TenderKind.ASSIGNMENT, max_amount=40))
    g = aggregate(pool)
    net = build_network(g, ledger=funded_ledger())  # hub holds nothing
    assert pots_of(net) == ((), {"t": None})
    assert net.stages[0].tender_arcs[0].cap == 40


def test_balance_clamp_names_its_payers() -> None:
    pool = make_pool("a", "b", "c")
    for sender in ("a", "b", "c"):
        add_signed(pool, Tender(id=f"t:{sender}", sender=sender, source=HUB,
                                kind=TenderKind.ASSIGNMENT, max_amount=30))
    g = aggregate(pool)
    # Only a payer whose balance can bind gets a pot; c covers its tender.
    ledger = funded_ledger(("a", UNIT, 5), ("b", UNIT, -5), ("c", UNIT, 30))
    assert pots_of(build_network(g, ledger=ledger)) == (
        (Pot(payer="a", cap=5, recycles=False), Pot(payer="b", cap=0, recycles=False)),
        {"t:a": 0, "t:b": 1, "t:c": None},
    )
    # Without a ledger nobody binds: the network is the declared one.
    assert build_network(g) == build_network(g, ledger=None)
    assert pots_of(build_network(g)) == ((), {"t:a": None, "t:b": None, "t:c": None})


def test_overdraft_cap_uses_per_acceptance_floors() -> None:
    pool = make_pool("a", "b", currencies={UNIT: HUB, "USDX": "bankx"})
    add_signed(pool, Acceptance(id="acc1", origin="b", target="a",
                                kind=AcceptanceKind.REPAYMENT, currency="USDX", limit=3))
    add_signed(pool, Acceptance(id="acc2", origin="b", target="a",
                                kind=AcceptanceKind.REPAYMENT, currency="USDX", limit=3))
    add_signed(pool, Tender(id="t", sender="a", source="b", kind=TenderKind.OVERDRAFT,
                            max_amount=10, price=Fraction(1, 2)))
    g = aggregate(pool)
    stage = next(s for s in build_network(g).stages if s.currency == "USDX")
    # floor(3/2) + floor(3/2) = 2, not floor(6/2) = 3: each credit line can
    # only be attributed whole units.
    assert stage.tender_arcs[0].cap == 2


def test_assignment_clamp_draws_only_the_covering_amount() -> None:
    pool = make_pool("a", currencies={UNIT: HUB, "EURX": "bankx"})
    for tid in ("t1", "t2"):
        add_signed(pool, Tender(id=tid, sender="a", source="bankx",
                                kind=TenderKind.ASSIGNMENT, max_amount=5,
                                price=Fraction(1, 2)))
    g = aggregate(pool)
    # Each cap is floor(5 * 1/2) = 2 UOA. 8 EURX fund ceil(9 * 1/2) - 1 = 4
    # UOA of flow, both caps, so a draws straight from S.
    assert pots_of(build_network(g, ledger=funded_ledger(("a", "EURX", 8))), "EURX") == (
        (), {"t1": None, "t2": None}
    )
    # 7 EURX fund 3 UOA: floor(3 / (1/2)) = 6 EURX, and 4 UOA would cost 8.
    assert pots_of(build_network(g, ledger=funded_ledger(("a", "EURX", 7))), "EURX") == (
        (Pot(payer="a", cap=3, recycles=False),), {"t1": 0, "t2": 0}
    )


def test_overdraft_facility_clamp_rounds_want_up() -> None:
    pool = make_pool("a", "b", currencies={UNIT: HUB, "USDX": "bankx"})
    add_signed(pool, Acceptance(id="acc", origin="b", target="a",
                                kind=AcceptanceKind.REPAYMENT, currency="USDX", limit=10))
    add_signed(pool, Acceptance(id="dep", origin="b", target="bankx",
                                kind=AcceptanceKind.DEPOSIT, currency="USDX"))
    add_signed(pool, Tender(id="t", sender="a", source="b", kind=TenderKind.OVERDRAFT,
                            max_amount=10, price=Fraction(3, 4)))
    g = aggregate(pool)
    # The facility b pays: its pot holds the most flow whose floored cost
    # fits its balance, ceil((10 + 1) * 3/4) - 1 = 8 UOA for 10 USDX.
    net = build_network(g, ledger=funded_ledger(("b", "USDX", 10)))
    assert pots_of(net, "USDX") == ((Pot(payer="b", cap=8, recycles=True),), {"t": 0})
    # A facility gets its pot even when its balance covers the draw, and
    # its own acceptances feed the pot back.
    stage = next(s for s in net.stages if s.currency == "USDX")
    assert stage.tender_arcs[0].cap == 7  # floor(10 * 3/4)
    assert {a.edge.edge_id: a.pot for a in stage.accept_arcs} == {"dep": 0}
    net = build_network(g, ledger=funded_ledger(("b", "USDX", 9)))
    assert pots_of(net, "USDX")[0] == (Pot(payer="b", cap=7, recycles=True),)
    # Without a ledger its pot is unlimited, but still recycles.
    assert pots_of(build_network(g), "USDX")[0] == (Pot(payer="b", cap=None, recycles=True),)


def test_foreign_acceptance_limit_converts_at_min_price() -> None:
    pool = make_pool("a", "b", "c", currencies={"USDX": "bankx"}, default_source=None)
    add_signed(pool, Tender(id="t1", sender="a", source="bankx",
                            kind=TenderKind.ASSIGNMENT, max_amount=5, price=Fraction(2)))
    add_signed(pool, Tender(id="t2", sender="b", source="bankx",
                            kind=TenderKind.ASSIGNMENT, max_amount=5, price=Fraction(3)))
    add_signed(pool, Acceptance(id="acc", origin="c", target="bankx",
                                kind=AcceptanceKind.DEPOSIT, currency="USDX", limit=4))
    g = aggregate(pool)
    (stage,) = build_network(g).stages
    (acc_arc,) = stage.accept_arcs
    assert acc_arc.cap == 8  # 4 USDX at the lower price 2


def test_foreign_acceptance_without_tenders_gets_zero_cap() -> None:
    pool = make_pool("c", currencies={"USDX": "bankx"}, default_source=None)
    add_signed(pool, Acceptance(id="acc", origin="c", target="bankx",
                                kind=AcceptanceKind.DEPOSIT, currency="USDX", limit=4))
    g = aggregate(pool)
    (stage,) = build_network(g).stages
    assert stage.accept_arcs[0].cap == 0


def test_seed_permutes_but_preserves_arcs() -> None:
    g = aggregate(cycle_pool(with_tenders=True))
    plain = build_network(g)
    seeded = build_network(g, seed=99)
    key = lambda a: (a.debtor, a.creditor)
    assert sorted(plain.ob_arcs, key=key) == sorted(seeded.ob_arcs, key=key)
    for s1, s2 in zip(plain.stages, seeded.stages):
        assert sorted(a.edge.tender_id for a in s1.tender_arcs) == sorted(
            a.edge.tender_id for a in s2.tender_arcs
        )


def test_dump_graph_frozen_text() -> None:
    g = aggregate(cycle_pool(with_tenders=True))
    assert dump_graph(g) == (
        "unit UOA\n"
        "ob A B 20\n"
        "ob B C 30\n"
        "ob C A 45\n"
        "tender t:B B hub assignment UOA 10 -\n"
        "tender t:C C hub assignment UOA 15 -\n"
        "accept accept:default:A A hub UOA inf\n"
        "accept accept:default:B B hub UOA inf\n"
        "accept accept:default:C C hub UOA inf\n"
    )


def test_records_hold_no_per_object_dict() -> None:
    """Frozen records use slots: a graph keeps thousands of them."""
    tender_edge = TenderEdge("t1", "A", "hub", UNIT, TenderKind.ASSIGNMENT, 5, 5, None)
    accept_edge = AcceptanceEdge("a1", "B", "hub", UNIT, None)
    tender_arc = TenderArc(0, 5, tender_edge)
    accept_arc = AcceptArc(1, None, accept_edge)
    records = [
        Obligation("o1", "A", "B", 5, UNIT),
        Acceptance("a1", "B", "hub", AcceptanceKind.DEPOSIT, UNIT),
        Tender("t1", "A", "hub", TenderKind.ASSIGNMENT, 5),
        SettlementRecord("o1", "A", 5),
        Transfer("A", "B", UNIT, 5),
        SettlementFlow(0),
        NoticeEntry("o1", 5, 0),
        SetOffNotice("A", 0),
        AggregatedEdge("A", "B", 5, ("o1",)),
        tender_edge,
        accept_edge,
        NetPosition("A", 5, 0),
        ObArc(0, 1, 5, "A", "B"),
        tender_arc,
        accept_arc,
        Stage(UNIT, (tender_arc,), (accept_arc,)),
    ]
    assert len({type(r) for r in records}) == 16
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
