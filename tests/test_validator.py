"""The flow-validity predicate: honest flows pass, mutations name a violation."""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from setoff import (
    Acceptance,
    AcceptanceKind,
    Ledger,
    SettlementFlow,
    SettlementRecord,
    Tender,
    TenderKind,
    Transfer,
    aggregate,
    build_network,
    compute_nid,
    is_valid_flow,
)
from setoff.experiments import SyntheticGraphConfig, attach_default_liquidity, generate
from setoff.model import Obligation
from setoff.settle import emit_notices, verify_notices
from setoff.solver import solve_network, solve_settleable
from setoff.validate import (
    CHECKS,
    ValidationReport,
    Violation,
    _resolve_ref,
    _stage_min_prices,
)

from support import (
    HUB,
    UNIT,
    add_signed,
    cycle_pool,
    funded_ledger,
    make_pool,
    random_liquidity_pool,
    two_currency_pool,
)


@pytest.fixture(scope="module")
def cleared_cycle():
    g = aggregate(cycle_pool(with_tenders=True))
    flow, _ = solve_network(build_network(g, budget=25), epoch_id=1)
    return g, flow


def first_violation(g, flow, ledger=None) -> Violation:
    report = is_valid_flow(g, flow, ledger)
    assert not report.ok
    return report.violations[0]


# --- acceptance of honest flows ------------------------------------------------


def test_empty_flow_is_valid() -> None:
    g = aggregate(cycle_pool())
    assert is_valid_flow(g, SettlementFlow(epoch_id=0)).ok


def test_solver_output_is_valid(cleared_cycle) -> None:
    g, flow = cleared_cycle
    report = is_valid_flow(g, flow)
    assert report.ok and bool(report) and report.violations == ()


def test_solver_outputs_valid_on_random_graphs() -> None:
    for seed in range(150):
        g = attach_default_liquidity(
            generate(SyntheticGraphConfig(nodes=7, edges=14, seed=seed))
        )
        budget = compute_nid(g) // 2
        flow, _ = solve_network(build_network(g, budget=budget))
        report = is_valid_flow(g, flow)
        assert report.ok, f"seed {seed}: {[str(v) for v in report.violations]}"


def test_report_is_reproducible(cleared_cycle) -> None:
    g, flow = cleared_cycle
    assert is_valid_flow(g, flow) == is_valid_flow(g, flow)


# --- mutations -----------------------------------------------------------------


def mutate(flow: SettlementFlow, index: int, **changes) -> SettlementFlow:
    records = list(flow.records)
    records[index] = replace(records[index], **changes)
    return replace(flow, records=tuple(records))


def test_amount_bump_is_rejected(cleared_cycle) -> None:
    g, flow = cleared_cycle
    idx = next(i for i, r in enumerate(flow.records) if r.edge_ref == "ob1")
    bumped = mutate(flow, idx, amount=flow.records[idx].amount + 1)
    v = first_violation(g, bumped)
    # ob1 was already fully cleared, so the bump also breaches its capacity.
    assert v.check in {"SubsetFlow", "BalancedFlow", "PairedRecords"}


def test_amount_drop_is_rejected(cleared_cycle) -> None:
    g, flow = cleared_cycle
    idx = next(i for i, r in enumerate(flow.records) if r.edge_ref == "ob1")
    dropped = mutate(flow, idx, amount=flow.records[idx].amount - 1)
    v = first_violation(g, dropped)
    assert v.check in {"BalancedFlow", "PairedRecords"}


def test_missing_record_is_rejected(cleared_cycle) -> None:
    g, flow = cleared_cycle
    idx = next(i for i, r in enumerate(flow.records) if r.edge_ref == "ob2")
    records = flow.records[:idx] + flow.records[idx + 1:]
    v = first_violation(g, replace(flow, records=records))
    assert v.check in {"BalancedFlow", "PairedRecords"}


def test_swapped_party_is_rejected(cleared_cycle) -> None:
    g, flow = cleared_cycle
    idx = next(i for i, r in enumerate(flow.records) if r.edge_ref == "ob0")
    swapped = mutate(flow, idx, party="C")  # not an endpoint of A->B
    v = first_violation(g, swapped)
    assert v.check in {"BalancedFlow", "PairedRecords"}


def test_over_capacity_pair_is_rejected(cleared_cycle) -> None:
    g, flow = cleared_cycle
    # Push both halves of t:B past its 10-unit cap so the pair stays matched.
    records = tuple(
        replace(r, amount=11) if r.edge_ref == "t:B" else r for r in flow.records
    )
    v = first_violation(g, replace(flow, records=records))
    assert v.check == "SubsetFlow"
    assert "exceeds capacity" in v.detail


def test_dangling_reference_is_rejected(cleared_cycle) -> None:
    g, flow = cleared_cycle
    extra = (
        SettlementRecord(edge_ref="ghost", party="A", amount=1),
        SettlementRecord(edge_ref="ghost", party="B", amount=1),
    )
    v = first_violation(g, replace(flow, records=flow.records + extra))
    assert v.check == "SubsetFlow"
    assert v.detail == "unknown edge reference"
    assert v.ids == ("ghost",)


def test_nonpositive_amount_is_rejected(cleared_cycle) -> None:
    g, flow = cleared_cycle
    hacked = SettlementFlow(
        epoch_id=flow.epoch_id,
        records=flow.records + (
            SettlementRecord(edge_ref="ob0", party="A", amount=0),
        ),
        transfers=flow.transfers,
    )
    v = first_violation(g, hacked)
    assert v.check == "SubsetFlow"
    assert v.detail == "record amounts must be positive"


# Check 4 on its own: each mutation below keeps every per-party sum within
# capacity and every firm balanced, so only PairedRecords can see it. On
# tender records checks 2 and 3 read the sender's record alone.


def record_index(flow: SettlementFlow, ref: str, party: str) -> int:
    return next(
        i for i, r in enumerate(flow.records) if r.edge_ref == ref and r.party == party
    )


def test_obligation_pair_split_in_four_is_unpaired(cleared_cycle) -> None:
    g, flow = cleared_cycle
    split = []
    for r in flow.records:
        if r.edge_ref == "ob0":
            split += [replace(r, amount=r.amount // 2)] * 2
        else:
            split.append(r)
    v = first_violation(g, replace(flow, records=tuple(split)))
    assert (v.check, v.ids, v.detail) == (
        "PairedRecords", ("ob0",), "expected 2 records, found 4"
    )


def test_changed_issuer_record_amount_is_unpaired(cleared_cycle) -> None:
    g, flow = cleared_cycle
    idx = record_index(flow, "t:B", HUB)
    v = first_violation(g, mutate(flow, idx, amount=flow.records[idx].amount - 1))
    assert (v.check, v.ids, v.detail) == (
        "PairedRecords", ("t:B",), "paired records disagree on amount"
    )


def test_changed_currency_amount_is_unpaired() -> None:
    g = aggregate(two_currency_pool())
    flow, _ = solve_network(build_network(g), epoch_id=1)
    idx = record_index(flow, "t:atom", "D")
    moved, asset = flow.records[idx].currency_amount
    v = first_violation(g, mutate(flow, idx, currency_amount=(moved + 1, asset)))
    assert (v.check, v.ids, v.detail) == (
        "PairedRecords", ("t:atom",), "paired records disagree on currency amount"
    )


def test_issuer_record_moved_to_a_third_party_is_unpaired(cleared_cycle) -> None:
    g, flow = cleared_cycle
    v = first_violation(g, mutate(flow, record_index(flow, "t:B", HUB), party="A"))
    assert (v.check, v.ids) == ("PairedRecords", ("t:B",))
    assert v.detail == "record parties ['A', 'B'] are not the edge parties ['B', 'hub']"


def test_unascertained_intent_is_rejected() -> None:
    pool = cycle_pool()
    pool.add(Obligation(id="ob:forged", debtor="A", creditor="B", amount=5, unit=UNIT))
    g = aggregate(pool)
    flow = SettlementFlow(
        epoch_id=0,
        records=(
            SettlementRecord(edge_ref="ob:forged", party="A", amount=5),
            SettlementRecord(edge_ref="ob:forged", party="B", amount=5),
        ),
    )
    v = first_violation(g, flow)
    assert v.check == "Ascertainment"
    assert v.ids == ("ob:forged",)


def test_obligation_outside_the_epoch_unit_carries_no_flow() -> None:
    pool = cycle_pool(with_tenders=True)
    add_signed(pool, Obligation(id="ob:eur", debtor="A", creditor="B", amount=20, unit="EURX"))
    g = aggregate(pool)
    flow, _ = solve_network(build_network(g, budget=25), epoch_id=1)
    assert is_valid_flow(g, flow).ok
    # Move ob0's pair, A->B 20, onto the same debt owed in another unit.
    for party in ("A", "B"):
        flow = mutate(flow, record_index(flow, "ob0", party), edge_ref="ob:eur")
    v = first_violation(g, flow)
    assert (v.check, v.ids, v.detail) == (
        "SubsetFlow", ("ob:eur",), "obligation unit EURX is not the epoch unit UOA"
    )


def test_issuer_taking_its_own_deposits_is_one_outflow() -> None:
    # A pays its debt to the hub with a hub tender; the hub takes the units
    # back as a deposit at itself. Both records of that pair name the hub.
    pool = make_pool("A", default_source=None)
    add_signed(pool, Obligation(id="ob:A", debtor="A", creditor=HUB, amount=10, unit=UNIT))
    add_signed(pool, Tender(id="t:A", sender="A", source=HUB,
                            kind=TenderKind.ASSIGNMENT, max_amount=10))
    add_signed(pool, Acceptance(id="acc:hub", origin=HUB, target=HUB,
                                kind=AcceptanceKind.DEPOSIT, currency=UNIT, limit=None))
    g = aggregate(pool)
    flow, _ = solve_network(build_network(g))
    pair = [i for i, r in enumerate(flow.records) if r.edge_ref == "acc:hub"]
    assert [flow.records[i].party for i in pair] == [HUB, HUB]
    assert is_valid_flow(g, flow).ok
    for i in pair:
        flow = mutate(flow, i, amount=flow.records[i].amount + 1)
    v = first_violation(g, flow)
    assert (v.check, v.ids, v.detail) == ("BalancedFlow", (HUB,), "receives 10 but pays 11")


@pytest.mark.parametrize("ref, cap, expected", [
    ("t:hub", 10, ("SubsetFlow", ("t:hub",), "flow 11 exceeds capacity 10")),
    ("t:hub", 20, ("BalancedFlow", (HUB,), "receives 11 but pays 10")),
    ("acc:hub", 10, ("SubsetFlow", ("acc:hub",), "flow 11 exceeds capacity 10")),
])
def test_an_issuer_self_pair_is_one_flow_against_caps_and_balances(ref, cap, expected) -> None:
    # t:hub: the hub pays its debt to A by tendering its own currency.
    # acc:hub: A pays its debt to the hub, which takes the units back as a
    # deposit at itself. Both records of that pair name the hub, so raising
    # both by 1 is one unit more flow: past a binding cap, or past what the
    # hub pays.
    pool = make_pool("A", default_source=None)
    debtor, creditor, payer, depositor = (
        (HUB, "A", HUB, "A") if ref == "t:hub" else ("A", HUB, "A", HUB)
    )
    add_signed(pool, Obligation(id="ob", debtor=debtor, creditor=creditor, amount=10, unit=UNIT))
    add_signed(pool, Tender(id=f"t:{payer}", sender=payer, source=HUB,
                            kind=TenderKind.ASSIGNMENT, max_amount=cap))
    add_signed(pool, Acceptance(id=f"acc:{depositor}", origin=depositor, target=HUB,
                                kind=AcceptanceKind.DEPOSIT, currency=UNIT,
                                limit=cap if ref == "acc:hub" else None))
    g = aggregate(pool)
    flow, _ = solve_network(build_network(g))
    pair = [i for i, r in enumerate(flow.records) if r.edge_ref == ref]
    assert [(flow.records[i].party, flow.records[i].amount) for i in pair] == [(HUB, 10)] * 2
    assert is_valid_flow(g, flow).ok
    for i in pair:
        flow = mutate(flow, i, amount=11)
    v = first_violation(g, flow)
    assert (v.check, v.ids, v.detail) == expected


def test_repayment_acceptance_carries_no_flow() -> None:
    from support import p2p_loan_pool

    g = aggregate(p2p_loan_pool())
    flow = SettlementFlow(
        epoch_id=0,
        records=(
            SettlementRecord(edge_ref="acc:loan", party="carol", amount=5),
            SettlementRecord(edge_ref="acc:loan", party="alice", amount=5),
        ),
    )
    v = first_violation(g, flow)
    assert v.check == "SubsetFlow"
    assert v.detail == "repayment acceptances carry no settlement flow"


def test_default_acceptance_reference_guards() -> None:
    g = aggregate(cycle_pool())

    def try_ref(ref: str) -> Violation:
        flow = SettlementFlow(
            epoch_id=0,
            records=(
                SettlementRecord(edge_ref=ref, party="A", amount=1),
                SettlementRecord(edge_ref=ref, party="hub", amount=1),
            ),
        )
        return first_violation(g, flow)

    v = try_ref("accept:default:hub")  # issuers hold no default acceptance
    assert v.check == "SubsetFlow" and "issuer" in v.detail
    v = try_ref("accept:default:nobody")  # unknown agent
    assert v.check == "SubsetFlow" and "not part of the obligation graph" in v.detail

    bare = aggregate(make_pool("A", "B", default_source=None))
    flow = SettlementFlow(
        epoch_id=0,
        records=(
            SettlementRecord(edge_ref="accept:default:A", party="A", amount=1),
            SettlementRecord(edge_ref="accept:default:A", party="hub", amount=1),
        ),
    )
    v = first_violation(bare, flow)
    assert v.detail == "no default liquidity source is configured"


def mutated_solver_flow(seed: int):
    """A solver flow on a random liquidity pool with up to three record
    mutations, and a ledger for odd seeds."""
    rng = random.Random(seed)
    g = aggregate(random_liquidity_pool(rng))
    ledger = funded_ledger(*((a, UNIT, rng.randint(0, 30)) for a in "abcd")) if seed % 2 else None
    flow, _ = solve_settleable(g, None, ledger, epoch_id=1)
    records = list(flow.records)
    for _ in range(rng.randint(0, 3) if records else 0):
        i = rng.randrange(len(records))
        op = rng.randrange(4)
        if op == 0:
            step = rng.choice((-2, -1, 1, 2))
            records[i] = replace(records[i], amount=max(0, records[i].amount + step))
        elif op == 1:
            records[i] = replace(records[i], party=rng.choice((*"abcd", HUB)))
        elif op == 2:
            records.append(records[i])
        elif len(records) > 1:
            del records[i]
    return g, replace(flow, records=tuple(records)), ledger


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(seed=st.integers(0, 10**6), order=st.randoms(use_true_random=False))
def test_record_and_transfer_order_leaves_the_report_unchanged(seed, order) -> None:
    g, flow, ledger = mutated_solver_flow(seed)
    assume(flow.records)
    shuffled = replace(
        flow,
        records=tuple(order.sample(flow.records, len(flow.records))),
        transfers=tuple(order.sample(flow.transfers, len(flow.transfers))),
    )
    assert is_valid_flow(g, shuffled, ledger) == is_valid_flow(g, flow, ledger)


# --- balance simulation ----------------------------------------------------------


def test_overdraw_is_rejected(cleared_cycle) -> None:
    g, flow = cleared_cycle
    ledger = funded_ledger(("B", UNIT, 10), ("C", UNIT, 5))  # C is 10 short
    v = first_violation(g, flow, ledger)
    assert v.check == "NonNegativeBalance"
    assert v.ids == ("C",)
    assert "would end at -10" in v.detail


def test_balance_check_skipped_without_ledger(cleared_cycle) -> None:
    g, flow = cleared_cycle
    assert is_valid_flow(g, flow).ok
    assert is_valid_flow(g, flow, funded_ledger(("B", UNIT, 10), ("C", UNIT, 15))).ok


def test_issuer_may_go_negative() -> None:
    g = aggregate(cycle_pool())
    flow = SettlementFlow(
        epoch_id=0,
        transfers=(Transfer(payer="hub", payee="A", asset=UNIT, amount=7),),
    )
    assert is_valid_flow(g, flow, Ledger()).ok


def test_nonpositive_transfer_is_rejected() -> None:
    g = aggregate(cycle_pool())
    flow = SettlementFlow(
        epoch_id=0,
        transfers=(Transfer(payer="A", payee="B", asset=UNIT, amount=0),),
    )
    v = first_violation(g, flow, funded_ledger(("A", UNIT, 5)))
    assert v.check == "NonNegativeBalance"
    assert v.detail == "transfer amounts must be positive"


# --- structure -------------------------------------------------------------------


def test_checks_run_in_declared_order(cleared_cycle) -> None:
    # A flow violating both Ascertainment and SubsetFlow reports only the first.
    pool = cycle_pool()
    pool.add(Obligation(id="ob:forged", debtor="A", creditor="B", amount=5, unit=UNIT))
    g = aggregate(pool)
    flow = SettlementFlow(
        epoch_id=0,
        records=(
            SettlementRecord(edge_ref="ob:forged", party="A", amount=99),
            SettlementRecord(edge_ref="ghost", party="B", amount=1),
        ),
    )
    report = is_valid_flow(g, flow)
    assert {v.check for v in report.violations} == {"Ascertainment"}
    assert list(CHECKS) == [
        "Ascertainment", "SubsetFlow", "BalancedFlow", "PairedRecords",
        "NonNegativeBalance",
    ]


def test_violation_renders_readably() -> None:
    v = Violation(check="SubsetFlow", ids=("x", "y"), detail="too big")
    assert str(v) == "SubsetFlow[x,y]: too big"
    report = ValidationReport(ok=False, violations=(v,))
    assert not report


# --- notices ---------------------------------------------------------------------


def test_verify_notices_round_trip(cleared_cycle) -> None:
    g, flow = cleared_cycle
    notices = emit_notices(flow, g)
    assert verify_notices(g, flow, notices)
    assert not verify_notices(g, flow, notices[:-1])  # missing notice
    assert not verify_notices(g, flow, notices + (notices[0],))  # duplicated
    entry = notices[0].entries[0]
    tampered = replace(
        notices[0],
        entries=(replace(entry, discharged=entry.discharged + 1),) + notices[0].entries[1:],
    )
    assert not verify_notices(g, flow, (tampered,) + notices[1:])


# --- one admission rule ----------------------------------------------------------


def test_aggregation_network_and_validator_agree_on_every_liquidity_edge() -> None:
    reasons: set[str] = set()
    admitted: set[tuple[str, bool]] = set()
    for seed in range(300):
        pool = random_liquidity_pool(random.Random(seed))
        g = aggregate(pool)
        excluded = dict(g.excluded)
        net_caps, currency = {}, {}
        for stage in build_network(g).stages:
            for arc in stage.tender_arcs:
                net_caps[arc.edge.tender_id] = arc.cap
                currency[arc.edge.tender_id] = stage.currency
            for arc in stage.accept_arcs:
                net_caps[arc.edge.edge_id] = arc.cap
                currency[arc.edge.edge_id] = stage.currency
        min_prices = _stage_min_prices(pool)
        deposits = [a for a in pool.acceptances.values()
                    if a.kind is AcceptanceKind.DEPOSIT]
        for intent in [*pool.tenders.values(), *deposits]:
            spec = _resolve_ref(pool, set(g.nodes), intent.id, min_prices)
            if intent.id in excluded:
                assert spec == excluded[intent.id], (seed, intent.id)
                reasons.add(spec)
            else:
                assert not isinstance(spec, str), (seed, intent.id, spec)
                assert spec.cap == net_caps[intent.id], (seed, intent.id)
                admitted.add((intent.kind.value, currency[intent.id] == UNIT))
    for prefix in ("source nobody is not", "overdraft tender has no matching",
                   "matching repayment acceptances disagree", "unknown currency NOPE",
                   "target a does not issue", "tender has no price for EURX",
                   "tender has no price for USDX"):
        assert any(r.startswith(prefix) for r in reasons), prefix
    assert admitted == {(kind, unit) for kind in ("assignment", "overdraft", "deposit")
                        for unit in (True, False)}
