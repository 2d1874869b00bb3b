"""Applying flows to ledgers: discharge, transfers, notices, atomicity."""

import pytest

from setoff import (
    Acceptance,
    AcceptanceKind,
    InvalidFlow,
    Ledger,
    Obligation,
    SettlementError,
    SettlementFlow,
    Tender,
    TenderKind,
    aggregate,
    apply_flow,
    compute_nid,
    is_valid_flow,
    solve_settleable,
)
from setoff.engine import canonical_dumps
from setoff.experiments import SyntheticGraphConfig, attach_default_liquidity, generate
from setoff.graph import build_network
from setoff.settle import NEW_OBLIGATION_PREFIX, emit_notices, notices_to_csv
from setoff.solver import solve_network

from support import (
    HUB,
    UNIT,
    add_signed,
    chain_pool,
    cycle_pool,
    funded_ledger,
    make_pool,
    p2p_loan_pool,
)


def open_pool_obligations(g) -> Ledger:
    led = Ledger()
    for ob_id, ob in g.pool.obligations.items():
        led.open_obligations[ob_id] = ob
    return led


# --- basic application -------------------------------------------------------


def test_apply_chain_moves_money_end_to_end() -> None:
    g = aggregate(chain_pool(2))
    ledger = funded_ledger(("F0", UNIT, 20))
    flow = solve_settleable(g, ledger=ledger)[0]
    applied = apply_flow(ledger, flow, g)
    assert applied.cleared_debt == 40
    assert applied.balance_deltas == {("F0", UNIT): -20, ("F2", UNIT): 20}
    assert ledger.balance("F0", UNIT) == 0
    assert ledger.balance("F1", UNIT) == 0
    assert ledger.balance("F2", UNIT) == 20
    assert ledger.open_obligations == {}
    assert {n.party for n in applied.notices} == {"F0", "F1", "F2"}


def test_apply_p2p_loan_touches_no_balances() -> None:
    g = aggregate(p2p_loan_pool())
    ledger = Ledger()
    flow, _ = solve_settleable(g, None, ledger)
    applied = apply_flow(ledger, flow, g)
    assert applied.cleared_debt == 20
    assert applied.balance_deltas == {}
    assert ledger.balances == {} or all(
        amt == 0 for per in ledger.balances.values() for amt in per.values()
    )
    (new,) = applied.new_obligations
    assert new.id == f"{NEW_OBLIGATION_PREFIX}0:t:draw:acc:loan"
    assert (new.debtor, new.creditor, new.amount) == ("alice", "carol", 10)
    assert new.due_date == "2027-01-31"
    assert ledger.open_obligations == {new.id: new}


def test_apply_empty_flow_is_identity() -> None:
    g = aggregate(cycle_pool())
    ledger = funded_ledger(("A", UNIT, 5))
    before = canonical_dumps(ledger.to_obj())
    applied = apply_flow(ledger, SettlementFlow(epoch_id=0), g)
    assert applied.cleared_debt == 0
    assert applied.notices == ()
    assert canonical_dumps(ledger.to_obj()) == before


def test_apply_partial_discharge_keeps_residual() -> None:
    g = aggregate(cycle_pool())
    ledger = open_pool_obligations(g)
    flow = solve_settleable(g, budget=0)[0]
    applied = apply_flow(ledger, flow, g)
    assert applied.cleared_debt == 60
    assert "ob0" not in ledger.open_obligations  # fully cleared
    assert ledger.open_obligations["ob1"].amount == 10
    assert ledger.open_obligations["ob2"].amount == 25
    # Residuals shed their tokens: the original commitment covered the old amount.
    assert ledger.open_obligations["ob1"].ascertainment is None


def test_apply_issuer_pays_own_debt() -> None:
    pool = make_pool("a")
    add_signed(pool, Obligation(id="o", debtor=HUB, creditor="a", amount=10, unit=UNIT))
    add_signed(pool, Tender(id="t", sender=HUB, source=HUB,
                            kind=TenderKind.ASSIGNMENT, max_amount=10))
    g = aggregate(pool)
    ledger = Ledger()
    flow, _ = solve_settleable(g, None, ledger)
    applied = apply_flow(ledger, flow, g)
    assert ledger.balance(HUB, UNIT) == -10  # outstanding issuance
    assert ledger.balance("a", UNIT) == 10
    assert applied.balance_deltas == {(HUB, UNIT): -10, ("a", UNIT): 10}


# --- notices -------------------------------------------------------------------


def test_notices_frozen_for_partial_cycle() -> None:
    g = aggregate(cycle_pool())
    flow = solve_settleable(g, budget=0)[0]
    notices = emit_notices(flow, g)
    assert [n.party for n in notices] == ["A", "B", "C"]
    entries = {
        n.party: [(e.obligation_id, e.discharged, e.remaining) for e in n.entries]
        for n in notices
    }
    assert entries == {
        "A": [("ob0", 20, 0), ("ob2", 20, 25)],
        "B": [("ob0", 20, 0), ("ob1", 20, 10)],
        "C": [("ob1", 20, 10), ("ob2", 20, 25)],
    }


def test_notices_csv_frozen_text() -> None:
    g = aggregate(cycle_pool())
    flow = solve_settleable(g, budget=0)[0]
    assert notices_to_csv(emit_notices(flow, g)) == (
        "party,obligation_id,discharged,remaining\n"
        "A,ob0,20,0\n"
        "A,ob2,20,25\n"
        "B,ob0,20,0\n"
        "B,ob1,20,10\n"
        "C,ob1,20,10\n"
        "C,ob2,20,25\n"
    )


def test_middle_of_chain_gets_both_sides() -> None:
    g = aggregate(chain_pool(2))
    flow = solve_settleable(g)[0]
    notices = {n.party: n for n in emit_notices(flow, g)}
    assert [e.obligation_id for e in notices["F1"].entries] == ["ob0", "ob1"]


# --- overdraft attribution ---------------------------------------------------------


def test_overdraft_split_across_credit_lines() -> None:
    pool = make_pool("alice", "bob", "carol")
    add_signed(pool, Obligation(id="o", debtor="alice", creditor="bob", amount=5, unit=UNIT))
    add_signed(pool, Acceptance(id="acc:a", origin="carol", target="alice",
                                kind=AcceptanceKind.REPAYMENT, currency=UNIT,
                                limit=3, repayment_due="2027-01-01"))
    add_signed(pool, Acceptance(id="acc:b", origin="carol", target="alice",
                                kind=AcceptanceKind.REPAYMENT, currency=UNIT,
                                limit=3, repayment_due="2027-06-01"))
    add_signed(pool, Tender(id="t:draw", sender="alice", source="carol",
                            kind=TenderKind.OVERDRAFT, max_amount=5))
    g = aggregate(pool)
    ledger = funded_ledger(("carol", UNIT, 5))
    flow, _ = solve_settleable(g, None, ledger)
    applied = apply_flow(ledger, flow, g)
    assert applied.cleared_debt == 5
    split = [(ob.id, ob.amount, ob.due_date) for ob in applied.new_obligations]
    assert split == [
        (f"{NEW_OBLIGATION_PREFIX}0:t:draw:acc:a", 3, "2027-01-01"),
        (f"{NEW_OBLIGATION_PREFIX}0:t:draw:acc:b", 2, "2027-06-01"),
    ]
    assert ledger.balance("carol", UNIT) == 0
    assert ledger.balance("bob", UNIT) == 5


# --- atomicity -------------------------------------------------------------------


def collect_labels(ledger: Ledger, flow, g) -> list[str]:
    seen: list[str] = []
    apply_flow(ledger.copy(), flow, g, failpoint=seen.append)
    return seen


class Boom(Exception):
    pass


def test_every_failpoint_leaves_ledger_untouched() -> None:
    cases = []
    g1 = aggregate(chain_pool(2))
    led1 = funded_ledger(("F0", UNIT, 20))
    cases.append((g1, led1, solve_settleable(g1, ledger=led1)[0]))
    g2 = aggregate(p2p_loan_pool())
    led2 = Ledger()
    cases.append((g2, led2, solve_settleable(g2, None, led2)[0]))

    tried = 0
    for g, ledger, flow in cases:
        labels = collect_labels(ledger, flow, g)
        assert labels[-1] == "commit"
        for stop in labels:
            victim = ledger.copy()
            before = canonical_dumps(victim.to_obj())

            def tripwire(label: str, stop=stop) -> None:
                if label == stop:
                    raise Boom(label)

            with pytest.raises(Boom):
                apply_flow(victim, flow, g, failpoint=tripwire)
            assert canonical_dumps(victim.to_obj()) == before, f"label {stop}"
            tried += 1
    assert tried >= 6


def test_failpoint_labels_cover_every_step() -> None:
    g = aggregate(p2p_loan_pool())
    ledger = Ledger()
    flow, _ = solve_settleable(g, None, ledger)
    labels = collect_labels(ledger, flow, g)
    assert labels == [
        "obligation:ob:ab",
        "obligation:ob:bc",
        f"new:{NEW_OBLIGATION_PREFIX}0:t:draw:acc:loan",
        "commit",
    ]


def test_invalid_flow_rejected_before_any_mutation() -> None:
    g = aggregate(chain_pool(2))
    flow = solve_settleable(g)[0]  # unclamped: needs 20 from F0
    ledger = funded_ledger(("F0", UNIT, 10))
    before = canonical_dumps(ledger.to_obj())
    with pytest.raises(InvalidFlow, match="flow failed validation") as info:
        apply_flow(ledger, flow, g)
    assert isinstance(info.value, SettlementError)
    assert info.value.report == is_valid_flow(g, flow, ledger)
    assert [v.check for v in info.value.report.violations] == ["NonNegativeBalance"]
    assert canonical_dumps(ledger.to_obj()) == before


def test_conflicting_open_obligation_rolls_back() -> None:
    g = aggregate(cycle_pool())
    ledger = open_pool_obligations(g)
    # Shrink an open obligation behind the flow's back: discharge must fail.
    ledger.open_obligations["ob1"] = Obligation(
        id="ob1", debtor="B", creditor="C", amount=1, unit=UNIT
    )
    before = canonical_dumps(ledger.to_obj())
    with pytest.raises(SettlementError, match="cannot discharge"):
        apply_flow(ledger, solve_settleable(g, budget=0)[0], g)
    assert canonical_dumps(ledger.to_obj()) == before


# --- accounting properties -----------------------------------------------------


def test_debt_and_balance_accounting_random() -> None:
    for seed in range(20):
        g = attach_default_liquidity(
            generate(SyntheticGraphConfig(nodes=8, edges=18, seed=seed))
        )
        ledger = open_pool_obligations(g)
        total = g.total_debt()
        for agent in g.nodes:
            ledger.set_balance(agent, UNIT, total)  # deep pockets: no clamping
        flow, sol = solve_network(build_network(g, budget=compute_nid(g) // 2))
        applied = apply_flow(ledger, flow, g)
        assert applied.cleared_debt == sol.cleared_debt
        open_before = total
        open_after = sum(ob.amount for ob in ledger.open_obligations.values())
        assert open_after == open_before - applied.cleared_debt
        per_asset: dict[str, int] = {}
        for (agent, asset), delta in applied.balance_deltas.items():
            per_asset[asset] = per_asset.get(asset, 0) + delta
        assert all(v == 0 for v in per_asset.values())
