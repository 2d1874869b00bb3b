"""The epoch engine: store lifecycle, determinism, crash recovery, and CLI."""

import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from setoff import (
    Acceptance,
    AcceptanceKind,
    ClearingEngine,
    IntentError,
    Obligation,
    QuotaExceeded,
    SetoffError,
    StateError,
    Tender,
    TenderKind,
    ascertain,
)
import setoff.engine as engine_module
import setoff.settle as settle_module
import setoff.validate as validate_module
from setoff import kernel
from setoff.cli import main as cli_main
from setoff.model import MAX_AMOUNT, intent_to_obj
from setoff.settle import NEW_OBLIGATION_PREFIX

from support import (
    HUB,
    UNIT,
    counting_calls,
    counting_verify,
    key_of,
    overdraft_past_the_bound_pool,
)

AGENTS = ("A", "B", "C", "alice", "bob", "carol", HUB)


def make_engine(path: Path, **init_kwargs) -> ClearingEngine:
    init_kwargs.setdefault("default_source", HUB)
    engine = ClearingEngine.init(path, unit=UNIT, **init_kwargs)
    for agent in AGENTS:
        engine.register_key(agent, key_of(agent).hex())
    return engine


def submit_signed(engine: ClearingEngine, intent) -> int:
    return engine.submit_intent(ascertain(intent, engine.registry))


def cycle_intents():
    return [
        Obligation(id="ob0", debtor="A", creditor="B", amount=20, unit=UNIT),
        Obligation(id="ob1", debtor="B", creditor="C", amount=30, unit=UNIT),
        Obligation(id="ob2", debtor="C", creditor="A", amount=45, unit=UNIT),
        Tender(id="t:B", sender="B", source=HUB, kind=TenderKind.ASSIGNMENT, max_amount=10),
        Tender(id="t:C", sender="C", source=HUB, kind=TenderKind.ASSIGNMENT, max_amount=15),
    ]


def loan_intents():
    return [
        Obligation(id="ob:ab", debtor="alice", creditor="bob", amount=10, unit=UNIT),
        Obligation(id="ob:bc", debtor="bob", creditor="carol", amount=10, unit=UNIT),
        Acceptance(id="acc:loan", origin="carol", target="alice",
                   kind=AcceptanceKind.REPAYMENT, currency=UNIT, limit=10,
                   repayment_due="2027-01-31"),
        Tender(id="t:draw", sender="alice", source="carol",
               kind=TenderKind.OVERDRAFT, max_amount=10),
    ]


def funded_cycle_engine(path: Path) -> ClearingEngine:
    engine = make_engine(path, opening_balances={"B": {UNIT: 10}, "C": {UNIT: 15}})
    for intent in cycle_intents():
        submit_signed(engine, intent)
    return engine


def crash_after_wal(engine: ClearingEngine, **run_args) -> dict:
    """``run``, dying right after its commit log is written, before any commit."""
    real_write = engine_module._write_atomic

    def write(path: Path, data: str) -> None:
        real_write(path, data)
        if path.name == "applied.json":
            raise RuntimeError("crash requested after commit log write")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine_module, "_write_atomic", write)
        return engine.run(**run_args)


def tamper_flows(monkeypatch, hook) -> None:
    """Pass every flow ``run`` solves through ``hook`` before it is validated."""
    real_solve = engine_module.solve_settleable

    def solve(*args, **kwargs):
        flow, solution = real_solve(*args, **kwargs)
        return hook(flow), solution

    monkeypatch.setattr(engine_module, "solve_settleable", solve)


def inflate_first_record(flow):
    records = list(flow.records)
    records[0] = replace(records[0], amount=records[0].amount + 1)
    return replace(flow, records=tuple(records))


# --- store lifecycle ---------------------------------------------------------


def test_init_creates_store_layout(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    for name in ("config.json", "keys.jsonl", "state.json", "ledger.json"):
        assert (tmp_path / "s" / name).exists()
    assert (tmp_path / "s" / "epochs" / "00000").is_dir()
    assert engine.epoch == 0 and engine.phase == "open"


def test_init_refuses_existing_store(tmp_path: Path) -> None:
    make_engine(tmp_path / "s")
    with pytest.raises(StateError, match="already initialized"):
        ClearingEngine.init(tmp_path / "s", unit=UNIT)


def test_init_rejects_conflicting_default_source(tmp_path: Path) -> None:
    with pytest.raises(StateError):
        ClearingEngine.init(
            tmp_path / "s", unit=UNIT, currencies={UNIT: "x"}, default_source="y"
        )


def test_init_refuses_a_config_no_pool_accepts_before_any_write(tmp_path: Path) -> None:
    with pytest.raises(StateError, match="bank cannot issue both A and B"):
        ClearingEngine.init(tmp_path / "s", unit=UNIT, currencies={"A": "bank", "B": "bank"})
    assert not (tmp_path / "s" / "config.json").exists()
    ClearingEngine.init(tmp_path / "s", unit=UNIT, currencies={"A": "bank"})


def test_init_refuses_a_negative_opening_balance_before_any_write(tmp_path: Path) -> None:
    with pytest.raises(StateError, match="opening balance of A in UOA is -5"):
        make_engine(tmp_path / "s", opening_balances={"A": {UNIT: -5}, "B": {UNIT: 3}})
    assert not (tmp_path / "s" / "config.json").exists()
    # The issuer of an asset may start negative in it: that is issuance.
    engine = make_engine(tmp_path / "s", opening_balances={HUB: {UNIT: -5}, "B": {UNIT: 5}})
    assert engine.ledger.balance(HUB, UNIT) == -5


def test_init_refuses_a_negative_quota_before_any_write(tmp_path: Path) -> None:
    with pytest.raises(StateError, match="quota per agent must be >= 0, got -1"):
        make_engine(tmp_path / "s", quota_per_agent=-1)
    assert not (tmp_path / "s" / "config.json").exists()
    engine = make_engine(tmp_path / "s", quota_per_agent=0)
    with pytest.raises(QuotaExceeded, match="B already holds 0 intents"):
        submit_signed(engine, Obligation(id="o", debtor="B", creditor="A", amount=1, unit=UNIT))


@pytest.mark.parametrize("quota", ["5", 1.5, True])
def test_a_quota_that_is_not_a_count_is_refused(tmp_path: Path, quota) -> None:
    with pytest.raises(StateError, match="quota per agent must be an integer or None"):
        make_engine(tmp_path / "s", quota_per_agent=quota)
    assert not (tmp_path / "s" / "config.json").exists()
    make_engine(tmp_path / "s", quota_per_agent=2)
    config_path = tmp_path / "s" / "config.json"
    config = json.loads(config_path.read_text())
    config_path.write_text(json.dumps({**config, "quota_per_agent": quota}))
    with pytest.raises(StateError, match=f"^{re.escape(str(config_path))}: StateError: quota"):
        ClearingEngine(tmp_path / "s")


def init_files(store: Path) -> dict[str, bytes | None]:
    """Every file and directory of a store: bytes per file, None per directory."""
    return {
        p.relative_to(store).as_posix(): p.read_bytes() if p.is_file() else None
        for p in sorted(store.rglob("*"))
    }


@pytest.mark.parametrize("empty_dir", [False, True])
@pytest.mark.parametrize("fail_at", [1, 2, 3, 4])
def test_a_failed_init_leaves_a_path_that_does_not_open_and_inits_again(
    tmp_path: Path, monkeypatch, fail_at: int, empty_dir: bool
) -> None:
    ClearingEngine.init(tmp_path / "clean", unit=UNIT, default_source=HUB)
    clean = init_files(tmp_path / "clean")
    store = tmp_path / "parent" / "s"
    if empty_dir:
        store.mkdir(parents=True)
    real_write, writes = engine_module._write_atomic, []

    def write(path: Path, data: str) -> None:
        writes.append(path.name)
        if len(writes) == fail_at:
            path.with_name(path.name + ".tmp").write_text(data[:1])  # torn temporary file
            raise OSError("crash")
        real_write(path, data)

    monkeypatch.setattr(engine_module, "_write_atomic", write)
    with pytest.raises(OSError, match="crash"):
        ClearingEngine.init(store, unit=UNIT, default_source=HUB)
    monkeypatch.undo()
    assert writes == ["keys.jsonl", "state.json", "ledger.json", "config.json"][:fail_at]
    with pytest.raises(StateError, match="not an initialized store"):
        ClearingEngine(store)
    ClearingEngine.init(store, unit=UNIT, default_source=HUB)
    assert {k: v for k, v in init_files(store).items() if not k.endswith(".tmp")} == clean
    assert [p.name for p in store.parent.iterdir()] == ["s"]


def test_init_takes_only_a_free_path_an_empty_directory_or_an_unfinished_store(
    tmp_path: Path, monkeypatch
) -> None:
    (tmp_path / "file").write_text("x")
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "notes.txt").write_text("keep")
    for name in ("file", "dir"):
        with pytest.raises(StateError, match=f"{tmp_path / name} exists and is not an empty"):
            ClearingEngine.init(tmp_path / name, unit=UNIT)
    assert (tmp_path / "file").read_text() == "x"
    assert [p.name for p in (tmp_path / "dir").iterdir()] == ["notes.txt"]
    (tmp_path / "here").mkdir()
    monkeypatch.chdir(tmp_path / "here")  # an empty working directory, named "."
    assert ClearingEngine.init(".", unit=UNIT).nid() == {"epoch": 0, "nid": 0, "total_debt": 0}
    assert ClearingEngine(".").epoch == 0
    assert (tmp_path / "here" / "config.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file", "here"]


def test_open_requires_initialized_store(tmp_path: Path) -> None:
    with pytest.raises(StateError, match="not an initialized store"):
        ClearingEngine(tmp_path / "nothing")


def test_reopen_restores_state(tmp_path: Path) -> None:
    engine = funded_cycle_engine(tmp_path / "s")
    engine.freeze()
    again = ClearingEngine(tmp_path / "s")
    assert again.epoch == 0 and again.phase == "frozen"
    assert again.ledger.balance("B", UNIT) == 10


# --- intent intake ------------------------------------------------------------


def test_submit_targets_current_open_epoch(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    ob = Obligation(id="o", debtor="A", creditor="B", amount=5, unit=UNIT)
    assert submit_signed(engine, ob) == 0


def test_submit_during_freeze_targets_next_epoch(tmp_path: Path) -> None:
    engine = funded_cycle_engine(tmp_path / "s")
    engine.freeze()
    late = Obligation(id="ob:late", debtor="A", creditor="C", amount=5, unit=UNIT)
    assert submit_signed(engine, late) == 1
    lines = (tmp_path / "s" / "epochs" / "00001" / "pool.jsonl").read_text()
    assert '"id":"ob:late"' in lines
    engine.run(seed=7)
    engine.freeze()
    engine = ClearingEngine(tmp_path / "s")  # an engine that has made no directory yet
    later = Obligation(id="ob:later", debtor="A", creditor="C", amount=5, unit=UNIT)
    assert submit_signed(engine, later) == 2
    lines = (tmp_path / "s" / "epochs" / "00002" / "pool.jsonl").read_text()
    assert '"id":"ob:later"' in lines


def test_intake_makes_one_mkdir_per_epoch(tmp_path: Path, monkeypatch) -> None:
    engine = make_engine(tmp_path / "s")
    real, made = Path.mkdir, []

    def mkdir(self, *args, **kwargs):
        made.append(self.relative_to(tmp_path / "s").as_posix())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", mkdir)
    for i in range(30):
        submit_signed(engine, Obligation(id=f"o{i}", debtor="A", creditor="B",
                                         amount=1, unit=UNIT))
    engine.freeze()
    for i in range(30, 40):
        submit_signed(engine, Obligation(id=f"o{i}", debtor="B", creditor="C",
                                         amount=1, unit=UNIT))
    engine.run()
    assert made == ["epochs/00000", "epochs/00001"]


def test_submit_duplicate_is_idempotent(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    ob = Obligation(id="o", debtor="A", creditor="B", amount=5, unit=UNIT)
    submit_signed(engine, ob)
    pool_path = tmp_path / "s" / "epochs" / "00000" / "pool.jsonl"
    before = pool_path.read_bytes()
    assert submit_signed(engine, ob) == 0
    assert pool_path.read_bytes() == before


def test_submit_rejects_reserved_ids_and_markers(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    with pytest.raises(IntentError, match="reserved"):
        submit_signed(engine, Obligation(
            id=f"{NEW_OBLIGATION_PREFIX}1:t:x", debtor="A", creditor="B",
            amount=5, unit=UNIT,
        ))
    with pytest.raises(IntentError, match="reserved"):
        submit_signed(engine, Acceptance(
            id="accept:default:A", origin="A", target=HUB,
            kind=AcceptanceKind.DEPOSIT, currency=UNIT,
        ))
    # A line of an older store's pool marks the engine's obligations "system";
    # a submitted marker buys no trust.
    with pytest.raises(IntentError, match="not ascertained"):
        engine.submit_intent({"type": "obligation", "id": "o", "debtor": "A",
                              "creditor": "B", "amount": 5, "unit": UNIT,
                              "system": True})
    with pytest.raises(IntentError, match="not ascertained"):
        engine.submit_intent({"type": "obligation", "id": "o", "debtor": "A",
                              "creditor": "B", "amount": 5, "unit": UNIT,
                              "system": True, "ascertainment": "00" * 32})


def test_submit_rejects_unascertained(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    with pytest.raises(IntentError, match="not ascertained"):
        engine.submit_intent(
            Obligation(id="o", debtor="A", creditor="B", amount=5, unit=UNIT)
        )


def test_quota_per_agent(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s", quota_per_agent=2)
    for i in range(2):
        submit_signed(engine, Obligation(
            id=f"o{i}", debtor="A", creditor="B", amount=5 + i, unit=UNIT
        ))
    with pytest.raises(QuotaExceeded, match="A already holds 2"):
        submit_signed(engine, Obligation(
            id="o9", debtor="A", creditor="C", amount=1, unit=UNIT
        ))
    # Other parties are unaffected.
    submit_signed(engine, Obligation(id="ob", debtor="B", creditor="A", amount=1, unit=UNIT))


def test_quota_holds_after_cancel_and_in_the_next_epoch(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s", quota_per_agent=2)

    def ob(i: int) -> Obligation:
        return Obligation(id=f"o{i}", debtor="A", creditor="B", amount=1 + i, unit=UNIT)

    submit_signed(engine, ob(0))
    submit_signed(engine, ob(1))
    assert engine.cancel_intent("o0")
    assert submit_signed(engine, ob(2)) == 0  # the reloaded pool counts one
    with pytest.raises(QuotaExceeded, match="A already holds 2 intents in epoch 0"):
        submit_signed(engine, ob(3))
    engine.freeze()
    assert submit_signed(engine, ob(3)) == 1  # late: the next epoch counts its own
    assert submit_signed(engine, ob(4)) == 1
    with pytest.raises(QuotaExceeded, match="A already holds 2 intents in epoch 1"):
        submit_signed(engine, ob(5))


def test_cancel_intent(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    ob = Obligation(id="o", debtor="A", creditor="B", amount=5, unit=UNIT)
    submit_signed(engine, ob)
    assert engine.cancel_intent("o") is True
    assert engine.cancel_intent("o") is False
    lines = engine._pool_path(0).read_text().splitlines()
    assert [json.loads(line).get("id") for line in lines] == ["o", None]
    assert lines[1] == '{"cancel":"o"}'
    assert pool_contents(ClearingEngine(tmp_path / "s")._pool(0)) == ({}, {}, {}, set())
    engine.freeze()
    with pytest.raises(StateError, match="cancellation closed"):
        engine.cancel_intent("whatever")


def test_a_cancel_appends_one_line_and_reads_no_log(tmp_path: Path, monkeypatch) -> None:
    engine = make_engine(tmp_path / "s")
    for i in range(20):
        submit_signed(engine, Obligation(id=f"o{i}", debtor="A", creditor="B",
                                         amount=i + 1, unit=UNIT))
    reads = counting_calls(monkeypatch, engine_module, "_read_log")
    replaced = counting_calls(monkeypatch, engine_module.os, "replace")
    pool_path = engine._pool_path(0)
    before = pool_path.read_bytes()
    for i in range(5):
        assert engine.cancel_intent(f"o{i}")
    assert reads == [] and replaced == []
    assert pool_path.read_bytes() == before + b"".join(
        b'{"cancel":"o%d"}\n' % i for i in range(5)
    )
    assert engine.nid()["total_debt"] == sum(range(6, 21))
    assert_memory_matches_disk(engine)


def test_a_cancelled_resubmitted_and_reopened_id_loads_once(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    ob = Obligation(id="o", debtor="A", creditor="B", amount=5, unit=UNIT)
    for _ in range(2):
        submit_signed(engine, ob)
        assert engine.cancel_intent("o")
    assert submit_signed(engine, ob) == 0
    reopened = ClearingEngine(tmp_path / "s")
    assert list(reopened._pool(0).obligations) == ["o"]
    assert reopened.nid() == engine.nid() == {"epoch": 0, "nid": 5, "total_debt": 5}
    reopened.freeze()
    assert reopened.run()["total_debt"] == 5


def test_a_torn_tombstone_is_no_cancel_and_a_retried_cancel_mends_it(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    submit_signed(engine, cycle_intents()[0])
    pool_path = engine._pool_path(0)
    whole = pool_path.read_bytes()
    with open(pool_path, "ab") as fh:
        fh.write(b'{"cancel":"ob')  # a cancel whose append never returned
    reopened = ClearingEngine(tmp_path / "s")
    assert reopened._pool(0).get("ob0") is not None
    assert reopened.cancel_intent("ob0")
    assert pool_path.read_bytes() == whole + b'{"cancel":"ob0"}\n'
    assert ClearingEngine(tmp_path / "s").nid()["total_debt"] == 0


@pytest.mark.parametrize("tombstone", ['{"cancel":"nobody"}', '{"cancel":7}'])
def test_a_tombstone_for_an_id_not_pooled_above_it_names_file_and_line(
    tmp_path: Path, tombstone: str
) -> None:
    engine = make_engine(tmp_path / "s")
    submit_signed(engine, cycle_intents()[0])
    pool_path = engine._pool_path(0)
    line = pool_path.read_text()
    pool_path.write_text(tombstone + "\n" + line)  # nothing is pooled above it
    with pytest.raises(StateError, match="pool.jsonl:1: cancels .*, which is not pooled"):
        ClearingEngine(tmp_path / "s").nid()


def test_a_duplicate_pool_line_names_file_and_line(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    submit_signed(engine, cycle_intents()[0])
    pool_path = engine._pool_path(0)
    pool_path.write_text(pool_path.read_text() * 2)  # one intent line, twice
    with pytest.raises(StateError, match="pool.jsonl:2: duplicate intent id ob0"):
        ClearingEngine(tmp_path / "s").nid()


def test_submit_file_reports_line_numbers(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "obligation"\n')
    with pytest.raises(IntentError, match=r"bad\.jsonl:1: not valid JSON"):
        engine.submit_file(bad)
    unsigned = tmp_path / "unsigned.jsonl"
    unsigned.write_text(json.dumps(intent_to_obj(
        Obligation(id="o", debtor="A", creditor="B", amount=5, unit=UNIT)
    )) + "\n")
    with pytest.raises(IntentError, match=r"unsigned\.jsonl:1:"):
        engine.submit_file(unsigned)


# --- epoch lifecycle -----------------------------------------------------------


def test_freeze_twice_fails(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    assert engine.freeze() == 0
    with pytest.raises(StateError, match="already frozen"):
        engine.freeze()


def test_run_requires_frozen_epoch(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    with pytest.raises(StateError, match="freeze it before running"):
        engine.run()


def test_full_lifecycle(tmp_path: Path) -> None:
    engine = funded_cycle_engine(tmp_path / "s")
    assert engine.nid() == {"epoch": 0, "nid": 25, "total_debt": 95}
    engine.freeze()
    report = engine.run(budget=25, seed=7)
    assert report["status"] == "applied"
    assert report["cleared_debt"] == 95
    assert report["residual_debt"] == 0
    assert report["liquidity_used"] == {UNIT: 25}
    assert report["nid"] == 25 and report["total_debt"] == 95
    assert report["new_obligations"] == []
    assert engine.epoch == 1 and engine.phase == "open"
    assert engine.ledger.balance("A", UNIT) == 25
    assert engine.ledger.balance("B", UNIT) == 0
    assert engine.ledger.open_obligations == {}
    epoch_dir = tmp_path / "s" / "epochs" / "00000"
    assert (epoch_dir / "notices.csv").read_text().startswith(
        "party,obligation_id,discharged,remaining\nA,ob0,20,0\n"
    )
    assert engine.report() == report
    assert engine.report(0) == report
    flow = engine.flow(0)
    moved = {(t.payer, t.payee): t.amount for t in flow.transfers}
    assert moved == {("B", "A"): 10, ("C", "A"): 15}
    assert engine.nid() == {"epoch": 1, "nid": 0, "total_debt": 0}
    with pytest.raises(StateError, match="no report"):
        engine.report(5)
    with pytest.raises(StateError, match="no flow"):
        engine.flow(5)


def test_overdraft_creates_next_epoch_obligation(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    for intent in loan_intents():
        submit_signed(engine, intent)
    engine.freeze()
    report = engine.run()
    new_id = f"{NEW_OBLIGATION_PREFIX}0:t:draw:acc:loan"
    assert report["status"] == "applied"
    assert report["cleared_debt"] == 20
    assert report["new_obligations"] == [new_id]
    assert engine.ledger.open_obligations[new_id].amount == 10

    queued = (tmp_path / "s" / "epochs" / "00001" / "pool.jsonl").read_text()
    (line,) = [json.loads(l) for l in queued.splitlines() if l]
    assert line["id"] == new_id and "system" not in line
    assert line == intent_to_obj(engine.ledger.open_obligations[new_id])
    assert line["ascertainment"] is None

    # Only the engine may withdraw what it wrote under a reserved id.
    with pytest.raises(IntentError, match="reserved"):
        engine.cancel_intent(new_id)
    assert engine._pool(1).get(new_id) is not None
    assert (tmp_path / "s" / "epochs" / "00001" / "pool.jsonl").read_text() == queued

    # The engine's obligation is trusted by its reserved id and persists while unclearable.
    engine.freeze()
    second = engine.run()
    assert second["status"] == "applied"
    assert second["total_debt"] == 10
    assert second["cleared_debt"] == 0
    assert second["excluded"] == []
    assert engine.ledger.open_obligations[new_id].amount == 10

    # Left open, it clears again in the next epoch, where a cycle discharges it.
    assert engine._pool(2).get(new_id) == engine.ledger.open_obligations[new_id]
    submit_signed(engine, Obligation(id="ob:ca", debtor="carol", creditor="alice",
                                     amount=10, unit=UNIT))
    engine.freeze()
    third = engine.run()
    assert third["status"] == "applied"
    assert third["discharged"] == {new_id: 10, "ob:ca": 10}
    assert engine.ledger.open_obligations == {}
    assert (tmp_path / "s" / "epochs" / "00003" / "pool.jsonl").read_text() == ""


def test_a_failed_epoch_queues_its_repayments_again(tmp_path: Path, monkeypatch) -> None:
    engine = make_engine(tmp_path / "s")
    for intent in loan_intents():
        submit_signed(engine, intent)
    engine.freeze()
    engine.run()
    new_id = f"{NEW_OBLIGATION_PREFIX}0:t:draw:acc:loan"
    cycle = Obligation(id="ob:ca", debtor="carol", creditor="alice", amount=10, unit=UNIT)
    submit_signed(engine, cycle)
    engine.freeze()

    with monkeypatch.context() as m:
        tamper_flows(m, inflate_first_record)
        assert engine.run()["status"] == "failed"
    queued = (tmp_path / "s" / "epochs" / "00002" / "pool.jsonl").read_text()
    repayment = engine.ledger.open_obligations[new_id]
    assert queued == engine_module.canonical_dumps(intent_to_obj(repayment))
    assert ClearingEngine(tmp_path / "s")._pool(2).get(new_id).amount == 10

    submit_signed(engine, cycle)
    engine.freeze()
    report = engine.run()
    assert report["discharged"] == {new_id: 10, "ob:ca": 10}
    assert engine.ledger.open_obligations == {}


def test_unpriced_foreign_tenders_are_excluded_not_fatal(tmp_path: Path) -> None:
    engine = make_engine(
        tmp_path / "s",
        currencies={"EURX": "ecb"},
        opening_balances={"B": {UNIT: 10}, "C": {UNIT: 15}},
    )
    unpriced = [
        Tender(id="t:fx", sender="alice", source="ecb",
               kind=TenderKind.ASSIGNMENT, max_amount=5),
        Acceptance(id="acc:fx", origin="carol", target="bob",
                   kind=AcceptanceKind.REPAYMENT, currency="EURX", limit=5),
        Tender(id="t:fxdraw", sender="bob", source="carol",
               kind=TenderKind.OVERDRAFT, max_amount=5),
    ]
    for intent in cycle_intents() + unpriced:
        submit_signed(engine, intent)
    engine.freeze()
    report = engine.run()
    assert report["status"] == "applied"
    assert report["cleared_debt"] == report["total_debt"] == 95
    assert report["excluded"] == [
        ["t:fx", "tender has no price for EURX"],
        ["t:fxdraw", "tender has no price for EURX"],
    ]
    assert engine.epoch == 1 and engine.phase == "open"


def test_late_intent_clears_next_epoch(tmp_path: Path) -> None:
    engine = funded_cycle_engine(tmp_path / "s")
    engine.freeze()
    submit_signed(engine, Obligation(id="ob:ba", debtor="B", creditor="A",
                                     amount=5, unit=UNIT))
    submit_signed(engine, Obligation(id="ob:ab", debtor="A", creditor="B",
                                     amount=5, unit=UNIT))
    first = engine.run(budget=25, seed=7)
    assert first["cleared_debt"] == 95
    engine.freeze()
    second = engine.run()
    assert second["cleared_debt"] == 10  # the late two-cycle nets out


# --- totals past the intent bound ---------------------------------------------------

BIG = 2**62  # each intent within MAX_AMOUNT; the epoch's totals are not


def two_big_pairs_engine(path: Path) -> ClearingEngine:
    engine = make_engine(path, opening_balances={"A": {UNIT: BIG}, "C": {UNIT: BIG}})
    for debtor, creditor in (("A", "B"), ("C", "alice")):
        submit_signed(engine, Obligation(id=f"ob:{debtor}", debtor=debtor,
                                         creditor=creditor, amount=BIG, unit=UNIT))
        submit_signed(engine, Tender(id=f"t:{debtor}", sender=debtor, source=HUB,
                                     kind=TenderKind.ASSIGNMENT, max_amount=BIG))
    return engine


def test_epoch_totals_past_the_intent_bound_clear(tmp_path: Path) -> None:
    outputs = []
    for name in ("left", "right"):
        engine = two_big_pairs_engine(tmp_path / name)
        assert engine.nid() == {"epoch": 0, "nid": 2 * BIG, "total_debt": 2 * BIG}
        engine.freeze()
        report = engine.run(seed=3)
        assert report["status"] == "applied"
        assert report["cleared_debt"] == 2 * BIG > MAX_AMOUNT
        assert report["liquidity_used"] == {UNIT: 2 * BIG}
        assert engine.ledger.balance("B", UNIT) == engine.ledger.balance("alice", UNIT) == BIG
        outputs.append(store_bytes(tmp_path / name))
    assert outputs[0] == outputs[1]


def test_overdraft_past_the_intent_bound_queues_a_declarable_repayment(
    tmp_path: Path,
) -> None:
    engine = make_engine(tmp_path / "s", currencies={UNIT: HUB, "EURX": "bank"})
    engine.register_key("bank", key_of("bank").hex())
    pool = overdraft_past_the_bound_pool()
    for intent in [*pool.obligations.values(), *pool.acceptances.values(),
                   *pool.tenders.values()]:
        engine.submit_intent(intent)
    engine.freeze()
    report = engine.run()
    assert report["status"] == "applied"
    assert report["cleared_debt"] == MAX_AMOUNT
    (new_id,) = report["new_obligations"]
    # The queued repayment is an intent: a fresh engine must parse it back.
    queued = ClearingEngine(tmp_path / "s")._pool(1).obligations[new_id]
    assert queued.amount == MAX_AMOUNT


# --- failure handling -----------------------------------------------------------


def test_tampered_flow_marks_epoch_failed(tmp_path: Path, monkeypatch) -> None:
    engine = funded_cycle_engine(tmp_path / "s")
    engine.freeze()
    ledger_before = (tmp_path / "s" / "ledger.json").read_bytes()

    tamper_flows(monkeypatch, inflate_first_record)
    report = engine.run(budget=25)
    assert report["status"] == "failed"
    assert report["violations"], "expected at least one named violation"
    assert report["violations"][0][0] in {
        "SubsetFlow", "BalancedFlow", "PairedRecords", "NonNegativeBalance",
    }
    assert "cleared_debt" not in report
    assert (tmp_path / "s" / "ledger.json").read_bytes() == ledger_before
    assert engine.epoch == 1 and engine.phase == "open"
    assert engine.report(0)["status"] == "failed"
    assert not (tmp_path / "s" / "epochs" / "00000" / "notices.csv").exists()


def counting_validations(monkeypatch) -> list:
    """Log the report of every is_valid_flow call, through every module binding it."""
    reports: list = []
    real = validate_module.is_valid_flow

    def counted(*args):
        reports.append(real(*args))
        return reports[-1]

    for module in (validate_module, settle_module, engine_module):
        monkeypatch.setattr(module, "is_valid_flow", counted)
    return reports


def inflate_first_transfer(flow):
    tr = flow.transfers[0]
    return replace(flow, transfers=(replace(tr, amount=tr.amount + 1), *flow.transfers[1:]))


@pytest.mark.parametrize("hook", [None, inflate_first_transfer])
@pytest.mark.parametrize("b_funds, solves", [(10, 1), (5, 1)])  # 5: B's balance binds
def test_each_epoch_validates_its_flow_once(
    tmp_path: Path, monkeypatch, hook, b_funds: int, solves: int
) -> None:
    kernel_calls: list = []
    real_solve = kernel.solve_min_cost
    monkeypatch.setattr(
        kernel, "solve_min_cost", lambda *a, **kw: kernel_calls.append(1) or real_solve(*a, **kw)
    )
    reports = counting_validations(monkeypatch)
    engine = make_engine(tmp_path / "s", opening_balances={"B": {UNIT: b_funds}, "C": {UNIT: 15}})
    for intent in cycle_intents():
        submit_signed(engine, intent)
    engine.freeze()
    ledger_before = (tmp_path / "s" / "ledger.json").read_bytes()
    if hook is not None:
        tamper_flows(monkeypatch, hook)
    report = engine.run(budget=25, seed=7)
    assert len(reports) == 1 and len(kernel_calls) == solves
    if hook is None:
        assert report["status"] == "applied" and reports[0].ok
        return
    # The hook's flow overdraws B by one: the one validation names it.
    assert report["status"] == "failed"
    assert report["violations"] == [
        [v.check, list(v.ids), v.detail] for v in reports[0].violations
    ] == [["NonNegativeBalance", ["B"], "balance in UOA would end at -1"]]
    assert (tmp_path / "s" / "ledger.json").read_bytes() == ledger_before


def test_settlement_fault_leaves_epoch_retryable(tmp_path: Path, monkeypatch) -> None:
    engine = funded_cycle_engine(tmp_path / "s")
    engine.freeze()
    ledger_before = (tmp_path / "s" / "ledger.json").read_bytes()
    state_before = (tmp_path / "s" / "state.json").read_bytes()

    def explode(label: str) -> None:
        if label.startswith("transfer:"):
            raise RuntimeError("disk on fire")

    real_apply = engine_module.apply_flow
    with monkeypatch.context() as m:
        m.setattr(engine_module, "apply_flow", lambda *args: real_apply(*args, failpoint=explode))
        with pytest.raises(RuntimeError, match="disk on fire"):
            engine.run(budget=25, seed=7)
    assert (tmp_path / "s" / "ledger.json").read_bytes() == ledger_before
    assert (tmp_path / "s" / "state.json").read_bytes() == state_before
    assert engine.phase == "frozen"
    assert not (tmp_path / "s" / "epochs" / "00000" / "applied.json").exists()

    report = engine.run(budget=25, seed=7)  # plain retry succeeds
    assert report["status"] == "applied" and report["cleared_debt"] == 95


def test_crash_after_wal_replays_identically(tmp_path: Path) -> None:
    engine = funded_cycle_engine(tmp_path / "one")
    engine.freeze()
    with pytest.raises(RuntimeError, match="crash requested"):
        crash_after_wal(engine, budget=25, seed=7)
    wal_path = tmp_path / "one" / "epochs" / "00000" / "applied.json"
    assert wal_path.exists()
    assert engine.phase == "frozen"  # commit never happened

    reborn = ClearingEngine(tmp_path / "one")
    report = reborn.run()  # budget args irrelevant: the WAL decides
    assert report["status"] == "applied" and report["cleared_debt"] == 95
    assert reborn.epoch == 1 and reborn.phase == "open"

    control = funded_cycle_engine(tmp_path / "two")
    control.freeze()
    control.run(budget=25, seed=7)
    for name in ("ledger.json", "state.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    for name in ("flow.json", "report.json", "notices.csv", "applied.json"):
        assert (
            (tmp_path / "one" / "epochs" / "00000" / name).read_bytes()
            == (tmp_path / "two" / "epochs" / "00000" / name).read_bytes()
        )


def test_crash_after_wal_replays_the_enqueue_identically(tmp_path: Path) -> None:
    """The replayed repayment obligation is written with the same bytes."""
    for name, crash in (("crashed", True), ("control", False)):
        engine = make_engine(tmp_path / name)
        for intent in loan_intents():
            submit_signed(engine, intent)
        engine.freeze()
        if crash:
            with pytest.raises(RuntimeError, match="crash requested"):
                crash_after_wal(engine)
            engine = ClearingEngine(tmp_path / name)
        assert engine.run()["new_obligations"] == [f"{NEW_OBLIGATION_PREFIX}0:t:draw:acc:loan"]
    assert store_bytes(tmp_path / "crashed") == store_bytes(tmp_path / "control")


def loan_epoch_run(store: Path) -> ClearingEngine:
    """An engine past one run of the loan intents: epoch 1 holds the repayment obligation."""
    engine = make_engine(store)
    for intent in loan_intents():
        submit_signed(engine, intent)
    engine.freeze()
    engine.run()
    return engine


def test_an_older_pool_line_marked_system_loads_as_trusted(tmp_path: Path) -> None:
    control = loan_epoch_run(tmp_path / "control")
    older = loan_epoch_run(tmp_path / "older")
    new_id = f"{NEW_OBLIGATION_PREFIX}0:t:draw:acc:loan"
    pool_path = older._pool_path(1)
    lines = [json.loads(line) for line in pool_path.read_text().splitlines()]
    assert [line["id"] for line in lines] == [new_id]
    pool_path.write_text("".join(engine_module.canonical_dumps(dict(line, system=True))
                                 for line in lines))

    reopened = ClearingEngine(tmp_path / "older")
    pool = reopened._pool(1)
    assert new_id in pool.preverified and pool.is_ascertained(pool.obligations[new_id])
    assert pool_contents(pool) == pool_contents(ClearingEngine(control.store)._pool(1))
    for engine in (reopened, control):
        engine.freeze()
    assert reopened.run() == control.run()


def test_an_older_commit_log_with_enqueue_replays_the_same(tmp_path: Path) -> None:
    """A commit log that still lists the queued obligations replays like a current one."""
    for name, crash in (("older", True), ("control", False)):
        engine = make_engine(tmp_path / name)
        for intent in loan_intents():
            submit_signed(engine, intent)
        engine.freeze()
        if crash:
            with pytest.raises(RuntimeError, match="crash requested"):
                crash_after_wal(engine)
            wal_path = engine._epoch_dir(0) / "applied.json"
            wal = json.loads(wal_path.read_text())
            wal["enqueue"] = [
                dict(wal["ledger"]["open_obligations"][ob_id], system=True)
                for ob_id in wal["report"]["new_obligations"]
            ]
            assert wal["enqueue"]
            wal_path.write_text(engine_module.canonical_dumps(wal))
            engine = ClearingEngine(tmp_path / name)
        engine.run()
    older, control = store_bytes(tmp_path / "older"), store_bytes(tmp_path / "control")
    assert older.pop("epochs/00000/applied.json") != control.pop("epochs/00000/applied.json")
    assert older == control  # the same ledger and the same next-epoch pool
    assert pool_contents(ClearingEngine(tmp_path / "older")._pool(1)) == pool_contents(
        ClearingEngine(tmp_path / "control")._pool(1)
    )


def store_bytes(store: Path) -> dict[str, bytes]:
    return {
        p.relative_to(store).as_posix(): p.read_bytes()
        for p in sorted(store.rglob("*"))
        if p.is_file()
    }


def test_two_store_replay_is_byte_identical(tmp_path: Path) -> None:
    outputs = []
    for name in ("left", "right"):
        engine = funded_cycle_engine(tmp_path / name)
        engine.freeze()
        engine.run(budget=25, seed=42)
        engine.freeze()
        engine.run(budget=0, seed=42)
        outputs.append(store_bytes(tmp_path / name))
    assert outputs[0] == outputs[1]


class Crash(Exception):
    """The process dies inside a store write."""


def patch_store_writes(
    monkeypatch, store: Path, crash_at: int | None = None, whole: bool = False
) -> list[str]:
    """Log every ``_append_log`` and ``_write_atomic`` call; the ``crash_at``-th one crashes.

    A crashed append leaves a torn tail: half the line, or (``whole``) all of
    it but its newline. A crashed atomic write leaves its ``.tmp`` written,
    half or whole, and not renamed.
    """
    calls: list[str] = []
    real_append, real_write = engine_module._append_log, engine_module._write_atomic

    def append(path: Path, line: str) -> None:
        calls.append(f"append {path.relative_to(store).as_posix()}")
        if len(calls) == crash_at:
            real_append(path, line[:-1] if whole else line[: len(line) // 2])
            raise Crash(calls[-1])
        real_append(path, line)

    def write(path: Path, data: str) -> None:
        calls.append(f"write {path.relative_to(store).as_posix()}")
        if len(calls) == crash_at:
            path.with_name(path.name + ".tmp").write_text(data if whole else data[: len(data) // 2])
            raise Crash(calls[-1])
        real_write(path, data)

    monkeypatch.setattr(engine_module, "_append_log", append)
    monkeypatch.setattr(engine_module, "_write_atomic", write)
    return calls


def two_epoch_life() -> list:
    """Register keys, submit, cancel, freeze, submit late, run with an overdraft, run again."""

    def submit(intent):
        return lambda engine: submit_signed(engine, intent)

    steps = [lambda engine, a=a: engine.register_key(a, key_of(a).hex()) for a in AGENTS]
    steps += [submit(i) for i in cycle_intents() + loan_intents()]
    steps += [
        submit(Obligation(id="ob:gone", debtor="A", creditor="C", amount=4, unit=UNIT)),
        lambda engine: engine.cancel_intent("ob:gone"),
        lambda engine: engine.freeze(),
        submit(Obligation(id="ob:late", debtor="A", creditor="C", amount=5, unit=UNIT)),
        lambda engine: engine.run(budget=20, seed=3),
        lambda engine: engine.freeze(),
        lambda engine: engine.run(seed=3),
    ]
    return steps


def live_two_epochs(store: Path, monkeypatch, crash_at: int | None = None,
                    whole: bool = False) -> list[str]:
    """Live the two-epoch life; a crashed call is retried once on a reopened engine."""
    engine = ClearingEngine.init(store, unit=UNIT, default_source=HUB,
                                 opening_balances={"B": {UNIT: 10}, "C": {UNIT: 15}})
    calls = patch_store_writes(monkeypatch, store, crash_at, whole)
    for step in two_epoch_life():
        try:
            step(engine)
        except Crash:
            engine = ClearingEngine(store)
            step(engine)
    return calls


def test_a_crash_at_any_store_write_then_a_retry_gives_the_uncrashed_bytes(
    tmp_path: Path, monkeypatch
) -> None:
    with monkeypatch.context() as m:
        points = live_two_epochs(tmp_path / "twin", m)
    twin = store_bytes(tmp_path / "twin")
    reports = [json.loads(twin[f"epochs/0000{e}/report.json"]) for e in (0, 1)]
    assert reports[0]["new_obligations"] and reports[1]["status"] == "applied"
    assert twin["epochs/00000/pool.jsonl"].endswith(b'{"cancel":"ob:gone"}\n')
    assert {"append keys.jsonl", "append epochs/00000/pool.jsonl",
            "append epochs/00001/pool.jsonl", "write epochs/00000/applied.json",
            "write ledger.json", "write state.json"} <= set(points)
    for at, point in enumerate(points, start=1):
        for whole in (False, True):
            store = tmp_path / f"{at}-{whole}"
            with monkeypatch.context() as m:
                assert live_two_epochs(store, m, at, whole)[at - 1] == point
            assert store_bytes(store) == twin, (at, point, whole)


# The SHA-256 of the two-epoch store's files, sorted by path; a change of store format
# changes it, and says so.
TWO_EPOCH_STORE_SHA256 = "b56e79d23739211a45537e00fd6d879e446ea91be3ec3cbdcf33c090904c8b06"


def test_the_two_epoch_store_has_the_pinned_bytes(tmp_path: Path, monkeypatch) -> None:
    live_two_epochs(tmp_path / "s", monkeypatch)
    digest = hashlib.sha256()
    for path, data in sorted(store_bytes(tmp_path / "s").items()):
        digest.update(f"{path}\0{len(data)}\0".encode())
        digest.update(data)
    assert digest.hexdigest() == TWO_EPOCH_STORE_SHA256


# --- in-memory state -------------------------------------------------------------


def pool_contents(pool) -> tuple:
    return pool.obligations, pool.acceptances, pool.tenders, pool.preverified


def assert_memory_matches_disk(engine: ClearingEngine) -> None:
    """The engine's pools and nid equal those a fresh engine reads from disk."""
    fresh = ClearingEngine(engine.store)
    assert (fresh.epoch, fresh.phase) == (engine.epoch, engine.phase)
    for epoch in (engine.epoch, engine.epoch + 1):
        assert pool_contents(engine._pool(epoch)) == pool_contents(fresh._load_pool(epoch))
    assert engine.nid() == fresh.nid()


def lifecycle_steps():
    """One store's life: intake, rejections, cancel, a late submit, overdraft, crash.

    ``None`` marks a reopen of the long-lived engine.
    """

    def submit(intent):
        return lambda engine: submit_signed(engine, intent)

    steps = [submit(i) for i in cycle_intents() + loan_intents()]
    steps += [
        submit(cycle_intents()[0]),  # duplicate
        lambda engine: engine.submit_intent(  # unascertained
            Obligation(id="ob:ac", debtor="A", creditor="C", amount=1, unit=UNIT)
        ),
        submit(Obligation(id="ob:ba", debtor="B", creditor="A", amount=1, unit=UNIT)),  # quota
        submit(Obligation(id="ob:gone", debtor="A", creditor="C", amount=4, unit=UNIT)),
        lambda engine: engine.cancel_intent("ob:gone"),
        lambda engine: engine.freeze(),
        submit(Obligation(id="ob:late", debtor="A", creditor="C", amount=5, unit=UNIT)),
        lambda engine: engine.run(seed=7),
        submit(cycle_intents()[0]),  # same id, next epoch
        None,
        lambda engine: engine.freeze(),
        lambda engine: crash_after_wal(engine, seed=7),
        lambda engine: engine.run(),  # replays the commit log
    ]
    return steps


def outcome(step, engine: ClearingEngine):
    try:
        return "ok", step(engine)
    except (SetoffError, RuntimeError) as exc:  # raised outcomes must match too
        return type(exc).__name__, str(exc)


def test_in_memory_engine_matches_fresh_engine(tmp_path: Path) -> None:
    kwargs = dict(quota_per_agent=2, opening_balances={"B": {UNIT: 10}, "C": {UNIT: 15}})
    kept = make_engine(tmp_path / "kept", **kwargs)
    make_engine(tmp_path / "fresh", **kwargs)
    seen = []
    for n, step in enumerate(lifecycle_steps()):
        if step is None:
            kept = ClearingEngine(kept.store)
            continue
        got = outcome(step, kept)
        want = outcome(step, ClearingEngine(tmp_path / "fresh"))
        assert got == want, n
        seen.append(got[0])
        assert_memory_matches_disk(kept)
        assert kept.nid() == ClearingEngine(tmp_path / "fresh").nid()
    assert seen.count("IntentError") == 1 and seen.count("QuotaExceeded") == 1
    assert seen.count("RuntimeError") == 1
    assert ClearingEngine(tmp_path / "kept").report(0)["new_obligations"]
    assert store_bytes(tmp_path / "kept") == store_bytes(tmp_path / "fresh")


def test_rotated_key_reaches_pooled_intents(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    for intent in cycle_intents():
        submit_signed(engine, intent)
    assert engine.nid() == {"epoch": 0, "nid": 25, "total_debt": 95}
    engine.register_key("B", key_of("someone else").hex())
    assert engine.nid() == ClearingEngine(engine.store).nid() == {
        "epoch": 0, "nid": 45, "total_debt": 65,
    }
    engine.freeze()
    shutil.copytree(engine.store, tmp_path / "copy")
    report = engine.run(budget=25, seed=7)
    assert report == ClearingEngine(tmp_path / "copy").run(budget=25, seed=7)
    assert report["excluded"] == [
        ["ob1", "ascertainment failed"], ["t:B", "ascertainment failed"],
    ]


def test_failed_pool_write_leaves_intent_submittable(tmp_path: Path, monkeypatch) -> None:
    engine = make_engine(tmp_path / "s")
    ob = ascertain(
        Obligation(id="o", debtor="A", creditor="B", amount=5, unit=UNIT), engine.registry
    )

    def full_disk(epoch: int, obj: dict) -> None:
        raise OSError("no space left on device")

    monkeypatch.setattr(engine, "_append_pool_line", full_disk)
    with pytest.raises(OSError):
        engine.submit_intent(ob)
    monkeypatch.undo()
    assert engine.submit_intent(ob) == 0
    lines = engine._pool_path(0).read_text().splitlines()
    assert [json.loads(line)["id"] for line in lines] == ["o"]
    assert engine.nid()["total_debt"] == 5


def test_each_pooled_intent_is_parsed_once(tmp_path: Path, monkeypatch) -> None:
    real = engine_module.intent_from_obj
    parsed: list[str] = []

    def counting(obj):
        parsed.append(obj["id"])
        return real(obj)

    monkeypatch.setattr(engine_module, "intent_from_obj", counting)
    engine = make_engine(tmp_path / "s")
    objs = [
        intent_to_obj(ascertain(
            Obligation(id=f"o{i}", debtor="A", creditor="B", amount=i + 1, unit=UNIT),
            engine.registry,
        ))
        for i in range(6)
    ]
    for obj in objs[:5]:
        engine.submit_intent(dict(obj))
    assert len(parsed) == 5
    parsed.clear()
    ClearingEngine(tmp_path / "s").submit_intent(dict(objs[5]))
    assert len(parsed) == 6  # five pooled intents read once, plus the new one


def test_cancel_and_commit_keep_each_intent_verified_once(
    tmp_path: Path, monkeypatch
) -> None:
    engine = make_engine(tmp_path / "s")
    obs = [
        ascertain(Obligation(id=f"o{i}", debtor="A", creditor="B", amount=1, unit=UNIT),
                  engine.registry)
        for i in range(250)
    ]
    checked = counting_verify(monkeypatch)
    for ob in obs[:200]:
        engine.submit_intent(ob)
    engine.nid()
    assert len(checked) == 200
    assert engine.cancel_intent("o7")
    assert engine.nid()["total_debt"] == 199
    assert len(checked) == 200
    engine.freeze()
    for ob in obs[200:]:
        assert engine.submit_intent(ob) == 1
    assert len(checked) == 250
    assert engine.run()["status"] == "applied"
    assert engine.nid() == {"epoch": 1, "nid": 50, "total_debt": 50}
    assert len(checked) == 250
    monkeypatch.undo()
    assert_memory_matches_disk(engine)


def test_register_key_never_rereads_keys_file(tmp_path: Path, monkeypatch) -> None:
    engine = make_engine(tmp_path / "s")
    real = Path.read_text
    reads: list[str] = []

    def counting(self, *args, **kwargs):
        reads.append(self.name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    for i in range(5):
        engine.register_key(f"firm{i}")
    assert "keys.jsonl" not in reads


def test_non_hex_key_is_refused_before_any_write(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    keys_path = tmp_path / "s" / "keys.jsonl"
    before = keys_path.read_bytes()
    with pytest.raises(StateError, match="not hex"):
        engine.register_key("A", "zz")
    assert keys_path.read_bytes() == before
    assert ClearingEngine(tmp_path / "s").registry.key_for("A") == key_of("A")


def test_non_hex_key_in_keys_file_is_a_state_error(tmp_path: Path) -> None:
    make_engine(tmp_path / "s")
    with open(tmp_path / "s" / "keys.jsonl", "a") as fh:
        fh.write('{"agent":"A","key":"zz"}\n')
    with pytest.raises(StateError, match="key for A is not hex"):
        ClearingEngine(tmp_path / "s")


@pytest.mark.parametrize("agent, key_hex, detail", [
    ("A", "", "key for A is empty"),
    ("A", " ", "key for A is empty"),
    ("", "ab", "agent id '' is not a non-empty string"),
])
def test_an_empty_key_or_agent_id_is_refused_before_any_write(
    tmp_path: Path, agent: str, key_hex: str, detail: str
) -> None:
    engine = make_engine(tmp_path / "s")
    keys_path = tmp_path / "s" / "keys.jsonl"
    before = keys_path.read_bytes()
    with pytest.raises(StateError, match=detail):
        engine.register_key(agent, key_hex)
    assert keys_path.read_bytes() == before
    assert engine.registry.key_for(agent) == (key_of("A") if agent else None)


@pytest.mark.parametrize("line, detail", [
    ('{"agent":"A","key":""}', "key for A is empty"),
    ('{"agent":"","key":"ab"}', "agent id '' is not a non-empty string"),
    ('{"agent":7,"key":"ab"}', "agent id 7 is not a non-empty string"),
])
def test_an_empty_key_or_agent_id_in_keys_file_names_the_line(
    tmp_path: Path, line: str, detail: str
) -> None:
    make_engine(tmp_path / "s")
    keys_path = tmp_path / "s" / "keys.jsonl"
    with open(keys_path, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(StateError, match=f"keys.jsonl:{len(AGENTS) + 1}: {detail}"):
        ClearingEngine(tmp_path / "s")


def test_a_keys_file_that_is_not_utf8_is_a_state_error_naming_it(tmp_path: Path) -> None:
    make_engine(tmp_path / "s")
    with open(tmp_path / "s" / "keys.jsonl", "ab") as fh:
        fh.write(b'{"agent":"\xe9","key":"ab"}\n')
    with pytest.raises(StateError, match="keys.jsonl: UnicodeDecodeError"):
        ClearingEngine(tmp_path / "s")


def test_key_hex_is_stored_exactly_as_given(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    upper = key_of("dave").hex().upper()
    assert engine.register_key("dave", upper) == upper
    last = (tmp_path / "s" / "keys.jsonl").read_text().splitlines()[-1]
    assert json.loads(last) == {"agent": "dave", "key": upper}
    assert ClearingEngine(tmp_path / "s").registry.key_for("dave") == key_of("dave")


def test_rotated_key_last_line_wins_across_reopen(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    engine.register_key("A", key_of("someone else").hex())
    engine.register_key("B", key_of("B").hex())
    assert ClearingEngine(tmp_path / "s").registry.key_for("A") == key_of("someone else")
    engine.register_key("A", key_of("A").hex())
    again = ClearingEngine(tmp_path / "s")
    assert again.registry.key_for("A") == key_of("A")
    assert again.registry.key_for("B") == key_of("B")
    lines = (tmp_path / "s" / "keys.jsonl").read_text().splitlines()
    assert len(lines) == len(AGENTS) + 3


def test_store_with_keys_json_is_refused(tmp_path: Path) -> None:
    make_engine(tmp_path / "s")
    (tmp_path / "s" / "keys.jsonl").unlink()
    (tmp_path / "s" / "keys.json").write_text("{}\n")
    with pytest.raises(StateError, match="keys.json are not read"):
        ClearingEngine(tmp_path / "s")


def test_registering_keys_appends_one_line_each_and_renames_nothing(
    tmp_path: Path, monkeypatch
) -> None:
    engine = ClearingEngine.init(tmp_path / "s", unit=UNIT)
    replaced: list[str] = []
    real = engine_module.os.replace

    def counting(src, dst):
        replaced.append(str(dst))
        return real(src, dst)

    monkeypatch.setattr(engine_module.os, "replace", counting)
    for i in range(200):
        engine.register_key(f"firm{i}", key_of(f"firm{i}").hex())
    assert replaced == []
    lines = (tmp_path / "s" / "keys.jsonl").read_text().splitlines()
    assert len(lines) == 200
    assert json.loads(lines[7]) == {"agent": "firm7", "key": key_of("firm7").hex()}


def test_torn_pool_tail_is_skipped_then_truncated(tmp_path: Path) -> None:
    engine = make_engine(tmp_path / "s")
    submit_signed(engine, cycle_intents()[0])
    pool_path = tmp_path / "s" / "epochs" / "00000" / "pool.jsonl"
    with open(pool_path, "a") as fh:
        fh.write('{"id":"o2","ki')  # an append whose call never returned
    reopened = ClearingEngine(tmp_path / "s")
    assert reopened.nid() == {"epoch": 0, "nid": 20, "total_debt": 20}
    assert submit_signed(reopened, cycle_intents()[1]) == 0
    objs = [json.loads(line) for line in pool_path.read_text().splitlines()]
    assert [obj["id"] for obj in objs] == ["ob0", "ob1"]
    assert ClearingEngine(tmp_path / "s").nid()["total_debt"] == 50


def test_torn_keys_tail_is_skipped_then_truncated(tmp_path: Path) -> None:
    make_engine(tmp_path / "s")
    keys_path = tmp_path / "s" / "keys.jsonl"
    with open(keys_path, "a") as fh:
        fh.write('{"agent":"Z","ke')
    reopened = ClearingEngine(tmp_path / "s")
    assert reopened.registry.key_for("Z") is None
    reopened.register_key("dave", key_of("dave").hex())
    objs = [json.loads(line) for line in keys_path.read_text().splitlines()]
    assert [obj["agent"] for obj in objs] == [*AGENTS, "dave"]
    assert ClearingEngine(tmp_path / "s").registry.key_for("dave") == key_of("dave")


LINE = '{"agent":"dave","key":"ab"}\n'


@pytest.mark.parametrize("before, after", [
    (None, LINE),  # a missing file is created
    (b"", LINE),
    (b'{"a":1}\n', '{"a":1}\n' + LINE),  # a whole tail is kept
    (b'{"a":1}\n{"agent":"Z","ke', '{"a":1}\n' + LINE),  # half a line is cut
    (b'{"a":1}\n{"b":2}', '{"a":1}\n' + LINE),  # so is a whole line without its newline
    (b'{"agent":"Z","ke', LINE),  # a file that is one torn line
], ids=["missing", "empty", "whole", "half-line", "no-newline", "one-torn-line"])
def test_append_log_cuts_a_torn_tail_and_appends_one_line(
    tmp_path: Path, before: bytes | None, after: str
) -> None:
    path = tmp_path / "log.jsonl"
    if before is not None:
        path.write_bytes(before)
    engine_module._append_log(path, LINE)
    assert path.read_bytes() == after.encode()


def counting_os(monkeypatch) -> dict[str, int]:
    """Count ``os.open`` and ``os.close`` calls and the bytes ``os.read`` returns."""
    counts = {"open": 0, "close": 0, "read_bytes": 0}
    real_open, real_close, real_read = os.open, os.close, os.read

    def opening(*args, **kwargs):
        counts["open"] += 1
        return real_open(*args, **kwargs)

    def closing(fd):
        counts["close"] += 1
        return real_close(fd)

    def reading(fd, n):
        data = real_read(fd, n)
        counts["read_bytes"] += len(data)
        return data

    monkeypatch.setattr(os, "open", opening)
    monkeypatch.setattr(os, "close", closing)
    monkeypatch.setattr(os, "read", reading)
    return counts


def test_an_append_to_a_whole_tail_opens_once_and_reads_one_byte(
    tmp_path: Path, monkeypatch
) -> None:
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a":1}\n' * 1000)
    with monkeypatch.context() as m:
        counts = counting_os(m)
        engine_module._append_log(path, LINE)
    assert counts == {"open": 1, "close": 1, "read_bytes": 1}
    with monkeypatch.context() as m:
        counts = counting_os(m)
        engine_module._append_log(tmp_path / "new.jsonl", LINE)
    assert counts == {"open": 1, "close": 1, "read_bytes": 0}


def test_an_append_closes_what_it_opens_when_its_write_fails(
    tmp_path: Path, monkeypatch
) -> None:
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a":1}\n{"b"')
    def full_disk(fd, data):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as m:
        counts = counting_os(m)
        m.setattr(os, "write", full_disk)
        with pytest.raises(OSError, match="No space left"):
            engine_module._append_log(path, LINE)
    assert counts["open"] == counts["close"] == 1
    assert path.read_bytes() == b'{"a":1}\n'  # the torn tail went before the write failed


@pytest.mark.parametrize("log", ["keys.jsonl", "epochs/00000/pool.jsonl"])
def test_complete_bad_log_line_names_file_and_line(tmp_path: Path, log: str) -> None:
    engine = make_engine(tmp_path / "s")
    submit_signed(engine, cycle_intents()[0])
    path = tmp_path / "s" / log
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "{not json\n" + "".join(lines[1:]))
    with pytest.raises(StateError, match=f"{log}:2: not valid JSON"):
        ClearingEngine(tmp_path / "s").nid()


@pytest.mark.parametrize("line, detail", [
    ({}, "unknown intent type None"),
    ({**intent_to_obj(cycle_intents()[0]), "id": "big", "amount": MAX_AMOUNT + 1},
     "exceeds the checked range"),
])
def test_pool_line_that_is_not_an_intent_names_file_and_line(
    tmp_path: Path, line: dict, detail: str
) -> None:
    engine = make_engine(tmp_path / "s")
    submit_signed(engine, cycle_intents()[0])
    pool_path = tmp_path / "s" / "epochs" / "00000" / "pool.jsonl"
    with open(pool_path, "a") as fh:
        fh.write(json.dumps(line) + "\n")
    before = pool_path.read_bytes()
    for call in (lambda e: e.nid(), lambda e: e.cancel_intent("ob0")):
        with pytest.raises(StateError, match=f"pool.jsonl:2: .*{detail}"):
            call(ClearingEngine(tmp_path / "s"))
    assert pool_path.read_bytes() == before


@pytest.mark.parametrize("log", ["keys.jsonl", "epochs/00000/pool.jsonl"])
def test_complete_non_object_log_line_is_json_on_stderr(
    tmp_path: Path, capsys, log: str
) -> None:
    engine = make_engine(tmp_path / "s")
    submit_signed(engine, cycle_intents()[0])
    engine.freeze()
    path = tmp_path / "s" / log
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "[1]\n" + "".join(lines[1:]))
    before = path.read_bytes()
    intents = tmp_path / "intents.jsonl"
    write_intents_file(intents, engine.registry)
    for argv in (["nid"], ["submit", str(intents)], ["run"]):
        code, out, err = run_cli(capsys, "--store", str(tmp_path / "s"), *argv)
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "StateError"
        assert error["detail"].endswith(f"{log}:2: not a JSON object")
    assert path.read_bytes() == before


# --- CLI -------------------------------------------------------------------------


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_intents_file(path: Path, engine_registry) -> None:
    lines = [
        json.dumps(intent_to_obj(ascertain(i, engine_registry)),
                   separators=(",", ":"))
        for i in cycle_intents()
    ]
    path.write_text("\n".join(lines) + "\n")


def test_cli_lifecycle(tmp_path: Path, capsys) -> None:
    store = str(tmp_path / "s")
    code, out, _ = run_cli(capsys, "--store", store, "init",
                           "--default-source", HUB,
                           "--fund", f"B:{UNIT}:10", "--fund", f"C:{UNIT}:15")
    assert code == 0
    assert json.loads(out) == {"store": store, "unit": UNIT}

    for agent in ("A", "B", "C"):
        code, out, _ = run_cli(capsys, "--store", store, "keygen",
                               "--agent", agent, "--key", key_of(agent).hex())
        assert code == 0
        assert json.loads(out)["agent"] == agent

    engine = ClearingEngine(store)
    intents = tmp_path / "intents.jsonl"
    write_intents_file(intents, engine.registry)
    code, out, _ = run_cli(capsys, "--store", store, "submit", str(intents))
    assert code == 0
    assert json.loads(out)["accepted"] == {
        "ob0": 0, "ob1": 0, "ob2": 0, "t:B": 0, "t:C": 0,
    }

    code, out, _ = run_cli(capsys, "--store", store, "nid")
    assert json.loads(out) == {"epoch": 0, "nid": 25, "total_debt": 95}

    code, out, _ = run_cli(capsys, "--store", store, "freeze")
    assert json.loads(out) == {"frozen_epoch": 0}

    code, out, _ = run_cli(capsys, "--store", store, "run",
                           "--budget", "25", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "applied" and report["cleared_debt"] == 95

    code, out, _ = run_cli(capsys, "--store", store, "report")
    assert json.loads(out) == report

    code, out, _ = run_cli(capsys, "--store", store, "report",
                           "--epoch", "0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "status,applied" in lines
    assert "cleared_debt,95" in lines
    # A CSV reader gets two fields a row back, and each non-scalar value as its JSON.
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"] and all(len(row) == 2 for row in rows)
    values = dict(rows[1:])
    assert values.keys() == report.keys()
    assert json.loads(values["liquidity_used"]) == {"UOA": 25}
    for key, value in report.items():
        if not isinstance(value, (str, int)):
            assert json.loads(values[key]) == value, key


def test_cli_errors_are_json_on_stderr(tmp_path: Path, capsys) -> None:
    store = str(tmp_path / "s")
    code, _, err = run_cli(capsys, "--store", store, "freeze")
    assert code == 1
    assert json.loads(err) == {
        "error": "StateError",
        "detail": f"{store} is not an initialized store",
    }
    run_cli(capsys, "--store", store, "init")
    code, _, err = run_cli(capsys, "--store", store, "report", "--epoch", "3")
    assert code == 1
    assert json.loads(err)["error"] == "StateError"
    code, _, err = run_cli(capsys, "--store", store, "init")
    assert code == 1 and json.loads(err)["error"] == "StateError"


@pytest.mark.parametrize(
    ("name", "corrupt"),
    [
        ("state.json", lambda text: text[: len(text) // 2]),  # truncated
        ("state.json", lambda text: '{"phase":"open"}\n'),  # no epoch
        ("state.json", lambda text: '{"epoch":"0","phase":"open"}\n'),
        ("ledger.json", lambda text: "garbage\n"),
        ("ledger.json", lambda text: '{"balances":{"A":{"UOA":"7"}}}\n'),
        ("config.json", lambda text: "[]\n"),
        ("config.json", lambda text: '{"unit":"UOA"}\n'),
    ],
)
def test_cli_names_a_corrupt_store_file(tmp_path: Path, capsys, name: str, corrupt) -> None:
    store = tmp_path / "s"
    assert run_cli(capsys, "--store", str(store), "init")[0] == 0
    path = store / name
    path.write_text(corrupt(path.read_text()))
    code, out, err = run_cli(capsys, "--store", str(store), "nid")
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "StateError"
    assert error["detail"].startswith(f"{path}: ")


def test_cli_names_a_truncated_report(tmp_path: Path, capsys) -> None:
    engine = funded_cycle_engine(tmp_path / "s")
    engine.freeze()
    engine.run()
    path = engine._epoch_dir(0) / "report.json"
    path.write_text(path.read_text()[:-20])
    code, out, err = run_cli(capsys, "--store", str(tmp_path / "s"), "report")
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "StateError"
    assert error["detail"].startswith(f"{path}: JSONDecodeError")


def test_a_truncated_flow_is_named(tmp_path: Path) -> None:
    engine = funded_cycle_engine(tmp_path / "s")
    engine.freeze()
    engine.run()
    path = engine._epoch_dir(0) / "flow.json"
    path.write_text(path.read_text()[:-20])
    with pytest.raises(StateError) as info:
        ClearingEngine(tmp_path / "s").flow(0)
    assert str(info.value).startswith(f"{path}: JSONDecodeError")


def test_a_corrupt_commit_log_is_named_on_replay(tmp_path: Path, capsys) -> None:
    engine = funded_cycle_engine(tmp_path / "s")
    engine.freeze()
    with pytest.raises(RuntimeError):
        crash_after_wal(engine)
    wal_path = engine._epoch_dir(0) / "applied.json"
    wal_path.write_text(wal_path.read_text()[:-20])
    code, out, err = run_cli(capsys, "--store", str(tmp_path / "s"), "run")
    assert (code, out) == (1, "")
    assert json.loads(err)["detail"].startswith(f"{wal_path}: JSONDecodeError")


@pytest.mark.parametrize("damage", [
    lambda wal: wal.pop("ledger"),
    lambda wal: wal.pop("notices_csv"),
    lambda wal: wal.update(ledger=[]),
], ids=["no_ledger", "no_notices", "ledger_not_an_object"])
def test_a_commit_log_without_its_settlement_is_named_before_any_write(
    tmp_path: Path, damage
) -> None:
    engine = funded_cycle_engine(tmp_path / "s")
    engine.freeze()
    with pytest.raises(RuntimeError):
        crash_after_wal(engine)
    wal_path = engine._epoch_dir(0) / "applied.json"
    wal = json.loads(wal_path.read_text())
    damage(wal)
    wal_path.write_text(engine_module.canonical_dumps(wal))
    before = store_bytes(tmp_path / "s")
    with pytest.raises(StateError, match=f"^{re.escape(str(wal_path))}: "):
        ClearingEngine(tmp_path / "s").run()
    assert store_bytes(tmp_path / "s") == before


def test_cli_init_refuses_a_negative_fund_and_leaves_the_path_free(
    tmp_path: Path, capsys
) -> None:
    store = str(tmp_path / "s")
    code, out, err = run_cli(capsys, "--store", store, "init", "--default-source", HUB,
                             "--fund", f"A:{UNIT}:-5", "--fund", f"B:{UNIT}:3")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "StateError"
    assert not (tmp_path / "s" / "config.json").exists()
    code, _, _ = run_cli(capsys, "--store", store, "init", "--default-source", HUB,
                         "--fund", f"{HUB}:{UNIT}:-5", "--fund", f"B:{UNIT}:5")
    assert code == 0


def test_cli_init_with_a_bad_config_leaves_the_path_free(tmp_path: Path, capsys) -> None:
    store = str(tmp_path / "s")
    code, out, err = run_cli(capsys, "--store", store, "init",
                             "--currency", "A=bank", "--currency", "B=bank")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "StateError"
    assert not (tmp_path / "s" / "config.json").exists()
    code, _, _ = run_cli(capsys, "--store", store, "init", "--currency", "A=bank")
    assert code == 0
    code, out, _ = run_cli(capsys, "--store", store, "nid")
    assert (code, json.loads(out)) == (0, {"epoch": 0, "nid": 0, "total_debt": 0})


def test_cli_simulate(tmp_path: Path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "nodes": 10, "edges": 25, "seed": 3, "placement": "net_debtors",
    }))
    out_csv = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "simulate", "--config", str(config),
                           "--fractions", "0,0.5,1", "--out", str(out_csv))
    assert code == 0
    summary = json.loads(out)
    assert summary["points"] == 3 and summary["out"] == str(out_csv)
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "liquidity_fraction,debt_cleared_fraction,avg_ap_cleared_fraction"
    assert len(rows) == 4
    last = rows[-1].split(",")
    assert float(last[1]) == 1.0  # budget = total debt always clears everything


@pytest.mark.parametrize("line", ["[1,2]", '"x"', "7"])
def test_cli_submit_non_object_line_is_json_on_stderr(
    tmp_path: Path, capsys, line: str
) -> None:
    store = tmp_path / "s"
    engine = make_engine(store)
    submit_signed(engine, cycle_intents()[0])
    pool = store / "epochs" / "00000" / "pool.jsonl"
    before = pool.read_bytes()
    intents = tmp_path / "bad.jsonl"
    intents.write_text(line + "\n")
    code, out, err = run_cli(capsys, "--store", str(store), "submit", str(intents))
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "IntentError"
    assert error["detail"].startswith(f"{intents}:1: intent must be an object")
    assert pool.read_bytes() == before


SMALL_CONFIG = '{"nodes": 6, "edges": 10, "seed": 1}'


@pytest.mark.parametrize(
    "config, fractions, error",
    [
        (SMALL_CONFIG, "0,abc", "StateError"),
        ("[1]", "0,0.5", "StateError"),
        (SMALL_CONFIG, "0,nan", "AmountError"),
    ],
    ids=["abc", "list-config", "nan"],
)
def test_cli_simulate_bad_input_is_json_on_stderr(
    tmp_path: Path, capsys, config: str, fractions: str, error: str
) -> None:
    path = tmp_path / "config.json"
    path.write_text(config)
    out_csv = tmp_path / "curve.csv"
    code, out, err = run_cli(capsys, "simulate", "--config", str(path),
                             "--fractions", fractions, "--out", str(out_csv))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == error
    assert not out_csv.exists()


def test_cli_module_entry_point(tmp_path: Path) -> None:
    store = tmp_path / "s"
    out = subprocess.run(
        [sys.executable, "-m", "setoff.cli", "--store", str(store),
         "--unit", UNIT, "init"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"store": str(store), "unit": UNIT}


def test_cli_non_hex_key_leaves_store_usable(tmp_path: Path, capsys) -> None:
    store = str(tmp_path / "s")
    run_cli(capsys, "--store", store, "init")
    keys_path = tmp_path / "s" / "keys.jsonl"
    before = keys_path.read_bytes()
    code, _, err = run_cli(capsys, "--store", store, "keygen", "--agent", "A", "--key", "zz")
    assert code == 1
    assert json.loads(err)["error"] == "StateError"
    assert keys_path.read_bytes() == before
    code, out, _ = run_cli(capsys, "--store", store, "nid")
    assert code == 0 and json.loads(out)["epoch"] == 0


def test_cli_non_hex_keys_file_is_json_on_stderr(tmp_path: Path, capsys) -> None:
    store = str(tmp_path / "s")
    run_cli(capsys, "--store", store, "init")
    (tmp_path / "s" / "keys.jsonl").write_text('{"agent":"A","key":"zz"}\n')
    code, out, err = run_cli(capsys, "--store", store, "nid")
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "StateError" and "key for A is not hex" in error["detail"]


@pytest.mark.parametrize("key", ["", "  "])
def test_cli_empty_key_leaves_keys_file_unchanged(tmp_path: Path, capsys, key: str) -> None:
    store = str(tmp_path / "s")
    run_cli(capsys, "--store", store, "init")
    keys_path = tmp_path / "s" / "keys.jsonl"
    before = keys_path.read_bytes()
    for agent, key_hex, detail in (("A", key, "key for A is empty"),
                                   ("", "ab", "agent id '' is not")):
        code, out, err = run_cli(capsys, "--store", store, "keygen", "--agent", agent,
                                 "--key", key_hex)
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "StateError" and detail in error["detail"]
    assert keys_path.read_bytes() == before


def unreadable_files(tmp_path: Path) -> dict[str, tuple[Path, str]]:
    """A path per way an input file cannot be read, with the error it names."""
    latin = tmp_path / "latin.jsonl"
    latin.write_bytes(b'{"id":"\xe9"}\n')
    return {
        "missing": (tmp_path / "missing.jsonl", "FileNotFoundError"),
        "directory": (tmp_path, "IsADirectoryError"),
        "non-utf8": (latin, "UnicodeDecodeError"),
    }


@pytest.mark.parametrize("case", ["missing", "directory", "non-utf8"])
def test_cli_submit_an_unreadable_file_is_json_on_stderr(
    tmp_path: Path, capsys, case: str
) -> None:
    store = tmp_path / "s"
    make_engine(store)
    path, cause = unreadable_files(tmp_path)[case]
    code, out, err = run_cli(capsys, "--store", str(store), "submit", str(path))
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "StateError"
    assert error["detail"].startswith(f"{path}: {cause}")


@pytest.mark.parametrize("case", ["missing", "directory", "non-utf8", "not-json"])
def test_cli_simulate_an_unreadable_config_is_json_on_stderr(
    tmp_path: Path, capsys, case: str
) -> None:
    if case == "not-json":
        path, cause = tmp_path / "config.json", "JSONDecodeError"
        path.write_text("{nodes: 6}")
    else:
        path, cause = unreadable_files(tmp_path)[case]
    out_csv = tmp_path / "curve.csv"
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(out_csv))
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "StateError"
    assert error["detail"].startswith(f"{path}: {cause}")
    assert not out_csv.exists()


@pytest.mark.parametrize("field, value, want", [
    ("edges", "x", "an integer"),
    ("nodes", 6.0, "an integer"),
    ("seed", True, "an integer"),
    ("amount_low", None, "an integer"),
    ("amount_high", [100], "an integer"),
    ("lognormal_mu", "3", "a finite number"),
    ("lognormal_sigma", False, "a finite number"),
    ("lognormal_mu", float("inf"), "a finite number"),
    pytest.param("lognormal_sigma", 10 ** 400, "a finite number", id="lognormal_sigma-huge-int"),
    ("amount_dist", 1, "a string"),
    ("unit", None, "a string"),
    ("default_source", {}, "a string"),
])
def test_cli_simulate_a_config_field_of_the_wrong_type_is_json_on_stderr(
    tmp_path: Path, capsys, field: str, value, want: str
) -> None:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**json.loads(SMALL_CONFIG), field: value}))
    out_csv = tmp_path / "curve.csv"
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(out_csv))
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "GraphBuildError"
    assert error["detail"] == f"config field {field} must be {want}, got {value!r}"
    assert not out_csv.exists()


def test_cli_simulate_an_unwritable_out_path_is_json_on_stderr(tmp_path: Path, capsys) -> None:
    path = tmp_path / "config.json"
    path.write_text(SMALL_CONFIG)
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "StateError"
    assert error["detail"].startswith(f"{tmp_path}: IsADirectoryError")


def test_cli_simulate_an_empty_amount_range_is_json_on_stderr(tmp_path: Path, capsys) -> None:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**json.loads(SMALL_CONFIG), "amount_low": 9, "amount_high": 3}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path),
                             "--out", str(tmp_path / "curve.csv"))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "GraphBuildError",
                               "detail": "amount_low 9 is above amount_high 3"}
