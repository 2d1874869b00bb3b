"""The benchmark's own checks, at tiny sizes.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import gates
import inputs
import workloads
from spans import Recorder, installed, layer_times

HERE = Path(__file__).resolve().parent


def tiny_cash(seed=3):
    return inputs.epoch_cash(seed, n_firms=8, n_obligations=24)


def tiny_credit(seed=3):
    return inputs.epoch_credit(seed, n_firms=12, n_obligations=36, n_fresh=18)


def tiny_sweep(seed=3):
    return inputs.sweep(seed, nodes=10, edges=30, points=4)


def test_gates_pass_on_cash_epoch_and_agree_with_oracle(tmp_path):
    inp = tiny_cash()
    p = workloads.store_pass(inp, tmp_path / "s")
    assert p.rejected == 0 and p.failed_epochs == 0
    checks, failures = gates.check_store(p.store, inp.opening_balances, p.reports, oracle=True)
    assert failures == [] and checks == 4


def test_gates_pass_on_credit_epochs(tmp_path):
    inp = tiny_credit()
    calls = []
    p = workloads.store_pass(inp, tmp_path / "s", between=(lambda: calls.append(1), 0.0))
    assert len(calls) == sum(len(epoch.intents) for epoch in inp.epochs)
    for e in range(len(p.templates)):
        workloads.clear_again(inp, p, e)
    assert [r["status"] for r in p.reports] == ["applied", "applied"]
    assert [report for _, report in p.reruns] == p.reports
    assert [len(samples) for samples in p.clear_samples] == [2, 2]
    _, failures = gates.check_store(p.store, inp.opening_balances, p.reports, oracle=False)
    assert failures == []


def test_validity_gate_fires_on_bumped_record(tmp_path):
    inp = tiny_cash()
    p = workloads.store_pass(inp, tmp_path / "s")
    flow_path = p.store / "epochs" / "00000" / "flow.json"
    flow = json.loads(flow_path.read_text())
    flow["records"][0]["amount"] += 1
    flow_path.write_text(json.dumps(flow))
    _, failures = gates.check_store(p.store, inp.opening_balances, p.reports, oracle=False)
    assert any("stored flow invalid" in f for f in failures)


def test_oracle_gate_fires_on_wrong_cleared_debt():
    inp = tiny_sweep()
    p = workloads.sweep_pass(inp)
    assert gates.check_curve(p.graph, p.points)[1] == []
    bad = [replace(p.points[-1], cleared_debt=p.points[-1].cleared_debt - 1)]
    assert len(gates.check_curve(p.graph, bad)[1]) == 1


def test_store_bytes_mismatch_fires(tmp_path):
    inp = tiny_cash()
    a = workloads.store_pass(inp, tmp_path / "a")
    b = workloads.store_pass(inp, tmp_path / "b")
    digests = [gates.store_digest(a.store), gates.store_digest(b.store)]
    assert gates.check_same("output digest", digests)[1] == []
    ledger = b.store / "ledger.json"
    ledger.write_text(ledger.read_text() + " ")
    digests[1] = gates.store_digest(b.store)
    assert len(gates.check_same("output digest", digests)[1]) == 1


def test_bytes_written_counts_content_not_touches(tmp_path):
    inp = tiny_cash()
    store = tmp_path / "s"
    engine = workloads.setup_store(inp, store)
    for obj in inp.epochs[0].intents:
        engine.submit_intent(obj)
    before = workloads.snapshot(store)
    engine.freeze()  # touches pool.jsonl, rewrites state.json
    after = workloads.snapshot(store)
    assert [path for path in after if after[path] != before.get(path)] == ["state.json"]
    assert workloads.bytes_written(before, after) == len(after["state.json"])
    grown = dict(after, **{"log.txt": b"ab"})
    assert workloads.bytes_written(grown, dict(grown, **{"log.txt": b"abcde"})) == 3


def test_self_times_add_up_to_parent():
    rec = Recorder()

    def leaf():
        time.sleep(0.002)

    def middle():
        rec.wrap(leaf, "leaf")()
        time.sleep(0.001)
        rec.wrap(leaf, "leaf")()

    with rec.span("root"):
        rec.wrap(middle, "middle")()
        time.sleep(0.001)
    times = layer_times(rec.spans)
    root = times["root"]["s"]
    assert times["leaf"]["calls"] == 2
    assert abs(sum(row["self_s"] for row in times.values()) - root) < 1e-9
    assert abs(times["middle"]["self_s"] + times["leaf"]["s"] - times["middle"]["s"]) < 1e-9


def test_traced_pass_matches_untraced_and_restores_names():
    from setoff import experiments, kernel, solver

    originals = (experiments.multiplier_curve, solver.solve_network, kernel.solve_min_cost)
    inp = tiny_sweep()
    plain = workloads.sweep_pass(inp)
    rec, nets = Recorder(), []
    with installed(rec, nets), rec.span("pass"):
        traced = workloads.sweep_pass(inp)
    assert (experiments.multiplier_curve, solver.solve_network, kernel.solve_min_cost) == originals
    assert traced.points == plain.points
    times = layer_times(rec.spans)
    assert times["kernel.solve_min_cost"]["calls"] == len(nets) == len(inp.fractions)
    assert abs(sum(row["self_s"] for row in times.values()) - times["pass"]["s"]) < 1e-9


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
