#!/usr/bin/env python3
"""The setoff benchmark: epoch intake and clearing, and the multiplier sweep.

Usage (from the repository root)::

    python3 perfbench/run.py --workload epoch_cash --seed 1 --seconds 40 --trace 0

Workloads:

- ``epoch_cash``: one epoch on a file store, about 800 signed intents from
  200 firms, every tender fully funded in cash; budget NID // 2.
- ``epoch_credit``: two epochs on one store, 120 firms; net debtors are
  funded by half-funded hub cash, credit lines or an EURX tender at 11/10;
  ``nid()`` is polled every 20 submits.
- ``sweep``: ``multiplier_curve`` over ten budgets from 0 to 0.6 of total
  debt on a 250-firm, 1000-obligation lognormal graph.

Each run repeats whole passes of the workload until ``--seconds`` is used up,
and at least twice; untraced, the passes take turns over several inputs
drawn from the seed. Untraced runs also take set-up samples, and clearing
samples on copies of earlier passes' stores, every few seconds of the run
and in the time left after the last pass.
With ``--trace 0`` it reports the end-to-end metrics from untraced passes;
with ``--trace 1`` it runs one untraced pass, then traced passes, and reports
per-layer metrics. Correctness gates run after the timed passes. The last
line of standard output is the result JSON; the line before it holds the run
context and the workload-specific metrics. Exit status 1 means a gate failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from spans import Recorder, installed, layer_times

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
INTERLEAVE_S = 3.0  # untraced runs stop for set-up and clearing samples this often
SETUP_SHARE = 0.1  # of that interval, spent on set-up samples
MIN_PASSES = 2
INSTANCES = {"epoch_cash": 2, "epoch_credit": 4, "sweep": 2}  # inputs per untraced run
WORKLOADS = tuple(INSTANCES)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile_95(values):
    return statistics.quantiles(values, n=20)[-1] if len(values) > 1 else _median(values)


def layer_metrics(spans, p, intents: int, nets, phase1_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    t = layer_times(spans)

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    solves_in_epochs = 0
    for name, _, _, parent in spans:
        if name != "solver.solve_network":
            continue
        while parent is not None and spans[parent][0] != "solver.solve_settleable":
            parent = spans[parent][3]
        solves_in_epochs += parent is not None
    runs = get("engine.run", "calls")
    arcs = [
        len(net.ob_arcs) + sum(len(s.tender_arcs) + len(s.accept_arcs) for s in net.stages)
        for net in nets
    ]
    m: dict[str, tuple[float, str]] = {}
    for name in (
        "engine.submit_intent",
        "model.intent_from_obj",
        "model.verify_ascertainment",
        "graph.EpochPool.add",
        "graph.aggregate",
        "graph.build_network",
        "solver.solve_network",
        "kernel.solve_min_cost",
        "validate.is_valid_flow",
    ):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
    for name in (
        "graph.EpochPool.add",
        "graph.aggregate",
        "graph.build_network",
        "kernel.solve_min_cost",
        "validate.is_valid_flow",
        "engine.nid",
        "solver.solve_settleable",
        "settle.notices_to_csv",
        "experiments.multiplier_curve",
        "experiments.generate",
        "experiments.attach_default_liquidity",
    ):
        m[f"{name}.s"] = (get(name, "s"), "s")
    for name in ("engine.submit_intent", "engine.run", "solver.solve_network", "settle.apply_flow"):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    m["engine.bytes_written"] = (p.clear_bytes, "bytes")
    m["model.parsed_per_intent"] = (get("model.intent_from_obj", "calls") / intents, "ratio")
    m["model.verify_per_intent"] = (get("model.verify_ascertainment", "calls") / intents, "ratio")
    m["solver.solves_per_epoch"] = (solves_in_epochs / runs if runs else 0.0, "ratio")
    m["kernel.phase1_s"] = (phase1_s, "s")
    m["kernel.phase2_s"] = (get("kernel.solve_min_cost", "s") - phase1_s, "s")
    m["kernel.network_nodes"] = (max((len(net.nodes) for net in nets), default=0), "count")
    m["kernel.network_arcs"] = (max(arcs, default=0), "count")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    import gates
    import inputs
    import workloads
    from setoff import experiments, kernel, solver
    from setoff.graph import compute_nid

    # Untraced runs rotate their passes over several inputs drawn from the
    # seed, because one input's clearing cost depends on it: on epoch_credit
    # the number of clamp retries, and with it the time, varies by input.
    # Traced runs keep to the first, so per-layer counts repeat exactly.
    count = 1 if trace else INSTANCES[workload]
    generate = getattr(inputs, workload)
    inps = [generate(seed * 100 + j) for j in range(count)]

    if workload == "sweep":

        def one_setup(k: int) -> float:
            t = perf_counter()
            workloads.build_sweep_graph(inps[k % count])
            return perf_counter() - t

        def one_pass(k: int):
            return workloads.sweep_pass(inps[k % count])

    else:

        def one_setup(k: int) -> float:
            store = work / f"setup{k}"
            t = perf_counter()
            workloads.setup_store(inps[k % count], store)
            elapsed = perf_counter() - t
            shutil.rmtree(store)
            return elapsed

        def one_pass(k: int):
            return workloads.store_pass(
                inps[k % count],
                work / f"pass{k}",
                count_bytes=trace,
                between=None if trace else (between, INTERLEAVE_S),
            )

    # Untraced runs take samples of set-up, and of clearing on copies of
    # earlier passes' stores, every INTERLEAVE_S seconds of intake and between
    # passes. Each median then spreads over the whole run, as wall_s does,
    # instead of hinging on a few moments of a noisy machine.
    setups: list[float] = []
    passes = []

    def between() -> None:
        end = perf_counter() + SETUP_SHARE * INTERLEAVE_S
        setups.append(one_setup(len(setups)))
        while perf_counter() < end:
            setups.append(one_setup(len(setups)))
        # re-clear the epoch, of any input passed so far, with the fewest samples
        latest = {k % count: p for k, p in enumerate(passes) if p.templates}
        if latest:
            _, j, e = min(
                (sum(len(s) for q in passes[j::count] for s in q.clear_samples[e : e + 1]), j, e)
                for j, p in latest.items()
                for e in range(len(p.templates))
            )
            workloads.clear_again(inps[j], latest[j], e)

    layers: list[dict] = []
    if trace:
        passes.append(one_pass(0))
    start = perf_counter()
    last = 0.0
    while len(passes) < max(MIN_PASSES, count) or perf_counter() - start + last <= seconds:
        t = perf_counter()
        if trace:
            recorder, nets = Recorder(), []
            with installed(recorder, nets):
                p = one_pass(len(passes))
            phase1_ns = 0
            for net in nets:
                t1 = perf_counter_ns()
                solver.cancel_cycles(net)
                phase1_ns += perf_counter_ns() - t1
            intents = (
                len(p.graph.pool.obligations) + len(p.graph.pool.tenders)
                if workload == "sweep"
                else sum(len(e.intents) for e in inps[0].epochs)
            )
            layers.append(layer_metrics(recorder.spans, p, intents, nets, phase1_ns / 1e9))
        else:
            between()
            p = one_pass(len(passes))
        passes.append(p)
        last = perf_counter() - t
    last = 0.0  # the time left, too short for another pass, goes to samples
    while not trace and perf_counter() - start + last <= seconds:
        t = perf_counter()
        between()
        last = perf_counter() - t
    setups += [p.setup_s for p in passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: kB
    if trace:
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"trace-{workload}-seed{seed}.json.gz")
    # by_input[j]: the passes over input j, in order
    by_input = [passes[j::count] for j in range(count)]

    # --- correctness gates, outside every timed section ---
    checks, failures = 0, []

    def gate(result):
        nonlocal checks
        checks += result[0]
        failures.extend(result[1])

    # The full gates run on the first pass over each input; every other pass
    # over it must match that one byte for byte, which also shows that
    # tracing changed no output.
    digests, shapes = [], []
    parity = None
    for inp, group in zip(inps, by_input):
        first = group[0]
        if workload == "sweep":
            gate(gates.check_curve(first.graph, first.points))
            digests.append([workloads.curve_digest(p.points) for p in group])
            g = first.graph
            shapes.append({
                "intents": len(g.pool.obligations) + len(g.pool.tenders),
                "firms": inp.nodes,
                "obligation_arcs": len(g.edges),
                "nid": compute_nid(g),
                "total_debt": g.total_debt(),
            })
        else:
            oracle = workload == "epoch_cash"
            gate(gates.check_store(first.store, inp.opening_balances, first.reports, oracle))
            digests.append([gates.store_digest(p.store) for p in group])
            shapes.append({
                "intents": sum(len(e.intents) for e in inp.epochs),
                "firms": inp.firms,
                "obligation_arcs": inp.arcs,
                "nid": inp.nid,
                "total_debt": inp.total_debt,
            })
        gate(gates.check_same("output digest", digests[-1]))
        gate(gates.check_same("cleared_debt", [p.cleared_debt for p in group]))
        gate(gates.check_same("liquidity_used", [p.liquidity_used for p in group]))
    if workload == "sweep":
        others = sorted(set(kernel.available_backends()) - {kernel.get_backend()})
        parity = "skipped: only the python backend is importable"
        if others:
            active = kernel.get_backend()
            first = passes[0]
            curves = {active: first.points}
            try:
                for name in others:
                    kernel.set_backend(name)
                    curves[name] = experiments.multiplier_curve(
                        first.graph, list(inps[0].fractions)
                    )
            finally:
                kernel.set_backend(active)
            same = all(c == curves[active] for c in curves.values())
            parity = f"{'identical' if same else 'MISMATCH'} across {sorted(curves)}"
            gate((1, [] if same else [f"kernel backends disagree: {sorted(curves)}"]))
    for p in passes:
        for epoch, rerun in p.reruns:
            gate(gates.check_same(f"epoch {epoch} report on a copied store", [p.reports[epoch], rerun]))
    if layers:
        exact = [{k: v for k, (v, unit) in m.items() if unit in ("count", "bytes")} for m in layers]
        gate(gates.check_same("per-layer counts", exact))

    submits = [s for p in passes for s in p.submit_s]
    nids = [s for p in passes for s in p.nid_s]
    attempted = checks + sum(
        len(p.submit_s) + p.rejected + len(p.nid_s) + len(p.reports) + len(p.points)
        for p in passes
    )
    failed = len(failures) + sum(p.rejected + p.failed_epochs for p in passes)
    measured = passes[1:] if trace else passes

    if trace:
        metrics = {}
        for name, (_, unit) in layers[0].items():
            values = [m[name][0] for m in layers]
            metrics[name] = {"value": values[0] if unit != "s" else _median(values), "unit": unit}
        wall_s = _median([p.wall_s for p in measured])
        metrics["trace.overhead_s"] = {"value": wall_s - passes[0].wall_s, "unit": "s"}
    else:
        # Medians over every pass and clearing of the run, whatever its input:
        # an input whose epoch takes extra clamp retries then shifts a median
        # by one rank, not by its full cost.
        if workload == "sweep":
            clear_s = _median([p.clear_s for p in passes])
        else:
            by_epoch = zip(*(p.clear_samples for p in passes))
            clear_s = sum(_median([s for samples in epoch for s in samples]) for epoch in by_epoch)
        wall_s = _median([p.wall_s for p in passes])
        metrics = {
            "setup_s": {"value": _median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "clear_s": {"value": clear_s, "unit": "s"},
            "cleared_debt": {"value": sum(g[0].cleared_debt for g in by_input), "unit": "count"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    workload_metrics = {"error_rate": {"value": failed / attempted, "unit": "ratio"}}
    if workload == "sweep":
        workload_metrics["sweep_s"] = {"value": wall_s, "unit": "s"}
    else:
        workload_metrics.update(
            intake_intents_per_s={"value": len(submits) / (sum(submits) or 1), "unit": "1/s"},
            intake_p50_ms={"value": _median(submits) * 1e3, "unit": "ms", "samples": len(submits)},
            intake_p95_ms={"value": _quantile_95(submits) * 1e3, "unit": "ms", "samples": len(submits)},
            liquidity_used={"value": sum(g[0].liquidity_used for g in by_input), "unit": "count"},
        )
        if nids:
            workload_metrics["nid_query_ms"] = {
                "value": _median(nids) * 1e3, "unit": "ms", "samples": len(nids)
            }
    context = {
        "workload": workload,
        "seed": seed,
        "input_seeds": [seed * 100 + j for j in range(count)],
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "setup_samples": len(setups),
        "clear_samples": sum(max(1, sum(map(len, p.clear_samples))) for p in measured),
        "shape": shapes,
        "kernel_backend": kernel.get_backend(),
        "backend_parity": parity,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "digest": hashlib.sha256("".join(d[0] for d in digests).encode()).hexdigest(),
        "workload_metrics": workload_metrics,
        "failures": failures,
    }
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return context, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "setoff" / "__init__.py").is_file():
        print(f"perfbench: no setoff package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        context, result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
