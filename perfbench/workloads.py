"""One timed pass of each workload, with no tracing of its own.

A pass starts from nothing: it sets up a fresh store (or builds the sweep
graph), then runs the workload's job. Timers wrap the calls the benchmark
makes into ``setoff``; the benchmark's own bookkeeping between calls is
left out of every timed section.
"""

from __future__ import annotations

import hashlib
import shutil
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from setoff import experiments
from setoff.engine import ClearingEngine
from setoff.errors import SetoffError

from inputs import HUB, UNIT, StoreInput, SweepInput


@dataclass
class Pass:
    setup_s: float
    wall_s: float = 0.0  # every timed section of the job, set-up excluded
    clear_s: float = 0.0  # freeze + run, or the multiplier_curve call
    clear_samples: list[list[float]] = field(default_factory=list)  # per epoch
    reruns: list[tuple[int, dict]] = field(default_factory=list)  # (epoch, report)
    templates: list[Path] = field(default_factory=list)  # pre-freeze copy per epoch
    submit_s: list[float] = field(default_factory=list)  # accepted submits only
    nid_s: list[float] = field(default_factory=list)
    rejected: int = 0
    failed_epochs: int = 0
    reports: list[dict] = field(default_factory=list)
    clear_bytes: int = 0  # store bytes that freeze + run wrote, by content
    store: Path | None = None
    graph: object = None
    points: list = field(default_factory=list)

    @property
    def cleared_debt(self) -> int:
        if self.points:
            return sum(p.cleared_debt for p in self.points)
        return sum(r.get("cleared_debt", 0) for r in self.reports)

    @property
    def liquidity_used(self) -> int:
        return sum(sum(r.get("liquidity_used", {}).values()) for r in self.reports)


def setup_store(inp: StoreInput, store: Path) -> ClearingEngine:
    engine = ClearingEngine.init(
        store,
        unit=UNIT,
        currencies=inp.currencies,
        default_source=HUB,
        opening_balances=inp.opening_balances,
    )
    for agent, key_hex in inp.keys.items():
        engine.register_key(agent, key_hex)
    return engine


def snapshot(store: Path) -> dict[str, bytes]:
    """Every file of the store, by relative path, with its bytes."""
    return {
        path.relative_to(store).as_posix(): path.read_bytes()
        for path in store.rglob("*")
        if path.is_file()
    }


def bytes_written(before: dict[str, bytes], after: dict[str, bytes]) -> int:
    """Bytes of new or changed content between two snapshots.

    A file that only grew by an append counts its growth; a new or rewritten
    file counts its whole size; a file whose bytes did not change counts 0,
    however often it was touched.
    """
    total = 0
    for path, data in after.items():
        old = before.get(path)
        if old == data:
            continue
        if old is not None and data.startswith(old):
            total += len(data) - len(old)
        else:
            total += len(data)
    return total


def store_pass(
    inp: StoreInput,
    store: Path,
    count_bytes: bool = False,
    between: tuple[Callable[[], None], float] | None = None,
) -> Pass:
    """Set up a store, then submit, freeze and run each epoch in turn.

    A copy of each epoch's store taken just before its freeze stays in
    ``Pass.templates``, for ``clear_again``. ``between`` is a callback and an
    interval in seconds: intake calls it that often, outside every timed
    section.
    """
    t0 = perf_counter()
    engine = setup_store(inp, store)
    p = Pass(setup_s=perf_counter() - t0, store=store)
    due = perf_counter() + between[1] if between else None
    for e, epoch in enumerate(inp.epochs):
        for i, obj in enumerate(epoch.intents, start=1):
            if due is not None and perf_counter() >= due:
                between[0]()
                due = perf_counter() + between[1]
            t = perf_counter()
            try:
                engine.submit_intent(obj)
            except SetoffError:
                p.rejected += 1
            else:
                p.submit_s.append(perf_counter() - t)
            if inp.poll_every and i % inp.poll_every == 0:
                t = perf_counter()
                engine.nid()
                p.nid_s.append(perf_counter() - t)
        template = store.with_name(f"{store.name}-epoch{e}")
        shutil.copytree(store, template)
        p.templates.append(template)
        before = snapshot(store) if count_bytes else None
        t = perf_counter()
        try:
            engine.freeze()
            report = engine.run(budget=epoch.budget, seed=inp.run_seed)
        except SetoffError as exc:
            p.failed_epochs += 1
            p.reports.append({"status": f"raised {type(exc).__name__}: {exc}"})
            break
        finally:
            elapsed = perf_counter() - t
            p.clear_s += elapsed
            p.clear_samples.append([elapsed])
        if before is not None:
            p.clear_bytes += bytes_written(before, snapshot(store))
        if report.get("status") != "applied":
            p.failed_epochs += 1
        p.reports.append(report)
    p.wall_s = sum(p.submit_s) + sum(p.nid_s) + p.clear_s
    return p


def clear_again(inp: StoreInput, p: Pass, e: int) -> None:
    """Clear epoch ``e`` once more, on a fresh copy of its pre-freeze store.

    The time joins the epoch's ``clear_samples``; the report joins
    ``reruns``, to be compared with the pass's own report.
    """
    template = p.templates[e]
    copy = template.with_name(f"{template.name}-again")
    shutil.copytree(template, copy)
    replica = ClearingEngine(copy)
    t = perf_counter()
    try:
        replica.freeze()
        report = replica.run(budget=inp.epochs[e].budget, seed=inp.run_seed)
    except SetoffError as exc:
        report = {"status": f"raised {type(exc).__name__}: {exc}"}
    p.clear_samples[e].append(perf_counter() - t)
    p.reruns.append((e, report))
    shutil.rmtree(copy)


def build_sweep_graph(inp: SweepInput):
    config = experiments.SyntheticGraphConfig(
        nodes=inp.nodes, edges=inp.edges, seed=inp.seed, amount_dist="lognormal"
    )
    return experiments.attach_default_liquidity(
        experiments.generate(config), placement="net_debtors"
    )


def sweep_pass(inp: SweepInput) -> Pass:
    """Build the liquidity-equipped graph, then sweep every budget once."""
    t0 = perf_counter()
    g = build_sweep_graph(inp)
    p = Pass(setup_s=perf_counter() - t0, graph=g)
    t = perf_counter()
    p.points = experiments.multiplier_curve(g, list(inp.fractions))
    p.clear_s = p.wall_s = perf_counter() - t
    return p


def curve_digest(points) -> str:
    return hashlib.sha256(repr(points).encode()).hexdigest()
