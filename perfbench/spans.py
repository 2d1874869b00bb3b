"""Span recorder and the layer wrappers of the traced run.

The recorder keeps spans in memory: name, start and end (``perf_counter_ns``)
and the index of the enclosing span, tracked with a context variable. The
wrappers go on the names the callers actually look up, because the modules of
``setoff`` import each other's functions by name; nothing under ``src/`` is
changed.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


class Recorder:
    """In-memory spans; ``spans[i] = [name, start_ns, end_ns, parent_index]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self._current.get()])
        token = self._current.set(index)
        try:
            yield
        finally:
            self._current.reset(token)
            self.spans[index][2] = perf_counter_ns()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON rows; epoch runs record ~10^6."""
        doc = {"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, busy seconds ``s`` and ``self_s``.

    Self time is a span's duration minus the durations of its direct children.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns[i]) / 1e9
    return out


# (module, attribute path, span name). Every name a caller looks a layer
# function up by is listed, so each call is recorded exactly once.
WRAP_POINTS: tuple[tuple[str, str, str], ...] = (
    ("setoff.engine", "ClearingEngine.submit_intent", "engine.submit_intent"),
    ("setoff.engine", "ClearingEngine.freeze", "engine.freeze"),
    ("setoff.engine", "ClearingEngine.run", "engine.run"),
    ("setoff.engine", "ClearingEngine.nid", "engine.nid"),
    ("setoff.engine", "intent_from_obj", "model.intent_from_obj"),
    ("setoff.graph", "verify_ascertainment", "model.verify_ascertainment"),
    ("setoff.graph", "EpochPool.add", "graph.EpochPool.add"),
    ("setoff.engine", "aggregate", "graph.aggregate"),
    ("setoff.experiments", "aggregate", "graph.aggregate"),
    ("setoff.engine", "compute_nid", "graph.compute_nid"),
    ("setoff.solver", "build_network", "graph.build_network"),
    ("setoff.experiments", "build_network", "graph.build_network"),
    ("setoff.engine", "solve_settleable", "solver.solve_settleable"),
    ("setoff.solver", "solve_network", "solver.solve_network"),
    ("setoff.experiments", "solve_network", "solver.solve_network"),
    ("setoff.kernel", "solve_min_cost", "kernel.solve_min_cost"),
    ("setoff.engine", "is_valid_flow", "validate.is_valid_flow"),
    ("setoff.validate", "is_valid_flow", "validate.is_valid_flow"),
    ("setoff.settle", "is_valid_flow", "validate.is_valid_flow"),
    ("setoff.engine", "apply_flow", "settle.apply_flow"),
    ("setoff.engine", "notices_to_csv", "settle.notices_to_csv"),
    ("setoff.experiments", "generate", "experiments.generate"),
    ("setoff.experiments", "attach_default_liquidity", "experiments.attach_default_liquidity"),
    ("setoff.experiments", "multiplier_curve", "experiments.multiplier_curve"),
)


@contextmanager
def installed(recorder: Recorder, networks: list | None = None):
    """Wrap every layer entry point for the duration of the block.

    When ``networks`` is given, each FlowNetwork handed to ``solve_network``
    is appended to it, so kernel phases can be re-timed afterwards.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, path, span_name in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = recorder.wrap(original, span_name)
            if span_name == "solver.solve_network" and networks is not None:
                wrapped = _capturing(wrapped, networks)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _capturing(fn, networks: list):
    @functools.wraps(fn)
    def capture(net, *args, **kwargs):
        networks.append(net)
        return fn(net, *args, **kwargs)

    return capture
