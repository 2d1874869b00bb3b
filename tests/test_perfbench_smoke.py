"""The benchmark runs end to end on the package as it stands, traced and not.

Only ``perfbench/run.py``'s traced passes read ``solver.cancel_cycles``, the
``FlowNetwork`` fields and the per-layer counts, and only its untraced passes
sample set-up and re-clear on a fresh engine, so a refactor can break either
mode while every other test stays green. Each run works in a copy of
``src/`` and ``perfbench/``, so its output directory stays out of the
checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(tmp_path: Path, workload: str, trace: int) -> dict:
    """One ``--seconds 0`` run of ``workload`` in a copied tree; its result line."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["epoch_cash", "epoch_credit"])
def test_a_traced_benchmark_run_is_correct(tmp_path: Path, workload: str) -> None:
    assert run_benchmark(tmp_path, workload, 1)["correct"] is True


def test_an_untraced_benchmark_run_is_correct(tmp_path: Path) -> None:
    result = run_benchmark(tmp_path, "epoch_cash", 0)
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == [
        "clear_s", "cleared_debt", "peak_rss_mb", "setup_s", "wall_s",
    ]
