"""The benchmark's traced loop runs end to end on the package as it stands.

Only ``perfbench/run.py``'s traced passes read ``solver.cancel_cycles``, the
``FlowNetwork`` fields and the per-layer counts, so a refactor of those can
break a traced benchmark run while every other test stays green. Each run
works in a copy of ``src/`` and ``perfbench/``, so its output directory stays
out of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["epoch_cash", "epoch_credit"])
def test_a_traced_benchmark_run_is_correct(tmp_path: Path, workload: str) -> None:
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
