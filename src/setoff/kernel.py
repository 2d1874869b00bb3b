"""Entry point of the min-cost flow kernel, ``setoff._mincost``.

``solve_min_cost`` is the one name callers use, so it can be wrapped and timed
in one place; see ``setoff._mincost.solve`` for the contract.
"""

from __future__ import annotations

from types import ModuleType

from . import _mincost

# These three names stay: perfbench/spans.py wraps solve_min_cost, and
# perfbench/run.py reports the backend it ran with.
solve_min_cost = _mincost.solve


def available_backends() -> dict[str, ModuleType]:
    return {"python": _mincost}


def get_backend() -> str:
    return "python"
