"""Synthetic clearing experiments: liquidity multiplier curves.

The headline experiment sweeps a liquidity budget from zero upward on a
seeded random obligation graph and reports, per budget, the fraction of all
debt discharged and the average per-firm accounts-payable fraction
discharged. Real invoice datasets are out of scope; everything here is
synthetic and reproducible from the seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass, replace

from .errors import AmountError, GraphBuildError
from .graph import (
    EpochPool,
    ObligationGraph,
    aggregate,
    build_network,
    net_positions,
    resolve_tender,
)
from .model import KeyRegistry, Obligation, Tender, TenderKind, ascertain
from .solver import solve_network

CURVE_CSV_HEADER = ("liquidity_fraction", "debt_cleared_fraction", "avg_ap_cleared_fraction")


@dataclass(frozen=True)
class SyntheticGraphConfig:
    """Parameters for one synthetic obligation graph.

    ``amount_dist`` is "uniform" (integers in [amount_low, amount_high]) or
    "lognormal" (rounded, clamped to at least 1), the latter giving the
    heavy-tailed invoice sizes typical of trade credit.
    """

    nodes: int = 50
    edges: int = 200
    seed: int = 0
    amount_dist: str = "uniform"
    amount_low: int = 1
    amount_high: int = 100
    lognormal_mu: float = 3.0
    lognormal_sigma: float = 1.0
    unit: str = "UOA"
    default_source: str = "liquidity_hub"

    @classmethod
    def from_obj(cls, obj: dict) -> "SyntheticGraphConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise GraphBuildError(f"unknown config fields: {sorted(extra)}")
        for name, value in obj.items():
            kind = cls.__dataclass_fields__[name].type  # "int", "float" or "str"
            if kind == "int" and (not isinstance(value, int) or isinstance(value, bool)):
                raise GraphBuildError(f"config field {name} must be an integer, got {value!r}")
            if kind == "float" and not _is_finite_number(value):
                raise GraphBuildError(f"config field {name} must be a finite number, got {value!r}")
            if kind == "str" and not isinstance(value, str):
                raise GraphBuildError(f"config field {name} must be a string, got {value!r}")
        return cls(**obj)


def _is_finite_number(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past float range
        return False


def _firm(i: int) -> str:
    return f"F{i:04d}"


def generate(config: SyntheticGraphConfig) -> ObligationGraph:
    """Build a random obligation graph with real, ascertained intents.

    Edges are distinct ordered pairs with no self-loops; firm keys are
    derived from the seed so two runs produce identical pools.
    """
    n, m = config.nodes, config.edges
    if n < 2:
        raise GraphBuildError("need at least 2 nodes")
    if m > n * (n - 1):
        raise GraphBuildError(f"{m} edges will not fit on {n} nodes")
    if config.amount_dist not in ("uniform", "lognormal"):
        raise GraphBuildError(f"unknown amount_dist {config.amount_dist!r}")
    if config.amount_dist == "uniform" and config.amount_low > config.amount_high:
        raise GraphBuildError(
            f"amount_low {config.amount_low} is above amount_high {config.amount_high}"
        )
    rng = random.Random(config.seed)

    registry = KeyRegistry()
    firms = [_firm(i) for i in range(n)]
    for firm in firms:
        key = hashlib.sha256(f"{config.seed}:{firm}".encode()).digest()
        registry.register(firm, key)

    pool = EpochPool(
        unit=config.unit,
        currencies={config.unit: config.default_source},
        default_source=config.default_source,
        registry=registry,
    )

    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i != j:
            pairs.add((i, j))
    for k, (i, j) in enumerate(sorted(pairs)):
        if config.amount_dist == "uniform":
            amount = rng.randint(config.amount_low, config.amount_high)
        else:
            amount = max(1, round(rng.lognormvariate(config.lognormal_mu, config.lognormal_sigma)))
        ob = Obligation(
            id=f"ob:{k:05d}",
            debtor=firms[i],
            creditor=firms[j],
            amount=amount,
            unit=config.unit,
        )
        # Signed just now under the pool's own registry: no need to check it again.
        pool.add(ascertain(ob, registry), preverified=True)
    return aggregate(pool)


def attach_default_liquidity(
    g: ObligationGraph,
    placement: str = "net_debtors",
) -> ObligationGraph:
    """The graph with assignment tenders of the default source added.

    ``net_debtors`` places one tender per net debtor, capped at its net debit
    (the NID construction); ``all`` places one at every firm, capped at the
    total debt. Acceptances are the implicit unlimited ones of the default
    source. The new graph's pool is a copy; ``g`` is left as it was.

    ``g`` must be the aggregate of its own pool. The result is then the
    aggregate of the new pool, built without a second fold: each added tender
    is a preverified assignment in the unit of account whose sender is already
    one of g's firms, so only the tender edges change. g's admission
    decisions stand: an intent that g excluded stays excluded and is not
    checked again.
    """
    pool = g.pool
    if pool.default_source is None:
        raise GraphBuildError("graph has no default liquidity source")
    new = pool.copy()

    positions = net_positions(g)
    issuers = set(pool.currencies.values())
    if placement == "net_debtors":
        chosen = [(a, -p.net) for a, p in sorted(positions.items()) if p.net < 0]
    elif placement == "all":
        cap = g.total_debt()
        chosen = [(a, cap) for a in sorted(positions) if a not in issuers]
    else:
        raise GraphBuildError(f"unknown placement {placement!r}")
    added = []
    for agent, cap in chosen:
        if cap <= 0 or agent in issuers:
            continue
        tender = Tender(
            id=f"tender:default:{agent}",
            sender=agent,
            source=pool.default_source,
            kind=TenderKind.ASSIGNMENT,
            max_amount=cap,
        )
        new.add(tender, preverified=True)
        added.append(resolve_tender(new, tender))
    tender_edges = sorted((*g.tender_edges, *added), key=lambda e: e.tender_id)
    return replace(g, pool=new, tender_edges=tuple(tender_edges))


@dataclass(frozen=True)
class MultiplierPoint:
    liquidity_fraction: float
    budget: int
    cleared_debt: int
    debt_cleared_fraction: float
    avg_ap_cleared_fraction: float


def _solve_point(g: ObligationGraph, budget: int) -> tuple[int, dict[str, int]]:
    flow, solution = solve_network(build_network(g, budget=budget))
    obligations = g.pool.obligations
    cleared_by_debtor: dict[str, int] = {}
    for rec in flow.records:
        ob = obligations.get(rec.edge_ref)
        if ob is not None and rec.party == ob.debtor:
            cleared_by_debtor[ob.debtor] = cleared_by_debtor.get(ob.debtor, 0) + rec.amount
    return solution.cleared_debt, cleared_by_debtor


def multiplier_curve(
    g: ObligationGraph, fractions: list[float]
) -> list[MultiplierPoint]:
    """Sweep budgets as fractions of total debt on a liquidity-equipped graph.

    The graph should already carry tenders (see attach_default_liquidity);
    budgets are floor(fraction * total debt).
    """
    total = g.total_debt()
    payables = {a: p.payables for a, p in sorted(net_positions(g).items()) if p.payables}
    points = []
    for fraction in fractions:
        # Not finite: a nan or infinite fraction, or one whose budget overflows a float.
        if not math.isfinite(fraction * total) or fraction < 0:
            raise AmountError(
                f"fraction must be non-negative, with a finite budget on total debt "
                f"{total}, got {fraction}"
            )
        budget = int(fraction * total)
        cleared, by_debtor = _solve_point(g, budget)
        if payables:
            avg_ap = sum(
                by_debtor.get(d, 0) / p for d, p in payables.items()
            ) / len(payables)
        else:
            avg_ap = 0.0
        points.append(
            MultiplierPoint(
                liquidity_fraction=fraction,
                budget=budget,
                cleared_debt=cleared,
                debt_cleared_fraction=(cleared / total) if total else 0.0,
                avg_ap_cleared_fraction=avg_ap,
            )
        )
    return points


def curve_to_csv(points: list[MultiplierPoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CURVE_CSV_HEADER)
    for p in points:
        writer.writerow(
            (p.liquidity_fraction, p.debt_cleared_fraction, p.avg_ap_cleared_fraction)
        )
    return buf.getvalue()

