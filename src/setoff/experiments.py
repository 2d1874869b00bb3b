"""Synthetic clearing experiments: liquidity multiplier curves and an oracle.

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
from dataclasses import dataclass

from .errors import AmountError, GraphBuildError, OracleBoundError
from .graph import EpochPool, ObligationGraph, aggregate, build_network, net_positions
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
        return cls(**obj)


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
        elif config.amount_dist == "lognormal":
            amount = max(1, round(rng.lognormvariate(config.lognormal_mu, config.lognormal_sigma)))
        else:
            raise GraphBuildError(f"unknown amount_dist {config.amount_dist!r}")
        ob = Obligation(
            id=f"ob:{k:05d}",
            debtor=firms[i],
            creditor=firms[j],
            amount=amount,
            unit=config.unit,
        )
        pool.add(ascertain(ob, registry))
    return aggregate(pool)


def attach_default_liquidity(
    g: ObligationGraph,
    placement: str = "net_debtors",
    max_amount: int | None = None,
) -> ObligationGraph:
    """Rebuild the graph with assignment tenders of the default source added.

    ``net_debtors`` places one tender per net debtor, capped at its net debit
    (the NID construction); ``all`` places one at every firm, capped at
    ``max_amount`` (default: the total debt). Acceptances are the implicit
    unlimited ones of the default source.
    """
    pool = g.pool
    if pool.default_source is None:
        raise GraphBuildError("graph has no default liquidity source")
    new = EpochPool(
        unit=pool.unit,
        currencies=pool.currencies,
        default_source=pool.default_source,
        registry=pool.registry,
        scheme=pool.scheme,
    )
    for ob in pool.obligations.values():
        new.add(ob, preverified=pool.is_ascertained(ob))
    for acc in pool.acceptances.values():
        new.add(acc, preverified=pool.is_ascertained(acc))
    for tender in pool.tenders.values():
        new.add(tender, preverified=pool.is_ascertained(tender))

    positions = net_positions(g)
    issuers = set(pool.currencies.values())
    if placement == "net_debtors":
        chosen = [(a, -p.net) for a, p in sorted(positions.items()) if p.net < 0]
    elif placement == "all":
        cap = g.total_debt() if max_amount is None else max_amount
        chosen = [(a, cap) for a in sorted(positions) if a not in issuers]
    else:
        raise GraphBuildError(f"unknown placement {placement!r}")
    for agent, cap in chosen:
        if cap <= 0 or agent in issuers:
            continue
        new.add(
            Tender(
                id=f"tender:default:{agent}",
                sender=agent,
                source=pool.default_source,
                kind=TenderKind.ASSIGNMENT,
                max_amount=cap,
            ),
            preverified=True,
        )
    return aggregate(new)


@dataclass(frozen=True)
class MultiplierPoint:
    liquidity_fraction: float
    budget: int
    cleared_debt: int
    debt_cleared_fraction: float
    avg_ap_cleared_fraction: float


def _solve_point(g: ObligationGraph, budget: int) -> tuple[int, dict[str, int]]:
    net = build_network(g, budget=budget)
    _, solution = solve_network(net)
    cleared_by_debtor: dict[str, int] = {}
    for (debtor, creditor) in g.edges:
        flow = solution.arc_flows.get(f"ob:{debtor}>{creditor}", 0)
        if flow:
            cleared_by_debtor[debtor] = cleared_by_debtor.get(debtor, 0) + flow
    return solution.cleared_debt, cleared_by_debtor


def multiplier_curve(
    g: ObligationGraph, fractions: list[float]
) -> list[MultiplierPoint]:
    """Sweep budgets as fractions of total debt on a liquidity-equipped graph.

    The graph should already carry tenders (see attach_default_liquidity);
    budgets are floor(fraction * total debt).
    """
    total = g.total_debt()
    payables: dict[str, int] = {}
    for (debtor, _), edge in g.edges.items():
        payables[debtor] = payables.get(debtor, 0) + edge.amount
    points = []
    for fraction in fractions:
        if not math.isfinite(fraction):
            raise AmountError(f"fraction must be finite and non-negative, got {fraction}")
        budget = int(fraction * total)
        cleared, by_debtor = _solve_point(g, budget)
        if payables:
            avg_ap = sum(
                by_debtor.get(d, 0) / p for d, p in payables.items() if p
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


def brute_force_oracle(g: ObligationGraph, budget: int) -> int:
    """Maximum dischargeable debt by exhaustive search over integer sub-flows.

    Liquidity may be injected anywhere: a sub-flow is feasible when the sum
    of positive per-node imbalances is within the budget. Only small
    instances are accepted; the search space is bounded by the product of
    (capacity + 1) over aggregated edges.
    """
    edges = sorted(g.edges.values(), key=lambda e: (e.debtor, e.creditor))
    nodes = sorted({e.debtor for e in edges} | {e.creditor for e in edges})
    if len(nodes) > 5:
        raise OracleBoundError(f"{len(nodes)} nodes exceed the oracle bound of 5")
    space = 1
    for e in edges:
        space *= e.amount + 1
        if space > 1_000_000:
            raise OracleBoundError("search space exceeds 10^6 sub-flows")

    index = {a: i for i, a in enumerate(nodes)}
    tails = [index[e.debtor] for e in edges]
    heads = [index[e.creditor] for e in edges]
    caps = [e.amount for e in edges]
    suffix = [0] * (len(edges) + 1)
    for i in range(len(edges) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]

    balance = [0] * len(nodes)  # out minus in, per node
    best = 0

    def search(i: int, cleared: int) -> None:
        nonlocal best
        if cleared + suffix[i] <= best:
            return
        if i == len(edges):
            if sum(b for b in balance if b > 0) <= budget:
                best = cleared
            return
        t, h = tails[i], heads[i]
        for f in range(caps[i], -1, -1):  # largest first: tightens the bound early
            balance[t] += f
            balance[h] -= f
            search(i + 1, cleared + f)
            balance[t] -= f
            balance[h] += f

    search(0, 0)
    return best
