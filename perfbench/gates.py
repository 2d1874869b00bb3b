"""Correctness gates, run after the timed passes and outside every span.

Each gate returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from setoff.engine import ClearingEngine
from setoff.errors import SetoffError
from setoff.graph import ObligationGraph, aggregate
from setoff.model import Ledger, NoticeEntry, SetOffNotice, TenderKind, flow_from_obj
from setoff.settle import verify_notices
from setoff.validate import is_valid_flow


def store_digest(store: Path) -> str:
    """sha256 over every file of the store: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in store.rglob("*") if p.is_file()):
        h.update(path.relative_to(store).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def read_notices(path: Path, epoch: int) -> list[SetOffNotice]:
    by_party: dict[str, list[NoticeEntry]] = {}
    rows = list(csv.reader(path.read_text().splitlines()))
    for party, ob_id, discharged, remaining in rows[1:]:
        by_party.setdefault(party, []).append(
            NoticeEntry(obligation_id=ob_id, discharged=int(discharged), remaining=int(remaining))
        )
    return [
        SetOffNotice(party=party, epoch_id=epoch, entries=tuple(entries))
        for party, entries in by_party.items()
    ]


def oracle_cleared(g: ObligationGraph, budget: int | None) -> int:
    """Maximum dischargeable debt by ``networkx.network_simplex``.

    Obligation arcs cost -1, S->sender tender arcs and origin->T acceptance
    arcs cost 0, and a T->S arc carries at most ``budget``. Holds for one
    currency with assignment tenders and no balance clamp.
    """
    import networkx as nx

    source, sink = ("S",), ("T",)  # tuples cannot clash with agent ids
    net = nx.DiGraph()
    for (debtor, creditor), edge in g.edges.items():
        net.add_edge(debtor, creditor, capacity=edge.amount, weight=-1)
    tender_cap: dict[str, int] = {}
    for te in g.tender_edges:
        if te.kind is not TenderKind.ASSIGNMENT or te.currency != g.unit:
            raise ValueError(f"oracle covers unit-of-account assignments only: {te.tender_id}")
        tender_cap[te.sender] = tender_cap.get(te.sender, 0) + te.max_amount
    for sender, cap in tender_cap.items():
        net.add_edge(source, sender, capacity=cap, weight=0)
    for ae in g.acceptance_edges:
        if ae.limit is None:
            net.add_edge(ae.origin, sink, weight=0)
        else:
            net.add_edge(ae.origin, sink, capacity=ae.limit, weight=0)
    if budget is None:
        net.add_edge(sink, source, weight=0)
    else:
        net.add_edge(sink, source, capacity=budget, weight=0)
    cost, _ = nx.network_simplex(net)
    return -cost


def check_store(
    store: Path, opening: dict[str, dict[str, int]], reports: list[dict], oracle: bool
) -> tuple[int, list[str]]:
    """Gate every epoch of a store; returns (checks made, failures).

    Per epoch: the report says ``applied``; the stored flow passes
    ``is_valid_flow`` against its graph and the ledger as it was before the
    run; ``notices.csv`` matches ``verify_notices``; and, with ``oracle``,
    the cleared debt equals the networkx optimum at the epoch's budget.
    """
    checks, failures = 0, []
    ledger = Ledger(balances=opening)
    for epoch, report in enumerate(reports):
        epoch_dir = store / "epochs" / f"{epoch:05d}"
        checks += 1
        if report.get("status") != "applied":
            failures.append(f"epoch {epoch}: status {report.get('status')!r}")
            continue
        pool = ClearingEngine(store)._load_pool(epoch)
        g = aggregate(pool)
        work = ledger.copy()
        for edge in g.edges.values():
            for ob_id in edge.obligations:
                work.open_obligations[ob_id] = pool.obligations[ob_id]
        flow = flow_from_obj(json.loads((epoch_dir / "flow.json").read_text()))
        checks += 1
        check = is_valid_flow(g, flow, work)
        if not check.ok:
            failures.append(f"epoch {epoch}: stored flow invalid: {check.violations[0]}")
        checks += 1
        try:
            if not verify_notices(g, flow, read_notices(epoch_dir / "notices.csv", epoch)):
                failures.append(f"epoch {epoch}: notices.csv does not match the flow")
        except SetoffError as exc:  # a corrupt flow can fail to render notices at all
            failures.append(f"epoch {epoch}: notices not derivable from the flow: {exc}")
        if oracle:
            checks += 1
            best = oracle_cleared(g, report["budget"])
            if best != report["cleared_debt"]:
                failures.append(
                    f"epoch {epoch}: cleared {report['cleared_debt']}, oracle optimum {best}"
                )
        ledger = Ledger.from_obj(json.loads((epoch_dir / "applied.json").read_text())["ledger"])
    return checks, failures


def check_curve(g: ObligationGraph, points) -> tuple[int, list[str]]:
    """Every sweep point must clear exactly the networkx optimum."""
    failures = []
    for p in points:
        best = oracle_cleared(g, p.budget)
        if best != p.cleared_debt:
            failures.append(f"budget {p.budget}: cleared {p.cleared_debt}, oracle optimum {best}")
    return len(points), failures


def check_same(label: str, values: list) -> tuple[int, list[str]]:
    """Passes of one seed must agree exactly (store bytes, exact counters)."""
    if all(v == values[0] for v in values[1:]):
        return 1, []
    return 1, [f"{label} differs between passes of one seed: {values}"]
