"""Atomic settlement: apply a validated flow to a ledger.

Application works on a private copy of the ledger and swaps it in as the
last step, so a fault anywhere in the middle leaves the caller's ledger
untouched. ``failpoint`` receives a label before every mutation step and may
raise to simulate a crash at exactly that point.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from .errors import InvalidFlow, SettlementError
from .graph import ObligationGraph, TenderEdge, floor_mul_price, resolve_tender
from .model import (
    AgentId,
    Ledger,
    NoticeEntry,
    Obligation,
    SetOffNotice,
    SettlementFlow,
    TenderKind,
    sub_amount,
)
from .validate import is_valid_flow

# New obligations created by overdraft draws use this id prefix; user intents
# must not.
NEW_OBLIGATION_PREFIX = "ob:od:"

NOTICE_CSV_HEADER = ("party", "obligation_id", "discharged", "remaining")


@dataclass(frozen=True)
class AppliedEpoch:
    """Everything one settlement did, for reporting and the commit log."""

    epoch_id: int
    cleared_debt: int
    discharged: dict[str, int]  # obligation id -> amount removed
    new_obligations: tuple[Obligation, ...]
    notices: tuple[SetOffNotice, ...]
    balance_deltas: dict[tuple[AgentId, str], int]


def _discharged_by_obligation(f: SettlementFlow, g: ObligationGraph) -> dict[str, int]:
    pool = g.pool
    out: dict[str, int] = {}
    for rec in f.records:
        if rec.edge_ref in pool.obligations and rec.edge_ref not in out:
            out[rec.edge_ref] = rec.amount  # paired records agree on amount
    return out


def emit_notices(f: SettlementFlow, g: ObligationGraph) -> tuple[SetOffNotice, ...]:
    """One notice per obligation party, covering every discharged obligation.

    Only obligation records produce notices; liquidity legs are private to
    their own parties and already carried by the flow records.
    """
    discharged = _discharged_by_obligation(f, g)
    by_party: dict[AgentId, dict[str, NoticeEntry]] = {}
    for ob_id in sorted(discharged):
        ob = g.pool.obligations[ob_id]
        entry = NoticeEntry(
            obligation_id=ob_id,
            discharged=discharged[ob_id],
            remaining=sub_amount(ob.amount, discharged[ob_id]),
        )
        for party in (ob.debtor, ob.creditor):
            by_party.setdefault(party, {})[ob_id] = entry
    return tuple(
        SetOffNotice(
            party=party,
            epoch_id=f.epoch_id,
            entries=tuple(by_party[party][ob_id] for ob_id in sorted(by_party[party])),
        )
        for party in sorted(by_party)
    )


def verify_notices(
    g: ObligationGraph, f: SettlementFlow, notices: Iterable[SetOffNotice]
) -> bool:
    """True iff ``notices`` is exactly the set the flow implies."""

    def canon(ns: Iterable[SetOffNotice]) -> list[SetOffNotice]:
        return sorted(
            (
                SetOffNotice(
                    party=n.party,
                    epoch_id=n.epoch_id,
                    entries=tuple(sorted(n.entries, key=lambda e: e.obligation_id)),
                )
                for n in ns
            ),
            key=lambda n: n.party,
        )

    return canon(notices) == canon(emit_notices(f, g))


def notices_to_csv(notices: Iterable[SetOffNotice]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(NOTICE_CSV_HEADER)
    for notice in notices:
        for entry in notice.entries:
            writer.writerow(
                (notice.party, entry.obligation_id, entry.discharged, entry.remaining)
            )
    return buf.getvalue()


def _overdraft_obligations(
    f: SettlementFlow, g: ObligationGraph
) -> tuple[Obligation, ...]:
    """New debt created by overdraft draws, attributed to the backing lines.

    Each matched repayment acceptance absorbs up to its converted limit, in
    repayment due date order; the validated draw never exceeds their sum.
    """
    pool = g.pool
    drawn: dict[str, int] = {}
    for rec in f.records:
        tender = pool.tenders.get(rec.edge_ref)
        if (
            tender is not None
            and tender.kind is TenderKind.OVERDRAFT
            and rec.edge_ref not in drawn
        ):
            drawn[rec.edge_ref] = rec.amount
    out: list[Obligation] = []
    for tender_id in sorted(drawn):
        te = resolve_tender(pool, pool.tenders[tender_id])
        assert isinstance(te, TenderEdge)  # the flow passed validation
        remaining = drawn[tender_id]
        for acc_id in te.matched_acceptances:
            if remaining == 0:
                break
            acc = pool.acceptances[acc_id]
            take = min(remaining, floor_mul_price(acc.limit or 0, te.price))
            if take == 0:
                continue
            remaining -= take
            out.append(
                Obligation(
                    id=f"{NEW_OBLIGATION_PREFIX}{f.epoch_id}:{tender_id}:{acc.id}",
                    debtor=te.sender,
                    creditor=te.facility,
                    amount=take,
                    unit=pool.unit,
                    due_date=acc.repayment_due,
                )
            )
        if remaining:
            raise SettlementError(
                f"overdraft {tender_id} draw exceeds its backing acceptances"
            )
    return tuple(out)


def apply_flow(
    ledger: Ledger,
    f: SettlementFlow,
    g: ObligationGraph,
    failpoint: Callable[[str], None] | None = None,
) -> AppliedEpoch:
    """Validate and settle a flow against the ledger, atomically.

    Raises InvalidFlow (ledger untouched) if any of the five checks fails,
    and SettlementError if the flow is inconsistent with the ledger's open
    obligations.
    """
    report = is_valid_flow(g, f, ledger)
    if not report.ok:
        raise InvalidFlow(report)

    def hit(label: str) -> None:
        if failpoint is not None:
            failpoint(label)

    work = ledger.copy()
    pool = g.pool

    discharged = _discharged_by_obligation(f, g)
    for ob_id in sorted(discharged):
        hit(f"obligation:{ob_id}")
        open_ob = work.open_obligations.get(ob_id)
        if open_ob is None:
            # First time this ledger sees the obligation: register it at the
            # pool amount before discharging.
            open_ob = pool.obligations[ob_id]
        try:
            left = sub_amount(open_ob.amount, discharged[ob_id])
        except Exception as exc:
            raise SettlementError(
                f"obligation {ob_id} cannot discharge {discharged[ob_id]}"
            ) from exc
        if left == 0:
            work.open_obligations.pop(ob_id, None)
        else:
            work.open_obligations[ob_id] = replace(
                open_ob, amount=left, ascertainment=None
            )

    deltas: dict[tuple[AgentId, str], int] = {}
    for tr in f.transfers:
        hit(f"transfer:{tr.payer}>{tr.payee}:{tr.asset}")
        work.adjust_balance(tr.payer, tr.asset, -tr.amount)
        work.adjust_balance(tr.payee, tr.asset, tr.amount)
        deltas[(tr.payer, tr.asset)] = deltas.get((tr.payer, tr.asset), 0) - tr.amount
        deltas[(tr.payee, tr.asset)] = deltas.get((tr.payee, tr.asset), 0) + tr.amount

    new_obligations = _overdraft_obligations(f, g)
    for ob in new_obligations:
        hit(f"new:{ob.id}")
        if ob.id in work.open_obligations:
            raise SettlementError(f"new obligation id {ob.id} already open")
        work.open_obligations[ob.id] = ob

    notices = emit_notices(f, g)

    hit("commit")
    ledger.balances = work.balances
    ledger.open_obligations = work.open_obligations

    return AppliedEpoch(
        epoch_id=f.epoch_id,
        cleared_debt=sum(discharged.values()),
        discharged=discharged,
        new_obligations=new_obligations,
        notices=notices,
        balance_deltas={k: v for k, v in sorted(deltas.items()) if v},
    )
