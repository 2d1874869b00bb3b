"""Shared fixtures for the test suite: deterministic keys and small pools."""

from __future__ import annotations

import hashlib
from fractions import Fraction

from setoff import (
    Acceptance,
    AcceptanceKind,
    EpochPool,
    KeyRegistry,
    Ledger,
    Obligation,
    Tender,
    TenderKind,
    ascertain,
)
import setoff.graph as graph_module

UNIT = "UOA"
HUB = "hub"


def key_of(agent: str) -> bytes:
    return hashlib.sha256(f"test-key:{agent}".encode()).digest()


def registry_for(*agents: str) -> KeyRegistry:
    reg = KeyRegistry()
    for agent in agents:
        reg.register(agent, key_of(agent))
    return reg


def make_pool(
    *agents: str,
    unit: str = UNIT,
    default_source: str | None = HUB,
    currencies: dict[str, str] | None = None,
) -> EpochPool:
    if currencies is None:
        currencies = {unit: HUB}
    reg = registry_for(HUB, *agents, *currencies.values())
    return EpochPool(
        unit=unit,
        currencies=currencies,
        default_source=default_source,
        registry=reg,
    )


def add_signed(pool: EpochPool, intent) -> None:
    pool.add(ascertain(intent, pool.registry))


def cycle_pool(with_tenders: bool = False) -> EpochPool:
    """Three-firm cycle A->B 20, B->C 30, C->A 45; optional tenders B 10, C 15.

    Net positions: A +25, B -10, C -15; NID 25; total debt 95. With zero
    budget the cycle component clears 60; with the tenders and budget 25 the
    whole graph clears.
    """
    pool = make_pool("A", "B", "C")
    add_signed(pool, Obligation(id="ob0", debtor="A", creditor="B", amount=20, unit=UNIT))
    add_signed(pool, Obligation(id="ob1", debtor="B", creditor="C", amount=30, unit=UNIT))
    add_signed(pool, Obligation(id="ob2", debtor="C", creditor="A", amount=45, unit=UNIT))
    if with_tenders:
        add_signed(
            pool,
            Tender(id="t:B", sender="B", source=HUB, kind=TenderKind.ASSIGNMENT, max_amount=10),
        )
        add_signed(
            pool,
            Tender(id="t:C", sender="C", source=HUB, kind=TenderKind.ASSIGNMENT, max_amount=15),
        )
    return pool


def chain_pool(k: int, amount: int = 20) -> EpochPool:
    """Chain F0 -> F1 -> ... -> Fk of equal obligations.

    F0 tenders ``amount`` at the hub; only Fk holds an explicit unlimited
    deposit acceptance (no implicit defaults), so injected liquidity can only
    exit at the tail.
    """
    firms = [f"F{i}" for i in range(k + 1)]
    pool = make_pool(*firms, default_source=None)
    for i in range(k):
        add_signed(
            pool,
            Obligation(
                id=f"ob{i}", debtor=firms[i], creditor=firms[i + 1], amount=amount, unit=UNIT
            ),
        )
    add_signed(
        pool,
        Tender(
            id="t:head", sender=firms[0], source=HUB, kind=TenderKind.ASSIGNMENT,
            max_amount=amount,
        ),
    )
    add_signed(
        pool,
        Acceptance(
            id="acc:tail", origin=firms[-1], target=HUB, kind=AcceptanceKind.DEPOSIT,
            currency=UNIT, limit=None,
        ),
    )
    return pool


def p2p_loan_pool() -> EpochPool:
    """Two-debt chain closed into a cycle by a credit line from the tail.

    alice owes bob, bob owes carol; carol extends a 10-unit credit line to
    alice (repayment acceptance) and alice draws on it (overdraft tender).
    Clearing needs no assets: the draw exits at carol herself.
    """
    pool = make_pool("alice", "bob", "carol")
    add_signed(pool, Obligation(id="ob:ab", debtor="alice", creditor="bob", amount=10, unit=UNIT))
    add_signed(pool, Obligation(id="ob:bc", debtor="bob", creditor="carol", amount=10, unit=UNIT))
    add_signed(
        pool,
        Acceptance(
            id="acc:loan", origin="carol", target="alice", kind=AcceptanceKind.REPAYMENT,
            currency=UNIT, limit=10, repayment_due="2027-01-31",
        ),
    )
    add_signed(
        pool,
        Tender(
            id="t:draw", sender="alice", source="carol", kind=TenderKind.OVERDRAFT,
            max_amount=10,
        ),
    )
    return pool


def two_currency_pool() -> EpochPool:
    """Two chains funded from different liquidity sources, no unit issuer.

    Chain 1: A -> B -> C, funded by A's USDX tender (price 1), C accepts USDX.
    Chain 2: D -> E -> F, funded by D's ATOMX tender (price 2), F accepts ATOMX.
    """
    currencies = {"USDX": "bankx", "ATOMX": "chainy"}
    pool = make_pool(
        "A", "B", "C", "D", "E", "F",
        default_source=None,
        currencies=currencies,
    )
    for i, (d, c) in enumerate([("A", "B"), ("B", "C"), ("D", "E"), ("E", "F")]):
        add_signed(
            pool, Obligation(id=f"ob{i}", debtor=d, creditor=c, amount=10, unit=UNIT)
        )
    add_signed(
        pool,
        Tender(
            id="t:usd", sender="A", source="bankx", kind=TenderKind.ASSIGNMENT,
            max_amount=10, price=Fraction(1),
        ),
    )
    add_signed(
        pool,
        Tender(
            id="t:atom", sender="D", source="chainy", kind=TenderKind.ASSIGNMENT,
            max_amount=5, price=Fraction(2),
        ),
    )
    add_signed(
        pool,
        Acceptance(
            id="acc:usd", origin="C", target="bankx", kind=AcceptanceKind.DEPOSIT,
            currency="USDX", limit=None,
        ),
    )
    add_signed(
        pool,
        Acceptance(
            id="acc:atom", origin="F", target="chainy", kind=AcceptanceKind.DEPOSIT,
            currency="ATOMX", limit=None,
        ),
    )
    return pool


def funded_ledger(*entries: tuple[str, str, int]) -> Ledger:
    ledger = Ledger()
    for agent, asset, amount in entries:
        ledger.set_balance(agent, asset, amount)
    return ledger


def counting_verify(monkeypatch) -> list[str]:
    """Record the id of every real ascertainment check a pool makes."""
    checked: list[str] = []
    real = graph_module.verify_ascertainment

    def verify(intent, registry, scheme):
        checked.append(intent.id)
        return real(intent, registry, scheme)

    monkeypatch.setattr(graph_module, "verify_ascertainment", verify)
    return checked
