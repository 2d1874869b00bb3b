"""Seeded input generators for the three workloads.

Each generator takes only the seed and returns plain data: signed intents as
JSON-ready dicts, opening balances, keys and budgets. The program under test
receives nothing else.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

from setoff.model import (
    Acceptance,
    AcceptanceKind,
    KeyRegistry,
    Obligation,
    Tender,
    TenderKind,
    ascertain,
    intent_to_obj,
)

UNIT = "UOA"
HUB = "hub"
EURX = "EURX"
EURX_BANK = "eurx_bank"
EURX_PRICE = Fraction(11, 10)
REPAYMENT_DUE = "2027-03-31"


@dataclass
class EpochInput:
    intents: list[dict]
    budget: int | None


@dataclass
class StoreInput:
    """Everything one store-backed workload feeds the engine."""

    currencies: dict[str, str]
    keys: dict[str, str]  # agent -> hex key
    opening_balances: dict[str, dict[str, int]]
    epochs: list[EpochInput]
    poll_every: int | None  # nid() after every k-th submit; None = never
    run_seed: int
    firms: int
    nid: int = 0  # of the first epoch's obligations
    total_debt: int = 0
    arcs: int = 0  # aggregated obligation pairs of the first epoch


def firm(i: int) -> str:
    return f"F{i:04d}"


def _keys(seed: int, agents: list[str]) -> tuple[KeyRegistry, dict[str, str]]:
    registry = KeyRegistry()
    keys = {}
    for agent in agents:
        key = hashlib.sha256(f"perfbench:{seed}:{agent}".encode()).digest()
        registry.register(agent, key)
        keys[agent] = key.hex()
    return registry, keys


def _obligations(rng: random.Random, firms: list[str], m: int, prefix: str) -> list[Obligation]:
    """``m`` obligations on distinct ordered pairs with lognormal amounts."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        i, j = rng.randrange(len(firms)), rng.randrange(len(firms))
        if i != j:
            pairs.add((i, j))
    return [
        Obligation(
            id=f"{prefix}:{k:05d}",
            debtor=firms[i],
            creditor=firms[j],
            amount=max(1, round(rng.lognormvariate(3.0, 1.0))),
            unit=UNIT,
        )
        for k, (i, j) in enumerate(sorted(pairs))
    ]


def _net(obligations: list[Obligation]) -> dict[str, int]:
    net: dict[str, int] = {}
    for ob in obligations:
        net[ob.debtor] = net.get(ob.debtor, 0) - ob.amount
        net[ob.creditor] = net.get(ob.creditor, 0) + ob.amount
    return net


def _signed(intents, registry: KeyRegistry, rng: random.Random) -> list[dict]:
    objs = [intent_to_obj(ascertain(i, registry)) for i in intents]
    rng.shuffle(objs)
    return objs


def epoch_cash(seed: int, n_firms: int = 200, n_obligations: int = 700) -> StoreInput:
    """One epoch; every net debtor tenders its net debit and holds it in cash."""
    rng = random.Random(seed)
    firms = [firm(i) for i in range(n_firms)]
    registry, keys = _keys(seed, firms)
    obligations = _obligations(rng, firms, n_obligations, "ob")
    net = _net(obligations)
    tenders = []
    balances: dict[str, dict[str, int]] = {}
    for agent in sorted(a for a, v in net.items() if v < 0):
        tenders.append(
            Tender(id=f"t:{agent}", sender=agent, source=HUB,
                   kind=TenderKind.ASSIGNMENT, max_amount=-net[agent])
        )
        balances[agent] = {UNIT: -net[agent]}
    nid = sum(-v for v in net.values() if v < 0)
    return StoreInput(
        currencies={UNIT: HUB},
        keys=keys,
        opening_balances=balances,
        epochs=[EpochInput(_signed(obligations + tenders, registry, rng), budget=nid // 2)],
        poll_every=None,
        run_seed=seed,
        firms=n_firms,
        nid=nid,
        total_debt=sum(ob.amount for ob in obligations),
        arcs=len(obligations),
    )


def epoch_credit(
    seed: int, n_firms: int = 120, n_obligations: int = 480, n_fresh: int = 240
) -> StoreInput:
    """Two epochs funded three ways: half-funded hub cash, credit lines, EURX.

    Net debtors take turns: a hub tender of the full net debit backed by half
    of it in cash (so the balance clamp binds), an overdraft on a line from a
    random net creditor that holds half the line in cash, or an EURX tender at
    11/10, fully funded, whose liquidity exits through EURX deposit
    acceptances of the net creditors. The second epoch adds fresh obligations
    and hub tenders on top of the repayments the engine queued.
    """
    rng = random.Random(seed)
    firms = [firm(i) for i in range(n_firms)]
    registry, keys = _keys(seed, firms)
    obligations = _obligations(rng, firms, n_obligations, "ob0")
    net = _net(obligations)
    debtors = sorted(a for a, v in net.items() if v < 0)
    creditors = sorted(a for a, v in net.items() if v > 0)
    intents: list = list(obligations)
    balances: dict[str, dict[str, int]] = {}

    def fund(agent: str, asset: str, amount: int) -> None:
        per = balances.setdefault(agent, {})
        per[asset] = per.get(asset, 0) + amount

    for k, agent in enumerate(debtors):
        need = -net[agent]
        if k % 3 == 0:
            intents.append(Tender(id=f"t0:{agent}", sender=agent, source=HUB,
                                  kind=TenderKind.ASSIGNMENT, max_amount=need))
            fund(agent, UNIT, need // 2)
        elif k % 3 == 1:
            lender = creditors[rng.randrange(len(creditors))]
            intents.append(Acceptance(id=f"line0:{agent}", origin=lender, target=agent,
                                      kind=AcceptanceKind.REPAYMENT, currency=UNIT,
                                      limit=need, repayment_due=REPAYMENT_DUE))
            intents.append(Tender(id=f"od0:{agent}", sender=agent, source=lender,
                                  kind=TenderKind.OVERDRAFT, max_amount=need))
            fund(lender, UNIT, need // 2)
        else:
            eurx = -(-need * EURX_PRICE.denominator // EURX_PRICE.numerator)
            intents.append(Tender(id=f"fx0:{agent}", sender=agent, source=EURX_BANK,
                                  kind=TenderKind.ASSIGNMENT, max_amount=eurx,
                                  price=EURX_PRICE))
            fund(agent, EURX, eurx)
    for agent in creditors:
        intents.append(Acceptance(id=f"dep0:{agent}", origin=agent, target=EURX_BANK,
                                  kind=AcceptanceKind.DEPOSIT, currency=EURX,
                                  limit=net[agent]))
    nid = sum(-v for v in net.values() if v < 0)
    first = EpochInput(_signed(intents, registry, rng), budget=nid * 3 // 4)

    fresh = _obligations(rng, firms, n_fresh, "ob1")
    fresh_net = _net(fresh)
    fresh_tenders = [
        Tender(id=f"t1:{agent}", sender=agent, source=HUB,
               kind=TenderKind.ASSIGNMENT, max_amount=-v)
        for agent, v in sorted(fresh_net.items())
        if v < 0
    ]
    second = EpochInput(_signed(fresh + fresh_tenders, registry, rng), budget=None)
    return StoreInput(
        currencies={UNIT: HUB, EURX: EURX_BANK},
        keys=keys,
        opening_balances=balances,
        epochs=[first, second],
        poll_every=20,
        run_seed=seed,
        firms=n_firms,
        nid=nid,
        total_debt=sum(ob.amount for ob in obligations),
        arcs=len(obligations),
    )


@dataclass(frozen=True)
class SweepInput:
    nodes: int
    edges: int
    seed: int
    fractions: tuple[float, ...]


def sweep(seed: int, nodes: int = 250, edges: int = 1000, points: int = 10) -> SweepInput:
    """A lognormal graph and ten budgets from 0 to 0.6 of total debt."""
    return SweepInput(
        nodes=nodes,
        edges=edges,
        seed=seed,
        fractions=tuple(0.6 * k / (points - 1) for k in range(points)),
    )
