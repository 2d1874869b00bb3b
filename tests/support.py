"""Shared fixtures for the test suite: deterministic keys, small pools, and
the checks only tests use: a debug dump of a graph and an exhaustive oracle."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from setoff import (
    Acceptance,
    AcceptanceKind,
    EpochPool,
    KeyRegistry,
    Ledger,
    Obligation,
    ObligationGraph,
    SetoffError,
    Tender,
    TenderKind,
    ascertain,
)
from setoff.model import MAX_AMOUNT
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


def overdraft_past_the_bound_pool() -> EpochPool:
    """A draw at price 2 that would fan out over two chains of 2^62 + 1.

    bank lends alice EURX on one credit line at the largest declarable
    limit, and alice owes bob and carol 2^62 + 1 each, who take EURX
    deposits at bank. Unclamped, the draw is worth 2^63 + 2 in the unit of
    account: more than one repayment obligation may declare.
    """
    pool = make_pool("alice", "bob", "carol", "bank",
                     currencies={UNIT: HUB, "EURX": "bank"})
    for creditor in ("bob", "carol"):
        add_signed(pool, Obligation(id=f"ob:{creditor}", debtor="alice", creditor=creditor,
                                    amount=2**62 + 1, unit=UNIT))
        add_signed(pool, Acceptance(id=f"dep:{creditor}", origin=creditor, target="bank",
                                    kind=AcceptanceKind.DEPOSIT, currency="EURX"))
    add_signed(pool, Acceptance(id="line", origin="bank", target="alice",
                                kind=AcceptanceKind.REPAYMENT, currency="EURX",
                                limit=MAX_AMOUNT, repayment_due="2027-01-31"))
    add_signed(pool, Tender(id="t:draw", sender="alice", source="bank",
                            kind=TenderKind.OVERDRAFT, max_amount=MAX_AMOUNT,
                            price=Fraction(2)))
    return pool


def random_liquidity_pool(rng: random.Random):
    """Obligations plus tenders and acceptances of every resolvable shape.

    Sources, currencies and targets are drawn from valid and invalid choices,
    prices are often missing, and some repayment acceptances are unsigned, so
    overdrafts meet missing, disagreeing and foreign backing lines.
    """
    firms = ("a", "b", "c", "d")
    currencies = {UNIT: HUB, "EURX": "ecb", "USDX": "bankx"}
    pool = make_pool(*firms, currencies=currencies,
                     default_source=rng.choice((HUB, None)))
    codes = (*currencies, "NOPE")

    def price():
        return rng.choice((None, Fraction(rng.randint(1, 9), rng.randint(1, 9))))

    def limit():
        return rng.choice((None, rng.randint(0, 40)))

    for i in range(rng.randint(1, 6)):
        debtor, creditor = rng.sample(firms, 2)
        add_signed(pool, Obligation(id=f"ob{i}", debtor=debtor, creditor=creditor,
                                    amount=rng.randint(1, 50), unit=UNIT))
    for i in range(rng.randint(0, 4)):
        add_signed(pool, Acceptance(
            id=f"dep{i}", origin=rng.choice(firms),
            target=rng.choice((*currencies.values(), "a")),
            kind=AcceptanceKind.DEPOSIT, currency=rng.choice(codes), limit=limit()))
    for i in range(rng.randint(0, 4)):
        lender, borrower = rng.sample(firms, 2)
        line = Acceptance(id=f"line{i}", origin=lender, target=borrower,
                          kind=AcceptanceKind.REPAYMENT, currency=rng.choice(codes),
                          limit=rng.randint(1, 40))
        if rng.random() < 0.2:
            pool.add(line)
        else:
            add_signed(pool, line)
    for i in range(rng.randint(1, 5)):
        add_signed(pool, Tender(
            id=f"as{i}", sender=rng.choice(firms),
            source=rng.choice((*currencies.values(), "nobody")),
            kind=TenderKind.ASSIGNMENT, max_amount=rng.randint(1, 40), price=price()))
    for i in range(rng.randint(0, 5)):
        sender, lender = rng.sample(firms, 2)
        add_signed(pool, Tender(
            id=f"od{i}", sender=sender, source=lender,
            kind=TenderKind.OVERDRAFT, max_amount=rng.randint(1, 40), price=price()))
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

    def verify(intent, registry):
        checked.append(intent.id)
        return real(intent, registry)

    monkeypatch.setattr(graph_module, "verify_ascertainment", verify)
    return checked


def counting_calls(monkeypatch, owner, name: str) -> list:
    """Replace ``owner.name`` by a wrapper that logs each call's (args, kwargs)."""
    calls: list = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def dump_graph(g: ObligationGraph) -> str:
    """Debug dump, one edge per line; stable across runs for fixtures.

    Lines: ``unit <code>``, ``ob <debtor> <creditor> <amount>``,
    ``tender <id> <sender> <issuer> <kind> <currency> <max> <price|->``,
    ``accept <edge-id> <origin> <issuer> <currency> <limit|inf>``.
    """
    lines = [f"unit {g.unit}"]
    for _, edge in sorted(g.edges.items()):
        lines.append(f"ob {edge.debtor} {edge.creditor} {edge.amount}")
    for te in g.tender_edges:
        price = "-" if te.price is None else str(te.price)
        lines.append(
            f"tender {te.tender_id} {te.sender} {te.issuer} {te.kind.value}"
            f" {te.currency} {te.max_amount} {price}"
        )
    for ae in g.acceptance_edges:
        limit = "inf" if ae.limit is None else str(ae.limit)
        lines.append(
            f"accept {ae.edge_id} {ae.origin} {ae.issuer} {ae.currency} {limit}"
        )
    return "\n".join(lines) + "\n"


class OracleBoundError(SetoffError):
    """An instance is too large for exhaustive search; the oracle refuses."""


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
