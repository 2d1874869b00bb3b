"""nid() from the pool's running totals: equal to a fresh aggregate, and O(1) per query."""

import random
from pathlib import Path

from setoff import (
    Acceptance,
    AcceptanceKind,
    ClearingEngine,
    IntentError,
    KeyRegistry,
    Obligation,
    StateError,
    Tender,
    TenderKind,
    ascertain,
)
import setoff.engine as engine_module
from setoff.graph import aggregate, compute_nid
from setoff.model import bound_party

from support import HUB, UNIT, counting_verify, key_of, registry_for

FIRMS = ("A", "B", "C", "D", "E")


def fresh_nid(store: Path) -> dict:
    """What a newly opened engine's pool folds to through ``aggregate``."""
    fresh = ClearingEngine(store)
    g = aggregate(fresh._pool(fresh.epoch))
    return {"epoch": fresh.epoch, "nid": compute_nid(g), "total_debt": g.total_debt()}


class Life:
    """One store driven by random steps; ``signer`` holds every firm's true key."""

    def __init__(self, store: Path, rng: random.Random) -> None:
        self.rng = rng
        self.signer = registry_for(HUB, *FIRMS)
        self.forger = KeyRegistry({a: key_of("forger") for a in (HUB, *FIRMS)})
        self.engine = ClearingEngine.init(
            store, unit=UNIT, default_source=HUB,
            opening_balances={f: {UNIT: rng.randint(0, 20)} for f in FIRMS},
        )
        for agent in (HUB, *FIRMS):
            self.engine.register_key(agent, key_of(agent).hex())
        self.rotated: set[str] = set()
        self.n = 0
        self.reports: list[dict] = []

    def new_id(self, kind: str) -> str:
        self.n += 1
        return f"{kind}{self.n}"

    def pair(self) -> list[str]:
        return self.rng.sample(FIRMS, 2)

    def submit(self, intent, signer: KeyRegistry | None = None) -> None:
        """Submit ``intent`` signed by ``signer``; only a forged or rotated one is refused."""
        signer = signer or self.signer
        refusable = signer is self.forger or bound_party(intent) in self.rotated
        try:
            self.engine.submit_intent(ascertain(intent, signer))
        except IntentError:
            assert refusable
        else:
            assert not refusable

    def obligation(self, unit: str = UNIT) -> Obligation:
        debtor, creditor = self.pair()
        return Obligation(id=self.new_id("o"), debtor=debtor, creditor=creditor,
                          amount=self.rng.randint(1, 30), unit=unit)

    def step(self) -> str:
        rng, engine = self.rng, self.engine
        kind = rng.choices(
            ["submit", "forged", "foreign", "tender", "loan", "cancel", "rotate",
             "freeze", "run", "reopen"],
            weights=[10, 2, 2, 2, 3, 3, 2, 1, 2, 1],
        )[0]
        if kind == "submit":
            self.submit(self.obligation())
        elif kind == "forged":
            self.submit(self.obligation(), signer=self.forger)
        elif kind == "foreign":
            self.submit(self.obligation(unit="EUR"))
        elif kind == "tender":
            self.submit(Tender(id=self.new_id("t"), sender=rng.choice(FIRMS), source=HUB,
                               kind=TenderKind.ASSIGNMENT, max_amount=rng.randint(1, 20)))
        elif kind == "loan":
            lender, borrower = self.pair()
            self.submit(Acceptance(id=self.new_id("acc"), origin=lender, target=borrower,
                                   kind=AcceptanceKind.REPAYMENT, currency=UNIT,
                                   limit=rng.randint(1, 20), repayment_due="2027-01-31"))
            self.submit(Tender(id=self.new_id("t"), sender=borrower, source=lender,
                               kind=TenderKind.OVERDRAFT, max_amount=rng.randint(1, 20)))
        elif kind == "cancel":
            pool = engine._pool(engine.epoch)
            pooled = sorted([*pool.obligations, *pool.acceptances, *pool.tenders])
            target = rng.choice(pooled) if pooled else "missing"
            try:
                engine.cancel_intent(target)
            except (IntentError, StateError):
                pass  # frozen epoch, or the engine's own queued repayment
        elif kind == "rotate":
            agent = rng.choice(FIRMS)
            if agent in self.rotated:
                self.rotated.discard(agent)
                engine.register_key(agent, key_of(agent).hex())
            else:
                self.rotated.add(agent)
                engine.register_key(agent, key_of(f"wrong:{agent}").hex())
        elif kind == "freeze":
            if engine.phase == "open":
                engine.freeze()
        elif kind == "run":
            if engine.phase == "frozen":
                budget = rng.choice([None, 0, rng.randint(1, 40)])
                self.reports.append(engine.run(budget=budget, seed=rng.randint(0, 9)))
        else:
            self.engine = ClearingEngine(engine.store)
        return kind


def test_nid_equals_a_fresh_aggregate_after_every_step(tmp_path: Path) -> None:
    seen: set[str] = set()
    reports: list[dict] = []
    for seed in range(200):
        life = Life(tmp_path / f"s{seed}", random.Random(seed))
        for n in range(40):
            kind = life.step()
            seen.add(kind)
            assert life.engine.nid() == fresh_nid(life.engine.store), (seed, n, kind)
        reports += life.reports
    assert len(seen) == 10
    # The sequences reached what the totals must leave out or carry over.
    reasons = {reason.split()[0] for r in reports for _, reason in r["excluded"]}
    assert {"ascertainment", "unit"} <= reasons
    assert sum(bool(r.get("new_obligations")) for r in reports) >= 10
    assert {r["status"] for r in reports} == {"applied"}


def test_nid_polls_make_no_aggregate_and_no_hmac_check(tmp_path: Path, monkeypatch) -> None:
    engine = ClearingEngine.init(tmp_path / "s", unit=UNIT, default_source=HUB)
    for agent in FIRMS:
        engine.register_key(agent, key_of(agent).hex())
    signer = registry_for(*FIRMS)
    rng = random.Random(3)
    for i in range(200):
        debtor, creditor = rng.sample(FIRMS, 2)
        engine.submit_intent(ascertain(Obligation(
            id=f"o{i}", debtor=debtor, creditor=creditor, amount=rng.randint(1, 9), unit=UNIT,
        ), signer))
    checked = counting_verify(monkeypatch)
    folds: list[object] = []
    monkeypatch.setattr(engine_module, "aggregate", lambda pool: folds.append(pool))
    polls = [engine.nid() for _ in range(50)]
    assert (folds, checked) == ([], [])
    monkeypatch.undo()
    assert polls == [fresh_nid(engine.store)] * 50


def test_key_rotation_reverifies_the_rotated_agents_intents_once(
    tmp_path: Path, monkeypatch
) -> None:
    engine = ClearingEngine.init(tmp_path / "s", unit=UNIT, default_source=HUB)
    for agent in (HUB, *FIRMS):
        engine.register_key(agent, key_of(agent).hex())
    signer = registry_for(HUB, *FIRMS)
    intents = [
        Obligation(id="ab", debtor="A", creditor="B", amount=20, unit=UNIT),
        Obligation(id="bc", debtor="B", creditor="C", amount=30, unit=UNIT),
        Obligation(id="ca", debtor="C", creditor="A", amount=45, unit=UNIT),
        Obligation(id="bd", debtor="B", creditor="D", amount=5, unit=UNIT),
        Tender(id="t:B", sender="B", source=HUB, kind=TenderKind.ASSIGNMENT, max_amount=10),
        Tender(id="t:C", sender="C", source=HUB, kind=TenderKind.ASSIGNMENT, max_amount=15),
    ]
    for intent in intents:
        engine.submit_intent(ascertain(intent, signer))
    before = engine.nid()
    checked = counting_verify(monkeypatch)
    engine.register_key("B", key_of("B").hex())  # the same key, registered again
    assert engine.nid() == engine.nid() == before
    assert sorted(checked) == ["bc", "bd"]  # a query recounts obligations only
    engine.freeze()
    assert engine.run(seed=1)["status"] == "applied"
    assert sorted(checked) == ["bc", "bd", "t:B"]  # each of B's intents, once
