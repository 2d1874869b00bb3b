"""Acceptance checklist.

Each test prints one `ACCEPTANCE <n> <label>: PASS|FAIL` line straight to the
terminal (bypassing capture) so a plain pytest run doubles as a release
checklist. Assertions carry the details; the printed line is the verdict.
"""

import dataclasses
import json
import random
import time
from itertools import count
from pathlib import Path

import pytest

from setoff import (
    ClearingEngine,
    Ledger,
    Obligation,
    Tender,
    TenderKind,
    aggregate,
    ascertain,
    build_network,
    compute_nid,
)
from setoff.engine import canonical_dumps
from setoff.experiments import (
    SyntheticGraphConfig,
    attach_default_liquidity,
    generate,
    multiplier_curve,
)
from setoff.model import intent_to_obj
from setoff.settle import apply_flow
from setoff.solver import solve_network, solve_settleable
from setoff.validate import is_valid_flow

from support import (
    HUB,
    UNIT,
    brute_force_oracle,
    chain_pool,
    cycle_pool,
    funded_ledger,
    key_of,
    p2p_loan_pool,
)


def announce(capsys, num: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}")


def discharged_by_obligation(flow) -> dict[str, int]:
    # Records come in equal-amount pairs; keep one side per obligation.
    out: dict[str, int] = {}
    for r in flow.records:
        if r.edge_ref.startswith("ob"):
            out[r.edge_ref] = r.amount
    return out


def settle_ready(g, *funds: tuple[str, str, int]) -> Ledger:
    led = funded_ledger(*funds)
    for ob_id, ob in g.pool.obligations.items():
        led.open_obligations[ob_id] = ob
    return led


def test_acceptance_1_three_firm_cycle(capsys) -> None:
    g = aggregate(cycle_pool())
    flow, sol = solve_network(build_network(g, budget=0))
    discharged = discharged_by_obligation(flow)
    residual = {
        pair: edge.amount - discharged.get(edge.obligations[0], 0)
        for pair, edge in g.edges.items()
    }
    best = float("inf")
    for _ in range(30):
        t0 = time.perf_counter()
        solve_settleable(g, budget=0)
        best = min(best, time.perf_counter() - t0)
    problems = []
    if sol.cleared_debt != 60:
        problems.append(f"cleared {sol.cleared_debt} != 60")
    if residual != {("A", "B"): 0, ("B", "C"): 10, ("C", "A"): 25}:
        problems.append(f"residuals {residual}")
    if sum(residual.values()) != 35:
        problems.append(f"total residual {sum(residual.values())} != 35")
    if best >= 1e-3:
        problems.append(f"solve took {best * 1e3:.3f} ms")
    announce(capsys, 1, "three-firm cycle set-off exactness", not problems)
    assert not problems, problems


def test_acceptance_2_chain_single_transfer(capsys) -> None:
    problems = []
    for k in (2, 4):
        flow, sol = solve_network(build_network(aggregate(chain_pool(k))))
        if sol.cleared_debt != 20 * k:
            problems.append(f"k={k}: cleared {sol.cleared_debt} != {20 * k}")
        moved = [(t.payer, t.payee, t.asset, t.amount) for t in flow.transfers]
        if moved != [("F0", f"F{k}", UNIT, 20)]:
            problems.append(f"k={k}: transfers {moved}")
    announce(capsys, 2, "chain clearing with one end-to-end transfer", not problems)
    assert not problems, problems


def test_acceptance_3_credit_line_cycle(capsys) -> None:
    g = aggregate(p2p_loan_pool())
    ledger = settle_ready(g)
    flow = solve_settleable(g, ledger=ledger)[0]
    applied = apply_flow(ledger, flow, g)
    problems = []
    if applied.cleared_debt != g.total_debt() or applied.cleared_debt != 20:
        problems.append(f"cleared {applied.cleared_debt} != 20")
    if applied.balance_deltas:
        problems.append(f"balances moved: {applied.balance_deltas}")
    if len(applied.new_obligations) != 1:
        problems.append(f"{len(applied.new_obligations)} new obligations")
    else:
        new = applied.new_obligations[0]
        if (new.debtor, new.creditor, new.amount) != ("alice", "carol", 10):
            problems.append(f"new obligation {new.debtor}->{new.creditor} {new.amount}")
    announce(capsys, 3, "credit-line cycle clears without assets", not problems)
    assert not problems, problems


def test_acceptance_4_nid_saturation(capsys) -> None:
    problems = []
    checked = 0
    for s in count():
        if checked == 100:
            break
        rng = random.Random(s)
        n = rng.randint(5, 50)
        m = rng.randint(n, min(200, n * (n - 1)))
        g = attach_default_liquidity(generate(SyntheticGraphConfig(nodes=n, edges=m, seed=s)))
        nid = compute_nid(g)
        if nid == 0:
            continue
        checked += 1
        total = g.total_debt()
        _, full = solve_network(build_network(g, budget=nid))
        if full.cleared_debt != total:
            problems.append(f"seed {s}: budget=nid cleared {full.cleared_debt}/{total}")
        _, short = solve_network(build_network(g, budget=nid - 1))
        if short.cleared_debt >= total:
            problems.append(f"seed {s}: budget=nid-1 still cleared everything")
    announce(capsys, 4, "NID budget saturates clearing", not problems)
    assert checked == 100
    assert not problems, problems[:5]


def test_acceptance_5_oracle_equivalence(capsys) -> None:
    started = time.perf_counter()
    problems = []
    for s in range(200):
        rng = random.Random(s)
        n = rng.randint(2, 5)
        m = rng.randint(1, min(6, n * (n - 1)))
        g = generate(SyntheticGraphConfig(
            nodes=n, edges=m, seed=s, amount_low=1, amount_high=3
        ))
        funded = attach_default_liquidity(g)
        for budget in range(4):
            want = brute_force_oracle(g, budget)
            _, sol = solve_network(build_network(funded, budget=budget))
            if sol.cleared_debt != want:
                problems.append(f"seed {s} budget {budget}: {sol.cleared_debt} != {want}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        problems.append(f"sweep took {elapsed:.1f} s")
    announce(capsys, 5, "solver matches exhaustive oracle", not problems)
    assert not problems, problems[:5]


def test_acceptance_6_validity_predicate(capsys) -> None:
    problems = []
    mutations = 0
    for i in range(1000):
        rng = random.Random(i)
        n = rng.randint(4, 10)
        m = rng.randint(n, min(3 * n, n * (n - 1)))
        g = attach_default_liquidity(generate(SyntheticGraphConfig(nodes=n, edges=m, seed=i)))
        flow, _ = solve_network(build_network(g, budget=compute_nid(g)))
        if not is_valid_flow(g, flow).ok:
            problems.append(f"seed {i}: solver output rejected")
            continue
        ob_records = [
            j for j, r in enumerate(flow.records) if r.edge_ref in g.pool.obligations
        ]
        if not ob_records:
            problems.append(f"seed {i}: empty flow")
            continue
        idx = rng.choice(ob_records)
        victim = flow.records[idx]
        ob = g.pool.obligations[victim.edge_ref]
        stranger = next(a for a in g.nodes if a not in (ob.debtor, ob.creditor))
        recs = list(flow.records)
        mutants = [
            recs[:idx] + [dataclasses.replace(victim, amount=victim.amount + 1)] + recs[idx + 1:],
            recs[:idx] + [dataclasses.replace(victim, amount=victim.amount - 1)] + recs[idx + 1:],
            recs[:idx] + recs[idx + 1:],
            recs[:idx] + [dataclasses.replace(victim, party=stranger)] + recs[idx + 1:],
        ]
        for mutant in mutants:
            report = is_valid_flow(g, dataclasses.replace(flow, records=tuple(mutant)))
            mutations += 1
            if report.ok or not report.violations or not report.violations[0].check:
                problems.append(f"seed {i}: mutation slipped through")
    ok = not problems and mutations == 4000
    announce(capsys, 6, "validity predicate accepts solver flows, rejects mutations", ok)
    assert mutations == 4000
    assert not problems, problems[:5]


def test_acceptance_7_multiplier_curve(capsys) -> None:
    g = attach_default_liquidity(generate(SyntheticGraphConfig(
        nodes=500, edges=2000, seed=42, amount_dist="lognormal"
    )))
    nid = compute_nid(g)
    fractions = [0.6 * i / 29 for i in range(30)]
    started = time.perf_counter()
    points = multiplier_curve(g, fractions)
    elapsed = time.perf_counter() - started
    problems = []
    assert points[0].budget < nid < points[-1].budget  # sweep must cross NID
    cleared = [p.cleared_debt for p in points]
    if cleared != sorted(cleared):
        problems.append("curve not monotone")
    for prev, cur in zip(points, points[1:]):
        if cur.budget <= nid and cur.budget > prev.budget:
            if cur.cleared_debt - prev.cleared_debt < cur.budget - prev.budget:
                problems.append(f"slope < 1 between budgets {prev.budget} and {cur.budget}")
    for p in points:
        if p.budget >= nid and p.debt_cleared_fraction != 1.0:
            problems.append(f"no plateau at budget {p.budget}")
    if elapsed >= 30:
        problems.append(f"sweep took {elapsed:.1f} s")
    announce(capsys, 7, "liquidity multiplier curve shape and runtime", not problems)
    assert not problems, problems[:5]


def test_acceptance_8_deterministic_replay(capsys, tmp_path: Path) -> None:
    intents = [
        Obligation(id="ob0", debtor="A", creditor="B", amount=20, unit=UNIT),
        Obligation(id="ob1", debtor="B", creditor="C", amount=30, unit=UNIT),
        Obligation(id="ob2", debtor="C", creditor="A", amount=45, unit=UNIT),
        Tender(id="t:B", sender="B", source=HUB, kind=TenderKind.ASSIGNMENT, max_amount=10),
        Tender(id="t:C", sender="C", source=HUB, kind=TenderKind.ASSIGNMENT, max_amount=15),
    ]
    reports = []
    for name in ("a", "b"):
        store = tmp_path / name
        engine = ClearingEngine.init(
            store, unit=UNIT, default_source=HUB,
            opening_balances={"B": {UNIT: 10}, "C": {UNIT: 15}},
        )
        for agent in ("A", "B", "C", HUB):
            engine.register_key(agent, key_of(agent).hex())
        feed = tmp_path / f"{name}.jsonl"
        feed.write_text("".join(
            json.dumps(intent_to_obj(ascertain(i, engine.registry)),
                       separators=(",", ":")) + "\n"
            for i in intents
        ))
        engine.submit_file(feed)
        engine.freeze()
        reports.append(engine.run(budget=25, seed=4))

    epoch_a = tmp_path / "a" / "epochs" / "00000"
    epoch_b = tmp_path / "b" / "epochs" / "00000"
    names = sorted(p.name for p in epoch_a.iterdir())
    problems = []
    if reports[0] != reports[1]:
        problems.append("reports differ")
    if names != sorted(p.name for p in epoch_b.iterdir()):
        problems.append("epoch directories differ")
    for fname in names:
        if (epoch_a / fname).read_bytes() != (epoch_b / fname).read_bytes():
            problems.append(f"{fname} differs")
    ok = not problems and {"flow.json", "report.json"} <= set(names)
    announce(capsys, 8, "deterministic end-to-end replay", ok)
    assert {"flow.json", "report.json"} <= set(names)
    assert not problems, problems


def test_acceptance_9_atomic_settlement(capsys) -> None:
    cases = []
    g = aggregate(cycle_pool(with_tenders=True))
    led = settle_ready(g, ("B", UNIT, 10), ("C", UNIT, 15))
    cases.append((g, led, solve_settleable(g, 25, led)[0]))
    g = aggregate(chain_pool(3))
    led = settle_ready(g, ("F0", UNIT, 20))
    cases.append((g, led, solve_settleable(g, ledger=led)[0]))
    g = aggregate(p2p_loan_pool())
    led = settle_ready(g)
    cases.append((g, led, solve_settleable(g, ledger=led)[0]))
    for seed in range(6):
        g = attach_default_liquidity(generate(SyntheticGraphConfig(
            nodes=8, edges=20, seed=seed
        )))
        total = g.total_debt()
        led = settle_ready(g, *((a, UNIT, total) for a in g.nodes))
        cases.append((g, led, solve_settleable(g, compute_nid(g), led)[0]))

    class Injected(Exception):
        pass

    trials = 0
    problems = []
    for case_no, (g, ledger, flow) in enumerate(cases):
        labels: list[str] = []
        apply_flow(ledger.copy(), flow, g, failpoint=labels.append)
        for stop in labels:
            victim = ledger.copy()
            before = canonical_dumps(victim.to_obj())

            def tripwire(label: str, stop=stop) -> None:
                if label == stop:
                    raise Injected(label)

            trials += 1
            with pytest.raises(Injected):
                apply_flow(victim, flow, g, failpoint=tripwire)
            if canonical_dumps(victim.to_obj()) != before:
                problems.append(f"case {case_no} label {stop}: ledger changed")
    ok = trials >= 50 and not problems
    announce(capsys, 9, "atomic settlement under fault injection", ok)
    assert trials >= 50, f"only {trials} fault trials"
    assert not problems, problems[:5]
