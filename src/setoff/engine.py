"""Batch clearing engine: epoch state machine over a plain-file store.

Store layout::

    store/
      config.json            unit, currencies, default source, quota
      keys.jsonl             {"agent", "key"} per registration, append only
      state.json             current epoch number and phase (open | frozen)
      ledger.json            balances and open obligations
      epochs/00000/
        pool.jsonl           submitted intents and cancels, one per line, append only
        flow.json            solved settlement flow
        report.json          epoch outcome
        applied.json         commit log, written before any state changes
        notices.csv          set-off notices

Every output is canonical JSON (sorted keys, compact separators, trailing
newline) or deterministic CSV, so replaying the same intents with the same
seed reproduces every file byte for byte.

``keys.jsonl`` and ``pool.jsonl`` are logs: one JSON object per line, only
ever appended to. The last key line of an agent wins, so a rotation is one
more line. A cancel is one tombstone line, ``{"cancel":"<id>"}``, which
withdraws the intent pooled above it under that id. A final line without its
newline is an append that never returned: readers skip it, and the engine
truncates it away before its next append to that log. A complete line that
does not parse as a JSON object, a pool line that is neither an intent nor a
tombstone, or a tombstone for an id not pooled above it, is a ``StateError``
naming the file and line. A store that keeps its keys in the older
``keys.json`` is refused.

``init`` writes ``config.json`` last, so a path where ``init`` failed does
not open as a store, and a second ``init`` there completes it.
``run`` writes the full outcome to ``applied.json`` first and only then
mutates ledger and state; a crash at any point either leaves the old state
intact or leaves a complete commit log that the next ``run`` replays. The
store has a single writer, because an engine reads each store file once and
then keeps the open pools and the keys in memory; concurrent readers see
complete snapshots.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Callable

from .errors import (
    AmountError,
    GraphBuildError,
    IntentError,
    InvalidFlow,
    QuotaExceeded,
    SetoffError,
    StateError,
)
from .graph import DEFAULT_ACCEPT_PREFIX, EpochPool, aggregate, compute_nid
from .model import (
    Intent,
    KeyRegistry,
    Ledger,
    SettlementFlow,
    bound_party,
    flow_from_obj,
    flow_to_obj,
    intent_from_obj,
    intent_to_obj,
)
from .settle import NEW_OBLIGATION_PREFIX, apply_flow, notices_to_csv
from .solver import solve_settleable
# This name stays: perfbench/spans.py wraps is_valid_flow where engine binds it.
from .validate import is_valid_flow

RESERVED_PREFIXES = (DEFAULT_ACCEPT_PREFIX, NEW_OBLIGATION_PREFIX)

PHASE_OPEN = "open"
PHASE_FROZEN = "frozen"

# The names ``init`` writes: an unfinished store holds only these and their .tmp files.
_INIT_NAMES = frozenset({"epochs", "keys.jsonl", "state.json", "ledger.json", "config.json"})


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


def _write_atomic(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data, encoding="utf-8")
    os.replace(tmp, path)


def _read_log(path: Path) -> list[tuple[int, dict]]:
    """(line number, object) per complete line of a JSONL log; a torn tail is skipped."""
    if not path.exists():
        return []
    lines = path.read_text(encoding="utf-8").split("\n")
    lines.pop()  # empty after the last newline, or a torn append
    objs = []
    for n, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StateError(f"{path}:{n}: not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise StateError(f"{path}:{n}: not a JSON object")
        objs.append((n, obj))
    return objs


def _read_json(path: Path, parse: Callable):
    """``parse`` of one JSON store file.

    A file that is missing, does not parse as JSON, or that ``parse``
    refuses, is a ``StateError`` naming the file.
    """
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, LookupError, TypeError, AttributeError, SetoffError) as exc:
        raise StateError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _parse_state(obj) -> tuple[int, str]:
    epoch, phase = obj["epoch"], obj["phase"]
    if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
        raise ValueError(f"epoch {epoch!r} is not an epoch number")
    if phase not in (PHASE_OPEN, PHASE_FROZEN):
        raise ValueError(f"phase {phase!r} is neither {PHASE_OPEN} nor {PHASE_FROZEN}")
    return epoch, phase


def _parse_config(obj) -> dict:
    _config_pool(obj)  # refuses a config missing a key, or one the pool refuses
    return obj


def _parse_wal(obj) -> dict:
    if not {"epoch", "flow", "report", "status"} <= obj.keys():
        raise ValueError("not a whole commit log")
    return obj


def _append_log(path: Path, line: str) -> None:
    """Append one newline-terminated line, first truncating a torn tail."""
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.seek(0)
                fh.truncate(fh.read().rfind(b"\n") + 1)
        fh.write(line.encode("utf-8"))


def _config_pool(config: dict, registry: KeyRegistry | None = None) -> EpochPool:
    """An empty pool under a store config; a config the pool refuses is a StateError."""
    try:
        return EpochPool(
            unit=config["unit"],
            currencies=config["currencies"],
            default_source=config["default_source"],
            registry=registry,
        )
    except GraphBuildError as exc:
        raise StateError(f"bad store config: {exc}") from exc


def _refuse_reserved(intent_id: str) -> None:
    """Only the engine writes intents under a reserved id prefix."""
    for prefix in RESERVED_PREFIXES:
        if intent_id.startswith(prefix):
            raise IntentError(f"intent id prefix {prefix!r} is reserved")


def _parse_key(agent: str, key_hex: str) -> bytes:
    try:
        return bytes.fromhex(key_hex)
    except (TypeError, ValueError) as exc:
        raise StateError(f"key for {agent} is not hex: {exc}") from exc


class ClearingEngine:
    """One clearing store: submit intents, freeze the epoch, run, report."""

    def __init__(self, store: str | Path) -> None:
        self.store = Path(store)
        config_path = self.store / "config.json"
        if not config_path.exists():
            raise StateError(f"{self.store} is not an initialized store")
        self.config = _read_json(config_path, _parse_config)
        keys_path = self.store / "keys.jsonl"
        if not keys_path.exists():
            raise StateError(
                f"{self.store} has no keys.jsonl; stores that keep keys.json are not read"
            )
        self.registry = KeyRegistry()
        for n, obj in _read_log(keys_path):
            try:
                agent, key_hex = obj["agent"], obj["key"]
            except KeyError as exc:
                raise StateError(f"{keys_path}:{n}: not a key line") from exc
            self.registry.register(agent, _parse_key(agent, key_hex))
        self._pools: dict[int, EpochPool] = {}
        self._pool_files: dict[int, Path] = {}
        self.epoch, self.phase = _read_json(self.store / "state.json", _parse_state)
        self.ledger = _read_json(self.store / "ledger.json", Ledger.from_obj)

    # --- store lifecycle ---------------------------------------------------

    @classmethod
    def init(
        cls,
        store: str | Path,
        unit: str,
        currencies: dict[str, str] | None = None,
        default_source: str | None = None,
        quota_per_agent: int | None = None,
        opening_balances: dict[str, dict[str, int]] | None = None,
    ) -> "ClearingEngine":
        """Create a fresh store at a free path, an empty directory or an unfinished store.

        ``config.json`` is written last, so a failed ``init`` leaves a path
        that does not open as a store and that ``init`` takes again.
        """
        store = Path(store)
        if (store / "config.json").exists():
            raise StateError(f"{store} is already initialized")
        if store.exists() and not (
            store.is_dir()
            and all(p.name.removesuffix(".tmp") in _INIT_NAMES for p in store.iterdir())
        ):
            raise StateError(f"{store} exists and is not an empty directory or an unfinished store")
        config = {
            "unit": unit,
            "currencies": currencies or {},
            "default_source": default_source,
            "quota_per_agent": quota_per_agent,
        }
        # Refuse what the store could never open or settle before anything is written.
        if quota_per_agent is not None and quota_per_agent < 0:
            raise StateError(f"quota per agent must be >= 0, got {quota_per_agent}")
        pool = _config_pool(config)
        config["currencies"] = pool.currencies
        ledger = Ledger(balances=opening_balances or {})
        for agent, per_asset in sorted(ledger.balances.items()):
            for asset, amount in sorted(per_asset.items()):
                if amount < 0 and pool.issuer_of(asset) != agent:  # issuers may run negative
                    raise StateError(
                        f"opening balance of {agent} in {asset} is {amount}; "
                        f"only the issuer of {asset} may start negative"
                    )
        store.mkdir(parents=True, exist_ok=True)
        (store / "epochs" / "00000").mkdir(parents=True, exist_ok=True)
        _write_atomic(store / "keys.jsonl", "")
        _write_atomic(store / "state.json", canonical_dumps({"epoch": 0, "phase": PHASE_OPEN}))
        _write_atomic(store / "ledger.json", canonical_dumps(ledger.to_obj()))
        _write_atomic(store / "config.json", canonical_dumps(config))  # last: marks the store whole
        return cls(store)

    def register_key(self, agent: str, key_hex: str | None = None) -> str:
        """Add (or rotate) an agent's ascertainment key; returns the hex key."""
        if key_hex is None:
            key_hex = secrets.token_hex(32)
        key = _parse_key(agent, key_hex)
        _append_log(self.store / "keys.jsonl", canonical_dumps({"agent": agent, "key": key_hex}))
        self.registry.register(agent, key)
        return key_hex

    # --- paths and persistence ----------------------------------------------

    def _epoch_dir(self, epoch: int) -> Path:
        return self.store / "epochs" / f"{epoch:05d}"

    def _pool_path(self, epoch: int) -> Path:
        return self._epoch_dir(epoch) / "pool.jsonl"

    def _pool_file(self, epoch: int) -> Path:
        """The pool log of ``epoch``, its directory made on the first call only."""
        path = self._pool_files.get(epoch)
        if path is None:
            path = self._pool_path(epoch)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._pool_files[epoch] = path
        return path

    def _save_state(self) -> None:
        _write_atomic(
            self.store / "state.json",
            canonical_dumps({"epoch": self.epoch, "phase": self.phase}),
        )

    def _load_pool(self, epoch: int) -> EpochPool:
        pool = _config_pool(self.config, self.registry)
        path = self._pool_path(epoch)
        for n, obj in _read_log(path):
            if obj.keys() == {"cancel"}:  # a tombstone
                target = obj["cancel"]
                if not isinstance(target, str) or pool.get(target) is None:
                    raise StateError(f"{path}:{n}: cancels {target!r}, which is not pooled")
                pool.remove(target)
                continue
            system = bool(obj.pop("system", False))
            try:
                pool.add(intent_from_obj(obj), preverified=system)
            except (AmountError, IntentError, GraphBuildError) as exc:
                raise StateError(f"{path}:{n}: {exc}") from exc
        return pool

    def _pool(self, epoch: int) -> EpochPool:
        """The engine's in-memory pool of ``epoch``, read from disk on first use."""
        if epoch not in self._pools:
            self._pools[epoch] = self._load_pool(epoch)
        return self._pools[epoch]

    # --- intent intake -------------------------------------------------------

    def submit_intent(self, intent: Intent | dict) -> int:
        """Queue one intent; returns the epoch it will clear in.

        Intents submitted while the epoch is frozen go to the next epoch.
        A resubmitted id is accepted idempotently without changing the pool.
        """
        if not isinstance(intent, Intent):
            if isinstance(intent, dict) and "system" in intent:
                raise IntentError("the system marker is reserved")
            intent = intent_from_obj(intent)
        _refuse_reserved(intent.id)
        target = self.epoch if self.phase == PHASE_OPEN else self.epoch + 1
        for epoch in (self.epoch, self.epoch + 1):
            if self._pool(epoch).get(intent.id) is not None:
                return epoch
        pool = self._pool(target)
        quota = self.config.get("quota_per_agent")
        if quota is not None:
            party = bound_party(intent)
            held = pool.held_by(party)
            if held >= quota:
                raise QuotaExceeded(f"{party} already holds {held} intents in epoch {target}")
        if not pool.is_ascertained(intent):
            raise IntentError(f"intent {intent.id} is not ascertained")
        self._append_pool_line(target, intent_to_obj(intent))
        pool.add(intent)  # after the write, so a failed write leaves memory as the disk
        return target

    def submit_file(self, path: str | Path) -> dict[str, int]:
        """Submit a JSONL file of intents; returns {intent id: epoch}."""
        accepted: dict[str, int] = {}
        text = Path(path).read_text()
        for i, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IntentError(f"{path}:{i}: not valid JSON: {exc}") from exc
            try:
                accepted[obj.get("id", "?")] = self.submit_intent(obj)
            except SetoffError as exc:
                raise type(exc)(f"{path}:{i}: {exc}") from exc
        return accepted

    def _append_pool_line(self, epoch: int, obj: dict) -> None:
        _append_log(self._pool_file(epoch), canonical_dumps(obj))

    def cancel_intent(self, intent_id: str) -> bool:
        """Withdraw a pooled intent by appending a tombstone; only while the epoch is open."""
        if self.phase != PHASE_OPEN:
            raise StateError(f"epoch {self.epoch} is frozen; cancellation closed")
        _refuse_reserved(intent_id)
        pool = self._pool(self.epoch)  # every line is an intent or a tombstone, or a StateError
        if pool.get(intent_id) is None:
            return False
        self._append_pool_line(self.epoch, {"cancel": intent_id})
        pool.remove(intent_id)  # after the write, so a failed write leaves memory as the disk
        return True

    # --- epoch lifecycle -----------------------------------------------------

    def freeze(self) -> int:
        """Close the current epoch's pool; late intents queue for the next."""
        if self.phase != PHASE_OPEN:
            raise StateError(f"epoch {self.epoch} is already frozen")
        self._pool_file(self.epoch).touch()
        self.phase = PHASE_FROZEN
        self._save_state()
        return self.epoch

    def run(
        self,
        budget: int | None = None,
        seed: int | None = None,
        _flow_hook: Callable[[SettlementFlow], SettlementFlow] | None = None,
        _failpoint: Callable[[str], None] | None = None,
        _crash_after_wal: bool = False,
    ) -> dict:
        """Clear the frozen epoch: aggregate, solve, validate, settle, commit.

        On validation failure the epoch is recorded as failed, the ledger is
        untouched, and the next epoch opens. Any other fault leaves the epoch
        frozen and the store unchanged, so run can simply be retried. If a
        previous run crashed after writing its commit log, this replays it.
        """
        wal_path = self._epoch_dir(self.epoch) / "applied.json"
        if self.phase == PHASE_FROZEN and wal_path.exists():
            return self._commit_from_wal(_read_json(wal_path, _parse_wal))
        if self.phase != PHASE_FROZEN:
            raise StateError(f"epoch {self.epoch} is open; freeze it before running")

        epoch = self.epoch
        pool = self._pool(epoch)
        g = aggregate(pool)

        work = self.ledger.copy()
        for edge in g.edges.values():
            for ob_id in edge.obligations:
                work.open_obligations[ob_id] = pool.obligations[ob_id]

        flow, solution = solve_settleable(g, budget, work, epoch_id=epoch, seed=seed)
        if _flow_hook is not None:
            flow = _flow_hook(flow)

        report: dict = {
            "epoch": epoch,
            "budget": budget,
            "seed": seed,
            "unit": g.unit,
            "total_debt": g.total_debt(),
            "nid": compute_nid(g),
            "excluded": [list(item) for item in g.excluded],
        }
        wal = {"epoch": epoch, "flow": flow_to_obj(flow), "report": report}
        try:
            applied = apply_flow(work, flow, g, failpoint=_failpoint)
        except InvalidFlow as exc:
            report.update(
                status="failed",
                violations=[[v.check, list(v.ids), v.detail] for v in exc.report.violations],
            )
        else:
            report.update(
                status="applied",
                cleared_debt=applied.cleared_debt,
                residual_debt=g.total_debt() - applied.cleared_debt,
                liquidity_used=solution.liquidity_used,
                discharged=applied.discharged,
                new_obligations=[ob.id for ob in applied.new_obligations],
            )
            wal.update(
                ledger=work.to_obj(),
                notices_csv=notices_to_csv(applied.notices),
                enqueue=[dict(intent_to_obj(ob), system=True) for ob in applied.new_obligations],
            )
        wal["status"] = report["status"]
        _write_atomic(wal_path, canonical_dumps(wal))
        if _crash_after_wal:
            raise RuntimeError("crash requested after commit log write")
        return self._commit_from_wal(wal)

    def _commit_from_wal(self, wal: dict) -> dict:
        """Finish (or replay) a run from its commit log; idempotent."""
        epoch = wal["epoch"]
        epoch_dir = self._epoch_dir(epoch)
        _write_atomic(epoch_dir / "flow.json", canonical_dumps(wal["flow"]))
        _write_atomic(epoch_dir / "report.json", canonical_dumps(wal["report"]))
        if wal["status"] == "applied":
            _write_atomic(epoch_dir / "notices.csv", wal["notices_csv"])
            _write_atomic(self.store / "ledger.json", canonical_dumps(wal["ledger"]))
            self.ledger = Ledger.from_obj(wal["ledger"])
            next_pool = self._pool(epoch + 1)
            for obj in wal["enqueue"]:
                if next_pool.get(obj["id"]) is None:
                    self._append_pool_line(epoch + 1, obj)
                    next_pool.add(intent_from_obj(obj), preverified=True)
        self._pools.pop(epoch, None)
        self._pool_files.pop(epoch, None)
        self.epoch = epoch + 1
        self.phase = PHASE_OPEN
        self._pool_file(self.epoch).touch()
        self._save_state()
        return wal["report"]

    # --- inspection ------------------------------------------------------------

    def nid(self) -> dict:
        """NID and total debt of the current epoch's admitted obligations.

        They are the pool's running totals: the same numbers ``run`` reports
        from ``aggregate``, without folding the pool again.
        """
        nid, total_debt = self._pool(self.epoch).totals()
        return {"epoch": self.epoch, "nid": nid, "total_debt": total_debt}

    def report(self, epoch: int | None = None) -> dict:
        if epoch is None:
            epoch = self.epoch - 1
        path = self._epoch_dir(epoch) / "report.json"
        if epoch < 0 or not path.exists():
            raise StateError(f"epoch {epoch} has no report")
        return json.loads(path.read_text())

    def flow(self, epoch: int) -> SettlementFlow:
        path = self._epoch_dir(epoch) / "flow.json"
        if not path.exists():
            raise StateError(f"epoch {epoch} has no flow")
        return flow_from_obj(json.loads(path.read_text()))
