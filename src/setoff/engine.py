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
intact or leaves a complete commit log that the next ``run`` replays. A
commit log of another epoch than the frozen one, with a status other than
applied or failed, or of an applied epoch without its ledger or notices, is
a ``StateError`` naming it, raised before any write. After each epoch,
applied or failed, every repayment obligation (an ``ob:od:`` id) still open
in the ledger re-enters the next epoch's pool at its open amount. The
store has a single writer, because an engine reads each store file once and
then keeps the open pools and the keys in memory; concurrent readers see
complete snapshots. Nothing enforces the single writer yet: a second engine
opens the same store without an error (ROADMAP.md, item 2).
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


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_dumps(obj) -> str:
    return _CANONICAL.encode(obj) + "\n"


def _write_atomic(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data, encoding="utf-8")
    os.replace(tmp, path)


def _read_text(path: Path) -> str:
    """The UTF-8 text of a file; one that cannot be read or decoded is a StateError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise StateError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _read_log(path: Path) -> list[tuple[int, dict]]:
    """(line number, object) per complete line of a JSONL log; a torn tail is skipped."""
    if not path.exists():
        return []
    lines = _read_text(path).split("\n")
    lines.pop()  # empty after the last newline, or a torn append
    objs = []
    for n, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
            raise StateError(f"{path}:{n}: not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise StateError(f"{path}:{n}: not a JSON object")
        objs.append((n, obj))
    return objs


def _read_json(path: Path, parse: Callable):
    """``parse`` of one JSON file.

    A file that is missing, does not parse as JSON, or that ``parse``
    refuses, is a ``StateError`` naming the file.
    """
    text = _read_text(path)
    try:
        return parse(json.loads(text))
    except (ValueError, LookupError, TypeError, AttributeError, SetoffError) as exc:
        raise StateError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _parse_state(obj) -> tuple[int, str]:
    epoch, phase = obj["epoch"], obj["phase"]
    if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
        raise ValueError(f"epoch {epoch!r} is not an epoch number")
    if phase not in (PHASE_OPEN, PHASE_FROZEN):
        raise ValueError(f"phase {phase!r} is neither {PHASE_OPEN} nor {PHASE_FROZEN}")
    return epoch, phase


def _check_quota(quota) -> None:
    """A quota per agent is None or a non-negative int; a bool is not one."""
    if quota is None:
        return
    if not isinstance(quota, int) or isinstance(quota, bool):
        raise StateError(f"quota per agent must be an integer or None, got {quota!r}")
    if quota < 0:
        raise StateError(f"quota per agent must be >= 0, got {quota}")


def _parse_config(obj) -> dict:
    _config_pool(obj)  # refuses a config missing a key, or one the pool refuses
    _check_quota(obj.get("quota_per_agent"))
    return obj


def _parse_report(obj) -> dict:
    if not {"epoch", "status"} <= obj.keys():
        raise ValueError("not a whole report")
    return obj


def _parse_wal(obj, epoch: int) -> dict:
    """A commit log of the frozen ``epoch``, whole enough to replay."""
    if not {"epoch", "flow", "report", "status"} <= obj.keys():
        raise ValueError("not a whole commit log")
    if type(obj["epoch"]) is not int or obj["epoch"] != epoch:
        raise ValueError(f"epoch {obj['epoch']!r} is not the frozen epoch {epoch}")
    if obj["status"] not in ("applied", "failed"):
        raise ValueError(f"status {obj['status']!r} is neither applied nor failed")
    if obj["status"] == "applied":  # an applied epoch carries its settlement
        Ledger.from_obj(obj["ledger"])
        if not isinstance(obj["notices_csv"], str):
            raise ValueError("notices_csv is not text")
    return obj


_APPEND_FLAGS = os.O_RDWR | os.O_APPEND | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _append_log(path: Path, line: str) -> None:
    """Append one newline-terminated line, first truncating a torn tail.

    One unbuffered descriptor, closed before the call returns. When the tail
    is whole only its last byte is read; a torn tail is found by reading the
    whole file and cut off. ``O_APPEND`` puts the write at the end.
    """
    fd = os.open(path, _APPEND_FLAGS, 0o666)
    try:
        end = os.lseek(fd, 0, os.SEEK_END)
        if end:
            os.lseek(fd, end - 1, os.SEEK_SET)
            if os.read(fd, 1) != b"\n":
                os.lseek(fd, 0, os.SEEK_SET)
                whole = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
                os.ftruncate(fd, whole.rfind(b"\n") + 1)
        data = memoryview(line.encode("utf-8"))
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


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
    """The key bytes of one registration; an empty agent id or an empty key is refused."""
    if not isinstance(agent, str) or not agent:
        raise StateError(f"agent id {agent!r} is not a non-empty string")
    try:
        key = bytes.fromhex(key_hex)
    except (TypeError, ValueError) as exc:
        raise StateError(f"key for {agent} is not hex: {exc}") from exc
    if not key:
        raise StateError(f"key for {agent} is empty")
    return key


class ClearingEngine:
    """One clearing store: submit intents, freeze the epoch, run, report."""

    def __init__(self, store: str | Path) -> None:
        self.store = Path(store)
        config_path = self.store / "config.json"
        if not config_path.exists():
            raise StateError(f"{self.store} is not an initialized store")
        self.config = _read_json(config_path, _parse_config)
        self._keys_path = self.store / "keys.jsonl"
        if not self._keys_path.exists():
            raise StateError(
                f"{self.store} has no keys.jsonl; stores that keep keys.json are not read"
            )
        self.registry = KeyRegistry()
        for n, obj in _read_log(self._keys_path):
            try:
                self.registry.register(obj["agent"], _parse_key(obj["agent"], obj["key"]))
            except KeyError as exc:
                raise StateError(f"{self._keys_path}:{n}: not a key line") from exc
            except StateError as exc:
                raise StateError(f"{self._keys_path}:{n}: {exc}") from exc
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
        _check_quota(quota_per_agent)
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
        _append_log(self._keys_path, canonical_dumps({"agent": agent, "key": key_hex}))
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
            try:  # only the engine writes the reserved repayment ids: trust them
                intent = intent_from_obj(obj)
                pool.add(intent, preverified=intent.id.startswith(NEW_OBLIGATION_PREFIX))
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
        text = _read_text(Path(path))
        for i, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
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

    def run(self, budget: int | None = None, seed: int | None = None) -> dict:
        """Clear the frozen epoch: aggregate, solve, validate, settle, commit.

        On validation failure the epoch is recorded as failed, the ledger is
        untouched, and the next epoch opens. Any other fault leaves the epoch
        frozen and the store unchanged, so run can simply be retried. If a
        previous run crashed after writing its commit log, this replays it.
        """
        wal_path = self._epoch_dir(self.epoch) / "applied.json"
        if self.phase == PHASE_FROZEN and wal_path.exists():
            wal = _read_json(wal_path, lambda obj: _parse_wal(obj, self.epoch))
            return self._commit_from_wal(wal)
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
            applied = apply_flow(work, flow, g)
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
            wal.update(ledger=work.to_obj(), notices_csv=notices_to_csv(applied.notices))
        wal["status"] = report["status"]
        _write_atomic(wal_path, canonical_dumps(wal))
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
        # Every open repayment, new or left over, clears again in the next epoch.
        next_pool = self._pool(epoch + 1)
        for ob_id, ob in sorted(self.ledger.open_obligations.items()):
            if ob_id.startswith(NEW_OBLIGATION_PREFIX) and next_pool.get(ob_id) is None:
                self._append_pool_line(epoch + 1, intent_to_obj(ob))
                next_pool.add(ob, preverified=True)
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
        return _read_json(path, _parse_report)

    def flow(self, epoch: int) -> SettlementFlow:
        path = self._epoch_dir(epoch) / "flow.json"
        if not path.exists():
            raise StateError(f"epoch {epoch} has no flow")
        return _read_json(path, flow_from_obj)
