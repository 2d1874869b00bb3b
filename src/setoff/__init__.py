"""Multilateral debt clearing: set-off cycles, fund chains, settle atomically.

The core pipeline:

    pool = EpochPool(...); pool.add(intent); ...
    g = aggregate(pool)
    flow, solution = solve_settleable(g, budget=..., ledger=ledger)
    applied = apply_flow(ledger, flow, g)  # validates; raises InvalidFlow

`ClearingEngine` wraps the pipeline in a persistent, crash-safe epoch state
machine; `experiments` generates synthetic graphs and liquidity multiplier
curves.
"""

from .errors import (
    AmountError,
    GraphBuildError,
    IntentError,
    InvalidFlow,
    QuotaExceeded,
    SetoffError,
    SettlementError,
    StateError,
)
from .model import (
    Acceptance,
    AcceptanceKind,
    AgentId,
    KeyRegistry,
    Ledger,
    NoticeEntry,
    Obligation,
    SetOffNotice,
    SettlementFlow,
    SettlementRecord,
    Tender,
    TenderKind,
    Transfer,
    ascertain,
    bound_party,
    flow_from_obj,
    flow_to_obj,
    intent_from_obj,
    intent_to_obj,
    verify_ascertainment,
)
from .graph import (
    AggregatedEdge,
    EpochPool,
    NetPosition,
    ObligationGraph,
    aggregate,
    build_network,
    compute_nid,
    net_positions,
)
from .solver import (
    FlowSolution,
    cancel_cycles,
    solve_network,
    solve_settleable,
)
from .validate import ValidationReport, Violation, is_valid_flow
from .settle import (
    AppliedEpoch,
    apply_flow,
    emit_notices,
    notices_to_csv,
    verify_notices,
)
from .engine import ClearingEngine
from .experiments import (
    MultiplierPoint,
    SyntheticGraphConfig,
    attach_default_liquidity,
    curve_to_csv,
    generate,
    multiplier_curve,
)
from . import kernel

__version__ = "0.1.0"

__all__ = [
    "Acceptance",
    "AcceptanceKind",
    "AgentId",
    "AggregatedEdge",
    "AmountError",
    "AppliedEpoch",
    "ClearingEngine",
    "EpochPool",
    "FlowSolution",
    "GraphBuildError",
    "IntentError",
    "InvalidFlow",
    "KeyRegistry",
    "Ledger",
    "MultiplierPoint",
    "NetPosition",
    "NoticeEntry",
    "Obligation",
    "ObligationGraph",
    "QuotaExceeded",
    "SetOffNotice",
    "SetoffError",
    "SettlementError",
    "SettlementFlow",
    "SettlementRecord",
    "StateError",
    "SyntheticGraphConfig",
    "Tender",
    "TenderKind",
    "Transfer",
    "ValidationReport",
    "Violation",
    "aggregate",
    "apply_flow",
    "ascertain",
    "attach_default_liquidity",
    "bound_party",
    "build_network",
    "cancel_cycles",
    "compute_nid",
    "curve_to_csv",
    "emit_notices",
    "flow_from_obj",
    "flow_to_obj",
    "generate",
    "intent_from_obj",
    "intent_to_obj",
    "is_valid_flow",
    "kernel",
    "multiplier_curve",
    "net_positions",
    "notices_to_csv",
    "solve_network",
    "solve_settleable",
    "verify_ascertainment",
    "verify_notices",
]
