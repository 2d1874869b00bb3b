"""Exception hierarchy shared across the package."""


class SetoffError(Exception):
    """Base class for all package-specific errors."""


class AmountError(SetoffError):
    """Amount is negative, non-integer, or would overflow the checked range."""


class IntentError(SetoffError):
    """An intent (obligation, acceptance, tender) is malformed."""


class GraphBuildError(SetoffError):
    """The intent pool cannot be aggregated into an obligation graph."""


class NetworkBuildError(SetoffError):
    """The obligation graph cannot be lowered to a flow network."""


class SettlementError(SetoffError):
    """A settlement flow was refused; the ledger is untouched."""


class InvalidFlow(SettlementError):
    """A settlement flow failed validation; ``report`` lists the violations."""

    def __init__(self, report) -> None:
        super().__init__("flow failed validation: " + "; ".join(map(str, report.violations)))
        self.report = report


class StateError(SetoffError):
    """An epoch operation was attempted in the wrong lifecycle state."""


class QuotaExceeded(SetoffError):
    """An agent exceeded its configured per-epoch intent quota."""


class OracleBoundError(SetoffError):
    """An instance is too large for exhaustive search; the oracle refuses."""
