"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic ValueError is reserved for plain bad arguments.
"""


class SyncOpfError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SyncOpfError):
    """Raised when an input file cannot be decoded or is missing fields."""


class ValidationError(SyncOpfError):
    """Raised when parsed data violates a model invariant."""


class DisconnectedGraphError(ValidationError):
    """The line set does not connect all buses."""


class NonPositiveSusceptanceError(ValidationError):
    """A line was given beta <= 0."""


class DimensionMismatchError(ValidationError):
    """Vector or matrix arguments have inconsistent shapes."""


class UnbalancedInjectionsError(SyncOpfError):
    """An injection vector does not sum to zero within tolerance."""


class DomainError(SyncOpfError):
    """An argument lies outside the mathematical domain of a function."""


class InfeasibleError(SyncOpfError):
    """An optimization problem has an empty feasible set."""


class IterLimitError(SyncOpfError):
    """An iterative method hit its iteration cap before converging."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class NoConvergenceError(SyncOpfError):
    """A nonlinear solve failed to reach the requested residual."""


class BarrierDivergenceError(SyncOpfError):
    """The barrier objective exceeded its divergence ceiling."""


class NumericalBreakdownError(SyncOpfError):
    """Linear algebra failed in a way that invalidates the result."""


class ZeroVarianceError(SyncOpfError):
    """A fluctuation problem was posed with no wind variance on the
    coefficients that matter, so the instanton energy is undefined."""
