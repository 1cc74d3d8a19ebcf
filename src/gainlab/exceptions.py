"""Exception hierarchy shared across the package."""

__all__ = [
    "GainlabError",
    "DimensionError",
    "NotHurwitzError",
    "LyapunovSolveError",
    "SimulationError",
    "ConsistencyError",
]


class GainlabError(Exception):
    """Base class for all errors raised by gainlab."""


class DimensionError(GainlabError, ValueError):
    """Operands have incompatible or invalid shapes."""


class NotHurwitzError(GainlabError, ValueError):
    """A system matrix that must be Hurwitz is not."""


class LyapunovSolveError(GainlabError, ArithmeticError):
    """The Lyapunov equation has no (numerically usable) solution."""


class SimulationError(GainlabError, RuntimeError):
    """State integration produced non-finite values."""


class ConsistencyError(GainlabError, RuntimeError):
    """Computed estimates violate an internal ordering guarantee."""
