"""Exception hierarchy shared across the package."""


class PuffercalError(Exception):
    """Base class for all errors raised by this package; unless a SolverFailure,
    the input is wrong."""


class SolverFailure(PuffercalError):
    """No answer was found for a valid input."""


class EmptySample(PuffercalError):
    """An empirical distribution was requested from zero samples."""


class InvalidValue(PuffercalError):
    """An input violates a structural invariant (non-finite, wrong order, ...)."""


class NonNormalizable(SolverFailure):
    """An exponential-mechanism cost whose density cannot be normalized."""


class NoRoot(SolverFailure):
    """Bracket expansion failed to enclose a root."""


class NotMonotone(SolverFailure):
    """The function handed to the monotone solver is not decreasing."""


class NonInvertibleRate(SolverFailure):
    """The exponential-mechanism rate map is not strictly decreasing/invertible."""


class IoError(PuffercalError):
    """A data file could not be read."""


class ParseError(PuffercalError):
    """A data file is malformed; the message names the offending location."""


class UnknownCategory(PuffercalError):
    """A categorical value has no numeric coding."""


class EmptyConditional(PuffercalError):
    """No rows matched the requested secret value."""


class IntegrationFailure(SolverFailure):
    """Adaptive quadrature failed to converge."""


class InfeasibleEvenAtInfinity(SolverFailure):
    """Internal consistency guard: the sub-unit-order condition cannot hold."""
