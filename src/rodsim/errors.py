"""Exception hierarchy shared across the package."""


class RodSimError(Exception):
    """Base class for all package errors."""


class InputError(RodSimError, ValueError):
    """Malformed user input: bad shapes, bad config values, bad frames."""


class SizeError(InputError):
    """A field or grid is too small for the requested operation."""


class DomainError(InputError):
    """Evaluation outside the domain of a sampled function."""


class NumericalError(RodSimError, ArithmeticError):
    """Base class for runtime numerical failures (exit code 1 territory)."""


class SingularSystemError(NumericalError):
    """Linear system has a (near-)singular pivot."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class DivergenceError(NumericalError):
    """An ODE march or a boundary-trace fit produced non-finite values."""


class DegeneracyError(NumericalError):
    """A denominator of the closed-form solution family became too small."""


class OutOfRangeError(NumericalError):
    """Requested time is outside the reachable range of the family."""


class InstabilityError(NumericalError):
    """A simulation blew up (non-finite state or unbounded energy)."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ConfigurationError(InputError):
    """Scenario or boundary configuration is inconsistent."""
