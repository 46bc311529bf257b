"""Exception hierarchy shared by all modules."""


class PTDilateError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PTDilateError, ValueError):
    """Malformed input: bad parameters, bad configuration, bad state."""


class DomainError(PTDilateError, ValueError):
    """Argument lies outside the supported domain of an operation."""


class OverflowRangeError(PTDilateError, OverflowError):
    """Result (or a required intermediate) exceeds double range."""


class InvalidMetricError(PTDilateError, ValueError):
    """Metric eigenvalue below one where a valid dilation is required."""


class NearBreakdownError(PTDilateError, ValueError):
    """Quantity is not reliable this close to the breakdown threshold."""


class DegenerateDenominatorError(PTDilateError, ZeroDivisionError):
    """Denominator of a bound formula is not positive."""


class BreakdownError(PTDilateError, RuntimeError):
    """Dilation breaks down inside the requested time span."""

    def __init__(self, message, breakdown_time=None):
        super().__init__(message)
        self.breakdown_time = breakdown_time


class IntegrationError(PTDilateError, RuntimeError):
    """The ODE integrator failed (step underflow, non-finite generator)."""
