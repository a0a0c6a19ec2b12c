"""Exception types shared across the package."""


class BilevelError(Exception):
    """Base class for all package errors."""


class DimensionError(BilevelError):
    """Grid/shape mismatch between operands."""


class DivergenceError(BilevelError):
    """Lower-level iteration produced a non-finite cost.

    ``row`` is the stacked sample that diverged, or None for an unstacked
    solve.
    """

    def __init__(self, message, iteration=None, row=None):
        super().__init__(message)
        self.iteration = iteration
        self.row = row


class SpdViolationError(BilevelError):
    """CG detected a direction of non-positive (or NaN) curvature.

    ``row`` is the stacked sample whose system CG solved, or None.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class StepTooLargeError(BilevelError):
    """Upper-level loss increased repeatedly at a constant step size."""


class ConfigError(BilevelError):
    """Invalid or unknown experiment configuration entry."""


class FormatError(BilevelError):
    """Malformed signal or parameter file."""
