"""Exception types shared across the package."""

__all__ = [
    "CircnormError",
    "UnsupportedSequence",
    "NegativeEntry",
    "DimensionMismatch",
    "PrecisionLoss",
    "DenseBudgetExceeded",
]


class CircnormError(Exception):
    """Base class for every error raised by this package."""


class UnsupportedSequence(CircnormError):
    """A closed-form operation was asked of a sequence that has none."""


class NegativeEntry(CircnormError):
    """A circulant first row contained a negative entry."""


class DimensionMismatch(CircnormError):
    """Vector length does not match the matrix order."""


class PrecisionLoss(CircnormError):
    """Integer data too large to survive conversion to float64."""


class DenseBudgetExceeded(CircnormError):
    """An order past the power route's limit, which keeps n * max**2 < 2**61 and O(n**2) time."""
