"""Exception types shared across the package."""


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
    """A dense n x n route was asked for an order past its fixed budget."""
