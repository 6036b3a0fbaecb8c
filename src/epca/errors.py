"""Exception types shared across the package."""


class EpcaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EpcaError):
    """Input values are outside the documented domain (NaN/Inf, negative loss, ...)."""


class DimensionError(EpcaError):
    """Shapes, ranks, or lengths are inconsistent with the requested operation."""


class InvariantError(EpcaError):
    """A value object violates one of its documented invariants."""


class InternalInvariantError(EpcaError):
    """An internal self-check failed (e.g. an objective that must descend went up)."""


class IngestionError(EpcaError):
    """A data file could not be parsed; the message carries the offending location."""
