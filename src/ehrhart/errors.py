"""Exception types shared across the package."""


class EhrhartError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(EhrhartError):
    """No points were supplied where at least one is required."""


class DimensionMismatch(EhrhartError):
    """A point or vector has the wrong number of coordinates."""


class DimensionDeficient(EhrhartError):
    """The affine hull of the input is smaller than the ambient space."""


class AmbientDimensionCap(EhrhartError):
    """Ambient dimension exceeds the fixed cap ``geometry.MAX_DIM``
    (exhaustive algorithms blow up beyond desk scale)."""


class OriginNotInterior(EhrhartError):
    """The origin is not strictly interior, so the polar dual is unbounded."""


class BudgetExceeded(EhrhartError):
    """The bounding box of the requested enumeration is too large."""


class GenerationExhausted(EhrhartError):
    """Rejection sampling failed to produce a valid instance in the
    allotted number of attempts."""


class InternalInconsistency(EhrhartError):
    """Two independent computations of the same quantity disagree."""


class ParseError(EhrhartError):
    """Input text does not conform to the polytope JSON format."""
