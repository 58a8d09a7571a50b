"""Exception hierarchy."""


class SixjError(Exception):
    """Base class for all domain errors raised by this package."""


class AdmissibilityError(SixjError, ValueError):
    """A sextuple or triangle record fails an admissibility condition."""


class TriangleViolation(AdmissibilityError):
    """A triangular inequality fails (some quadrangle minus triangle sum is negative)."""


class IntegralityViolation(AdmissibilityError):
    """A doubled spin recovered from triangle data is not a non-negative integer,
    or an SU(2) triangle perimeter is not an integer."""


class ParityViolation(AdmissibilityError):
    """The count of integer triangle sums is odd (1 or 3), which no half-integer
    spin assignment can produce; only 0, 2 or 4 are admissible."""


class NonEuclideanError(SixjError):
    """The six edge lengths do not embed as a non-degenerate Euclidean tetrahedron."""


class KParityError(SixjError):
    """A per-parity asymptotic formula was asked for at a k where k*s has another parity."""


class InsufficientExtremaError(SixjError):
    """Fewer than three local maxima are available for an envelope fit."""
