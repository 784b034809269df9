"""Exception types shared across the library."""


class NormClustError(Exception):
    """Base class for all library errors."""


class NotSymmetric(NormClustError):
    """Unit-ball descriptor is not centrally symmetric."""


class NotConvex(NormClustError):
    """Unit-ball descriptor is not convex."""


class OriginNotInterior(NormClustError):
    """Origin is not strictly inside the unit ball."""


class DegenerateBody(NormClustError):
    """Unit ball has empty interior or invalid parameters."""


class ZeroDirection(NormClustError):
    pass


class EmptyInput(NormClustError):
    pass


class TooFewPoints(NormClustError):
    pass


class NonFinitePoint(NormClustError):
    """A point coordinate is NaN or infinite."""


class NonFiniteResult(NormClustError):
    """A result of finite points overflows a float."""


class EmptyCluster(NormClustError):
    pass


class NoOverlap(NormClustError):
    """Hulls are disjoint or nested; no boundary crossings to decompose."""


class TooFarApart(NormClustError):
    """Two points exceed distance 2d; no radius-d ball contains both."""


class NoBallContainsS(NormClustError):
    """No ball of the requested radius contains the whole point set."""


class NotPresent(NormClustError):
    pass


class BadBounds(NormClustError):
    pass


class DegenerateBasis(NormClustError):
    pass


class BudgetExceeded(NormClustError):
    pass


class Undecidable(NormClustError):
    """Oracle refinement exhausted its budget inside the tolerance band."""


class VerificationFailed(NormClustError):
    """A result failed the CLI's --verify re-check."""
