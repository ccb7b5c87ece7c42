"""Exception and warning types shared across the package."""


class IfsLabError(Exception):
    """Base class for all package errors."""


class NoConvergence(IfsLabError):
    """Newton iteration did not reach the residual tolerance."""


class DerivativeVanished(IfsLabError):
    """A derivative needed as a divisor is numerically zero."""


class PoleAtUnity(IfsLabError):
    """Closed-form series evaluation requested at a pole of 1/(1 - z^p)."""


class ZerosInPeriod(IfsLabError):
    """A zero coefficient occurs inside the periodic block, so the overlap
    set is not a finite point set."""


class LevelTooDeep(IfsLabError):
    """Requested instar level / sample depth exceeds the resource guard."""


class InvalidLambda(IfsLabError):
    """Parameter outside the punctured open unit disk."""


class EnumerationTooLarge(IfsLabError):
    """Separation-condition enumeration would exceed the index guard."""


class BadIndices(IfsLabError):
    """Weakened-condition index set violates 2 <= m <= p or ordering."""


class NotARoot(IfsLabError):
    """The supplied parameter is not (numerically) a root of the series."""


class UnknownLandmark(IfsLabError):
    """Landmark id that names no landmark fixture."""


class ScaleUnderflow(IfsLabError):
    """lambda^(ell+1), the divisor of every chain quantity, is subnormal or 0."""


class ParseError(IfsLabError):
    """Malformed textual series or CLI value."""


class HypothesisViolated(UserWarning):
    """Certificate hypotheses (non-real parameter, modulus <= 2**-0.5) do not
    hold; computation proceeds but the verdict may be meaningless."""
