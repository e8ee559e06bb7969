"""Exception hierarchy shared by all fsl modules."""


class FSLError(Exception):
    """Base class for all errors raised by this package."""


class NonUnitNorm(FSLError):
    """Input vector or grid function is not normalized."""


class NonPowerOfTwoLength(FSLError):
    """Vector length must be an exact power of two."""


class NotUnitary(FSLError):
    """Matrix fails the unitarity check."""


class EmptyWindow(FSLError):
    """Truncation window captures no spectral mass."""


class DegenerateWindow(FSLError):
    """Infidelity bound degenerates (window reaches the Nyquist frequency)."""


class InsufficientPoints(FSLError):
    """Too few usable points for a least-squares fit."""


class DimensionMismatch(FSLError):
    """Operands have incompatible dimensions."""


class NotADistribution(FSLError):
    """Vector is not a valid probability distribution."""


class CapacityExceeded(FSLError):
    """Request exceeds the configured simulator capacity."""


class UnknownFunction(FSLError):
    """Requested name is not in the builtin function catalog."""


class NegativeUnderSqrt(FSLError):
    """sqrt-mode sampling hit a significantly negative function value."""


class InvalidImage(FSLError):
    """Image fails the FRQI input requirements."""


class ExpressionError(FSLError):
    """Expression-mode function string could not be parsed or evaluated."""
