"""Exception taxonomy shared by all modules, and the argument readers :func:`integer`,
:func:`rational` and :func:`pair`."""

from __future__ import annotations

from fractions import Fraction
from operator import index


class AlgebraError(Exception):
    """Base class for every error raised by this package; ``residual`` is the
    offending remainder where there is one."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class ZeroSubstitution(AlgebraError):
    """gamma = 0 was substituted into a coefficient with a gamma pole."""


class SingularLimit(AlgebraError):
    """The gamma -> 0 limit does not exist (negative gamma power present)."""


class NonTerminatingSeries(AlgebraError):
    """An ad-series similarity transform did not terminate within max_depth."""


class UnsupportedShape(AlgebraError):
    """An input lies outside the shapes the operator class can express
    (an ad_H eigenvalue with a non-integer multiple of w cannot be a phase)."""


class BadArity(AlgebraError):
    """Vector lengths inconsistent with the requested half-integer rank."""


class NotInIdeal(AlgebraError):
    """A candidate operator is not a function multiple of the target operator."""


class NonQuadratic(AlgebraError):
    """The Hamiltonian does not preserve the degree <= 2 filtration."""


class NotClosed(AlgebraError):
    """A set of generators does not close under commutation."""

    def __init__(self, message: str, pair=None, residual=None):
        super().__init__(message, residual)
        self.pair = pair


class DegenerateModes(AlgebraError):
    """The adjoint action has colliding eigenvalues (a resonance): no mode basis or decoupling map."""


class NotDivisible(AlgebraError, ValueError):
    """An exact division has a remainder: the dividend is not a ring multiple of the divisor."""


class ZeroDivisor(AlgebraError, ZeroDivisionError):
    """An exact division by the zero coefficient."""


class NegativeOmegaPower(AlgebraError, ValueError):
    """A coefficient term with a negative power of the frequency w, which the ring does not hold."""


class ComplexFrequency(AlgebraError, ValueError):
    """A frequency with an imaginary part, which no phase of the real lattice Q + Z*w can take."""


class NotScalar(AlgebraError, ValueError):
    """A coefficient with a g or w term where a scalar of Q(i) is needed."""


class NotExact(AlgebraError, TypeError):
    """A value that is not an exact scalar (an int, a Fraction or an (re, im) pair of those)."""


class ParseError(AlgebraError, ValueError):
    """Text that is not the canonical printed form of a coefficient or an operator."""


def excerpt(text: str) -> str:
    """``repr(text)`` for a short text; for a longer one, the first 60 characters
    of its repr and the text's length, so that a message quoting it stays bounded."""
    quoted = repr(text[:61])
    if len(quoted) <= 62:
        return quoted
    return f"{quoted[:60]}... ({len(text)} characters)"


class ZeroPolynomial(AlgebraError, ValueError):
    """The zero polynomial, which vanishes everywhere: it has no finite list of roots."""


class NotCritical(AlgebraError, ValueError):
    """A frequency other than the critical ones, 1 and 3, where the enhanced generators live."""


class UnknownName(AlgebraError, KeyError):
    """A name outside a fixed catalog of closed forms."""


class FloatOverflow(AlgebraError):
    """An exact scalar is too large for the complex floats of the numerical layer."""


class CutoffTooSmall(AlgebraError):
    """A Fock-space operation would touch the truncation boundary."""


class CheckFailed(AlgebraError):
    """A symbolic identity check failed; carries the residual."""


def integer(value, what: str, least=None) -> int:
    """``value`` as an int, read by ``operator.index``: a value that is not an
    integer, or is below ``least``, raises :class:`UnsupportedShape` naming ``what``."""
    try:
        out = index(value)
    except TypeError:
        out = None
    if out is None or least is not None and out < least:
        raise UnsupportedShape(f"{what} must be an integer{'' if least is None else f' >= {least}'}, got {value!r}")
    return out


def rational(value, what: str) -> Fraction:
    """``value`` as a Fraction, read by ``fractions.Fraction`` (an int, a Fraction, a
    float, a numeral text such as ``'3/2'``): a value it cannot read raises
    :class:`UnsupportedShape` naming ``what``."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise UnsupportedShape(f"{what} must be a rational number, got {value!r}") from None


def pair(value, what: str) -> tuple:
    """The two items of ``value`` as a tuple: anything that does not unpack into
    exactly two raises :class:`UnsupportedShape` naming ``what``."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise UnsupportedShape(f"{what} must be a pair, got {value!r}") from None
    return first, second
