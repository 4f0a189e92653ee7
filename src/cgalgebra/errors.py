"""Exception taxonomy shared by all modules."""

from __future__ import annotations


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


class FloatOverflow(AlgebraError):
    """An exact scalar is too large for the complex floats of the numerical layer."""


class CutoffTooSmall(AlgebraError):
    """A Fock-space operation would touch the truncation boundary."""


class CheckFailed(AlgebraError):
    """A symbolic identity check failed; carries the residual."""
