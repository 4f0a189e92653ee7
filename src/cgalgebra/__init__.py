"""Exact operator algebra and spectral checks for conformal Galilei
invariant Schroedinger equations.

Subpackages: ring (exact scalars), weyl (normal-ordered operators),
realizations (generator catalogs), invariance (on-shell checks, symmetry
finder, contraction), fock (ladder-operator and truncated-matrix layer),
cli (verification suites).
"""

from .ring import Coefficient
from .weyl import (
    Monomial,
    Wavefunction,
    WeylOp,
    anticommutator,
    apply,
    commutator,
    multiply,
    parse_op,
    print_op,
    similarity,
)

__all__ = [
    "Coefficient",
    "Monomial",
    "Wavefunction",
    "WeylOp",
    "anticommutator",
    "apply",
    "commutator",
    "multiply",
    "parse_op",
    "print_op",
    "similarity",
]

__version__ = "0.1.0"
