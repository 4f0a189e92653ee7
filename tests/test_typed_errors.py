"""Exponents, indices, cutoffs, mode pairs, phases, names and matrix shapes
outside what a routine can take raise a typed error, never a bare Python or
numpy one."""

from fractions import Fraction

import numpy as np
import pytest

from cgalgebra import fock, invariance, realizations
from cgalgebra.errors import UnknownName, UnsupportedShape
from cgalgebra.linalg import charpoly, det
from cgalgebra.realizations import GeneratorTable, realization_osc
from cgalgebra.ring import I, Coefficient
from cgalgebra.weyl import Monomial, WeylOp

NAN, INF = float("nan"), float("inf")
OMEGA_GENERIC = WeylOp.dt().scale(I) - realizations.theta_family(None, 0, 0)
X0, X1 = WeylOp.coord(0), WeylOp.coord(1)

# (id, a call that must raise UnsupportedShape, an AlgebraError)
EDGES = [
    ("t-power-1.5", lambda: WeylOp.t(1.5)),
    ("phase-n-0.5", lambda: WeylOp.phase(1, 0.5)),
    ("dt-power-0.5", lambda: Monomial.make(dt_pow=0.5)),
    ("x-power-1.5", lambda: Monomial.make(x_pows=(1.5,))),
    ("d-power-str", lambda: Monomial.make(d_pows=("1",))),
    ("g-exponent-1.5", lambda: Coefficient.monomial(1, 1.5, 0)),
    ("w-exponent-0.5", lambda: Coefficient.monomial(1, 0, 0.5)),
    ("key-exponent-0.5", lambda: Coefficient({(0.5, 0): 1})),
    ("coord-minus-1", lambda: WeylOp.coord(-1)),
    ("deriv-1.5", lambda: WeylOp.deriv(1.5)),
    ("det-non-square", lambda: det([[1, 2]])),
    ("det-ragged", lambda: det([[1, 2], [1]])),
    ("charpoly-non-square", lambda: charpoly([[1, 2]])),
    ("spectrum-2x3", lambda: fock.spectrum(np.ones((2, 3)))),
    ("spectrum-1d", lambda: fock.spectrum(np.ones(3))),
    ("spectrum-0x0", lambda: fock.spectrum(np.zeros((0, 0)))),
    ("spectrum-nan", lambda: fock.spectrum(np.array([[1, NAN], [0, 1]]))),
    ("spectrum-inf", lambda: fock.spectrum(np.array([[INF, 0], [1, 1]]))),
    ("k-matrix-cutoff-2.5", lambda: fock.k_matrix(0.5, 2.5, 2)),
    ("eigenstate-matrix-cutoff-2.5", lambda: fock.eigenstate_matrix(0.5, 2.5, 2)),
    ("k-ladder-three-modes", lambda: fock.k_ladder(0.5, (1, 3, 5))),
    ("mode-solver-three-modes", lambda: fock.mode_solver(0.5, (1, 3, 5))),
    ("eigenstate-three-modes", lambda: fock.eigenstate(1, 1, 0.5, modes=(1, 3, 5))),
    ("eigenstate-one-mode", lambda: fock.eigenstate(1, 1, 0.5, (1,))),
    ("eigenstate-matrix-one-mode", lambda: fock.eigenstate_matrix(0.5, 2, 2, (1,))),
    ("k-matrix-modes-int", lambda: fock.k_matrix(0.5, 2, 2, 5)),
    ("mode-solver-modes-int", lambda: fock.mode_solver(0.5, 5)),
    ("n-ladder-three-modes", lambda: fock.n_ladder(0.5, (1, 2, 3))),
    ("x-powers-not-a-sequence", lambda: Monomial.make(x_pows=5)),
    ("d-powers-a-set", lambda: Monomial.make(d_pows={0, 1})),
    ("x-powers-a-generator", lambda: Monomial.make(x_pows=(p for p in (1, 2)))),
    ("coordinate-index-minus-1", lambda: Monomial.make(x_pows={-1: 1})),
    ("coordinate-index-str", lambda: Monomial.make(d_pows={"0": 1})),
    ("coord-a-list", lambda: WeylOp.coord([1])),
    ("spectrum-object", lambda: fock.spectrum(np.array([[1]], dtype=object))),
    ("spectrum-str", lambda: fock.spectrum(np.array([["a"]]))),
    ("spectrum-ragged-list", lambda: fock.spectrum([[1.0], [1.0, 2.0]])),
    ("phase-n-3/2", lambda: invariance.find_symmetries(OMEGA_GENERIC, [(0, Fraction(3, 2))])),
    ("phase-n-1.5", lambda: invariance.find_symmetries(OMEGA_GENERIC, [(0, 1.5)])),
    ("phase-triple", lambda: invariance.find_symmetries(OMEGA_GENERIC, [(0, 1, 99)])),
    ("phase-str", lambda: invariance.find_symmetries(OMEGA_GENERIC, ["x"])),
    ("key-one-item", lambda: Coefficient({(1,): 5})),
    ("key-three-items", lambda: Coefficient({(1, 0, 0): 5})),
    ("key-not-a-pair", lambda: Coefficient({1: 5})),
    ("weyl-phase-str", lambda: WeylOp.phase("x")),
    ("weyl-phase-none", lambda: WeylOp.phase(None)),
    ("weyl-phase-nan", lambda: WeylOp.phase(NAN)),
    ("weyl-phase-inf", lambda: WeylOp.phase(INF)),
    ("weyl-phase-complex", lambda: WeylOp.phase(1j)),
    ("monomial-phase-str", lambda: Monomial.make(phase_m="x")),
    ("k-matrix-modes-of-lists", lambda: fock.k_matrix(0.5, 2, 2, ([1], [3]))),
    ("eigenstate-matrix-modes-of-lists", lambda: fock.eigenstate_matrix(0.5, 2, 2, ([1], [3]))),
    ("mode-solver-modes-of-str", lambda: fock.mode_solver(0.5, ("1", "3"))),
    ("eigenstate-modes-of-float", lambda: fock.eigenstate(1, 1, 0.5, modes=(1.0, 3.0))),
    ("k-ladder-modes-of-complex", lambda: fock.k_ladder(0.5, (1j, 3))),
    ("close-algebra-extra-name", lambda: invariance.close_algebra([X0, X1], ["a", "b", "ghost"])),
    ("close-algebra-missing-name", lambda: invariance.close_algebra([X0, X1], ["a"])),
    ("close-algebra-repeated-name", lambda: invariance.close_algebra([X0, X1], ["a", "a"])),
]

# (id, a call that must raise UnknownName, an AlgebraError and a KeyError)
UNKNOWN_NAMES = [
    ("contract-without-power", lambda: invariance.contract(realizations.decoupled_generic())),
    ("verify-table-foreign-name",
     lambda: invariance.verify_table(realization_osc(), GeneratorTable(("q", "z0"), {("q", "z0"): {}}))),
]


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in EDGES])
def test_edge_raises_its_typed_error(call):
    with pytest.raises(UnsupportedShape):
        call()


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in UNKNOWN_NAMES])
def test_name_outside_a_catalog_is_unknown(call):
    with pytest.raises(UnknownName):
        call()


def test_spectrum_reads_a_list_like_the_array():
    rows = [[1.0, 0.0], [2.0, 3.0]]
    got, want = fock.spectrum(rows), fock.spectrum(np.array(rows))
    assert np.array_equal(got.eigenvalues, want.eigenvalues) and got.max_residual == want.max_residual


@pytest.mark.parametrize("dtype", [np.float16, np.longdouble, np.clongdouble])
def test_spectrum_reads_the_dtypes_eig_refuses_as_complex(dtype):
    rows = [[1.0, 0.0], [2.0, 3.0]]
    got, want = fock.spectrum(np.array(rows, dtype=dtype)), fock.spectrum(np.array(rows, dtype=complex))
    assert np.array_equal(got.eigenvalues, want.eigenvalues) and got.max_residual == want.max_residual


def test_phases_read_what_fraction_reads():
    """A phase takes every value ``Fraction`` takes: ints, Fractions, floats, decimal text."""
    assert WeylOp.phase("3/2") == WeylOp.phase(Fraction(3, 2)) == WeylOp.phase(1.5)
    assert Monomial.make(phase_m=np.int64(2)).phase_m == 2 and type(Monomial.make(phase_m=Fraction(4, 2)).phase_m) is int


def test_mode_pairs_of_rationals_are_read_as_today():
    assert np.array_equal(fock.k_matrix(0.5, 2, 2, [Fraction(1), 3]), fock.k_matrix(0.5, 2, 2))


def test_integral_exponents_of_other_types_are_read_as_ints():
    """``operator.index`` takes a bool or a numpy integer, and the monomial holds a plain int;
    the powers of a coefficient and of an operator read their exponent alike."""
    mono = Monomial.make(phase_n=np.int64(2), t_pow=True, x_pows=(np.int8(1),))
    assert mono == Monomial(0, 2, 1, ((0, 1, 0),), 0)
    assert all(type(e) is int for e in (mono.phase_n, mono.t_pow, *mono.spatial[0], mono.dt_pow))
    assert Coefficient.monomial(3, np.int64(-1), np.int64(2)) == Coefficient({(-1, 2): 3})
    assert WeylOp.coord(np.int64(1)) == WeylOp.coord(np.array(1)) == WeylOp.coord(1)
    assert Coefficient.of(2) ** np.int64(-1) == Coefficient.of(Fraction(1, 2))
    assert WeylOp.coord(0) ** np.int64(2) == WeylOp.coord(0) * WeylOp.coord(0)
