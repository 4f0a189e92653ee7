"""Cryptohermitian oscillator layer: ladder algebra, truncated matrices,
modes, overlaps, and exact eigenfunction checks.

Symbolic work happens in :class:`LadderOp`, the two-coordinate Weyl
algebra of :mod:`cgalgebra.weyl` read through the Bargmann map
a+ -> x, a -> Dx, b+ -> y, b -> Dy: the normal-ordered word
(a+)^p a^q (b+)^r b^s (daggers to the left) is the monomial
x^p y^r Dx^q Dy^s, and [a, a+] = [b, b+] = 1 are the Weyl relations, so
sums, products, equality, text form and PT are WeylOp's.  Only the action
on kets, :meth:`LadderOp.apply_state`, is the ladder layer's own.  The
formal deformation slot of the scalar ring carries the coupling ``gbar``
when it is kept symbolic; the decoupling map E of K, and with it the modes
of ad_K (the images e^{-E} w e^{E} of the linear words w), are derived once
per mode pair with it formal, then specialized to each coupling.  Numerical
work uses dense complex matrices on the truncated basis |n, m> ordered by
energy.

Conventions: unnormalized states |n, m> = (a+)^n (b+)^m |vac> with
<n, m | n, m> = n! m! for symbolic expansions; the numerical basis is
orthonormal.  Matrix entry [i, j] of an operator is the amplitude of basis
state j in Op|basis_i> (rows index input states).  Every coupling term of
the number-like operator K contains b, so K is exactly lower triangular once
the basis is ordered by the b-number m; in the energy order that holds only
when |m2| > |m1|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, perm, sqrt
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import CheckFailed, CutoffTooSmall, DegenerateModes
from .invariance import decoupling_map
# nullspace is not called here, but the benchmark's tracer tests read it as fock.nullspace
from .linalg import nullspace  # noqa: F401
from .realizations import realization_osc, h0_op
from .ring import Coefficient, GAMMA, accumulate
from .weyl import Monomial, WeylOp, ad_series, apply, commutator, multiply, similarity

F = Fraction

GbarLike = Union[Coefficient, int, Fraction, tuple, complex, None]


def _gbar_coeff(gbar: GbarLike) -> Coefficient:
    """Interpret gbar: None keeps it formal (the ring's g slot)."""
    if gbar is None:
        return GAMMA
    if isinstance(gbar, (float, complex)):
        z = complex(gbar)
        return Coefficient.of((Fraction(z.real), Fraction(z.imag)))
    return Coefficient.of(gbar)


# ---------------------------------------------------------------------------
# ladder algebra: the Weyl algebra under the Bargmann map
# ---------------------------------------------------------------------------

def _word(p: int, q: int, r: int, s: int) -> Monomial:
    """(a+)^p a^q (b+)^r b^s as its Bargmann image x^p y^r Dx^q Dy^s."""
    return Monomial.make(x_pows=(p, r), d_pows=(q, s))


# the linear words, whose images under the decoupling map are K's modes
MODE_WORDS = {"a": _word(0, 1, 0, 0), "a+": _word(1, 0, 0, 0),
              "b": _word(0, 0, 0, 1), "b+": _word(0, 0, 1, 0)}


class LadderOp(WeylOp):
    """A two-coordinate WeylOp read as ladder words (a+)^p a^q (b+)^r b^s."""

    __slots__ = ()

    def __mul__(self, other) -> "LadderOp":
        """The Weyl product, kept a LadderOp: a function of its own, not inherited,
        so that the ladder product can be wrapped or timed apart from ``WeylOp.__mul__``.
        Only direct products come here: :func:`commutator` calls ``multiply`` itself."""
        if isinstance(other, WeylOp):
            return multiply(self, other)
        return self.scale(other)

    def apply_state(self, state: Mapping[Tuple[int, int], Coefficient]) -> Dict[Tuple[int, int], Coefficient]:
        """Act on a ket expanded over unnormalized |n, m>.

        This is the action of x^p y^r Dx^q Dy^s on x^n y^m, written as a
        direct loop over the words: the product route (multiply by the ket
        read as a function, keep the derivative-free terms) costs much more
        per ket.
        """
        words = [((mono.x_pows + (0, 0))[:2], (mono.d_pows + (0, 0))[:2], c)
                 for mono, c in self._terms.items()]
        out: Dict[Tuple[int, int], Coefficient] = {}
        for (n, m), amp in state.items():
            for (p, r), (q, s), c in words:
                if q > n or s > m:
                    continue
                factor = perm(n, q) * perm(m, s)
                accumulate(out, (n - q + p, m - s + r), amp * c * factor)
        return out


# ---------------------------------------------------------------------------
# the coupled number-like operators
# ---------------------------------------------------------------------------

def k_ladder(gbar: GbarLike = None, modes: Tuple[int, int] = (1, 3)) -> LadderOp:
    """K = m1 a+a + m2 b+b + 1/2 + gbar (a + a+) b."""
    g = _gbar_coeff(gbar)
    m1, m2 = modes
    out = LadderOp({_word(1, 1, 0, 0): m1, _word(0, 0, 1, 1): m2, _word(0, 0, 0, 0): F(1, 2)})
    coupling = LadderOp({_word(0, 1, 0, 1): g, _word(1, 0, 0, 1): g})
    return out + coupling


@cache
def _decoupling(modes: Tuple[int, int]) -> Tuple[LadderOp, LadderOp]:
    """(E, N) of :func:`kgamma_decoupling_check` with the coupling formal."""
    e = decoupling_map(k_ladder(0, modes), k_ladder(None, modes))
    return e, similarity(-e, LadderOp({_word(1, 1, 0, 0): 1, _word(0, 0, 1, 1): 1}))


def n_ladder(gbar: GbarLike = None, modes: Tuple[int, int] = (1, 3)) -> LadderOp:
    """Number-like partner N = e^{-E} (a+a + b+b) e^{E}, E of :func:`kgamma_decoupling_check`:
    it commutes with K(gbar), and is the total number operator at zero coupling."""
    return _decoupling(tuple(modes))[1].substitute(gamma=_gbar_coeff(gbar))


def kgamma_decoupling_check(gbar: GbarLike = None, modes: Tuple[int, int] = (1, 3)) -> Tuple[bool, int]:
    """Verify e^{-E} K(0) e^{E} = K(gbar) exactly; returns (it holds, ad-series depth).

    E is :func:`invariance.decoupling_map` of K at ``modes``, derived once per mode pair with
    the coupling formal, then specialized; it exists where m2 != 0 and m1 != +-m2.
    """
    out, depth = ad_series(-_decoupling(tuple(modes))[0].substitute(gamma=_gbar_coeff(gbar)),
                           k_ladder(0, modes), 16)
    return out == k_ladder(gbar, modes), depth


# ---------------------------------------------------------------------------
# modes of the adjoint action
# ---------------------------------------------------------------------------

@cache
def _formal_modes(modes: Tuple[int, int]) -> Tuple[Tuple[Fraction, LadderOp], ...]:
    """(lam, A_lam) of :func:`mode_solver` in ascending lam, with the coupling formal.

    K(g) = e^{-E} K(0) e^{E} (E of :func:`_decoupling`), so the image e^{-E} w e^{E}
    of each linear word w is an eigenvector of ad_K with w's eigenvalue under
    ad_K(0): a+ -> m1, a -> -m1, b+ -> m2, b -> -m2.  Conjugation keeps
    commutators, so the images pair canonically once A_{|m_i|} changes sign
    where m_i < 0.
    """
    m1, m2 = modes
    lams = (m1, -m1, m2, -m2)
    if len(set(lams)) != 4:
        raise DegenerateModes(f"expected 4 distinct rational eigenvalues, got {sorted({F(m) for m in lams})}")
    e = _decoupling(modes)[0]
    out = []
    for m, up, down in ((m1, "a+", "a"), (m2, "b+", "b")):
        out.append((F(m), similarity(-e, LadderOp({MODE_WORDS[up]: 1}))))
        out.append((F(-m), similarity(-e, LadderOp({MODE_WORDS[down]: 1 if m > 0 else -1}))))
    return tuple(sorted(out, key=lambda pair: pair[0]))


def mode_solver(gbar: GbarLike = None, modes: Tuple[int, int] = (1, 3)) -> Dict[Fraction, LadderOp]:
    """Eigen-decomposition of ad_K on span{a, a+, b, b+}, exactly.

    The modes are the decoupling map's images of a, a+, b, b+, built once per
    mode pair with g formal (:func:`_formal_modes`); a call substitutes ``gbar``.
    Returns {lam: A_lam} in ascending order of lam, with [A_{-i}, A_j] = delta_ij;
    raises :class:`DegenerateModes` if eigenvalues collide (m1 or m2 zero, or
    m1 = +-m2).
    """
    g = _gbar_coeff(gbar)
    return {lam: op.substitute(gamma=g) for lam, op in _formal_modes(tuple(modes))}


# ---------------------------------------------------------------------------
# truncated matrices and spectra
# ---------------------------------------------------------------------------

@dataclass
class FockBasis:
    """Energy-ordered truncated basis |n, m>, n <= na, m <= nb."""

    na: int
    nb: int
    modes: Tuple[int, int] = (1, 3)

    def states(self) -> List[Tuple[int, int]]:
        m1, m2 = self.modes
        sts = [(n, m) for n in range(self.na + 1) for m in range(self.nb + 1)]
        sts.sort(key=lambda nm: (m1 * nm[0] + m2 * nm[1], nm[0]))
        return sts

    def index(self) -> Dict[Tuple[int, int], int]:
        return {nm: i for i, nm in enumerate(self.states())}


def _entries(op: LadderOp, basis: FockBasis) -> Iterator[Tuple[int, int, Coefficient, float]]:
    """(i, j, exact amplitude, sqrt(n2! m2! / (n! m!))) of each state_j = |n2, m2> in
    op|state_i = |n, m>, both unnormalized kets; the factor converts the amplitude to
    the orthonormal basis.

    Amplitudes that would leave the truncation are dropped, exactly as a
    finite truncation demands; triangularity statements are exact because
    every coupling term of K lowers the b-number.
    """
    index = basis.index()
    for (n, m), i in index.items():
        for (n2, m2), amp in op.apply_state({(n, m): Coefficient.of(1)}).items():
            j = index.get((n2, m2))
            if j is not None:
                yield i, j, amp, sqrt(factorial(n2) * factorial(m2)) / sqrt(factorial(n) * factorial(m))


def ladder_matrix(op: LadderOp, basis: FockBasis) -> np.ndarray:
    """Dense matrix with row i = expansion of op|state_i> (orthonormal basis),
    amplitudes outside the truncation dropped."""
    dim = len(basis.states())
    out = np.zeros((dim, dim), dtype=complex)
    for i, j, amp, factor in _entries(op, basis):
        out[i, j] = complex(amp) * factor
    return out


@cache
def _k_entries(na: int, nb: int, modes: Tuple[int, int]) -> Tuple[np.ndarray, ...]:
    """(rows, cols, g^0 weights, g^1 weights, factors) of K's truncated matrix with the
    coupling formal: K is affine in it, so entry [i, j] at gbar is
    (c0 + gbar c1) * factor.  Read-only arrays with one slot per nonzero entry,
    O(dim) of them (K has at most three terms per ket).

    The factor is kept apart and applied last, as :func:`ladder_matrix` applies
    it to the exact amplitude, so the entries round alike: folded into c1 it
    puts 1.8e-12 between the two routes at gbar = 1000 and cutoff 12."""
    rows, cols, c0, c1, factors = [], [], [], [], []
    for i, j, amp, factor in _entries(k_ladder(None, modes), FockBasis(na, nb, modes)):
        weights = {a: complex(float(re), float(im)) for (a, _), (re, im) in amp.terms}
        rows.append(i)
        cols.append(j)
        c0.append(weights.get(0, 0j))
        c1.append(weights.get(1, 0j))
        factors.append(factor)
    out = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
           np.array(c0, dtype=complex), np.array(c1, dtype=complex), np.array(factors))
    for arr in out:
        arr.flags.writeable = False
    return out


def k_matrix(gbar: GbarLike, na: int, nb: int, modes: Tuple[int, int] = (1, 3)) -> np.ndarray:
    """Truncated matrix of K = K0 + gbar K1: exactly lower triangular in the b-number
    order, and in the basis's energy order only when |m2| > |m1|.

    The entries of K0 and K1 are built once per cutoff and modes with the
    coupling formal (:func:`_k_entries`); a call substitutes ``gbar`` into them
    and fills a fresh matrix.
    """
    if na < 1 or nb < 1:
        raise CutoffTooSmall("cutoffs must be at least 1")
    g = _gbar_coeff(gbar)
    if not g.is_scalar():
        raise ValueError("numerical matrix needs a numeric coupling")
    rows, cols, c0, c1, factors = _k_entries(na, nb, tuple(modes))
    dim = (na + 1) * (nb + 1)
    out = np.zeros((dim, dim), dtype=complex)
    out[rows, cols] = (c0 + complex(g) * c1) * factors
    return out


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    max_residual: float


def spectrum(matrix: np.ndarray) -> SpectrumResult:
    """Numerical eigenvalues with residual reporting.

    Residual ||M v - lam v|| <= 1e-9 max(||M||_2, 1) is checked per
    eigenpair, all of them from one product M V - V diag(lam); a failure
    raises :class:`CheckFailed` with the worst offender.
    The largest column norm of M is a lower bound on ||M||_2, so when the
    worst residual already passes against that bound the SVD behind the
    2-norm is skipped; the verdict and ``max_residual`` are the same either
    way.
    """
    vals, vecs = np.linalg.eig(matrix)
    worst = float(np.linalg.norm(matrix @ vecs - vecs * vals, axis=0).max())
    # column norms from views of M, with no complex temporary of M's size
    re, im = matrix.real, matrix.imag
    colmax = float(np.sqrt((np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)).max()))
    if worst > 1e-9 * max(colmax, 1.0) and worst > 1e-9 * max(np.linalg.norm(matrix, 2), 1.0):
        raise CheckFailed(f"eigen residual {worst:.2e} exceeds tolerance")
    order = np.lexsort((vals.imag, vals.real))
    return SpectrumResult(vals[order], worst)


# ---------------------------------------------------------------------------
# eigenstates and overlaps
# ---------------------------------------------------------------------------

def _kets(gbar: GbarLike, modes: Tuple[int, int],
          tops: List[int]) -> Iterator[Tuple[Tuple[int, int], Dict[Tuple[int, int], Coefficient]]]:
    """((n, m), A_{m1}^n A_{m2}^m |vac>) for each m < len(tops) and n <= tops[m].

    A_{m1} and A_{m2} are the modes that create K's quanta, so A_{m_i}|vac> != 0
    also at m_i < 0 (where A_{|m_i|} ~ b).  They are specialized to ``gbar`` by
    one :func:`mode_solver` call per pass, and each ket is built
    from the one before it: A_{m2}^m |vac> from A_{m2}^(m-1) |vac>, then
    A_{m1}^n A_{m2}^m |vac> from A_{m1}^(n-1) A_{m2}^m |vac>.  A negative top
    yields nothing but still advances the column.
    """
    by_lam = mode_solver(gbar, modes)
    a1, a2 = by_lam[F(modes[0])], by_lam[F(modes[1])]
    column = {(0, 0): Coefficient.of(1)}  # A_{m2}^m |vac>
    for m, top in enumerate(tops):
        if m:
            column = a2.apply_state(column)
        ket = column
        for n in range(top + 1):
            if n:
                ket = a1.apply_state(ket)
            yield (n, m), ket


def eigenstate(n: int, m: int, gbar: GbarLike = None,
               na: Optional[int] = None, nb: Optional[int] = None,
               modes: Tuple[int, int] = (1, 3)) -> Dict[Tuple[int, int], Coefficient]:
    """|n-bar, m-bar> = A_{m1}^n A_{m2}^m |vac> over unnormalized |n, m>.

    When cutoffs are supplied the state must fit inside them with margin
    (n + |m2| m <= na and m <= nb) or :class:`CutoffTooSmall` is raised.
    """
    if na is not None and n + abs(modes[1]) * m > na:
        raise CutoffTooSmall("state would touch the a-cutoff")
    if nb is not None and m > nb:
        raise CutoffTooSmall("state would touch the b-cutoff")
    *_, (_, state) = _kets(gbar, modes, [-1] * m + [n])
    return state


def state_inner(s1: Mapping[Tuple[int, int], Coefficient],
                s2: Mapping[Tuple[int, int], Coefficient]) -> Coefficient:
    """<s1 | s2> with the unnormalized metric <n,m|n,m> = n! m!, a scalar."""
    out = Coefficient()
    for key, a1 in s1.items():
        a2 = s2.get(key)
        if a2 is None:
            continue
        out = out + a1.conj() * a2 * (factorial(key[0]) * factorial(key[1]))
    return out


def overlap_probability(s1: Mapping[Tuple[int, int], Coefficient],
                        s2: Mapping[Tuple[int, int], Coefficient]) -> Fraction:
    """|<s1|s2>|^2 for the normalized states, exact."""
    n12 = state_inner(s1, s2)
    n11 = state_inner(s1, s1)
    n22 = state_inner(s2, s2)
    if n11.is_zero() or n22.is_zero():
        raise ValueError("cannot normalize a zero state")
    return n12.abs2() / (n11.re * n22.re)


def eigenstate_matrix(gbar: GbarLike, na: int, nb: int,
                      modes: Tuple[int, int] = (1, 3)) -> np.ndarray:
    """Rows = mode eigenstates that fit the cutoffs, in the orthonormal basis.

    Row order is n outer, m inner over the states |n-bar, m-bar> with
    n + |m2| m <= na and m <= nb, each equal to ``eigenstate(n, m, ...)``:
    both take their kets from one :func:`_kets` pass.
    """
    index = FockBasis(na, nb, modes).index()
    step = abs(modes[1])
    rows: Dict[Tuple[int, int], np.ndarray] = {}
    for nm, ket in _kets(gbar, modes, [na - step * m for m in range(nb + 1) if step * m <= na]):
        row = rows[nm] = np.zeros(len(index), dtype=complex)
        for (n2, m2), amp in ket.items():
            j = index.get((n2, m2))
            if j is None:
                raise CutoffTooSmall("eigenstate leaks outside the cutoff")
            row[j] = complex(amp) * sqrt(factorial(n2) * factorial(m2))
    return np.array([rows[nm] for nm in sorted(rows)])


# ---------------------------------------------------------------------------
# symbolic eigenfunction checks for the differential picture
# ---------------------------------------------------------------------------

def _psi(phase: int, poly: Dict[Tuple[int, int], Coefficient]) -> WeylOp:
    """The function e^{i phase t} sum c x^p y^q over poly's (p, q): c, read times exp(-x^2/2)."""
    return WeylOp({Monomial.make(phase, x_pows=xy): c for xy, c in poly.items()})


def quoted_psi(name: str) -> WeylOp:
    """Commonly quoted closed forms of the four lowest eigenfunctions.

    Three of them are exact; the xy coefficient of the (1, 1) entry is
    transcribed as quoted (4i/g) even though that value fails the
    eigenvalue identity, so regression tests can demonstrate the slip.
    See :func:`expected_psi` for the verified forms.
    """
    c = Coefficient.monomial
    if name == "psi10":
        return _psi(-1, {(1, 0): c((0, -8), -1, 0)})
    if name == "psi20":
        return _psi(-2, {(0, 0): c(32, -2, 0), (2, 0): c(-64, -2, 0)})
    if name == "psi01":
        return _psi(-3, {(1, 0): c((0, -24), -1, 0), (0, 1): c(-48, -2, 0)})
    if name == "psi11":
        return _psi(-4, {(0, 0): c(48, -2, 0), (2, 0): c(-192, -2, 0), (1, 1): c((0, 192), -3, 0)})
    raise KeyError(name)


def expected_psi(name: str) -> WeylOp:
    """Frozen closed forms verified by two independent engine routes.

    Identical to :func:`quoted_psi` except the (1, 1) polynomial, whose xy
    term carries 8i/g: the 4i/g variant is not an eigenfunction (the
    eigenvalue identity fails on it, which the tests check explicitly).
    """
    if name != "psi11":
        return quoted_psi(name)
    c = Coefficient.monomial
    return _psi(-4, {(0, 0): c(48, -2, 0), (2, 0): c(-192, -2, 0), (1, 1): c((0, 384), -3, 0)})


def h0_eigencheck() -> Dict[str, str]:
    """Exact lowest-weight verification of the deformed oscillator.

    Checks, all with formal coupling: the ground state is annihilated by
    both raising generators; the commutators [H0, w-1] = w-1 and
    [H0, w-3] = 3 w-3; the quadratic-combination identity for H0; the
    explicit low eigenfunctions; and H0 psi_{n,m} = (n + 3m + 2) psi_{n,m}
    for every n + 3m <= 6.  Maps each check's label to its residual
    text, empty where the identity holds.
    """
    r = realization_osc()
    h0 = h0_op()
    out: Dict[str, str] = {}
    ground = WeylOp.one()  # exp(-x^2/2)

    def record(label: str, ok: bool, shown) -> None:
        out[label] = "" if ok else str(shown)

    for name in ("w+1", "w+3"):
        img = apply(r[name], ground)
        record(f"{name} annihilates ground state", img.is_zero(), img)

    for name, mult in (("w-1", 1), ("w-3", 3)):
        diff = commutator(h0, r[name]) - r[name].scale(mult)
        record(f"[H0, {name}] = {mult} {name}", diff.is_zero(), diff)

    g2_16 = Coefficient.monomial(F(1, 16), 2, 0)
    quad = (multiply(r["w-1"], r["w+1"]) - multiply(r["w-3"], r["w+3"])).scale(g2_16) \
        + WeylOp.scalar(2)
    record("H0 equals its quadratic ladder combination", quad == h0, quad - h0)

    # psi_(n,m) = (w-1)^n (w-3)^m ground, each state built once from its
    # predecessor: psi_(0,m) from psi_(0,m-1), psi_(n,m) from psi_(n-1,m)
    psis: Dict[Tuple[int, int], WeylOp] = {(0, 0): ground}

    def psi(n: int, m: int) -> WeylOp:
        if (n, m) not in psis:
            psis[(n, m)] = (apply(r["w-1"], psi(n - 1, m)) if n
                            else apply(r["w-3"], psi(0, m - 1)))
        return psis[(n, m)]

    # explicit low eigenfunctions
    for name, (n, m) in (("psi10", (1, 0)), ("psi20", (2, 0)),
                         ("psi01", (0, 1)), ("psi11", (1, 1))):
        f = psi(n, m)
        record(f"{name} closed form", f == expected_psi(name), f)
        # cross-check through the operator-product route
        f2 = apply(r["w-1"] ** n * r["w-3"] ** m, ground)
        record(f"{name} product route agrees", f2 == f, f2)

    for total in range(7):
        for m in range(total // 3 + 1):
            n = total - 3 * m
            f = psi(n, m)
            diff = apply(h0, f) - f.scale(n + 3 * m + 2)
            record(f"H0 psi_({n},{m}) = {n + 3 * m + 2} psi", diff.is_zero(), diff)
    return out


# ---------------------------------------------------------------------------
# PT symmetry
# ---------------------------------------------------------------------------

def pt_check(op: WeylOp) -> bool:
    """Invariance under x -> -x, i -> -i, through :meth:`WeylOp.pt_transform`.

    On a :class:`LadderOp` the Bargmann map makes this (a, a+) -> -(a, a+)
    with (b, b+) left alone and coefficients conjugated (the coupling must be
    substituted so conjugation sees it: the differential coupling is real,
    its ladder image imaginary).
    """
    return op.pt_transform() == op
