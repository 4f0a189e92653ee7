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
per mode pair with it formal, then specialized to each coupling, and so are
the truncated matrices (K's entries and the eigenstate rows), built once per
cutoff and mode pair.  Numerical work uses complex matrices on the truncated
basis |n, m> ordered by the b-number m, then n, diagonalized block by block
over the connected components of their nonzero entries (for K, the two parity
classes of n + m).

Conventions: unnormalized states |n, m> = (a+)^n (b+)^m |vac> with
<n, m | n, m> = n! m! for symbolic expansions; the numerical basis is
orthonormal.  Matrix entry [i, j] of an operator is the amplitude of basis
state j in Op|basis_i> (rows index input states).  Each coupling term of K lowers m, and
A_{m1}^n A_{m2}^m |vac> is |n, m> plus kets of lower m; the cached builds certify both
triangles exactly (:func:`k_lower_triangular`, :func:`eigenstates_unit_triangular`).
"""

from __future__ import annotations

import cmath
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, ldexp, perm, sqrt
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import (CheckFailed, CutoffTooSmall, DegenerateModes, FloatOverflow, UnknownName, UnsupportedShape,
                     integer, pair)
from .invariance import decoupling_map
# nullspace is not called here, but the benchmark's tracer tests read it as fock.nullspace
from .linalg import nullspace  # noqa: F401
from .realizations import realization_osc, h0_op
from .ring import Coefficient, GAMMA, ONE, substituted, summed
from .weyl import Monomial, WeylOp, ad_series, apply, commutator, multiply, similarity

GbarLike = Union[Coefficient, int, Fraction, tuple, complex, None]


def _coupling(gbar: GbarLike) -> Optional[Coefficient]:
    """gbar as an exact coupling; None stays None, the formal coupling, which a substitution
    leaves as it is.  A float part that is NaN raises :class:`UnsupportedShape`, one that
    is infinite :class:`FloatOverflow`."""
    if gbar is None:
        return None
    if isinstance(gbar, (float, complex)):
        z = complex(gbar)
        if cmath.isnan(z):
            raise UnsupportedShape(f"coupling {gbar!r} is not a number")
        if cmath.isinf(z):
            raise FloatOverflow(f"coupling {gbar!r} is infinite; an exact coupling needs finite parts")
        return Coefficient.of((Fraction(z.real), Fraction(z.imag)))
    return Coefficient.of(gbar)


def _mode_pair(modes) -> Tuple[int, int]:
    """``modes`` as a tuple of two ints or Fractions, read by :func:`errors.pair`: an item of
    another type raises :class:`UnsupportedShape`, before it reaches a cache key."""
    out = pair(modes, "modes")
    if not all(isinstance(m, (int, Fraction)) for m in out):
        raise UnsupportedShape(f"modes must be ints or Fractions, got {modes!r}")
    return out


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
        Only direct products come here: :func:`commutator` calls ``multiply`` itself.
        A scalar factor is written ``scale(c)``; ``*`` takes operators only."""
        return multiply(self, other) if isinstance(other, WeylOp) else NotImplemented

    def apply_state(self, state: Mapping[Tuple[int, int], Coefficient]) -> Dict[Tuple[int, int], Coefficient]:
        """Act on a ket expanded over unnormalized |n, m>.

        This is the action of x^p y^r Dx^q Dy^s on x^n y^m, written as a
        direct loop over the words: the product route (multiply by the ket
        read as a function, keep the derivative-free terms) costs much more
        per ket.  :func:`~cgalgebra.ring.summed` adds the terms that land on one ket.
        """
        words = [(*mono.powers(0), *mono.powers(1), c) for mono, c in self.terms()]
        acc = defaultdict(list)
        for (n, m), amp in state.items():
            for p, q, r, s, c in words:
                if q <= n and s <= m:
                    acc[(n - q + p, m - s + r)].append((amp * c, perm(n, q) * perm(m, s)))
        return summed(acc)


# ---------------------------------------------------------------------------
# the coupled number-like operators
# ---------------------------------------------------------------------------

def k_ladder(gbar: GbarLike = None, modes: Tuple[int, int] = (1, 3)) -> LadderOp:
    """K = m1 a+a + m2 b+b + 1/2 + gbar (a + a+) b; a formal gbar puts in the ring's g."""
    g = GAMMA if gbar is None else _coupling(gbar)
    m1, m2 = _mode_pair(modes)
    out = LadderOp({_word(1, 1, 0, 0): m1, _word(0, 0, 1, 1): m2, _word(0, 0, 0, 0): Fraction(1, 2)})
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
    return _decoupling(_mode_pair(modes))[1].substitute(gamma=_coupling(gbar))


def kgamma_decoupling_check(gbar: GbarLike = None, modes: Tuple[int, int] = (1, 3)) -> Tuple[bool, int]:
    """Verify e^{-E} K(0) e^{E} = K(gbar) exactly; returns (it holds, ad-series depth).

    E is :func:`invariance.decoupling_map` of K at ``modes``, derived once per mode pair with
    the coupling formal, then specialized; it exists where m2 != 0 and m1 != +-m2.
    """
    out, depth = ad_series(-_decoupling(_mode_pair(modes))[0].substitute(gamma=_coupling(gbar)),
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
        got = sorted({Fraction(m) for m in lams})
        raise DegenerateModes(f"expected 4 distinct rational eigenvalues, got {got}")
    e = _decoupling(modes)[0]
    out = []
    for m, up, down in ((m1, "a+", "a"), (m2, "b+", "b")):
        out.append((Fraction(m), similarity(-e, LadderOp({MODE_WORDS[up]: 1}))))
        out.append((Fraction(-m), similarity(-e, LadderOp({MODE_WORDS[down]: 1 if m > 0 else -1}))))
    return tuple(sorted(out, key=lambda pair: pair[0]))


def mode_solver(gbar: GbarLike = None, modes: Tuple[int, int] = (1, 3)) -> Dict[Fraction, LadderOp]:
    """Eigen-decomposition of ad_K on span{a, a+, b, b+}, exactly.

    The modes are the decoupling map's images of a, a+, b, b+, built once per
    mode pair with g formal (:func:`_formal_modes`); a call substitutes ``gbar``.
    Returns {lam: A_lam} in ascending order of lam, with [A_{-i}, A_j] = delta_ij;
    raises :class:`DegenerateModes` if eigenvalues collide (m1 or m2 zero, or
    m1 = +-m2).
    """
    g = _coupling(gbar)
    return {lam: op.substitute(gamma=g) for lam, op in _formal_modes(_mode_pair(modes))}


# ---------------------------------------------------------------------------
# truncated matrices and spectra
# ---------------------------------------------------------------------------

@dataclass
class FockBasis:
    """Truncated basis |n, m>, n <= na, m <= nb, ordered by the b-number m, then n."""

    na: int
    nb: int

    def states(self) -> List[Tuple[int, int]]:
        return [(n, m) for m in range(self.nb + 1) for n in range(self.na + 1)]

    def index(self) -> Dict[Tuple[int, int], int]:
        return {nm: i for i, nm in enumerate(self.states())}


def _float_args(gbar: GbarLike, na, nb, modes) -> Tuple[Coefficient, int, int, Tuple[int, int]]:
    """(g, na, nb, modes) of a float matrix, checked before any build: cutoffs that are not
    integers raise :class:`UnsupportedShape`, one below 1 :class:`CutoffTooSmall`; then a
    formal or non-scalar coupling :class:`UnsupportedShape`; then the mode pair is read."""
    na, nb = integer(na, "cutoff na"), integer(nb, "cutoff nb")
    if na < 1 or nb < 1:
        raise CutoffTooSmall("cutoffs must be at least 1")
    g = _coupling(gbar)
    if g is None or not g.is_scalar():
        raise UnsupportedShape("numerical matrix needs a numeric coupling")
    return g, na, nb, _mode_pair(modes)


@cache
def _root_factorial(n: int, m: int) -> Tuple[float, int]:
    """(r, k) with sqrt(n! m!) = r * 2^k: r is ``math.sqrt`` of the int and k = 0 wherever
    n! m! fits in a float; past that, r is the root of the int shifted down by 2k bits,
    so that a ratio of two roots stays finite."""
    q = factorial(n) * factorial(m)
    try:
        return sqrt(q), 0
    except OverflowError:
        k = (q.bit_length() - 1000) // 2
        return sqrt(q >> 2 * k), k


def _entries(op: LadderOp, basis: FockBasis) -> Tuple[np.ndarray, np.ndarray, List[Coefficient], np.ndarray]:
    """(rows, cols, exact amplitudes, factors) of op's truncated matrix, one slot per entry:
    the amplitude of state_j = |n2, m2> in op|state_i = |n, m>, both unnormalized kets,
    and the factor sqrt(n2! m2! / (n! m!)) that converts it to the orthonormal basis.

    Amplitudes that would leave the truncation are dropped, exactly as a
    finite truncation demands.
    """
    index = basis.index()
    rows, cols, amps, factors = [], [], [], []
    for (n, m), i in index.items():
        r, k = _root_factorial(n, m)
        for nm2, amp in op.apply_state({(n, m): Coefficient.of(1)}).items():
            j = index.get(nm2)
            if j is not None:
                r2, k2 = _root_factorial(*nm2)
                rows.append(i)
                cols.append(j)
                amps.append(amp)
                factors.append(ldexp(r2 / r, k2 - k))
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), amps, np.array(factors)


def _complex(c: Coefficient) -> complex:
    """The scalar c as a complex float, ``inf`` past the float range, for :func:`_filled` to name."""
    try:
        return complex(c)
    except FloatOverflow:
        return complex(np.inf)


def _filled(shape: Tuple[int, int], rows, cols, values, overflow: Callable[[int], str]) -> np.ndarray:
    """A fresh complex matrix of ``shape``, zero but for ``values`` at (rows, cols): the one
    fill of the float matrices.  A value that is not finite raises :class:`FloatOverflow`
    with the message ``overflow(j)``, j the column of the first such entry."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FloatOverflow(overflow(int(cols[bad[0]])))
    out = np.zeros(shape, dtype=complex)
    out[rows, cols] = values
    return out


def ladder_matrix(op: LadderOp, basis: FockBasis) -> np.ndarray:
    """Dense matrix with row i = expansion of op|state_i> (orthonormal basis),
    amplitudes outside the truncation dropped; an entry past the float range raises
    :class:`FloatOverflow`."""
    rows, cols, amps, factors = _entries(op, basis)
    values = np.array([_complex(amp) * factor for amp, factor in zip(amps, factors)], dtype=complex)
    dim = len(basis.states())
    return _filled((dim, dim), rows, cols, values,
                   lambda j: f"ladder amplitude of {basis.states()[j]} past the float range")


@cache
def _k_entries(na: int, nb: int, modes: Tuple[int, int]) -> tuple:
    """(rows, cols, g^0 weights, g^1 weights, factors, certificate) of K's truncated matrix
    with the coupling formal: K is affine in it, so entry [i, j] at gbar is
    (c0 + gbar c1) * factor.  Read-only arrays with one slot per nonzero entry,
    O(dim) of them (K has at most three terms per ket).  The certificate, from the exact
    amplitudes: none above the diagonal and none of g on it, so every spectrum is the diagonal.

    The factor is kept apart and applied last, as :func:`ladder_matrix` applies
    it to the exact amplitude, so the entries round alike: folded into c1 it
    puts 1.8e-12 between the two routes at gbar = 1000 and cutoff 12."""
    rows, cols, amps, factors = _entries(k_ladder(None, modes), FockBasis(na, nb))
    weights = [{a: complex(Coefficient.of(q)) for (a, _), q in amp.terms} for amp in amps]
    out = (rows, cols, np.array([w.get(0, 0j) for w in weights], dtype=complex),
           np.array([w.get(1, 0j) for w in weights], dtype=complex), factors)
    for arr in out:
        arr.flags.writeable = False
    return (*out, bool((cols <= rows).all()) and all(a.is_scalar() for a, i, j in zip(amps, rows, cols) if i == j))


def k_lower_triangular(na: int, nb: int, modes: Tuple[int, int] = (1, 3)) -> bool:
    """The exact certificate of :func:`_k_entries`; the arguments are read by :func:`_float_args`."""
    return _k_entries(*_float_args(0, na, nb, modes)[1:])[-1]


def k_matrix(gbar: GbarLike, na: int, nb: int, modes: Tuple[int, int] = (1, 3)) -> np.ndarray:
    """Truncated matrix of K = K0 + gbar K1, exactly lower triangular in the basis order.

    The entries of K0 and K1 are built once per cutoff and modes with the
    coupling formal (:func:`_k_entries`); a call substitutes ``gbar`` into them
    and fills a fresh matrix (:func:`_filled`).  The arguments are read by
    :func:`_float_args`, and a coupling that takes an entry past the float range
    raises :class:`FloatOverflow`.
    """
    g, na, nb, modes = _float_args(gbar, na, nb, modes)
    rows, cols, c0, c1, factors, _ = _k_entries(na, nb, modes)
    with np.errstate(over="ignore", invalid="ignore"):
        values = (c0 + complex(g) * c1) * factors
    dim = (na + 1) * (nb + 1)
    return _filled((dim, dim), rows, cols, values,
                   lambda j: f"coupling {complex(g)} takes K's truncated matrix past the float range")


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    max_residual: float


def _components(matrix: np.ndarray) -> List[np.ndarray]:
    """The connected components of the graph of M's nonzero entries, grouped by size:
    one (k, s) array per size s, ascending, whose rows are the k components of that
    size, each in ascending index order.

    Entry [i, j] joins i and j whichever side of the diagonal it lies on, so
    that M is block diagonal over the components once its rows and columns
    are permuted alike: every entry between two components is exactly zero.
    """
    parent = list(range(len(matrix)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    # the boolean mask first: np.nonzero of a complex array is about twice as slow
    rows, cols = np.nonzero(matrix != 0)
    off = rows != cols
    for i, j in zip(rows[off].tolist(), cols[off].tolist()):
        ri, rj = root(i), root(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    members: Dict[int, List[int]] = defaultdict(list)
    for i in range(len(parent)):
        members[root(i)].append(i)
    by_size: Dict[int, List[List[int]]] = defaultdict(list)
    for idx in members.values():
        by_size[len(idx)].append(idx)
    return [np.array(by_size[s], dtype=np.intp) for s in sorted(by_size)]


# the float and complex dtypes ``np.linalg.eig`` takes; spectrum reads the others (float16,
# longdouble, clongdouble) as complex128
_EIG_DTYPES = frozenset(map(np.dtype, (np.float32, np.float64, np.complex64, np.complex128)))


def spectrum(matrix: np.ndarray) -> SpectrumResult:
    """Numerical eigenvalues with residual reporting, block by block.

    M is split into the connected components of its nonzero entries
    (:func:`_components`), and the components of one size are diagonalized
    in one batched ``np.linalg.eig`` call on their (k, s, s) stack.  Each
    eigenvalue is scattered back to its component's indices.  K's coupling
    changes n + m by 0 or -2, so its truncated matrix splits into the two
    parity classes of n + m, and into singletons at zero coupling.

    Residual ||M v - lam v|| <= 1e-9 max(||M||_2, 1) is checked per
    eigenpair, from one product B V - V diag(lam) per stack of blocks B;
    it equals the residual in M because every entry between components is
    exactly zero.  A failure raises :class:`CheckFailed` with the worst
    offender.  The largest column norm of M is a lower bound on ||M||_2, so
    when the worst residual already passes against that bound the SVD
    behind the 2-norm, the largest over the blocks, is skipped; the verdict
    and ``max_residual`` are the same either way.

    M is read by ``np.asarray``; a float or complex dtype that ``np.linalg.eig``
    does not take is read as complex128.  Ragged rows, a dtype that is not
    numeric, and a matrix that is not square, or is empty, raise
    :class:`UnsupportedShape`, and so does one ``np.linalg.eig`` rejects (a NaN
    or an infinite entry).
    """
    try:
        matrix = np.asarray(matrix)
    except ValueError:
        raise UnsupportedShape("spectrum needs a matrix, got ragged rows") from None
    if matrix.dtype.kind not in "biufc" or matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
        raise UnsupportedShape(f"spectrum needs a nonempty square numeric matrix, got {matrix.dtype}, {matrix.shape}")
    if matrix.dtype.kind in "fc" and matrix.dtype not in _EIG_DTYPES:
        matrix = matrix.astype(complex)
    groups = _components(matrix)
    vals = np.empty(len(matrix), dtype=complex)
    worst = 0.0
    stacks = []
    for idx in groups:
        blocks = matrix[idx[:, :, None], idx[:, None, :]]
        try:
            w, v = np.linalg.eig(blocks)
        except np.linalg.LinAlgError as exc:
            raise UnsupportedShape(f"no eigen decomposition: {exc}") from None
        res = blocks @ v
        v *= w[..., None, :]
        res -= v
        worst = max(worst, float(np.linalg.norm(res, axis=-2).max()))
        vals[idx.ravel()] = w.ravel()
        stacks.append(blocks)
    # column norms from views of M, with no complex temporary of M's size
    re, im = matrix.real, matrix.imag
    colmax = float(np.sqrt((np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)).max()))
    if worst > 1e-9 * max(colmax, 1.0):
        norm2 = max(float(np.linalg.norm(b, 2, axis=(-2, -1)).max()) for b in stacks)
        if worst > 1e-9 * max(norm2, 1.0):
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
    one :func:`mode_solver` call per pass (:func:`_formal_rows` passes ``None``,
    which keeps the coupling formal; :func:`eigenstate` its own coupling), and
    each ket is built from the one before it: A_{m2}^m |vac> from
    A_{m2}^(m-1) |vac>, then A_{m1}^n A_{m2}^m |vac> from
    A_{m1}^(n-1) A_{m2}^m |vac>.  A negative top
    yields nothing but still advances the column.
    """
    by_lam = mode_solver(gbar, modes)
    a1, a2 = by_lam[Fraction(modes[0])], by_lam[Fraction(modes[1])]
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
               modes: Tuple[int, int] = (1, 3)) -> Dict[Tuple[int, int], Coefficient]:
    """|n-bar, m-bar> = A_{m1}^n A_{m2}^m |vac> over unnormalized |n, m>, untruncated
    (:func:`eigenstate_matrix` applies the cutoffs); an n or m that is not an integer,
    or is negative, raises :class:`UnsupportedShape`.
    """
    n, m = integer(n, "quantum number n", 0), integer(m, "quantum number m", 0)
    *_, (_, state) = _kets(gbar, modes, [-1] * m + [n])
    return state


def state_inner(s1: Mapping[Tuple[int, int], Coefficient],
                s2: Mapping[Tuple[int, int], Coefficient]) -> Coefficient:
    """<s1 | s2> with the unnormalized metric <n,m|n,m> = n! m!, a scalar."""
    terms = [(a1.conj() * s2[nm], factorial(nm[0]) * factorial(nm[1])) for nm, a1 in s1.items() if nm in s2]
    return summed({0: terms}).get(0, Coefficient())


def overlap_probability(s1: Mapping[Tuple[int, int], Coefficient],
                        s2: Mapping[Tuple[int, int], Coefficient]) -> Fraction:
    """|<s1|s2>|^2 for the normalized states, exact; a zero state, or one with
    a formal coupling in its amplitudes, raises :class:`UnsupportedShape`."""
    n12 = state_inner(s1, s2)
    n11 = state_inner(s1, s1)
    n22 = state_inner(s2, s2)
    if not (n12.is_scalar() and n11.is_scalar() and n22.is_scalar()):
        raise UnsupportedShape("overlap needs states with numeric amplitudes")
    if n11.is_zero() or n22.is_zero():
        raise UnsupportedShape("cannot normalize a zero state")
    return n12.abs2() / (n11.re * n22.re)


@cache
def _formal_rows(na: int, nb: int, modes: Tuple[int, int]) -> tuple:
    """(row count, amplitudes, rows, cols, amplitude indices, factors, certificate) of
    :func:`eigenstate_matrix` with the coupling formal.

    One :func:`_kets` pass with ``gbar`` formal over the states |n-bar, m-bar> with
    n + |m2| m <= na and m <= nb, the one cutoff rule of the eigenstates.  The
    amplitudes are the distinct nonzero ones, polynomials in g (43 for the 123
    entries at cutoff 12).  The rest are read-only arrays with one slot per
    entry, in row order: its row, its column, the index of its amplitude, and
    its factor sqrt(n2! m2!) to the orthonormal basis, ``inf`` past the float
    range.  A ket that leaves the cutoffs raises :class:`CutoffTooSmall`.  The certificate:
    each row |n-bar, m-bar> is exactly 1 on its own |n, m> and 0 after it in basis order, so
    on their own columns the rows are unit lower triangular at every gbar, hence independent.
    """
    index = FockBasis(na, nb).index()
    step = abs(modes[1])
    amps: Dict[Coefficient, int] = {}
    rows, cols, ks, roots = [], [], [], []
    unit = True
    for i, (nm, ket) in enumerate(_kets(None, modes, [na - step * m for m in range(nb + 1) if step * m <= na])):
        for nm2, amp in ket.items():
            j = index.get(nm2)
            if j is None:
                raise CutoffTooSmall("eigenstate leaks outside the cutoff")
            rows.append(i)
            cols.append(j)
            ks.append(amps.setdefault(amp, len(amps)))
            roots.append(_root_factorial(*nm2))
        unit = unit and ket.get(nm) == ONE and max(cols[-len(ket):]) == index[nm]
    r, k = zip(*roots)
    with np.errstate(over="ignore"):
        factors = np.ldexp(r, k)
    out = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(ks, dtype=np.intp), factors)
    for arr in out:
        arr.flags.writeable = False
    return (i + 1, tuple(amps), *out, unit)


def eigenstates_unit_triangular(na: int, nb: int, modes: Tuple[int, int] = (1, 3)) -> bool:
    """The exact certificate of :func:`_formal_rows`; the arguments are read by :func:`_float_args`."""
    return _formal_rows(*_float_args(0, na, nb, modes)[1:])[-1]


def eigenstate_matrix(gbar: GbarLike, na: int, nb: int,
                      modes: Tuple[int, int] = (1, 3)) -> np.ndarray:
    """Rows = mode eigenstates that fit the cutoffs, in the orthonormal basis.

    Row order is the basis order (m outer, n inner) over the states |n-bar, m-bar>
    of :func:`_formal_rows`, each equal to ``eigenstate(n, m, ...)``.  The rows are
    built once per cutoff and mode pair with the coupling formal; a call puts
    ``gbar`` into their amplitudes in one :func:`~cgalgebra.ring.substituted` call,
    so each entry is the exact amplitude at ``gbar``, rounded once, times its
    factor; an amplitude that vanishes at ``gbar`` is no entry.  The arguments are
    read by :func:`_float_args`, and an entry past the float range raises
    :class:`FloatOverflow` (:func:`_filled`).
    """
    g, na, nb, modes = _float_args(gbar, na, nb, modes)
    count, amps, rows, cols, ks, factors, _ = _formal_rows(na, nb, modes)
    exact = substituted(amps, g)
    live = np.array([bool(v) for v in exact], dtype=bool)[ks]  # exactly nonzero, however small
    at_g = np.array([_complex(v) for v in exact], dtype=complex)[ks]
    with np.errstate(over="ignore", invalid="ignore"):
        values = at_g[live] * factors[live]
    return _filled((count, (na + 1) * (nb + 1)), rows[live], cols[live], values,
                   lambda j: f"eigenstate amplitude of {FockBasis(na, nb).states()[j]} past the float range")


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
    raise UnknownName(f"no quoted closed form {name!r}")


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

    g2_16 = Coefficient.monomial(Fraction(1, 16), 2, 0)
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
