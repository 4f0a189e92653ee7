"""Exact linear algebra over the coefficient ring.

Fraction-free (Montante/Bareiss style) elimination keeps every intermediate
entry inside the ring, so nullspaces of matrices with polynomial entries
come out exact; characteristic polynomials, and determinants as their
constant terms, divide by integers only.  Division of ring elements only
ever happens through :meth:`Coefficient.divide_exact`, which is guaranteed
to succeed at the points the algorithms use it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .ring import Coefficient

Matrix = List[List[Coefficient]]
Vector = List[Coefficient]

_ONE = Coefficient.of(1)


def _nnz(row: Sequence[Coefficient]) -> int:
    return sum(1 for c in row if not c.is_zero())


def rref_fraction_free(m: Matrix) -> Tuple[Matrix, List[int], Coefficient]:
    """Full fraction-free Gauss-Jordan elimination.

    Returns (reduced matrix, pivot column list, final pivot value d).  On
    exit every pivot entry equals d and every other entry in a pivot column
    is zero; the nullspace can be read off without any division.
    """
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: List[int] = []
    pivot_rows: List[int] = []
    prev = _ONE
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        # choose the sparsest candidate row for pivot (deterministic tie-break)
        best = None
        for i in range(r, rows):
            if not a[i][c].is_zero():
                key = (_nnz(a[i]), i)
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        i = best[1]
        if i != r:
            a[r], a[i] = a[i], a[r]
        piv = a[r][c]
        for i in range(rows):
            if i == r:
                continue
            if a[i][c].is_zero():
                # still rescale to keep all previous pivots equal
                for j in range(cols):
                    if not a[i][j].is_zero():
                        a[i][j] = (a[i][j] * piv).divide_exact(prev)
                continue
            fac, row, prow = a[i][c], a[i], a[r]
            for j in range(cols):
                x, y = row[j], prow[j]
                if x or y:  # x*piv - fac*y, with no product of a zero
                    num = (x * piv if x else x) - (fac * y if y else y)
                    row[j] = num.divide_exact(prev) if num else Coefficient()
        pivots.append(c)
        pivot_rows.append(r)
        prev = piv
        r += 1
    # normalize pivot rows so each pivot equals the final prev
    for idx, (pr, pc) in enumerate(zip(pivot_rows, pivots)):
        piv = a[pr][pc]
        if piv == prev:
            continue
        ratio = prev.divide_exact(piv)
        a[pr] = [v * ratio if not v.is_zero() else v for v in a[pr]]
    return a, pivots, prev


def nullspace(m: Matrix, ncols: Optional[int] = None) -> List[Vector]:
    """Basis of {v : m v = 0}; entries stay in the ring (denominator-free)."""
    if not m:
        n = ncols or 0
        basis = []
        for f in range(n):
            v = [Coefficient() for _ in range(n)]
            v[f] = _ONE
            basis.append(v)
        return basis
    cols = len(m[0])
    red, pivots, d = rref_fraction_free(m)
    piv_of_col = {c: i for i, c in enumerate(pivots)}
    free_cols = [c for c in range(cols) if c not in piv_of_col]
    basis = []
    for f in free_cols:
        v = [Coefficient() for _ in range(cols)]
        v[f] = d
        for c, i in piv_of_col.items():
            w = red[i][f]
            if not w.is_zero():
                v[c] = -w
        basis.append(_normalize_vector(v))
    return basis


def _normalize_vector(v: Vector) -> Vector:
    """Deterministic normalization: strip common monomial and rational content,
    then make the first nonzero entry's leading value 1 when it is a unit."""
    support = [c for c in v if not c.is_zero()]
    if not support:
        return v
    gmin = min(c.gamma_exponents()[0] for c in support)
    wmin = min(min(b for (_, b), _ in c.terms) for c in support)
    if wmin:
        wshift = Coefficient.monomial(1, 0, wmin)
        v = [c.divide_exact(wshift) if c else c for c in v]
    if gmin:
        gshift = Coefficient.monomial(1, -gmin, 0)
        v = [c * gshift if c else c for c in v]
    first = next(c for c in v if not c.is_zero())
    if len(first.terms) == 1:
        inv = _ONE.divide_exact(Coefficient.of(first.terms[0][1]))
        v = [c * inv if c else c for c in v]
    else:
        cont = first.rational_content()
        if cont and cont != 1:
            inv = Coefficient.of(Fraction(1, 1) / cont)
            v = [c * inv if c else c for c in v]
    return v


def rank(m: Matrix) -> int:
    if not m:
        return 0
    _, pivots, _ = rref_fraction_free(m)
    return len(pivots)


def det(m: Matrix) -> Coefficient:
    """det(m) = (-1)^n c_0, read off the characteristic polynomial; exact over the ring."""
    c0 = charpoly(m)[0]
    return -c0 if len(m) % 2 else c0


def solve_in_span(columns: List[Vector], target: Vector) -> Optional[Vector]:
    """Solve sum_j x_j columns[j] = target exactly; None when inconsistent.

    The solution must live in the ring (true for every structure-constant
    expansion this package performs); a genuinely fractional solution
    raises ``ValueError`` from the exact division.
    """
    if not columns:
        return [] if all(c.is_zero() for c in target) else None
    rows = len(columns[0])
    ncols = len(columns)
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(rows)]
    red, pivots, d = rref_fraction_free(aug)
    if ncols in pivots:
        return None  # pivot in the target column: inconsistent
    piv_of_col = {c: i for i, c in enumerate(pivots)}
    # free unknowns are set to zero
    sol = [Coefficient() for _ in range(ncols)]
    for c, i in piv_of_col.items():
        rhs = red[i][ncols]
        sol[c] = rhs.divide_exact(d) if rhs else Coefficient()
    return sol


def charpoly(m: Matrix) -> List[Coefficient]:
    """Characteristic polynomial det(xI - m) by Faddeev-LeVerrier.

    Returns coefficients [c_0, ..., c_n] with c_n = 1, exact over the ring
    (the algorithm divides by integers only).  M_k is kept as a list of
    columns, and c_{n-k} is added to the diagonal of m M_{k-1} in place.
    """
    n = len(m)
    coeffs = [Coefficient() for _ in range(n + 1)]
    coeffs[n] = _ONE
    mk = [[_ONE if i == j else Coefficient() for i in range(n)] for j in range(n)]
    for k in range(1, n + 1):
        # m @ M_{k-1}, by columns
        mk = [[sum((a * b for a, b in zip(row, col) if a and b), Coefficient()) for row in m]
              for col in mk]
        ck = sum((mk[i][i] for i in range(n)), Coefficient()) * Fraction(-1, k)
        coeffs[n - k] = ck
        for i in range(n):
            mk[i][i] = mk[i][i] + ck
    return coeffs


def eval_poly(coeffs: Sequence, x):
    """Horner evaluation of sum_k coeffs[k] x^k, over Q or over the ring."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


# ---------------------------------------------------------------------------
# univariate rational utilities
# ---------------------------------------------------------------------------

def rational_roots(coeffs: Sequence[Fraction]) -> List[Tuple[Fraction, int]]:
    """All rational roots (with multiplicity) of a polynomial over Q.

    ``coeffs[k]`` is the coefficient of x^k.  Candidates come from the
    floating-point roots of the square-free part, refined by exact Newton
    steps (see :func:`_root_candidates`); each is accepted only where the
    polynomial vanishes exactly, and deflated exactly as often as it does.
    Rounds repeat on the deflated polynomial while they find a root.  The
    cost is polynomial in the degree and the coefficients' bit length.  A
    root is never reported falsely; one can be missed only if Newton's
    method, started from its float value, does not converge to it (a
    cluster of real roots too tight for float eigenvalues to separate).
    """
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has every root")
    mults: dict = {}
    while len(cs) > 1 and cs[0] == 0:
        cs = cs[1:]
        mults[Fraction(0)] = mults.get(Fraction(0), 0) + 1
    found = True
    while found and len(cs) > 1:
        found = False
        for cand in _root_candidates(cs):
            while len(cs) > 1 and eval_poly(cs, cand) == 0:
                cs = _deflate(cs, cand)
                mults[cand] = mults.get(cand, 0) + 1
                found = True
    return sorted(mults.items(), key=lambda rm: rm[0])


def _root_candidates(cs: List[Fraction]) -> List[Fraction]:
    """Rational roots of the square-free part of cs, from one ``numpy.roots`` call.

    The square-free part has only simple roots, which floating point finds
    to near machine precision.  Its variable is scaled by a power of two so
    that the monic float coefficients stay near 1 whatever the size of the
    exact ones.  A rational root p/q has q dividing the leading coefficient
    a_n of the primitive integer form, so each real part x becomes
    ``x.limit_denominator(a_n)``.  Where that misses and the float root is
    (nearly) real, x is first refined by :func:`_newton` to within
    1/(2 a_n^2) of the root, the distance below which ``limit_denominator``
    returns it.  Only candidates at which the square-free part vanishes
    exactly are returned.
    """
    sf = _squarefree(cs)
    d = len(sf) - 1
    if d == 1:
        return [-sf[0]]
    a_n = lcm(*(c.denominator for c in sf))
    shift = max((c.numerator.bit_length() - c.denominator.bit_length()) // (d - k)
                for k, c in enumerate(sf[:-1]) if c)
    scale = Fraction(2) ** shift
    scaled = [float(c / scale ** (d - k)) for k, c in enumerate(sf)]
    deriv = [k * c for k, c in enumerate(sf)][1:]
    out = set()
    for y in np.roots(scaled[::-1]):
        x = Fraction(float(y.real)) * scale
        cand = x.limit_denominator(a_n)
        if eval_poly(sf, cand):
            if abs(y.imag) > _NEAR_REAL * abs(y):
                continue
            cand = _newton(sf, deriv, x, a_n).limit_denominator(a_n)
            if eval_poly(sf, cand):
                continue
        out.add(cand)
    return sorted(out)


# A float root with |Im| above this share of its modulus is taken for one of
# a complex pair and not refined.  A real root comes out of the eigenvalue
# solver real, or, in a cluster of k real roots, perturbed by up to about
# eps^(1/k) of its modulus (1e-4 for k = 4).
_NEAR_REAL = 1e-3
# Next to a cluster Newton's method converges only linearly, by about
# (k - 1)/k a step, until the iterate resolves a single root.
_NEWTON_STEPS = 256


def _newton(f: List[Fraction], df: List[Fraction], x: Fraction, a_n: int) -> Fraction:
    """Newton's method on f (simple roots, derivative df) from x, in exact arithmetic.

    Each iterate is rounded to a multiple of 2^-b, with 2^-b far below
    1/(2 a_n^2), so the fractions stay small.  It stops once a step is under
    1/(4 a_n^2), where quadratic convergence leaves x well within 1/(2 a_n^2)
    of the root, or after a bounded number of steps.
    """
    tol = Fraction(1, 4 * a_n * a_n)
    den = 1 << (2 * a_n.bit_length() + 4)
    for _ in range(_NEWTON_STEPS):
        slope = eval_poly(df, x)
        if not slope:
            break
        step = eval_poly(f, x) / slope
        x = Fraction(round((x - step) * den), den)
        if abs(step) < tol:
            break
    return x


def _squarefree(cs: List[Fraction]) -> List[Fraction]:
    """Monic cs / gcd(cs, cs'): the same roots, each of multiplicity one."""
    deriv = [k * c for k, c in enumerate(cs)][1:]
    sf = _poly_divmod(cs, _poly_gcd(cs, deriv))[0]
    return [c / sf[-1] for c in sf]


def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    """Quotient and remainder over Q; b has a nonzero leading coefficient."""
    rem = list(a)
    db = len(b) - 1
    quo = [Fraction(0)] * max(len(rem) - db, 1)
    for k in range(len(rem) - 1 - db, -1, -1):
        c = rem[k + db] / b[-1]
        quo[k] = c
        if c:
            for j in range(db + 1):
                rem[k + j] -= c * b[j]
    rem = rem[:db]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    """Monic greatest common divisor over Q by Euclid's algorithm; a != 0."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _deflate(cs: List[Fraction], root: Fraction) -> List[Fraction]:
    """Synthetic division by (x - root); the remainder vanishes for exact roots."""
    n = len(cs) - 1
    out = [Fraction(0)] * n
    acc = cs[n]
    out[n - 1] = acc
    for k in range(n - 1, 0, -1):
        acc = cs[k] + acc * root
        out[k - 1] = acc
    return out


def fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def gaussian_rational_roots(coeffs: Sequence[Coefficient]) -> List[Fraction]:
    """Rational roots of a polynomial whose coefficients are scalar Coefficients.

    A rational root must kill both the real and the imaginary part.
    """
    res = [c.re for c in coeffs]
    ims = [c.im for c in coeffs]
    base = res if any(res) else ims
    if not any(base):
        raise ValueError("zero polynomial")
    out = []
    for root, _ in rational_roots(base):
        if eval_poly(res, root) == 0 and eval_poly(ims, root) == 0:
            out.append(root)
    return out
