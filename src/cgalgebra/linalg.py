"""Exact linear algebra over the coefficient ring.

Fraction-free (Montante/Bareiss style) elimination keeps every intermediate
entry inside the ring, so nullspaces of matrices with polynomial entries
come out exact.  A row is the map of its nonzero entries, and catches up to
the current pivot only when a step next touches it, so the work follows the
nonzeros, not rows times columns times steps; a row still at level ONE is
never divided.
Characteristic polynomials, and determinants as their constant terms,
divide by integers only.  Division of ring elements only ever happens
through :meth:`Coefficient.divide_exact`, which is guaranteed to succeed at
the points the algorithms use it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import isqrt, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import UnsupportedShape, ZeroPolynomial
from .ring import ONE, Coefficient

Matrix = List[List[Coefficient]]
Vector = List[Coefficient]
Row = Dict[int, Coefficient]  # a row's nonzero entries by column


def _width(m: Matrix) -> int:
    """The common length of m's rows (0 for no rows); ragged rows raise :class:`UnsupportedShape`."""
    cols = len(m[0]) if m else 0
    if any(len(row) != cols for row in m):
        raise UnsupportedShape(f"ragged input: lengths {sorted({len(row) for row in m})}")
    return cols


def _over(row: Row, lv: Coefficient) -> Row:
    """The nonzero entries of row / lv; at level ONE no entry is divided."""
    if lv == ONE:
        return {j: x for j, x in row.items() if x}
    return {j: x.divide_exact(lv) for j, x in row.items() if x}


def rref_fraction_free(m: Matrix) -> Tuple[Matrix, List[int], Coefficient]:
    """Full fraction-free Gauss-Jordan elimination.

    Returns (reduced matrix, pivot column list, final pivot value d).  On
    exit every pivot entry equals d and every other entry in a pivot column
    is zero; the nullspace can be read off without any division.  Rows of
    different lengths raise :class:`UnsupportedShape`.

    Each row is held as the map {column: entry} of its nonzero entries, so
    a step reads and writes nonzeros only; the pivot is the candidate row
    with the fewest nonzeros (ties to the first).  Bareiss's step takes
    each other row to (piv row - fac pivot_row) / prev, a bare rescale by
    piv / prev where fac = 0.  That rescale is deferred: level[i] is the
    pivot value row i was last scaled to, and the factors piv_k / piv_{k-1}
    of the steps it sits out telescope to prev / level[i].  So the pivot
    row catches up as row prev / level, an eliminated row becomes
    (piv row - fac pivot_row) / level, and a closing pass lifts only the
    rows whose level is not d.  A row still at level ONE is not divided.
    Every division is exact, as its quotient is the entry the eager update
    would hold, and the result is the same.
    """
    cols = _width(m)
    a: List[Row] = [{j: x for j, x in enumerate(row) if x} for row in m]
    rows = len(a)
    level = [ONE] * rows
    pivots: List[int] = []
    prev = ONE
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        cand = [(len(a[i]), i) for i in range(r, rows) if c in a[i]]
        if not cand:
            continue
        i = min(cand)[1]
        a[r], a[i], level[r], level[i] = a[i], a[r], level[i], level[r]
        if level[r] != prev:
            a[r] = _over({j: x * prev for j, x in a[r].items()}, level[r])
        prow, piv = a[r], a[r][c]
        for i in range(rows):
            row = a[i]
            if i == r or c not in row:
                continue
            # x*piv - fac*y over both supports, where column c cancels
            fac = row[c]
            num = {j: x * piv for j, x in row.items() if j != c}
            for j, y in prow.items():
                if j != c:
                    num[j] = num[j] - fac * y if j in num else -(fac * y)
            a[i] = _over(num, level[i])
            level[i] = piv
        level[r] = piv
        pivots.append(c)
        prev = piv
        r += 1
    for i in range(rows):
        if level[i] != prev:
            a[i] = _over({j: x * prev for j, x in a[i].items()}, level[i])
    zero = Coefficient()
    return [[row.get(j, zero) for j in range(cols)] for row in a], pivots, prev


def nullspace(m: Matrix, ncols: Optional[int] = None) -> List[Vector]:
    """Basis of {v : m v = 0}, denominator-free; a matrix with no rows is ``ncols`` wide,
    and rows of another width than a given ``ncols`` raise :class:`UnsupportedShape`."""
    cols = len(m[0]) if m else ncols or 0
    if ncols is not None and ncols != cols:
        raise UnsupportedShape(f"rows {cols} wide, where ncols is {ncols}")
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
        basis.append(normalize_vector(v))
    return basis


def normalize_vector(v: Vector) -> Vector:
    """Deterministic normalization: strip common monomial and rational content,
    then make the first nonzero entry's leading value 1 when it is a unit."""
    support = [c for c in v if not c.is_zero()]
    if not support:
        return v
    gmin = min(min(a for (a, _), _ in c.terms) for c in support)
    wmin = min(min(b for (_, b), _ in c.terms) for c in support)
    if wmin:
        wshift = Coefficient.monomial(1, 0, wmin)
        v = [c.divide_exact(wshift) if c else c for c in v]
    if gmin:
        gshift = Coefficient.monomial(1, -gmin, 0)
        v = [c * gshift if c else c for c in v]
    first = next(c for c in v if not c.is_zero())
    if len(first.terms) == 1:
        inv = ONE.divide_exact(Coefficient.of(first.terms[0][1]))
        v = [c * inv if c else c for c in v]
    else:
        cont = first.rational_content()
        if cont and cont != 1:
            inv = Coefficient.of(Fraction(1, 1) / cont)
            v = [c * inv if c else c for c in v]
    return v


def rank(m: Matrix) -> int:
    _, pivots, _ = rref_fraction_free(m)
    return len(pivots)


def det(m: Matrix) -> Coefficient:
    """det(m) = (-1)^n c_0, read off the characteristic polynomial; exact over the ring.
    A ragged or non-square m raises :class:`UnsupportedShape`."""
    c0 = charpoly(m)[0]
    return -c0 if len(m) % 2 else c0


def solve_in_span(columns: List[Vector], target: Vector) -> Optional[Vector]:
    """Solve sum_j x_j columns[j] = target exactly; None when inconsistent.

    Free unknowns are zero.  The solution must live in the ring; a genuinely
    fractional one raises :class:`NotDivisible` from the exact division.
    Columns, or the target, of different lengths raise :class:`UnsupportedShape`.
    """
    if not columns:
        return [] if all(c.is_zero() for c in target) else None
    _width([*columns, target])
    ncols = len(columns)
    aug = [list(row) for row in zip(*columns, target)]
    red, pivots, d = rref_fraction_free(aug)
    if ncols in pivots:
        return None  # pivot in the target column: inconsistent
    piv_of_col = {c: i for i, c in enumerate(pivots)}
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
    A ragged or non-square m raises :class:`UnsupportedShape`.
    """
    n = len(m)
    if _width(m) != n:
        raise UnsupportedShape(f"need a square matrix, got {n} rows {len(m[0])} wide")
    coeffs = [Coefficient() for _ in range(n + 1)]
    coeffs[n] = ONE
    mk = [[ONE if i == j else Coefficient() for i in range(n)] for j in range(n)]
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

    ``coeffs[k]`` is the coefficient of x^k.  The roots of the square-free
    part come from p-adic lifting (:func:`_hensel_roots`); each is deflated
    exactly as often as the polynomial vanishes there.  It never misses a
    root and never reports a false one, and the cost is polynomial in the
    degree and the coefficients' bit length.
    """
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ZeroPolynomial("zero polynomial has every root")
    mults: dict = {}
    while len(cs) > 1 and cs[0] == 0:
        cs = cs[1:]
        mults[Fraction(0)] = mults.get(Fraction(0), 0) + 1
    roots = _hensel_roots(_squarefree(cs)) if len(cs) > 1 else []
    for root in roots:
        while len(cs) > 1 and eval_poly(cs, root) == 0:
            cs = _poly_divmod(cs, [-root, 1])[0]
            mults[root] = mults.get(root, 0) + 1
    return sorted(mults.items(), key=lambda rm: rm[0])


def _hensel_roots(sf: List[Fraction]) -> List[Fraction]:
    """Rational roots of a square-free polynomial, by p-adic (Hensel) lifting.

    f is the primitive integer form of the monic sf, a_n its leading
    coefficient, and p the first prime not dividing a_n at which every root
    of f mod p is simple; f is square-free, so only primes dividing
    a_n res(f, f') fail.  A rational root P/Q has Q | a_n, so it is a root
    mod p, and quadratic Newton steps lift each root mod p to one mod m, m a
    power of p.  N = a_n P/Q is an integer with |N| <= |a_n| + max |a_i|
    (Cauchy's bound), so once m exceeds twice that, the residue of a_n r
    mod m in (-m/2, m/2] is N.  N/a_n is kept where f vanishes exactly
    (R. Loos, "Computing rational zeros of integral polynomials by p-adic
    expansion", SIAM J. Comput. 12, 1983).
    """
    den = lcm(*(c.denominator for c in sf))
    f = [int(c * den) for c in sf]  # primitive, as sf is monic
    df = [k * c for k, c in enumerate(f)][1:]
    a_n, bound = f[-1], abs(f[-1]) + max(abs(c) for c in f[:-1])
    for p in count(2):
        if a_n % p == 0 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            continue
        fp = [c % p for c in f]
        roots = [r for r in range(p) if eval_poly(fp, r) % p == 0]
        if all(eval_poly(df, r) % p for r in roots):
            break
    out = []
    for r in roots:
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - eval_poly(f, r) * pow(eval_poly(df, r), -1, m)) % m
        n = a_n * r % m
        cand = Fraction(n - m if 2 * n > m else n, a_n)
        if eval_poly(f, cand) == 0:
            out.append(cand)
    return out


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


def gaussian_rational_roots(coeffs: Sequence[Coefficient]) -> List[Fraction]:
    """Rational roots of a polynomial whose coefficients are scalar Coefficients.

    A rational root must kill both the real and the imaginary part.
    """
    res = [c.re for c in coeffs]
    ims = [c.im for c in coeffs]
    base = res if any(res) else ims
    if not any(base):
        raise ZeroPolynomial("zero polynomial has every root")
    out = []
    for root, _ in rational_roots(base):
        if eval_poly(res, root) == 0 and eval_poly(ims, root) == 0:
            out.append(root)
    return out
