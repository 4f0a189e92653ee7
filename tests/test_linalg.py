import random
from collections import Counter
from fractions import Fraction as F
from math import isqrt, lcm

import numpy as np

from cgalgebra import linalg
from cgalgebra.linalg import (
    charpoly,
    det,
    eval_poly,
    fraction_sqrt,
    gaussian_rational_roots,
    nullspace,
    rank,
    rational_roots,
    solve_in_span,
)
from cgalgebra.ring import Coefficient, GAMMA, OMEGA

C = Coefficient.of


def rand_rational_matrix(rng, rows, cols):
    return [[C(F(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(cols)]
            for _ in range(rows)]


def mat_vec(m, v):
    out = []
    for row in m:
        s = Coefficient()
        for a, b in zip(row, v):
            s = s + a * b
        out.append(s)
    return out


class TestNullspace:
    def test_random_rational_matrices(self):
        rng = random.Random(3)
        for _ in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = rand_rational_matrix(rng, rows, cols)
            basis = nullspace(m)
            for v in basis:
                assert all(c.is_zero() for c in mat_vec(m, v))
            a = np.array([[complex(c) for c in row] for row in m])
            numeric_rank = np.linalg.matrix_rank(a, tol=1e-9)
            assert len(basis) == cols - numeric_rank

    def test_polynomial_entries(self):
        # kernel of [[1, w], [w, w^2]] and of a gamma-Laurent matrix
        m = [[C(1), OMEGA], [OMEGA, OMEGA * OMEGA]]
        basis = nullspace(m)
        assert len(basis) == 1
        assert all(c.is_zero() for c in mat_vec(m, basis[0]))
        m2 = [[GAMMA, C(2)], [GAMMA * GAMMA, GAMMA * 2]]
        basis = nullspace(m2)
        assert len(basis) == 1
        assert all(c.is_zero() for c in mat_vec(m2, basis[0]))
        # dimension agrees with a random rational substitution
        sub = [[c.substitute(gamma=F(5, 7), omega=F(2, 3)) for c in row] for row in m2]
        assert len(nullspace(sub)) == 1

    def test_empty_matrix(self):
        basis = nullspace([], ncols=3)
        assert len(basis) == 3


def dense_rref(m):
    """rref_fraction_free with the dense row update: every product is formed,
    zeros included.  The reference for the library's sparse update."""
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots, pivot_rows = [], []
    prev = C(1)
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        best = None
        for i in range(r, rows):
            if not a[i][c].is_zero():
                key = (sum(1 for x in a[i] if not x.is_zero()), i)
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
                for j in range(cols):
                    if not a[i][j].is_zero():
                        a[i][j] = (a[i][j] * piv).divide_exact(prev)
                continue
            fac = a[i][c]
            for j in range(cols):
                num = a[i][j] * piv - fac * a[r][j]
                a[i][j] = num.divide_exact(prev) if num else Coefficient()
        pivots.append(c)
        pivot_rows.append(r)
        prev = piv
        r += 1
    for pr, pc in zip(pivot_rows, pivots):
        piv = a[pr][pc]
        if piv == prev:
            continue
        ratio = prev.divide_exact(piv)
        a[pr] = [v * ratio if not v.is_zero() else v for v in a[pr]]
    return a, pivots, prev


def rand_sparse_ring_matrix(rng, rows, cols, density):
    """Nonzero Q(i) entries with the given density, about one in seven times
    g, 1/g or w; the closure eliminations have 24 x 40 at density 0.09."""
    def entry():
        if rng.random() >= density:
            return Coefficient()
        q = (F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)), F(rng.choice((0, 0, 1, -1))))
        if rng.random() < 0.15:
            return Coefficient.monomial(q, rng.choice((1, -1, 0)), rng.choice((0, 1)))
        return Coefficient.monomial(q)
    return [[entry() for _ in range(cols)] for _ in range(rows)]


class TestSparseRowUpdate:
    # denser large matrices take seconds: Bareiss entries are minors, whose
    # number of g, w terms grows with the rank
    CASES = [(3, 5, 0.5), (6, 6, 0.5), (8, 12, 0.5), (12, 20, 0.3), (12, 20, 0.5),
             (18, 30, 0.2), (24, 40, 0.1), (24, 40, 0.1)]

    def test_matches_the_dense_update(self, monkeypatch):
        rng = random.Random(12)
        for rows, cols, density in self.CASES:
            m = rand_sparse_ring_matrix(rng, rows, cols, density)
            assert linalg.rref_fraction_free(m) == dense_rref(m)
            basis = nullspace(m)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "rref_fraction_free", dense_rref)
                assert nullspace(m) == basis


class TestSolveAndRank:
    def test_solve_in_span(self):
        cols = [[C(1), C(0), C(2)], [C(0), C(1), C(1)]]
        target = [C(3), C(2), C(8)]
        sol = solve_in_span(cols, target)
        assert sol == [C(3), C(2)]
        assert solve_in_span(cols, [C(0), C(0), C(1)]) is None

    def test_rank(self):
        assert rank([[C(1), C(2)], [C(2), C(4)]]) == 1
        assert rank([[C(1), C(0)], [C(0), C(1)]]) == 2


def bareiss_det(m):
    """Fraction-free Bareiss elimination: a determinant by a second route."""
    n = len(m)
    if n == 0:
        return C(1)
    a = [row[:] for row in m]
    prev, sign = C(1), 1
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Coefficient()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.divide_exact(prev) if num else Coefficient()
            a[i][k] = Coefficient()
        prev = a[k][k]
    return -a[n - 1][n - 1] if sign < 0 else a[n - 1][n - 1]


def rand_ring_entry(rng):
    """A sparse sum of Q(i) multiples of g^-1, g^0, g^1 times w^0 or w^1."""
    out = Coefficient()
    for _ in range(rng.randint(0, 2)):
        q = (F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-2, 2)))
        out = out + Coefficient.monomial(q, rng.randint(-1, 1), rng.randint(0, 1))
    return out


class TestDetCharpoly:
    def test_det_matches_bareiss_over_the_ring(self):
        rng = random.Random(20)
        singular = 0
        for n in range(7):
            for k in range(12):
                m = [[rand_ring_entry(rng) for _ in range(n)] for _ in range(n)]
                if n >= 2 and k % 3 == 0:
                    # one row a multiple of another makes m singular
                    i, j = rng.sample(range(n), 2)
                    factor = rand_ring_entry(rng)
                    m[i] = [c * factor for c in m[j]]
                    singular += 1
                d = det(m)
                assert d == bareiss_det(m), (n, k)
                if n >= 2 and k % 3 == 0:
                    assert d.is_zero()
        assert singular == 20

    def test_against_numpy(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = rand_rational_matrix(rng, n, n)
            d = det(m)
            a = np.array([[complex(c) for c in row] for row in m])
            assert abs(complex(d) - np.linalg.det(a)) < 1e-9
            cp = charpoly(m)
            # evaluate det(xI - m) at x = 2 both ways
            lhs = complex(eval_poly(cp, C(2)))
            rhs = np.linalg.det(2 * np.eye(n) - a)
            assert abs(lhs - rhs) < 1e-9

    def test_eval_poly_over_q_and_over_the_ring(self):
        got = eval_poly([F(1, 2), F(0), F(3)], F(2, 3))
        assert type(got) is F and got == F(1, 2) + 3 * F(4, 9)
        got = eval_poly([C(1), GAMMA], OMEGA)
        assert isinstance(got, Coefficient) and got == 1 + GAMMA * OMEGA
        assert eval_poly([C(5)], C(7)) == C(5)

    def test_polynomial_charpoly(self):
        m = [[OMEGA, C(0)], [C(1), -OMEGA]]
        cp = charpoly(m)  # x^2 - w^2
        assert cp[2] == C(1) and cp[1].is_zero() and cp[0] == -(OMEGA * OMEGA)


class TestUnivariate:
    def test_rational_roots_basic(self):
        roots = rational_roots([F(-2), F(-1), F(1)])  # (x-2)(x+1)
        assert roots == [(F(-1), 1), (F(2), 1)]
        assert rational_roots([F(0), F(0), F(1)]) == [(F(0), 2)]
        # double roots and fractional roots together: (x-3)^2 (3x-1)
        p = [F(-9), F(33), F(-19), F(3)]
        assert rational_roots(p) == [(F(1, 3), 1), (F(3), 2)]

    def test_rational_roots_none(self):
        assert rational_roots([F(1), F(0), F(1)]) == []  # x^2 + 1

    def test_rational_roots_match_divisor_enumeration(self):
        # small coefficients, where trial division of a_0 and a_n is cheap
        rng = random.Random(1729)
        for _ in range(300):
            cs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(2, 9))]
            if cs[-1] == 0:
                cs[-1] = F(1)
            assert rational_roots(cs) == divisor_rational_roots(cs), cs

    def test_rational_roots_of_linear_factor_products(self):
        rng = random.Random(2015)
        for _ in range(150):
            cs, want = [F(rng.choice([1, -2, 3]))], {}
            for _ in range(rng.randint(1, 4)):
                p, q, k = rng.randint(-12, 12), rng.randint(1, 60), rng.randint(1, 6)
                for _ in range(k):
                    cs = poly_mul(cs, [F(-p), F(q)])
                want[F(p, q)] = want.get(F(p, q), 0) + k
            if rng.random() < 0.5:
                cs = poly_mul(cs, [F(rng.randint(1, 5)), F(0), F(1)])  # x^2 + c
            assert rational_roots(cs) == sorted(want.items()), cs

    def test_rational_roots_large_leading_coefficient(self):
        # a_n is about 1e12: the float root is too coarse for limit_denominator
        cs = poly_mul([F(-999982), F(999983)], [F(1), F(0), F(999979)])
        assert rational_roots(cs) == divisor_rational_roots(cs) == [(F(999982, 999983), 1)]

    def test_rational_roots_beyond_float_precision(self, deadline):
        near = F(1, 3) + F(1, 10 ** 9)
        cases = [
            ([F(-(10 ** 20 + 39)), F(1)], [F(-1), F(3)], [F(5), F(-7), F(11)]),
            ([F(-1), F(3)], [-near, F(1)], [F(1), F(0), F(1)]),
            ([F(-1), F(3)], [-F(1, 3) - F(1, 10 ** 14), F(1)], [F(-2), F(7)]),
            ([F(-10 ** 400), F(1)], [F(-355), F(113)]),
        ]
        want = [
            [(F(1, 3), 1), (F(10 ** 20 + 39), 1)],
            [(F(1, 3), 1), (near, 1)],
            [(F(2, 7), 1), (F(1, 3), 1), (F(1, 3) + F(1, 10 ** 14), 1)],
            [(F(355, 113), 1), (F(10 ** 400), 1)],
        ]
        with deadline(5):
            for factors, roots in zip(cases, want):
                cs = [F(1)]
                for f in factors:
                    cs = poly_mul(cs, f)
                assert rational_roots(cs) == roots, factors

    def test_rational_roots_of_tight_clusters(self, deadline):
        # up to 4 real roots within 1e-18 of each other: float roots cannot
        # tell them apart, so they are resolved one Newton round at a time
        rng = random.Random(5)
        with deadline(10):
            for e in (9, 12, 15, 18):
                for trial in range(3):
                    base = F(rng.randint(-50, 50), rng.randint(1, 50))
                    roots = [base + F(k, 10 ** e * rng.randint(1, 9)) for k in range(rng.randint(2, 4))]
                    cs = [F(1)]
                    for r in roots:
                        cs = poly_mul(cs, [-r, F(1)])
                    if trial == 1:
                        cs = poly_mul(cs, [F(1), F(0), F(1)])
                    assert rational_roots(cs) == sorted(Counter(roots).items()), roots

    def test_rational_roots_huge_coefficients_finish(self, deadline):
        # a_0 is about 3e48: trial division up to its square root never ends
        cs = poly_mul([F(-(10 ** 15 + 37)), F(1)], [F(3), F(0), F(1)])
        for _ in range(2):
            cs = poly_mul(cs, [F(10 ** 9 + 7), F(97)])
        with deadline(5):
            assert rational_roots(cs) == [(F(-(10 ** 9 + 7), 97), 2), (F(10 ** 15 + 37), 1)]

    def test_fraction_sqrt(self):
        assert fraction_sqrt(F(4)) == 2
        assert fraction_sqrt(F(4, 9)) == F(2, 3)
        assert fraction_sqrt(F(2)) is None
        assert fraction_sqrt(F(-1)) is None

    def test_gaussian_rational_roots(self):
        # (x - 2)(x - i)
        cs = [Coefficient.of((0, 2)), Coefficient.of((-2, -1)), Coefficient.of((1, 0))]
        assert gaussian_rational_roots(cs) == [F(2)]


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def divisor_rational_roots(coeffs):
    """The rational-root theorem by trial division: p | a_0, q | a_n."""
    def divisors(n):
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return sorted(set(small) | {n // d for d in small})

    def value(cs, x):
        out = F(0)
        for c in reversed(cs):
            out = out * x + c
        return out

    cs = list(coeffs)
    mults = {}
    while len(cs) > 1:
        if cs[0] == 0:
            cs = cs[1:]
            mults[F(0)] = mults.get(F(0), 0) + 1
            continue
        den = lcm(*(c.denominator for c in cs))
        a0, an = int(cs[0] * den), int(cs[-1] * den)
        found = next((x for p in divisors(abs(a0)) for q in divisors(abs(an))
                      for x in (F(p, q), F(-p, q)) if value(cs, x) == 0), None)
        if found is None:
            break
        while len(cs) > 1 and value(cs, found) == 0:
            quo, acc = [F(0)] * (len(cs) - 1), F(0)
            for k in range(len(cs) - 1, 0, -1):
                acc = cs[k] + acc * found
                quo[k - 1] = acc
            cs = quo
            mults[found] = mults.get(found, 0) + 1
    return sorted(mults.items())
