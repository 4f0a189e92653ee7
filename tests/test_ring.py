import random
from fractions import Fraction as F
from math import gcd

import pytest

from cgalgebra.errors import AlgebraError, FloatOverflow, SingularLimit, ZeroSubstitution
from cgalgebra.ring import (
    Coefficient,
    GAMMA,
    GAMMA_INV,
    OMEGA,
    accumulate,
)


def gr(re=0, im=0):
    return Coefficient.of((F(re), F(im)))


def rand_gaussian(rng):
    return Coefficient.of((F(rng.randint(-9, 9), rng.randint(1, 5)),
                           F(rng.randint(-9, 9), rng.randint(1, 5))))


def rand_coeff(rng, n_terms=3):
    d = {}
    for _ in range(rng.randint(1, n_terms)):
        key = (rng.randint(-2, 2), rng.randint(0, 2))
        d[key] = d.get(key, gr()) + rand_gaussian(rng)
    return Coefficient(d)


class TestGaussianRational:
    """Gaussian rationals, the scalar Coefficients."""

    def test_field_axioms_random(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b, c = (rand_gaussian(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            if not b.is_zero():
                assert a.divide_exact(b) * b == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gr(1).divide_exact(gr(0))

    def test_conj_involution(self):
        rng = random.Random(5)
        for _ in range(50):
            q = rand_gaussian(rng)
            assert q.conj().conj() == q
            assert (q * q.conj()).im == 0

    def test_powers(self):
        i = gr(0, 1)
        assert i ** 2 == gr(-1)
        assert i ** -1 == gr(0, -1)
        assert gr(2, 1) ** 0 == gr(1)

    def test_text_round_trip(self):
        rng = random.Random(3)
        samples = [gr(), gr(1), gr(-2), gr(0, 1), gr(0, -1), gr(F(3, 2)),
                   gr(F(1, 2), -3), gr(-2, 1)] + [rand_gaussian(rng) for _ in range(30)]
        for q in samples:
            assert Coefficient.parse(str(q)) == q


class TestScalars:
    def test_of_accepts_exact_scalars_only(self):
        q = Coefficient.of((F(1, 2), -3))
        assert (q.re, q.im) == (F(1, 2), F(-3))
        assert Coefficient.of(F(3, 4)) == Coefficient.of((F(3, 4), 0)) == gr(F(3, 4))
        assert Coefficient.of(q) is q
        for bad in (0.5, 1j, "1", (1, 2, 3), (0.5, 0)):
            with pytest.raises(TypeError):
                Coefficient.of(bad)

    def test_parts_abs2_and_complex(self):
        q = gr(F(3, 2), -2)
        assert q.abs2() == F(25, 4) and type(q.abs2()) is F
        assert complex(q) == complex(1.5, -2.0)
        assert (gr().re, gr().im, gr().abs2(), complex(gr())) == (0, 0, 0, 0j)
        assert q.terms == (((0, 0), (F(3, 2), F(-2))),)
        with pytest.raises(ValueError):
            (GAMMA + 1).re
        with pytest.raises(ValueError):
            OMEGA.abs2()

    def test_complex_beyond_the_float_range_is_typed(self):
        assert issubclass(FloatOverflow, AlgebraError)
        for q in (gr(10**400), gr(0, -(10**400)), gr(F(1, 3), F(10**309, 3))):
            with pytest.raises(FloatOverflow):
                complex(q)
        assert complex(gr(F(10**400, 10**399), F(-1, 10**400))) == complex(10.0, 0.0)

    def test_text(self):
        assert [str(gr(*p)) for p in ((3, 1), (0, 1), (0, -1), (F(-1, 2), 0), (0, 0))] \
            == ["(3+1i)", "(1i)", "(-1i)", "(-1/2)", "0"]

    def test_negative_powers_divide_exactly(self):
        assert GAMMA ** -2 == GAMMA_INV * GAMMA_INV
        assert gr(1, 1) ** -1 == gr(F(1, 2), F(-1, 2))
        with pytest.raises(ValueError):
            (GAMMA + 1) ** -1
        with pytest.raises(ZeroDivisionError):
            gr() ** -1

    def test_gaussian_rational_factory_contract(self):
        """What ``benchmarks/workloads.py`` uses of the factory it imports."""
        import numpy as np

        from cgalgebra import fock
        from cgalgebra.ring import GaussianRational
        g = GaussianRational(F(3, 5), F(-2, 7))
        assert g == Coefficient.of((F(3, 5), F(-2, 7)))
        assert Coefficient.monomial(GaussianRational(F(2), F(-1)), 1, 1) == \
            Coefficient.monomial((2, -1), 1, 1)
        a2 = g.abs2()
        assert type(a2) is F and a2 == F(9, 25) + F(4, 49)
        formal = fock.eigenstate(1, 1)
        numeric = fock.eigenstate(1, 1, g)
        assert {k: c.substitute(gamma=g) for k, c in formal.items()} == numeric
        assert fock.k_matrix(g, 2, 2).shape == (9, 9)
        emat = fock.eigenstate_matrix(g, 3, 1)
        assert emat.shape == (5, 8) and np.linalg.matrix_rank(emat) == 5
        p = fock.overlap_probability(numeric, {(0, 0): Coefficient.of(1)})
        assert type(p) is F and p == a2 / (16 + 9 * a2)


class TestAccumulate:
    def test_keeps_no_zero_and_drops_cancelled_keys(self):
        acc = {}
        accumulate(acc, "a", Coefficient.of(2))
        accumulate(acc, "z", Coefficient())
        accumulate(acc, "z", gr())
        assert acc == {"a": Coefficient.of(2)}
        accumulate(acc, "a", GAMMA)
        assert acc == {"a": GAMMA + 2}
        accumulate(acc, "a", -(GAMMA + 2))
        assert acc == {}

    def test_constructor_accumulates(self):
        assert Coefficient([((1, 0), gr(1)), ((1, 0), gr(-1)), ((0, 0), gr(0, 1))]) \
            == Coefficient.of(gr(0, 1))
        assert Coefficient({(0, 2): 0, (1, 1): gr()}).is_zero()


class TestCoefficient:
    def test_distributivity_random(self):
        rng = random.Random(7)
        for _ in range(100):
            a, b, c = (rand_coeff(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_conj_distributes(self):
        rng = random.Random(13)
        for _ in range(100):
            a, b = rand_coeff(rng), rand_coeff(rng)
            assert (a * b).conj() == a.conj() * b.conj()
            assert a.conj().conj() == a

    def test_eval_is_ring_hom(self):
        rng = random.Random(17)
        g, w = gr(2, 1), gr(F(1, 3))
        for _ in range(100):
            a, b = rand_coeff(rng), rand_coeff(rng)
            assert (a * b).substitute(g, w) == a.substitute(g, w) * b.substitute(g, w)
            assert (a + b).substitute(g, w) == a.substitute(g, w) + b.substitute(g, w)

    def test_eval_examples(self):
        # g^-1 at g=2
        assert GAMMA_INV.substitute(gr(2), gr(0)) == gr(F(1, 2))
        # 3 - 2 g w at g=1, w=3
        c = Coefficient.of(3) - GAMMA * OMEGA * 2
        assert c.substitute(gr(1), gr(3)) == gr(-3)
        # the tower central charge coefficient (3 - 2|k|) * 16 at k=3
        k = 3
        assert (3 - 2 * abs(k)) * 16 == -48
        assert Coefficient.of((3 - 2 * abs(k)) * 16).substitute(gr(5), gr(7)) == gr(-48)

    def test_zero_substitution_raises(self):
        with pytest.raises(ZeroSubstitution):
            GAMMA_INV.substitute(gr(0), gr(1))
        # polynomial part survives g = 0
        c = Coefficient.of(5) + GAMMA * 2
        assert c.substitute(gr(0), gr(0)) == gr(5)

    def test_gamma_limit(self):
        assert (Coefficient.of(5) + GAMMA * 2).gamma_limit() == Coefficient.of(5)
        assert OMEGA.gamma_limit() == OMEGA
        with pytest.raises(SingularLimit):
            (GAMMA_INV * GAMMA_INV).gamma_limit()

    def test_no_negative_omega_exponent(self):
        with pytest.raises(ValueError):
            Coefficient.monomial(gr(1), 0, -1)

    def test_divide_exact(self):
        a = (GAMMA + OMEGA) * (GAMMA_INV * 3 + OMEGA * OMEGA)
        assert a.divide_exact(GAMMA + OMEGA) == GAMMA_INV * 3 + OMEGA * OMEGA
        with pytest.raises(ValueError):
            (GAMMA + Coefficient.of(1)).divide_exact(OMEGA)

    def test_divide_exact_non_multiple_terminates(self, deadline):
        # the remainder's g exponent used to fall without bound
        with deadline(5), pytest.raises(ValueError):
            (GAMMA * GAMMA + 1).divide_exact(GAMMA + 1)
        with deadline(5), pytest.raises(ValueError):
            (OMEGA + 1).divide_exact(OMEGA + GAMMA)

    def test_divide_exact_laurent_quotient(self, deadline):
        # quotients that need the lowest admissible g exponent still divide
        a = (GAMMA_INV * GAMMA_INV + 1) * (GAMMA + OMEGA)
        with deadline(5):
            assert a.divide_exact(GAMMA + OMEGA) == GAMMA_INV * GAMMA_INV + 1
            assert a.divide_exact(GAMMA_INV * GAMMA_INV + 1) == GAMMA + OMEGA

    def test_text_round_trip(self):
        rng = random.Random(23)
        for _ in range(50):
            c = rand_coeff(rng)
            assert Coefficient.parse(str(c)) == c
        assert Coefficient.parse("0") == Coefficient()
        canonical = "(3/2) + (-2+1i)*g^-1*w^2"
        assert str(Coefficient.parse(canonical)) == canonical


# -- reference model: {(a, b): (re, im)} with Fraction parts, zeros dropped ----

def m_clean(d):
    return {k: v for k, v in d.items() if v[0] or v[1]}


def m_add(x, y, sign=1):
    d = dict(x)
    for k, (re, im) in y.items():
        r0, i0 = d.get(k, (F(0), F(0)))
        d[k] = (r0 + sign * re, i0 + sign * im)
    return m_clean(d)


def q_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def q_pow(q, k):
    if k < 0:
        n = q[0] * q[0] + q[1] * q[1]
        q, k = (q[0] / n, -q[1] / n), -k
    out = (F(1), F(0))
    for _ in range(k):
        out = q_mul(out, q)
    return out


def m_mul(x, y):
    d = {}
    for (a1, b1), p in x.items():
        for (a2, b2), q in y.items():
            d = m_add(d, {(a1 + a2, b1 + b2): q_mul(p, q)})
    return d


def m_subst(x, gamma, omega):
    d = {}
    for (a, b), q in x.items():
        if gamma is not None:
            q, a = q_mul(q, q_pow(gamma, a)), 0
        if omega is not None:
            q, b = q_mul(q, q_pow(omega, b)), 0
        d = m_add(d, {(a, b): q})
    return d


def model_of(c):
    return dict(c.terms)


def coeff_of(d):
    return Coefficient(d)


def rand_part(rng):
    return F(rng.randint(-20, 20), rng.randint(1, 12))


def rand_model(rng):
    if rng.random() < 0.1:
        return {}
    d = {}
    for _ in range(rng.randint(1, 4)):
        q = (rand_part(rng), rand_part(rng) if rng.random() < 0.6 else F(0))
        d = m_add(d, {(rng.randint(-3, 3), rng.randint(0, 3)): q})
    return d


def check_canonical(c):
    keys = [k for k, _ in c.terms]
    assert keys == sorted(keys)
    assert all(re or im for _, (re, im) in c.terms)
    assert c._den > 0
    assert gcd(c._den, *(x for v in c._num.values() for x in v)) == 1
    assert all(re or im for re, im in c._num.values())
    assert Coefficient.parse(str(c)) == c
    twin = coeff_of(model_of(c))
    assert twin == c and hash(twin) == hash(c)


class TestIntegerStorage:
    """The integer-numerator Coefficient against a Fraction-pair model."""

    def test_differential_random(self):
        rng = random.Random(2015)
        for _ in range(2000):
            mx, my = rand_model(rng), rand_model(rng)
            n = rng.randint(-6, 6)
            x, y = coeff_of(mx), coeff_of(my)
            assert model_of(x) == mx and model_of(y) == my
            results = [
                (x + y, m_add(mx, my)),
                (x - y, m_add(mx, my, -1)),
                (x * y, m_mul(mx, my)),
                # the cross terms cancel: (x + y)(x - y) = x^2 - y^2
                ((x + y) * (x - y), m_add(m_mul(mx, mx), m_mul(my, my), -1)),
                (x.conj(), {k: (re, -im) for k, (re, im) in mx.items()}),
                (x * n, m_clean({k: (re * n, im * n) for k, (re, im) in mx.items()})),
                (-y, {k: (-re, -im) for k, (re, im) in my.items()}),
            ]
            for got, want in results:
                assert model_of(got) == want
                check_canonical(got)
            assert hash(x + y) == hash(y + x)
            assert hash(x * y) == hash(y * x)
            if my:
                assert (x * y).divide_exact(y) == x
            gamma = (rand_part(rng) or F(1), rand_part(rng))
            omega = (rand_part(rng), F(0))
            for g, w in ((gamma, None), (None, omega), (gamma, omega)):
                got = x.substitute(None if g is None else Coefficient.of(g),
                                   None if w is None else Coefficient.of(w))
                assert model_of(got) == m_subst(mx, g, w)
                check_canonical(got)
