import random
from fractions import Fraction as F
from math import gcd

import pytest

from cgalgebra.errors import (AlgebraError, FloatOverflow, NegativeOmegaPower, NotDivisible, NotExact, NotScalar,
                              ParseError, SingularLimit, UnsupportedShape, ZeroDivisor, ZeroSubstitution)
from cgalgebra.ring import (
    Coefficient,
    GAMMA,
    GAMMA_INV,
    OMEGA,
    parse_number,
    substituted,
    summed,
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

    def test_no_sum_or_equality_with_a_non_scalar(self):
        # __add__ and __eq__ return NotImplemented, which Python turns into
        # a TypeError for the sum and into False for the comparison
        with pytest.raises(TypeError):
            Coefficient.of(1) + "x"
        with pytest.raises(TypeError):
            "x" + Coefficient.of(1)
        assert (Coefficient.of(1) == "x") is False
        assert Coefficient.of(1) != "x"

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

    def test_inexact_and_non_scalar_values_are_typed(self):
        # typed, and still the TypeError on which + and * return NotImplemented,
        # and the ValueError that callers outside the package catch
        assert issubclass(NotExact, AlgebraError) and issubclass(NotExact, TypeError)
        assert issubclass(NotScalar, AlgebraError) and issubclass(NotScalar, ValueError)
        for make in (lambda: Coefficient.of(0.5), lambda: Coefficient.of((1, 2, 3)),
                     lambda: Coefficient.monomial("1", 1, 0), lambda: Coefficient({(0, 0): 1j})):
            with pytest.raises(NotExact, match="exact scalar"):
                make()
        for read in (lambda: (GAMMA + 1).re, lambda: OMEGA.im, OMEGA.abs2, lambda: complex(GAMMA_INV)):
            with pytest.raises(NotScalar, match="not a scalar"):
                read()

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

    @pytest.mark.parametrize("k", [1.5, F(1, 2), F(2), 2.0])
    def test_non_integer_power_is_typed(self, k):
        with pytest.raises(UnsupportedShape, match="must be an integer"):
            Coefficient.of(2) ** k

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

    def test_rational_content(self):
        assert (GAMMA * F(4, 3) + Coefficient.of((F(2, 3), 2))).rational_content() == F(2, 3)
        assert Coefficient().rational_content() == 1  # the zero coefficient has content 1

    def test_gamma_limit(self):
        assert (Coefficient.of(5) + GAMMA * 2).gamma_limit() == Coefficient.of(5)
        assert OMEGA.gamma_limit() == OMEGA
        with pytest.raises(SingularLimit):
            (GAMMA_INV * GAMMA_INV).gamma_limit()

    def test_no_negative_omega_exponent(self):
        with pytest.raises(ValueError):
            Coefficient.monomial(gr(1), 0, -1)

    def test_negative_omega_exponent_is_typed(self):
        # typed, and still the ValueError that callers outside the package catch
        assert issubclass(NegativeOmegaPower, AlgebraError) and issubclass(NegativeOmegaPower, ValueError)
        for make in (lambda: Coefficient.monomial(F(1, 2), 1, -1), lambda: Coefficient({(0, -2): 3})):
            with pytest.raises(NegativeOmegaPower, match="negative w exponent"):
                make()

    def test_divide_exact(self):
        a = (GAMMA + OMEGA) * (GAMMA_INV * 3 + OMEGA * OMEGA)
        assert a.divide_exact(GAMMA + OMEGA) == GAMMA_INV * 3 + OMEGA * OMEGA
        with pytest.raises(ValueError):
            (GAMMA + Coefficient.of(1)).divide_exact(OMEGA)

    def test_division_errors_are_typed(self):
        # typed, and still the builtin classes that callers outside the package catch
        assert issubclass(NotDivisible, AlgebraError) and issubclass(NotDivisible, ValueError)
        assert issubclass(ZeroDivisor, AlgebraError) and issubclass(ZeroDivisor, ZeroDivisionError)
        with pytest.raises(NotDivisible, match="is not divisible by"):
            (GAMMA + 1).divide_exact(OMEGA)
        with pytest.raises(NotDivisible):
            (GAMMA * GAMMA + 1).divide_exact(GAMMA + 1)
        with pytest.raises(NotDivisible):
            (GAMMA + 1) ** -1
        with pytest.raises(ZeroDivisor, match="division by zero"):
            gr(1).divide_exact(gr(0))
        with pytest.raises(ZeroDivisor):
            gr() ** -1

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

    @pytest.mark.parametrize("text", ["(1)*q^2", "3/2", "(1) + (2)*w^-1", "(1)+(2)*g^1"])
    def test_parse_error_is_typed(self, text):
        assert issubclass(ParseError, AlgebraError) and issubclass(ParseError, ValueError)
        with pytest.raises(ParseError, match="bad coefficient term"):
            Coefficient.parse(text)

    @pytest.mark.parametrize("text", [
        "(1e10000000)", "(1/0)", "(x)", "(" + "7" * 5000 + ")", "(1.5)", "(1_0)", "( 1)", "(i)", "(1+i)", "(+1)",
        "(01)", "(-0)", "(1/1)", "(2/4)", "(1/-2)", "(0)", "(0+1i)", "(1+0i)", "(1--1i)", "(1) + (2)",
        "(1) + (1)*g^1", "(1)*g^0", "(1)*w^01", "(1)*g^" + "9" * 5000, "(1" + " " * 10 ** 6 + ")"],
        ids=lambda text: text if len(text) < 40 else f"{text[:20]}...{len(text)}")
    def test_malformed_text_raises_quickly(self, text, deadline):
        # only the text str prints reads back, and Fraction never sees the rest
        with deadline(1), pytest.raises(ParseError):
            Coefficient.parse(text)

    def test_numerals_are_those_fraction_prints(self, deadline):
        rng = random.Random(7)
        for _ in range(200):
            q = F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 30))
            assert parse_number(str(q)) == q
        assert type(parse_number("-12")) is int and type(parse_number("-3/2")) is F
        for text in ["1e5", "1.0", "1_0", " 1", "+1", "01", "-0", "1/0", "1/1", "2/4", "1/-2", "i", "", "7" * 5000]:
            with deadline(1), pytest.raises(ParseError):
                parse_number(text)

    @pytest.mark.parametrize("read, text", [(parse_number, "-" * 10 ** 6), (Coefficient.parse, "(1" + " " * 10 ** 6 + ")"),
                                            (Coefficient.parse, " + ".join(f"(1)*g^{k}" for k in range(10 ** 5)))],
                             ids=["numeral", "term", "order"])
    def test_error_message_is_bounded(self, read, text):
        """A message quotes a bounded excerpt of the text and its length."""
        with pytest.raises(ParseError) as err:
            read(text)
        assert len(str(err.value)) < 300 and "characters)" in str(err.value)

    def test_short_text_is_quoted_whole(self):
        with pytest.raises(ParseError, match=r"^bad numeral: '1\.5'$"):
            parse_number("1.5")


# -- reference model: {(a, b): (re, im)} with Fraction parts, zeros dropped ----

def m_clean(d):
    return {k: v for k, v in d.items() if v[0] or v[1]}


def m_add(x, y, w=1):
    """x + w*y for an int weight w."""
    d = dict(x)
    for k, (re, im) in y.items():
        r0, i0 = d.get(k, (F(0), F(0)))
        d[k] = (r0 + w * re, i0 + w * im)
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


class TestSubstituted:
    """The batched substitution behind ``Coefficient.substitute`` and ``WeylOp.substitute``."""

    def test_batch_against_the_fraction_model(self):
        rng = random.Random(1707)
        for _ in range(300):
            models = [rand_model(rng) for _ in range(rng.randint(1, 6))]
            gamma = (rand_part(rng) or F(1), rand_part(rng))
            omega = (rand_part(rng), rand_part(rng))
            for g, w in ((gamma, None), (None, omega), (gamma, omega)):
                got = substituted([coeff_of(m) for m in models], None if g is None else Coefficient.of(g),
                                  None if w is None else Coefficient.of(w))
                assert [model_of(c) for c in got] == [m_subst(m, g, w) for m in models]
                for c in got:
                    check_canonical(c)

    def test_each_power_is_made_once_per_call(self, monkeypatch):
        rng = random.Random(1708)
        coeffs = [Coefficient({(rng.randint(0, 3), rng.randint(0, 2)): rand_part(rng) or 1}) for _ in range(60)]
        coeffs.append(Coefficient({(a, b): 1 for a in range(4) for b in range(3)}))
        calls = []
        real = Coefficient.__pow__
        monkeypatch.setattr(Coefficient, "__pow__", lambda self, k: calls.append(k) or real(self, k))
        got = substituted(coeffs, gr(F(3, 7), F(-2, 5)), gr(F(5, 2)))
        assert sorted(calls) == [0, 0, 1, 1, 2, 2, 3]
        monkeypatch.undo()
        assert got == [c.substitute(gr(F(3, 7), F(-2, 5)), gr(F(5, 2))) for c in coeffs]

    def test_a_pole_anywhere_in_the_batch_at_gamma_zero(self):
        with pytest.raises(ZeroSubstitution):
            substituted([GAMMA, Coefficient.of(3), GAMMA_INV + 1], gr(0))
        assert substituted([GAMMA, Coefficient.of(3), OMEGA], gr(0)) == [Coefficient(), gr(3), OMEGA]

    def test_nothing_to_put_in(self):
        coeffs = [GAMMA, OMEGA * 2]
        assert all(a is b for a, b in zip(substituted(coeffs), coeffs))
        assert substituted([], gamma=gr(0)) == [] and substituted(iter(coeffs), omega=gr(1)) == [GAMMA, gr(2)]


def naive_summed(acc):
    """Each key's terms summed on the Fraction model, zero sums left out; it
    shares no adder with the library."""
    out = {}
    for key, slot in acc.items():
        total = {}
        for c, w in slot:
            total = m_add(total, model_of(c), w)
        if total:
            out[key] = total
    return out


class TestSummed:
    """``summed`` against the Fraction model, key by key."""

    def test_differential_random(self):
        rng = random.Random(1871)
        for _ in range(300):
            acc = {}
            for key in range(rng.randint(0, 6)):
                # denominators 1-12 from rand_model, so one list mixes them
                slot = [(coeff_of(rand_model(rng)), rng.randint(-5, 5)) for _ in range(rng.randint(0, 4))]
                if rng.random() < 0.2:
                    # every term again with the opposite weight: the slot cancels
                    slot += [(c, -w) for c, w in reversed(slot)]
                acc[key] = slot
            got = summed(acc)
            assert {key: model_of(c) for key, c in got.items()} == naive_summed(acc)
            for c in got.values():
                assert c
                check_canonical(c)

    def test_cancelled_key_is_dropped(self):
        x = Coefficient({(1, 0): (F(1, 2), F(-1, 3)), (0, 2): F(5, 6)})
        y = Coefficient.monomial(F(3, 4), -1, 0)
        acc = {"gone": [(x, 2), (y, 3), (x * 2, -1), (y * 3, -1)],
               "kept": [(x, 3), (x, -2)], "zero-weight": [(x, 0)], "zero": [(Coefficient(), 5)], "empty": []}
        assert summed(acc) == {"kept": x}

    def test_single_pair_is_scaled(self):
        x = Coefficient({(0, 0): F(3, 10), (2, 1): (0, F(-1, 4))})
        got = summed({"k": [(x, 6)], "neg": [(x, -3)], "one": [(x, 1)], "zero": [(Coefficient(), 1)]})
        assert got == {"k": x * 6, "neg": x * -3, "one": x}
        assert got["one"] is x
        check_canonical(got["k"])
        check_canonical(got["neg"])

    def test_single_pair_over_denominator_one(self):
        # integral storage: scaling needs no gcd, and -1 negates
        x = Coefficient({(0, 0): 3, (1, 2): (-2, 5)})
        got = summed({"k": [(x, 4)], "neg": [(x, -1)], "zero-weight": [(x, 0)]})
        assert got == {"k": x + x + x + x, "neg": Coefficient() - x}
        assert got["k"]._den == 1 and got["k"]._num == {(0, 0): (12, 0), (1, 2): (-8, 20)}
        check_canonical(got["k"])
        check_canonical(got["neg"])

    def test_mixed_denominators_reduce_to_canonical_storage(self):
        # 1/6 + 1/3 + 2 (1/4) = 1 and (1/4 + 2 (1/24)) i = i/3: over the lcm 24 the
        # numerators are (24, 8), and their gcd 8 leaves (3, 1) over 3
        acc = {"k": [(Coefficient.of(F(1, 6)), 1), (Coefficient.of((F(1, 3), F(1, 4))), 1),
                     (Coefficient.of((F(1, 4), F(1, 24))), 2)]}
        got = summed(acc)["k"]
        assert got == Coefficient.of((1, F(1, 3)))
        assert got._den == 3 and got._num == {(0, 0): (3, 1)}
        check_canonical(got)


class TestEveryRouteIntoTheAdder:
    """The constructor, ``+``/``-`` with ints and ``substitute`` against the Fraction model."""

    def test_constructor_with_repeated_keys_and_mixed_denominators(self):
        rng = random.Random(1968)
        for _ in range(500):
            terms = []  # (key, value handed to the constructor, its (re, im) Fractions)
            for _ in range(rng.randint(0, 6)):
                key = (rng.randint(-2, 2), rng.randint(0, 2))
                if terms and rng.random() < 0.25:
                    key = rng.choice(terms)[0]  # a repeated key
                q = (rand_part(rng), rand_part(rng))
                form = rng.randrange(4)
                if form == 1:
                    q, value = (q[0], F(0)), q[0]
                elif form == 2:
                    q, value = (F(q[0].numerator), F(0)), q[0].numerator
                else:
                    value = Coefficient.of(q) if form == 3 else q
                terms.append((key, value, q))
            if terms and rng.random() < 0.2:
                key, _, (re, im) = terms[0]
                terms.append((key, (-re, -im), (-re, -im)))  # cancels the first term
            want = {}
            for key, _, q in terms:
                want = m_add(want, {key: q})
            got = Coefficient([(key, value) for key, value, _ in terms])
            assert model_of(got) == want
            check_canonical(got)

    def test_ints_on_either_side(self):
        rng = random.Random(1969)
        for _ in range(300):
            mx, n = rand_model(rng), rng.randint(-4, 4)
            x, nm = coeff_of(mx), ({(0, 0): (F(n), F(0))} if n else {})
            for got, want in ((n - x, m_add(nm, mx, -1)), (x - n, m_add(mx, nm, -1)),
                              (n + x, m_add(nm, mx)), (x + n, m_add(mx, nm))):
                assert model_of(got) == want
                check_canonical(got)
        x = coeff_of(rand_model(rng))
        assert (x - 0) is x and (x + 0) is x and (0 + x) is x

    def test_substitute_of_zero(self):
        zero = Coefficient()
        for g, w in ((gr(0), gr(1)), (gr(2, 1), None), (None, gr(F(1, 3))), (gr(0), gr(0))):
            assert zero.substitute(g, w).is_zero()
            check_canonical(zero.substitute(g, w))
