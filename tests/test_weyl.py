import json
import random
from collections import defaultdict
from fractions import Fraction as F
from itertools import product, zip_longest
from math import comb, factorial
from pathlib import Path

import pytest
from monomials import dense

from cgalgebra import weyl
from cgalgebra.errors import AlgebraError, ComplexFrequency, NonTerminatingSeries, ParseError, UnsupportedShape
from cgalgebra.fock import LadderOp
from cgalgebra.realizations import h0_op, realization_osc
from cgalgebra.ring import Coefficient, GAMMA, I, OMEGA, summed
from cgalgebra.weyl import (
    Monomial,
    WeylOp,
    _contractions,
    _time_block,
    ad_series,
    anticommutator,
    apply,
    commutator,
    multiply,
    parse_op,
    print_op,
    similarity,
)

X = WeylOp.coord(0)
Y = WeylOp.coord(1)
DX = WeylOp.deriv(0)
DY = WeylOp.deriv(1)
DT = WeylOp.dt()
T = WeylOp.t()


def accumulate(acc, key, value):
    """Reference sparse add: acc[key] += value, a key whose sum cancels dropped."""
    value = acc.get(key, Coefficient()) + value
    if value:
        acc[key] = value
    else:
        acc.pop(key, None)


def rand_op(rng, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = Monomial.make(rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(0, 2),
                             (rng.randint(0, 2), rng.randint(0, 2)),
                             (rng.randint(0, 2), rng.randint(0, 2)),
                             rng.randint(0, 1))
        c = Coefficient.monomial(
            (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))),
            rng.randint(-1, 1), rng.randint(0, 1))
        terms[mono] = terms.get(mono, Coefficient()) + c
    return WeylOp(terms)


def symbol_product(a, b):
    """The commutative product: exponents add, nothing contracts."""
    def added(m1, m2):
        (x1, d1), (x2, d2) = (dense(m, max(m1.arity, m2.arity)) for m in (m1, m2))
        return [p + q for p, q in zip(x1, x2)], [p + q for p, q in zip(d1, d2)]
    return WeylOp((Monomial.make(m1.phase_m + m2.phase_m, m1.phase_n + m2.phase_n, m1.t_pow + m2.t_pow,
                                 *added(m1, m2), m1.dt_pow + m2.dt_pow), c1 * c2)
                  for m1, c1 in a.terms() for m2, c2 in b.terms())


def function_op(rng):
    """A random derivative-free operator."""
    return WeylOp((Monomial.make(m.phase_m, m.phase_n, m.t_pow, dense(m)[0]), c)
                  for m, c in rand_op(rng).terms())


class TestProduct:
    def test_canonical_commutation(self):
        assert multiply(DX, X) == multiply(X, DX) + WeylOp.one()
        assert commutator(DX, X) == WeylOp.one()
        assert commutator(DY, Y) == WeylOp.one()
        assert commutator(DT, T) == WeylOp.one()
        assert commutator(DX, Y).is_zero()

    def test_phase_derivation(self):
        ph = WeylOp.phase(2, 0)
        two_i = Coefficient.monomial((0, 2), 0, 0)
        assert multiply(DT, ph) == multiply(ph, DT) + ph.scale(two_i)
        # formal-frequency phase picks up i*w
        phw = WeylOp.phase(0, 1)
        iw = Coefficient.monomial((0, 1), 0, 1)
        assert multiply(DT, phw) == multiply(phw, DT) + phw.scale(iw)

    def test_polynomial_time(self):
        assert multiply(DT, T) == multiply(T, DT) + WeylOp.one()
        # negative powers participate in the Leibniz rule too
        tm1 = WeylOp.t(-1)
        assert multiply(DT, tm1) == multiply(tm1, DT) - WeylOp.t(-2)

    def test_euler_operator(self):
        assert commutator(multiply(X, DX), X) == X

    def test_associativity_and_jacobi_random(self):
        rng = random.Random(42)
        for _ in range(100):
            a, b, c = rand_op(rng), rand_op(rng), rand_op(rng)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            jac = (commutator(a, commutator(b, c))
                   + commutator(b, commutator(c, a))
                   + commutator(c, commutator(a, b)))
            assert jac.is_zero()

    def test_commutator_matches_both_products(self):
        rng = random.Random(42)  # the triples of the associativity and Jacobi test
        for _ in range(100):
            a, b, c = rand_op(rng), rand_op(rng), rand_op(rng)
            for x, y in ((a, b), (b, c), (c, a)):
                assert commutator(x, y) == multiply(x, y) - multiply(y, x)
                assert multiply(x, y, contracted=True) + symbol_product(x, y) == multiply(x, y)

    def test_functions_commute(self):
        rng = random.Random(3)
        for _ in range(20):
            f, g, b = function_op(rng), function_op(rng), rand_op(rng)
            assert commutator(f, g).is_zero()
            assert multiply(f, b, contracted=True).is_zero()

    def test_commutator_keeps_the_class_of_its_left_operand(self):
        a, b = LadderOp({Monomial.make(x_pows=(1,)): 1}), LadderOp({Monomial.make(d_pows=(1,)): 1})
        assert type(commutator(a, b)) is LadderOp and commutator(b, a) == WeylOp.one()
        assert type(commutator(DX, a)) is WeylOp and commutator(DX, a) == WeylOp.one()
        assert type(commutator(a, DX)) is LadderOp

    def test_anticommutator(self):
        assert anticommutator(DX, X) == multiply(X, DX).scale(2) + WeylOp.one()

    @pytest.mark.parametrize("bracket, contracted", [(commutator, True), (anticommutator, False)])
    def test_a_bracket_is_two_products_into_one_sum(self, bracket, contracted, monkeypatch):
        """Both orders append to one accumulator, and one ``summed`` call adds it."""
        a, b = rand_op(random.Random(5)), rand_op(random.Random(6))
        want = bracket(a, b)
        products, sums = [], []

        def spy_multiply(x, y, **kw):
            products.append(kw)
            return multiply(x, y, **kw)

        monkeypatch.setattr(weyl, "multiply", spy_multiply)
        monkeypatch.setattr(weyl, "summed", lambda acc: sums.append(acc) or summed(acc))
        assert bracket(a, b) == want
        assert [kw.get("contracted", False) for kw in products] == [contracted] * 2
        assert products[0]["into"] is products[1]["into"] is sums[0] and len(sums) == 1

    def test_a_product_into_an_accumulator(self):
        """``into`` takes the (coefficient, weight) pairs that ``summed`` adds to the product;
        it adds to what the accumulator holds already, and the call returns None."""
        rng = random.Random(42)  # the triples of the associativity and Jacobi test
        for _ in range(100):
            a, b, c = rand_op(rng), rand_op(rng), rand_op(rng)
            for contracted in (False, True):
                acc = defaultdict(list)
                assert multiply(a, b, contracted=contracted, into=acc) is None
                assert summed(acc) == dict(multiply(a, b, contracted=contracted).terms())
                multiply(a, c, contracted=contracted, into=acc)
                assert summed(acc) == dict(multiply(a, b + c, contracted=contracted).terms())

    def test_ladder_brackets_stay_ladder_operators(self):
        a, adag = LadderOp({Monomial.make(d_pows=(1,)): 1}), LadderOp({Monomial.make(x_pows=(1,)): 1})
        com, anti = commutator(a, adag), anticommutator(a, adag)
        assert type(com) is LadderOp and com == WeylOp.one()
        assert type(anti) is LadderOp and anti == multiply(adag, a).scale(2) + WeylOp.one()

    @pytest.mark.parametrize("k", [-1, 1.5, F(2)])
    def test_power_outside_the_naturals_is_typed(self, k):
        with pytest.raises(UnsupportedShape, match="integer >= 0"):
            X ** k

    @pytest.mark.parametrize("left, right", [(X, 2), (2, X), (X, I), (I, X), (X, F(1, 2)),
                                             (LadderOp(Y.terms()), 2), (2, LadderOp(Y.terms()))])
    def test_star_takes_no_scalar(self, left, right):
        """``*`` is the operator product only; a scalar factor is written ``scale(c)``."""
        with pytest.raises(TypeError):
            left * right

    @pytest.mark.parametrize("left, right", [(X, 2), (2, X), (X, I), (LadderOp(Y.terms()), 2)])
    def test_sum_and_difference_take_no_scalar(self, left, right):
        """``+`` and ``-`` take operators only; a scalar term is written ``WeylOp.scalar(c)``."""
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right

    @pytest.mark.parametrize("powers", [{"x_pows": (1, -1)}, {"d_pows": (-2,)}, {"dt_pow": -1}])
    def test_negative_monomial_power_is_typed(self, powers):
        with pytest.raises(UnsupportedShape, match=">= 0"):
            Monomial.make(**powers)


class TestSimilarity:
    def test_single_step(self):
        s2 = multiply(X, X).scale(F(1, 2))
        assert similarity(s2, DX, 8) == DX - X

    def test_time_shift(self):
        s = T.scale(Coefficient.monomial((0, F(-3, 2)), 0, 0))
        got = similarity(s, DT, 8)
        assert got == DT + WeylOp.scalar(Coefficient.monomial((0, F(3, 2)), 0, 0))

    def test_non_terminating(self):
        # ad of t*x*Dx on Dx grows a t power every step
        s = multiply(T, multiply(X, DX))
        with pytest.raises(NonTerminatingSeries):
            similarity(s, DX, 6)

    def test_automorphism_on_samples(self):
        rng = random.Random(9)
        s = multiply(X, X).scale(F(1, 2))
        for _ in range(25):
            a, b = rand_op(rng, 2), rand_op(rng, 2)
            try:
                sa, sb = similarity(s, a, 32), similarity(s, b, 32)
                sab = similarity(s, multiply(a, b), 32)
            except NonTerminatingSeries:
                continue
            assert sab == multiply(sa, sb)
            assert similarity(s, commutator(a, b), 32) == commutator(sa, sb)


class TestCancellation:
    def test_sum_with_negative_is_empty(self):
        rng = random.Random(5)
        for _ in range(20):
            op = rand_op(rng)
            assert len(op + (-op)) == 0 and (op - op).is_zero()
            assert WeylOp([*op.terms(), *(-op).terms()]) == WeylOp.zero()
        f = wavefunction(-1, {(1, 0): GAMMA, (0, 2): Coefficient.of(3), (): OMEGA})
        assert len(f + f.scale(-1)) == 0
        assert (f - f).is_zero()


class TestParameterMaps:
    def test_substitute_gamma(self):
        op = X.scale(GAMMA) + DX.scale(Coefficient.monomial(1, -1, 0))
        got = op.substitute(gamma=F(1, 2))
        assert got == X.scale(F(1, 2)) + DX.scale(2)

    def test_substitute_omega_folds_phases(self):
        op = WeylOp.phase(0, 1).scale(OMEGA)
        got = op.substitute(omega=3)
        assert got == WeylOp.phase(3, 0).scale(3)
        # rational frequency lands on a fractional lattice point
        got = op.substitute(omega=F(1, 3))
        assert got == WeylOp.phase(F(1, 3), 0).scale(F(1, 3))

    def test_complex_frequency_is_typed(self):
        # typed, and still the ValueError that callers outside the package catch
        assert issubclass(ComplexFrequency, AlgebraError) and issubclass(ComplexFrequency, ValueError)
        for omega in ((2, 1), (0, F(-1, 3)), Coefficient.of((F(1, 2), 5))):
            with pytest.raises(ComplexFrequency, match="complex frequency"):
                WeylOp.phase(1, 1).scale(OMEGA).substitute(omega=omega)
        # no w-phase index, nothing to fold: the coefficient takes the complex value
        assert X.scale(OMEGA).substitute(omega=(2, 1)) == X.scale((2, 1))

    def test_gamma_limit(self):
        op = X.scale(GAMMA) + Y
        assert op.gamma_limit() == Y

    def test_pt_transform(self):
        # x Dy picks a sign, i conjugates, phases negate
        op = multiply(X, DY).scale(I)
        assert op.pt_transform() == op
        ph = WeylOp.phase(2, 0)
        assert ph.pt_transform() == WeylOp.phase(-2, 0)
        assert X.pt_transform() == -X
        assert Y.pt_transform() == Y

    def test_integral_phase_is_one_key(self):
        half = WeylOp.phase(F(1, 2))
        (prod_mono, _), = multiply(half, half).terms()
        keys = [Monomial.make(1), Monomial.make(F(2, 2)), prod_mono]
        assert len(set(keys)) == 1 and all(type(m.phase_m) is int for m in keys)
        op = WeylOp.phase(1) + WeylOp.phase(F(2, 2)) + multiply(half, half)
        assert len(op) == 1 and op == WeylOp.phase(1).scale(3)
        for text in ("e[3/2,0] * (1)", "e[2,0] * (1)"):
            assert print_op(parse_op(text)) == text

    def test_multi_term_coefficient_round_trip(self):
        # the coefficient text starts with "((" and its first group "(1)" closes early
        op = X.scale(GAMMA + OMEGA)
        text = "x^1 * ((1)*g^1 + (1)*w^1)"
        assert print_op(op) == text and parse_op(text) == op

    def test_coefficient_sum_is_one_wrapped_group(self):
        # a sum of coefficient terms is read only as one balanced (...) group
        assert parse_op("x^1 * ((1)*g^1 + (1)*w^1)") == X.scale(GAMMA + OMEGA)
        for text in ("x^1 * (1)*g^1 + (1)",  # the first group closes before the end
                     "x^1 * ((1))*g^1"):
            with pytest.raises(ParseError):
                parse_op(text)

    def test_zero_round_trip(self):
        assert print_op(WeylOp.zero()) == "0" and parse_op(" 0 ") == WeylOp.zero()

    def test_coordinates_past_y_are_numbered(self):
        op = multiply(WeylOp.coord(2), WeylOp.deriv(0))
        text = "x3^1*Dx1^1 * (1)"  # three coordinates print as x1, x2, x3
        assert print_op(op) == text and parse_op(text) == op

    @pytest.mark.parametrize("text, match", [("x^1", "bad operator term"), ("x^1 * 2", "bad operator term"),
                                             ("z^1 * (1)", "bad factor"), ("x^1*Dq^1 * (1)", "bad factor")])
    def test_parse_rejects_bad_text(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_op(text)

    @pytest.mark.parametrize("text", ["x^1 * 2", "z^1 * (1)", "x^1 * (1)*q^2"])
    def test_parse_error_is_typed(self, text):
        # typed, and still the ValueError that the catalog's round-trip check catches
        assert issubclass(ParseError, AlgebraError) and issubclass(ParseError, ValueError)
        with pytest.raises(ParseError):
            parse_op(text)

    def test_normal_ordering_idempotent_via_text(self):
        rng = random.Random(31)
        for _ in range(40):
            op = rand_op(rng)
            txt = print_op(op)
            assert parse_op(txt) == op
            assert print_op(parse_op(txt)) == txt


CATALOG = Path(__file__).parent / "golden" / "catalog.json"


def corruptions(rng, text):
    """One character of ``text`` dropped, duplicated and swapped with the next, and
    ``e5``, ``/0``, ``x0`` and ``*t^1`` inserted, each at a random place."""
    at = [rng.randrange(len(text)) for _ in range(7)]
    return ([text[:at[0]] + text[at[0] + 1:], text[:at[1]] + text[at[1]:at[1] + 1] + text[at[1]:],
             text[:at[2]] + text[at[2] + 1:at[2] + 2] + text[at[2]] + text[at[2] + 2:]]
            + [text[:i] + token + text[i:] for i, token in zip(at[3:], ("e5", "/0", "x0", "*t^1"))])


class TestReader:
    """``parse_op`` reads each term exactly as ``print_op`` writes it, the terms in any
    order, and raises ``ParseError`` for every other text in time linear in its length."""

    @pytest.mark.parametrize("text", [
        "e[1/0,0]*x^1 * (1)", "x0^1 * (1)", "x01^1 * (1)", "t^1*t^2 * (1)", "Dt^1*Dt^2 * (1)",
        "e[1,0]*e[2,0] * (1)", "Dx^1*x^1 * (1)", "x^1*x^1 * (1)", "x^0 * (1)", "t^0 * (1)", "e[0,0] * (1)",
        "e[2/4,0] * (1)", "e[1.5,0] * (1)", "x1^1 * (1)", "x^1*x3^1 * (1)", "x^1 * (1e999999999999)",
        "x^1 * ((1))", "x^1 * ((1)*w^1 + (1)*g^1)", "x^1 * (1) + x^1 * (2)", "x^1 * (1) + ", "x^1  * (1)", "",
        "x^" + "9" * 5000 + " * (1)", "a" * 10 ** 6, "(" * 10 ** 6, "x^1 * (1" + " " * 10 ** 6 + ")"],
        ids=lambda text: text if len(text) < 40 else f"{text[:20]}...{len(text)}")
    def test_malformed_text_raises_quickly(self, text, deadline):
        with deadline(1), pytest.raises(ParseError):
            parse_op(text)

    @pytest.mark.parametrize("text", ["a" * 10 ** 6, "x^1 * (1" + " " * 10 ** 6 + ")", "x^1*" + "Dq^1*" * 10 ** 5 + "x^1 * (1)",
                                      "e[" + "-" * 10 ** 6 + ",0] * (1)", "x^1 * (" + "1" * 10 ** 6 + "q)",
                                      "x^1 * (" + " + ".join(f"(1)*g^{k}" for k in range(1, 10 ** 5)) + ")",
                                      "x^1 * (1) + x^1 * (" + "1" * 4000 + ")", "Dx^1*x^1 * (" + "1" * 4000 + ")"],
                             ids=["letters", "spaces", "factors", "numeral", "coefficient", "order", "repeated", "canonical"])
    def test_error_message_is_bounded(self, text):
        """A message quotes a bounded excerpt of the text and its length, never the whole text."""
        with pytest.raises(ParseError) as err:
            parse_op(text)
        assert len(str(err.value)) < 300 and "characters)" in str(err.value)

    def test_terms_in_any_order(self):
        op = parse_op("x^2 * (1/2) + Dx^2 * (-1/2)")
        assert print_op(op) == "Dx^2 * (-1/2) + x^2 * (1/2)"

    def test_long_valid_text_reads_in_linear_time(self, deadline):
        text = " + ".join(f"x^{k}*Dy^2 * (-3/2+1i)" for k in range(1, 5000))
        assert len(text) > 10 ** 5
        with deadline(1):
            op = parse_op(text)
        assert print_op(op) == text

    def test_a_far_coordinate_costs_its_text_not_its_index(self, deadline):
        """A monomial holds only the coordinates it has: coordinate 10^8 reads, prints
        and builds at the cost of its text."""
        text = "x100000000^1 * (1)"
        with deadline(1):
            assert print_op(parse_op(text)) == text
            assert WeylOp.coord(10 ** 8).arity == 10 ** 8 + 1
            assert print_op(WeylOp.deriv(10 ** 8)) == "Dx100000001^1 * (1)"

    def test_corrupted_catalog_lines_read_back_or_raise(self, deadline):
        rng = random.Random(2015)
        for key, text in sorted(json.loads(CATALOG.read_text()).items()):
            for _ in range(5):
                for bad in corruptions(rng, text):
                    with deadline(1):
                        try:
                            op = parse_op(bad)
                        except ParseError:
                            continue
                    # read back: the same terms, in print_op's order
                    assert sorted(print_op(op).split(" + ")) == sorted(bad.split(" + ")), (key, bad)


def rand_sparse_monomial(rng, arity):
    """A monomial of at most ``arity`` coordinates, most powers 0, so entries leave gaps."""
    def pows():
        return [rng.choice((0, 0, 0, 1, 2)) for _ in range(arity)]
    return Monomial.make(rng.choice((0, 1, F(1, 2))), rng.randint(0, 1), rng.randint(-1, 1), pows(), pows(),
                         rng.randint(0, 1))


class TestSparseMonomials:
    """A monomial holds the sorted (index, x power, D power) entries of the coordinates it has."""

    def test_entries_and_powers(self):
        mono = Monomial.make(x_pows={3: 1}, d_pows=(0, 2, 0, 0, 0))
        assert mono.spatial == ((1, 0, 2), (3, 1, 0)) and mono.arity == 4
        assert [mono.powers(i) for i in range(5)] == [(0, 0), (0, 2), (0, 0), (1, 0), (0, 0)]
        assert Monomial.make(x_pows=(0, 0), d_pows=[0]) == Monomial.make() and Monomial.make().arity == 0

    def test_a_mapping_is_read_as_index_to_power(self):
        assert Monomial.make(x_pows={5: 1}) == Monomial.make(x_pows=(0, 0, 0, 0, 0, 1))
        assert print_op(WeylOp({Monomial.make(x_pows={1: 2}): 1})) == "y^2 * (1)"
        assert Monomial.make(d_pows={1: 1, 0: 0}) == Monomial.make(d_pows=[0, 1])

    def test_make_from_a_mapping_equals_make_from_the_dense_sequence(self):
        rng = random.Random(5)
        for _ in range(300):
            arity = rng.randint(0, 6)
            xs, ds = ([rng.choice((0, 0, 1, 3)) for _ in range(arity)] for _ in range(2))
            dense_mono = Monomial.make(1, 0, 0, xs, ds)
            assert Monomial.make(1, 0, 0, {i: p for i, p in enumerate(xs) if p or rng.random() < 0.3},
                                 dict(enumerate(ds))) == dense_mono
            assert dense(dense_mono, arity) == (tuple(xs), tuple(ds))

    def test_sort_key_orders_as_the_dense_keys_padded_to_a_common_arity(self):
        rng = random.Random(2024)
        for _ in range(300):
            monos = {rand_sparse_monomial(rng, rng.randint(0, 6)) for _ in range(rng.randint(1, 12))}
            arity = max(m.arity for m in monos)

            def dense_key(m):
                xs, ds = dense(m, arity)
                return (m.phase_m, m.phase_n, m.t_pow) + xs + ds + (m.dt_pow,)
            assert sorted(monos, key=Monomial.sort_key) == sorted(monos, key=dense_key)
            assert weyl.monomial_order(monos) == sorted(monos, key=dense_key)


def wavefunction(phase_m, poly, t_pow=0):
    """e^{i phase_m t} t^t_pow sum c x^p y^q over poly's (p, q): c, as the
    derivative-free WeylOp that apply reads times exp(-x^2/2)."""
    return WeylOp({Monomial.make(phase_m, 0, t_pow, key): c for key, c in poly.items()})


class TestWavefunctions:
    def test_polynomial_derivative(self):
        # Dy does not see the Gaussian in x
        f = wavefunction(-3, {(0, 2): Coefficient.of(1)})
        got = apply(DY, f)
        assert got == wavefunction(-3, {(0, 1): Coefficient.of(2)})

    def test_gaussian_rule(self):
        ground = WeylOp.one()
        # (Dx - x) and (Dx + x) act as -2x and 0
        assert apply(DX + X, ground).is_zero()
        assert apply(DX - X, ground) == wavefunction(0, {(1, 0): Coefficient.of(-2)})

    def test_dt_acts_on_phase(self):
        f = WeylOp.phase(-1)
        got = apply(DT, f)
        assert got == f.scale(Coefficient.monomial((0, -1), 0, 0))

    def test_t_powers_multiply_and_phases_add(self):
        f = wavefunction(-1, {(): Coefficient.of(1)}, t_pow=1)  # t e^{-it}
        # Dt (t e^{-it}) = e^{-it} - i t e^{-it}
        assert apply(DT, f) == WeylOp.phase(-1) + f.scale(Coefficient.monomial((0, -1), 0, 0))
        assert apply(T, f) == wavefunction(-1, {(): Coefficient.of(1)}, t_pow=2)
        # two phases add to f's, and the image holds both
        two = WeylOp.phase(2) + WeylOp.phase(0, 1)
        assert apply(two, f) == WeylOp({Monomial.make(1, 0, 1): 1, Monomial.make(-1, 1, 1): 1})

    def test_product_compatibility(self):
        rng = random.Random(77)
        f = wavefunction(-2, {(1, 0): Coefficient.of(2), (0, 1): Coefficient.of(1)})
        for _ in range(25):
            # with t powers, Dt and several phases
            a = rand_apply_op(rng)
            b = rand_apply_op(rng)
            assert apply(multiply(a, b), f) == apply(a, apply(b, f))


# -- reference: the direct action on f * exp(-x1^2/2), f a sum of
# phase * t power * coordinate powers ---------------------------------------

def _ref_times(mono, pm=0, pn=0, t=0, xs=()):
    """mono times e^{i(pm + pn w)t} t^t x1^xs[0] x2^xs[1] ..., a power -1 dividing."""
    x = [a + b for a, b in zip_longest(dense(mono)[0], xs, fillvalue=0)]
    return Monomial.make(mono.phase_m + pm, mono.phase_n + pn, mono.t_pow + t, x)


def _ref_derive(fn, i):
    """d/dxi of fn * exp(-x1^2/2), over exp(-x1^2/2); i = None derives in t."""
    out = {}
    for mono, c in fn.items():
        if i is None:
            theta = Coefficient({(0, 0): (0, mono.phase_m), (0, 1): (0, mono.phase_n)})
            accumulate(out, mono, c * theta)
            if mono.t_pow:
                accumulate(out, _ref_times(mono, t=-1), c * mono.t_pow)
            continue
        p = dense(mono, i + 1)[0][i]
        if p:
            accumulate(out, _ref_times(mono, xs=(0,) * i + (-1,)), c * p)
        if i == 0:
            accumulate(out, _ref_times(mono, xs=(1,)), -c)
    return out


def ref_apply(op, f):
    """Reference: each term's Dt and coordinate derivatives act on f and the
    Gaussian, then its phase, t power and coordinates multiply."""
    out = {}
    for mono, c in op.terms():
        fn = dict(f.terms())
        for _ in range(mono.dt_pow):
            fn = _ref_derive(fn, None)
        xs, ds = dense(mono)
        for i, dp in enumerate(ds):
            for _ in range(dp):
                fn = _ref_derive(fn, i)
        for fm, v in fn.items():
            accumulate(out, _ref_times(fm, mono.phase_m, mono.phase_n, mono.t_pow, xs), v * c)
    return WeylOp(out)


def rand_wavefunction(rng):
    """A few terms over one or two phases, with t powers now and then."""
    terms = {}
    phases = [(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(rng.randint(1, 2))]
    for _ in range(rng.choice((0, 1, 2, 2, 3, 3, 4))):
        pm, pn = rng.choice(phases)
        mono = Monomial.make(pm, pn, rng.choice((0, 0, 0, 1, -1)), (rng.randint(0, 3), rng.randint(0, 2)))
        accumulate(terms, mono, Coefficient.monomial((rng.randint(-3, 3), rng.randint(-3, 3)),
                                                     rng.randint(-1, 1), rng.randint(0, 1)))
    return WeylOp(terms)


def rand_apply_op(rng):
    """Operators with phases, Dt and coordinate derivatives; t powers and
    several phases now and then."""
    terms = {}
    phases = [(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(rng.randint(1, 2))]
    for _ in range(rng.randint(1, 3)):
        pm, pn = rng.choice(phases)
        mono = Monomial.make(pm, pn, rng.choice((0,) * 10 + (1, -1)),
                             (rng.randint(0, 2), rng.randint(0, 1)),
                             (rng.randint(0, 2), rng.randint(0, 1)),
                             rng.choice((0, 0, 1, 2)))
        accumulate(terms, mono, Coefficient.monomial((rng.randint(-3, 3), rng.randint(-2, 2)),
                                                     rng.randint(-1, 1), rng.randint(0, 1)))
    return WeylOp(terms)


class TestApplyAgainstReference:
    def test_eigencheck_chain(self):
        """The osc generators and H0 on every state (w-1)^n (w-3)^m ground, n + 3m <= 6."""
        r = realization_osc()
        ops = [r[name] for name in r.names()] + [h0_op()]
        states = []
        for m in range(3):
            f = WeylOp.one()
            for _ in range(m):
                f = ref_apply(r["w-3"], f)
            for n in range(7 - 3 * m):
                if n:
                    f = ref_apply(r["w-1"], f)
                states.append(f)
        assert len(states) == 12
        results = [print_op(apply(op, f)) for op in ops for f in states]
        assert results == [print_op(ref_apply(op, f)) for op in ops for f in states]

    def test_random_operators_and_wavefunctions(self):
        rng = random.Random(2016)
        results = []
        for _ in range(300):
            op, f = rand_apply_op(rng), rand_wavefunction(rng)
            got = apply(op, f)
            assert got == ref_apply(op, f), (print_op(op), print_op(f))
            results.append(got)
        # 52 give zero; 183 carry a t power and 97 several phases, which the
        # function class holds like any other term
        zero = sum(1 for g in results if g.is_zero())
        timed = sum(1 for g in results if any(m.t_pow for m, _ in g.terms()))
        phased = sum(1 for g in results if len({(m.phase_m, m.phase_n) for m, _ in g.terms()}) > 1)
        assert (zero, timed, phased) == (52, 183, 97)


# -- reference: the per-term product, each output term added as a Coefficient
# into the term map ---------------------------------------------------------

def _ref_falling(a, r):
    out = 1
    for j in range(r):
        out *= a - j
    return out


def _ref_trim(xs, ds):
    k = len(xs)
    while k and xs[k - 1] == 0 and ds[k - 1] == 0:
        k -= 1
    return xs[:k], ds[:k]


def _ref_mono_mul(m1, c1, m2, c2, acc, contracted):
    """(c1 m1) * (c2 m2) normal ordered, each output term a Coefficient of its
    own, summed into acc by ``accumulate``; returns the number of terms."""
    n = max(m1.arity, m2.arity)
    (x1, d1), (x2, d2) = dense(m1, n), dense(m2, n)
    if contracted and not any(p and q for p, q in zip(d1, x2)) and not (
            m1.dt_pow and (m2.phase_m or m2.phase_n or m2.t_pow)):
        return 0
    base = c1 * c2
    spatial = [(tuple(p + q for p, q in zip(x1, x2)), tuple(p + q for p, q in zip(d1, d2)), 1)]
    for i, (p, q) in enumerate(zip(d1, x2)):
        if p and q:
            spatial = [_ref_trim(xs[:i] + (xs[i] - s,) + xs[i + 1:], ds[:i] + (ds[i] - s,) + ds[i + 1:])
                       + (w * comb(p, s) * _ref_falling(q, s),)
                       for xs, ds, w in spatial for s in range(min(p, q) + 1)]
    k, a = m1.dt_pow, m2.t_pow
    theta = Coefficient({(0, 0): (0, m2.phase_m), (0, 1): (0, m2.phase_n)})
    time_choices = []
    for j in range(k + 1):
        for r in range(j + 1):
            tc = base * theta ** (j - r) * (comb(k, j) * comb(j, r) * _ref_falling(a, r))
            if tc:
                time_choices.append((r, k - j, tc))
    pairs = product(spatial, time_choices)
    if contracted:
        next(pairs)
    for (xs, ds, weight), (r, dt_left, tc) in pairs:
        mono = Monomial.make(m1.phase_m + m2.phase_m, m1.phase_n + m2.phase_n,
                             m1.t_pow + a - r, xs, ds, dt_left + m2.dt_pow)
        accumulate(acc, mono, tc * weight)
    return len(spatial) * len(time_choices) - contracted


def ref_multiply(a, b, contracted=False):
    acc = {}
    for m1, c1 in a.terms():
        for m2, c2 in b.terms():
            _ref_mono_mul(m1, c1, m2, c2, acc, contracted)
    return acc


def _ref_term_count(a, b):
    """The number of terms a*b adds up: above len(a*b) where terms collide."""
    return sum(_ref_mono_mul(m1, c1, m2, c2, {}, False) for m1, c1 in a.terms() for m2, c2 in b.terms())


def _ref_sum(x, y, sign):
    out = dict(x)
    for mono, c in y.items():
        accumulate(out, mono, c if sign > 0 else -c)
    return out


def _rand_weight(rng):
    """A Q(i) weight with denominators 2-7 on a few g^a w^b, a in -1..2, b in 0..2."""
    terms = [((rng.randint(-1, 2), rng.randint(0, 2)),
              (F(rng.randint(-6, 6), rng.randint(2, 7)), F(rng.randint(-6, 6), rng.randint(2, 7))))
             for _ in range(rng.randint(1, 3))]
    c = Coefficient(terms)
    return c if c else Coefficient.of(F(1, rng.randint(2, 7)))


def rand_product_op(rng, arity, phases):
    """Terms over the given phases, with Dt powers 0-3, t powers -2..2, and
    coordinate and derivative powers up to 2 in ``arity`` coordinates."""
    terms = {}
    for _ in range(rng.randint(2, 5)):
        pm, pn = rng.choice(phases)
        mono = Monomial.make(pm, pn, rng.randint(-2, 2),
                             [rng.randint(0, 2) for _ in range(arity)],
                             [rng.randint(0, 2) for _ in range(arity)],
                             rng.choice((0, 1, 1, 2, 3)))
        accumulate(terms, mono, _rand_weight(rng))
    return WeylOp(terms)


def assert_no_zero(op):
    """No coefficient of op is zero, and none stores a zero numerator pair."""
    for mono, c in op.terms():
        assert c, mono
        assert c._den > 0 and all(re or im for re, im in c._num.values())


def assert_same_terms(got, want):
    """Equal term maps, equal hashes (canonical storage), and no zero coefficient."""
    terms = dict(got.terms())
    assert terms == want
    assert hash(got) == hash(WeylOp(want))
    assert all(hash(c) == hash(want[mono]) for mono, c in terms.items())
    assert_no_zero(got)


def _product_cases():
    rng = random.Random(1978)
    cases = []
    for _ in range(80):
        # phases p/q + n w, q up to 4, shared by both operands
        phases = [(F(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-1, 1)) for _ in range(2)]
        cases.append((rand_product_op(rng, rng.randint(0, 2), phases),
                      rand_product_op(rng, rng.randint(0, 2), phases)))
    one_term = WeylOp({Monomial.make(F(2, 3), 1, -1, (1,), (2,), 3): Coefficient.monomial((F(1, 6), F(-2, 7)), -1, 2)})
    other = rand_product_op(rng, 2, [(F(-1, 3), 0), (F(5, 2), 1)])
    cases += [(one_term, other), (other, one_term), (one_term, one_term),
              (WeylOp.zero(), other), (other, WeylOp.zero()), (WeylOp.zero(), WeylOp.zero()),
              (DX + X, DX - X)]
    return cases


class TestProductAgainstReference:
    def test_products_and_brackets(self):
        """Rational weights and phases, so that a summed slot must raise its
        denominator; in over half of the pairs some output terms collide."""
        collided = 0
        for a, b in _product_cases():
            ab, ba = ref_multiply(a, b), ref_multiply(b, a)
            assert_same_terms(multiply(a, b), ab)
            assert_same_terms(multiply(a, b, contracted=True), ref_multiply(a, b, contracted=True))
            assert_same_terms(commutator(a, b), _ref_sum(ref_multiply(a, b, True), ref_multiply(b, a, True), -1))
            assert_same_terms(anticommutator(a, b), _ref_sum(ab, ba, 1))
            collided += len(ab) < _ref_term_count(a, b)
        assert collided > 40

    def test_kernel_edge_cases(self):
        """Contractions that empty the trailing coordinates, operands of different
        arity and contracted pairs with a Dt block, in both orders and both modes."""
        XY, DXDY, Z, DZ = multiply(X, Y), multiply(DX, DY), WeylOp.coord(2), WeylOp.deriv(2)
        timed = WeylOp({Monomial.make(F(1, 2), 1, 1, (1,)): Coefficient.monomial((F(2, 3), 1), 1, 0)})
        pairs = [(DXDY, XY), (DY, Y), (DY.scale(F(3, 2)) + X, multiply(Y, Y) + DX),  # trailing zeros
                 (DX, multiply(XY, DY)), (multiply(DXDY, DZ), Z), (DZ, X + Z),  # arities 1-3
                 (multiply(DX, DT), timed), (multiply(multiply(DXDY, DT), DT), multiply(timed, XY))]
        for a, b in pairs:
            for left, right in ((a, b), (b, a)):
                for contracted in (False, True):
                    assert_same_terms(multiply(left, right, contracted=contracted),
                                      ref_multiply(left, right, contracted))
                assert_same_terms(commutator(left, right),
                                  _ref_sum(ref_multiply(left, right, True), ref_multiply(right, left, True), -1))
        # Dx Dy x y = x y Dx Dy + x Dx + y Dy + 1, and [Dy, y] = 1: the scalar key is the trimmed ()
        assert dict(multiply(DXDY, XY).terms())[Monomial.make()] == Coefficient.of(1)
        assert dict(commutator(DY, Y).terms()) == {Monomial(): Coefficient.of(1)}

    def test_a_cancelled_output_monomial_is_dropped(self):
        # (Dx + x)(Dx - x) = Dx^2 - x^2 - 1: the two x Dx terms cancel
        got = multiply(DX + X, DX - X)
        assert got == multiply(DX, DX) - multiply(X, X) - WeylOp.one()
        assert Monomial.make(x_pows=(1,), d_pows=(1,)) not in dict(got.terms())

    def test_no_coefficient_add_inside_multiply(self, monkeypatch):
        """(x + Dx + t Dt + phase)^4 with rational weights: many terms collide per
        output monomial, and none of them is summed by a Coefficient add."""
        p = (X.scale(F(1, 2)) + DX.scale((F(2, 3), F(1, 5))) + multiply(T, DT).scale(F(3, 7))
             + WeylOp.phase(F(1, 2), 1).scale(Coefficient.monomial(F(5, 4), 1, 0)))
        p2_want = ref_multiply(p, p)
        p4_want = ref_multiply(WeylOp(p2_want), WeylOp(p2_want))
        calls = []
        for name in ("__add__", "__radd__", "__sub__"):
            original = getattr(Coefficient, name)

            def counted(self, other, original=original, name=name):
                calls.append(name)
                return original(self, other)

            monkeypatch.setattr(Coefficient, name, counted)
        p2 = multiply(p, p)
        p4 = multiply(p2, p2)
        assert calls == []
        monkeypatch.undo()
        assert_same_terms(p2, p2_want)
        assert_same_terms(p4, p4_want)
        assert len(p4_want) < _ref_term_count(p2, p2) // 2


class _RefOp(dict):
    """A reference term map, with the ``terms()`` view that ``ref_multiply`` reads."""
    terms = dict.items


def ref_ad_series(s, a):
    """Reference (sum ad_s^n(a)/n!, depth): each ad term a reference commutator,
    added into the partial sum one Coefficient at a time."""
    out = term = _RefOp(a.terms())
    for n in range(1, 65):
        term = _RefOp(_ref_sum(ref_multiply(s, term), ref_multiply(term, s), -1))
        if not term:
            return out, n - 1
        out = _ref_sum(out, {mono: c * F(1, factorial(n)) for mono, c in term.items()}, 1)
    raise AssertionError("the reference ad-series did not terminate")


def _nilpotent_pairs():
    """(s, a) pairs whose ad-series terminates: each s lowers a degree that
    bounds a's terms (x^2/2 the x derivatives, g Dx the x powers, x Dy / 3
    the y powers plus x derivatives, i t the Dt powers)."""
    rng = random.Random(1969)
    exponents = [multiply(X, X).scale(F(1, 2)), DX.scale(GAMMA), multiply(X, DY).scale(F(1, 3)), T.scale(I)]
    operands = [rand_op(rng) for _ in range(6)] + [a for a, _ in _product_cases()[::8]]
    operands += [WeylOp.zero(), LadderOp(rand_op(rng).terms())]
    return [(s, a) for s in exponents for a in operands]


class TestLinearAgainstReference:
    """``+``, ``-`` and the ad-series, each one summed pass, against the
    reference sparse add: equal term maps, canonical storage, no zero."""

    def test_sums_and_differences(self):
        rng = random.Random(42)  # the 300 operators of the associativity and Jacobi triples
        pairs = _product_cases() + [(rand_op(rng), rand_op(rng)) for _ in range(150)]
        pairs.append((LadderOp(X.terms()), DX - X))
        for a, b in pairs:
            x, y = dict(a.terms()), dict(b.terms())
            for got, want in ((a + b, _ref_sum(x, y, 1)), (a - b, _ref_sum(x, y, -1)),
                              (a - a, {}), (b - a, _ref_sum(y, x, -1))):
                assert_same_terms(got, want)
            assert type(a + b) is type(a) and type(a - b) is type(a)

    def test_ad_series_and_similarity(self):
        depths = []
        for s, a in _nilpotent_pairs():
            want, depth = ref_ad_series(s, a)
            got, got_depth = ad_series(s, a)
            assert_same_terms(got, want)
            assert got_depth == depth and type(got) is type(a)
            assert similarity(s, a) == got
            depths.append(depth)
        # from depth 2 on some weight N!/n! of the common denominator N! is not 1
        assert [depths.count(d) for d in range(6)] == [25, 13, 23, 10, 5, 0]


class TestNoZeroCoefficient:
    """No term map keeps a zero coefficient, so the monomial product, whose
    base coefficient c1 * c2 is then never zero (Q(i)[g, 1/g, w] has no zero
    divisors), need not test for one."""

    def test_linear_and_parameter_maps(self):
        for a, b in _product_cases():
            for op in (a + b, a - b, a - a, -a, WeylOp([*a.terms(), *(-a).terms()]),
                       a.scale(F(-2, 3)), a.scale(GAMMA - OMEGA), a.scale(0),
                       a.substitute(gamma=F(1, 2)), a.substitute(omega=F(-1, 3)),
                       a.substitute(gamma=(2, -1), omega=3), a.scale(GAMMA).gamma_limit(),
                       a.pt_transform()):
                assert_no_zero(op)

    def test_a_cancelled_term_is_dropped(self):
        assert (X.scale(GAMMA - 2) + Y).substitute(gamma=2) == Y
        assert DX.scale(OMEGA + 1).substitute(omega=-1).is_zero()
        # e[1,0] and e[0,1] land on one phase at w = 1 and cancel there
        assert (WeylOp.phase(1) - WeylOp.phase(0, 1)).substitute(omega=1).is_zero()
        assert X.scale(GAMMA).gamma_limit().is_zero()

    def test_apply(self):
        rng = random.Random(2016)
        for _ in range(100):
            assert_no_zero(apply(rand_apply_op(rng), rand_wavefunction(rng)))


def _ref_time_block(k, a):
    """Dt^k e^{i theta t} t^a normal ordered by Leibniz, sum_j C(k,j) (Dt^j e^{i theta t} t^a) Dt^{k-j},
    each Dt^j found by deriving j times: {(t shift, Dt power left, theta power): weight}."""
    out = {}
    f = {(0, a): 1}  # (theta power, t power): weight of e^{i theta t} (i theta)^p t^m
    for j in range(k + 1):
        for (p, m), w in f.items():
            out[(a - m, k - j, p)] = out.get((a - m, k - j, p), 0) + comb(k, j) * w
        deriv = {}
        for (p, m), w in f.items():
            deriv[(p + 1, m)] = deriv.get((p + 1, m), 0) + w
            if m:
                deriv[(p, m - 1)] = deriv.get((p, m - 1), 0) + m * w
        f = deriv
    return {key: w for key, w in out.items() if w}


def _dt_operands(rng):
    """Dt^k, k = 1..3, bare and on monomials with phases, t powers and coordinates."""
    return [WeylOp({Monomial.make(pm, pn, t, xs, ds, k): _rand_weight(rng)})
            for k in (1, 2, 3)
            for pm, pn, t, xs, ds in ((0, 0, 0, (), ()), (F(1, 2), 1, -1, (1,), (2,)),
                                      (-2, 0, 2, (0, 1), (1, 1)))]


def _phase_free_operands(rng):
    """Right factors for Dt^k: phase-free monomials at t^0, for which the product builds
    no theta powers; phase-free ones at t^a, a < 0, where theta is 0 but the t block is
    not; phased ones at t^a, a < 0, for contrast; and a sum of three of them."""
    ops = []
    for pm, pn, t in [(0, 0, 0)] * 3 + [(0, 0, a) for a in (-1, -2, -3)] + [(F(-1, 3), 1, -2), (2, 0, -1)]:
        mono = Monomial.make(pm, pn, t, [rng.randint(0, 2) for _ in range(2)],
                             [rng.randint(0, 2) for _ in range(2)], rng.randint(0, 2))
        ops.append(WeylOp({mono: _rand_weight(rng)}))
    return ops + [ops[0] + ops[3] + ops[-1]]


class TestProductTables:
    """The product's weight tables, keyed by exponents, against closed forms, and
    the product where the time block needs no power of the phase derivative."""

    def test_contractions(self):
        for p in range(5):
            for q in range(5):
                table = _contractions(p, q)
                assert [s for s, _ in table] == list(range(min(p, q) + 1))
                assert [w for _, w in table] == [comb(p, s) * factorial(q) // factorial(q - s)
                                                 for s in range(min(p, q) + 1)]
                # on x^n: Dx^p x^q x^n = (q+n)!/(q+n-p)! x^{q+n-p}, term by term
                for n in range(5):
                    assert sum(w * _ref_falling(n, p - s) for s, w in table) == _ref_falling(q + n, p)

    def test_time_block(self):
        for k in range(5):
            for a in range(-3, 5):
                table = _time_block(k, a)
                assert table[0] == (0, k, 0, 1)
                assert all(w for *_, w in table)
                assert len({entry[:3] for entry in table}) == len(table)
                assert {(r, dt, p): w for r, dt, p, w in table} == _ref_time_block(k, a)

    def test_dt_across_phase_free_factors(self):
        rng = random.Random(2028)
        for a in _dt_operands(rng):
            for b in _phase_free_operands(rng):
                assert_same_terms(multiply(a, b), ref_multiply(a, b))
                assert_same_terms(multiply(a, b, contracted=True), ref_multiply(a, b, contracted=True))
                assert_same_terms(multiply(b, a), ref_multiply(b, a))
