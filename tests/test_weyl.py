import random
from fractions import Fraction as F

import pytest

from cgalgebra.errors import NonTerminatingSeries, UnsupportedShape
from cgalgebra.realizations import h0_op, realization_osc
from cgalgebra.ring import Coefficient, GAMMA, I, OMEGA, accumulate
from cgalgebra.weyl import (
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

X = WeylOp.coord(0)
Y = WeylOp.coord(1)
DX = WeylOp.deriv(0)
DY = WeylOp.deriv(1)
DT = WeylOp.dt()
T = WeylOp.t()


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

    def test_anticommutator(self):
        assert anticommutator(DX, X) == multiply(X, DX).scale(2) + WeylOp.one()


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
        f = Wavefunction({(1, 0): GAMMA, (0, 2): Coefficient.of(3), (): OMEGA}, phase_m=-1)
        assert (f + f.scale(-1)).poly == {}
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

    def test_normal_ordering_idempotent_via_text(self):
        rng = random.Random(31)
        for _ in range(40):
            op = rand_op(rng)
            txt = print_op(op)
            assert parse_op(txt) == op
            assert print_op(parse_op(txt)) == txt


class TestWavefunctions:
    def test_polynomial_derivative(self):
        f = Wavefunction({(0, 2): Coefficient.of(1)}, gaussian=False, phase_m=-3)
        got = apply(DY, f)
        assert got == Wavefunction({(0, 1): Coefficient.of(2)}, gaussian=False, phase_m=-3)

    def test_gaussian_rule(self):
        ground = Wavefunction.ground()
        # (Dx - x) and (Dx + x) act as -2x and 0
        assert apply(DX + X, ground).is_zero()
        assert apply(DX - X, ground) == Wavefunction({(1, 0): Coefficient.of(-2)})

    def test_dt_acts_on_phase(self):
        f = Wavefunction({(): Coefficient.of(1)}, gaussian=True, phase_m=-1)
        got = apply(DT, f)
        assert got == f.scale(Coefficient.monomial((0, -1), 0, 0))

    def test_product_compatibility(self):
        rng = random.Random(77)
        f = Wavefunction({(1, 0): Coefficient.of(2), (0, 1): Coefficient.of(1)},
                         gaussian=True, phase_m=-2)
        for _ in range(25):
            # spatial operators only: mixed phases are exercised separately
            a = rand_spatial(rng)
            b = rand_spatial(rng)
            assert apply(multiply(a, b), f) == apply(a, apply(b, f))

    def test_t_power_unsupported(self):
        f = Wavefunction.ground()
        with pytest.raises(UnsupportedShape):
            apply(T, f)

    def test_proportionality(self):
        f = Wavefunction({(1, 0): Coefficient.of(2)}, gaussian=True, phase_m=-1)
        scale = Coefficient.monomial((0, 3), -1, 0)
        g = f.scale(scale)
        assert g.proportionality(f) == scale
        h = Wavefunction({(0, 1): Coefficient.of(1)}, gaussian=True, phase_m=-1)
        assert h.proportionality(f) is None


def rand_spatial(rng):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        mono = Monomial.make(0, 0, 0,
                             (rng.randint(0, 2), rng.randint(0, 1)),
                             (rng.randint(0, 1), rng.randint(0, 1)), 0)
        terms[mono] = Coefficient.of(rng.randint(-3, 3))
    return WeylOp(terms)


# -- reference: the direct action on polynomial * exp(-x1^2/2) * phase -------

def _ref_key(key):
    """A polynomial key with its trailing zero powers dropped."""
    k = len(key)
    while k and key[k - 1] == 0:
        k -= 1
    return tuple(key[:k])


def _ref_bump(key, i, by):
    k = list(key) + [0] * (i + 1 - len(key))
    k[i] += by
    return tuple(k)


def _ref_poly_derive(poly, i, gaussian):
    """d/dxi of P (times exp(-x1^2/2) when gaussian and i == 0)."""
    out = {}
    for k, v in poly.items():
        p = k[i] if i < len(k) else 0
        if p:
            accumulate(out, _ref_key(k[:i] + (p - 1,) + k[i + 1:]), v * p)
        if gaussian and i == 0:
            accumulate(out, _ref_bump(k, 0, 1), -v)
    return out


def ref_apply(op, f):
    """Reference: each term's Dt acts on the phase, its derivatives on the
    polynomial and Gaussian, innermost first, then its coordinates multiply."""
    if f.is_zero():
        return Wavefunction({}, f.gaussian, f.phase_m, f.phase_n)
    out = None
    theta = Coefficient({(0, 0): (0, f.phase_m), (0, 1): (0, f.phase_n)})
    for mono, c in op.terms():
        if mono.t_pow:
            raise UnsupportedShape("explicit t powers fall outside the closed class")
        w = c * theta ** mono.dt_pow if mono.dt_pow else c
        poly = {k: v * w for k, v in f.poly.items()}
        for i, dp in enumerate(mono.d_pows):
            for _ in range(dp):
                poly = _ref_poly_derive(poly, i, f.gaussian)
        for i, xp in enumerate(mono.x_pows):
            if xp:
                poly = {_ref_bump(k, i, xp): v for k, v in poly.items()}
        piece = Wavefunction(poly, f.gaussian, f.phase_m + mono.phase_m, f.phase_n + mono.phase_n)
        if not piece.is_zero():
            out = piece if out is None else out + piece  # raises on mixed phases
    return out if out is not None else Wavefunction({}, f.gaussian, f.phase_m, f.phase_n)


def outcome(action, op, f):
    """The text of action(op, f), or the exception type it raises."""
    try:
        return str(action(op, f))
    except UnsupportedShape:
        return UnsupportedShape


def rand_wavefunction(rng):
    poly = {}
    for _ in range(rng.choice((0, 1, 2, 2, 3, 3, 4))):
        key = (rng.randint(0, 3), rng.randint(0, 2))
        accumulate(poly, key, Coefficient.monomial((rng.randint(-3, 3), rng.randint(-3, 3)),
                                                   rng.randint(-1, 1), rng.randint(0, 1)))
    return Wavefunction(poly, rng.random() < 0.7, rng.randint(-2, 2), rng.randint(-1, 1))


def rand_apply_op(rng):
    """Operators with phases, Dt and coordinate derivatives; t powers and
    several phases now and then, so that some applications raise."""
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
            f = Wavefunction.ground()
            for _ in range(m):
                f = ref_apply(r["w-3"], f)
            for n in range(7 - 3 * m):
                if n:
                    f = ref_apply(r["w-1"], f)
                states.append(f)
        assert len(states) == 12
        results = [outcome(apply, op, f) for op in ops for f in states]
        assert results == [outcome(ref_apply, op, f) for op in ops for f in states]

    def test_random_operators_and_wavefunctions(self):
        rng = random.Random(2016)
        results = []
        for _ in range(300):
            op, f = rand_apply_op(rng), rand_wavefunction(rng)
            got = outcome(apply, op, f)
            assert got == outcome(ref_apply, op, f), (print_op(op), str(f))
            results.append(got)
        # 91 raise (t powers or mixed phases), 63 give zero, 146 a nonzero wavefunction
        assert results.count(UnsupportedShape) == 91 and results.count("0") == 63
