import contextlib
import io
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from cgalgebra import cli, invariance, linalg
from cgalgebra.errors import (DegenerateModes, NonTerminatingSeries, NotClosed, NotDivisible, NotInIdeal, NonQuadratic,
                              SingularLimit, UnsupportedShape)
from cgalgebra.ring import Coefficient, GAMMA, GAMMA_INV, I, OMEGA
from cgalgebra.weyl import Monomial, WeylOp, coefficient_matrix, commutator, multiply, parse_op, print_op, similarity
from cgalgebra.realizations import (
    Realization,
    cga32_table,
    contraction_table,
    decoupled_generic,
    enhanced_extras,
    gen_osc,
    gen_params,
    realization_free,
    realization_osc,
    omega_ops,
    theta_family,
)
from cgalgebra.invariance import (
    SymmetryResult,
    adjoint_matrix,
    close_algebra,
    contract,
    crit_eq1,
    crit_eq2,
    critical_frequencies,
    decoupling_map,
    find_symmetries,
    lambda_candidates,
    multiplier_division,
    onshell_report,
)


def test_exact_layers_import_no_numpy():
    # ring, weyl, linalg, realizations and invariance are numpy-free; only
    # the fock spectra and the cli need it
    src = str(Path(invariance.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, cgalgebra.invariance; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestMonomialsUpTo:
    def test_matches_the_product_filter(self):
        for arity in range(7):
            for bound in range(-1, 4):
                top = max(bound, 0)
                want = sorted(e for e in product(range(top + 1), repeat=arity) if sum(e) <= top)
                assert invariance._monomials_up_to(arity, bound) == want, (arity, bound)

    def test_many_coordinates_finish(self, deadline):
        # the product filter would visit 3^24 tuples to keep 325
        with deadline(5):
            assert len(invariance._monomials_up_to(24, 2)) == 325


def inv_op(omega=None, gamma=0):
    return WeylOp.dt().scale(I) - theta_family(omega, gamma, 0)


class TestMultiplierDivision:
    def test_free_list(self):
        r = realization_free()
        op_p, op_0, op_m = omega_ops(r)
        f = multiplier_division(commutator(r["z-"], op_p), op_p)
        assert print_op(f) == "t^1 * (8)"
        f = multiplier_division(commutator(r["z+"], op_0), op_0)
        assert print_op(f) == "t^-1 * (1)"
        f = multiplier_division(commutator(r["z+"], op_m), op_m)
        assert print_op(f) == "t^-1 * (2)"

    def test_osc_list(self):
        r = realization_osc()
        _, op_0, _ = omega_ops(r)
        f = multiplier_division(commutator(r["z-"], op_0), op_0)
        assert print_op(f) == "e[-2,0] * (2i)"

    def test_zero_candidate(self):
        _, op_0, _ = omega_ops(realization_osc())
        assert multiplier_division(WeylOp.zero(), op_0).is_zero()

    def test_coefficient_division_failure_is_not_in_ideal(self):
        # Dt's coefficient g + 1 in the divisor does not divide the candidate's 1
        dt = Monomial.make(0, 0, 0, (), (), 1)
        omega_op = WeylOp({dt: GAMMA + 1})
        assert print_op(multiplier_division(WeylOp({dt: GAMMA * GAMMA + GAMMA}), omega_op)) == "1 * (1)*g^1"
        with pytest.raises(NotInIdeal, match="coefficient division failed") as info:
            multiplier_division(WeylOp({dt: Coefficient.of(1)}), omega_op)
        assert type(info.value.__context__) is NotDivisible

    def test_not_in_ideal(self):
        _, op_0, _ = omega_ops(realization_osc())
        with pytest.raises(NotInIdeal):
            multiplier_division(WeylOp.coord(0), op_0)

    @pytest.mark.parametrize("divisor, match", [
        (WeylOp.coord(0), "single Dt leading term"),
        (WeylOp.dt() + multiply(WeylOp.coord(0), WeylOp.dt()), "single Dt leading term"),
        (multiply(WeylOp.deriv(0), WeylOp.dt()), "not a function")])
    def test_divisor_shape_is_checked(self, divisor, match):
        with pytest.raises(NotInIdeal, match=match):
            multiplier_division(WeylOp.dt(), divisor)

    def test_derivatives_in_the_dt_part_leave_a_remainder(self):
        # a function times i Dt - H has no Dx Dt term, so the remainder test rejects it
        _, op_0, _ = omega_ops(realization_osc())
        with pytest.raises(NotInIdeal, match="nonzero remainder"):
            multiplier_division(multiply(WeylOp.deriv(0), WeylOp.dt()), op_0)

    def test_second_time_derivative_is_not_in_ideal(self):
        _, op_0, _ = omega_ops(realization_osc())
        with pytest.raises(NotInIdeal, match="second-order time derivative"):
            multiplier_division(WeylOp.dt() ** 2, op_0)

    def test_divisor_coordinate_missing_from_a_lower_arity_candidate(self):
        # y Dt does not divide x Dt: the candidate's missing y power counts as 0
        divisor = multiply(WeylOp.coord(1), WeylOp.dt())
        with pytest.raises(NotInIdeal, match="negative coordinate power"):
            multiplier_division(multiply(WeylOp.coord(0), WeylOp.dt()), divisor)
        assert multiplier_division(multiply(WeylOp.coord(0), divisor), divisor) == WeylOp.coord(0)

    def test_a_far_coordinate_costs_its_entries_not_its_index(self, deadline):
        """The quotient follows the coordinates a monomial has: x_{10^8} i Dt / i Dt is
        x_{10^8}, and i Dt / x_{10^8} i Dt still needs a negative power."""
        idt, far = WeylOp.dt().scale(I), WeylOp.coord(10 ** 8)
        with deadline(1):
            assert multiplier_division(multiply(far, idt), idt) == far
            with pytest.raises(NotInIdeal, match="negative coordinate power"):
                multiplier_division(idt, multiply(far, idt))

    def test_reports(self):
        r = realization_free()
        op_p, _, _ = omega_ops(r)
        rep = onshell_report(r, op_p)
        assert None not in rep.values()
        assert {g for g, m in rep.items() if m} == {"z0", "z-"}
        r = realization_osc()
        _, op_0, _ = omega_ops(r)
        rep = onshell_report(r, op_0)
        assert None not in rep.values()
        assert {g for g, m in rep.items() if m} == {"z+", "z-"}

    def test_report_marks_generators_without_multiplier(self):
        r = realization_osc()
        _, op_0, _ = omega_ops(r)
        rep = onshell_report(r, op_0 + WeylOp.coord(0))
        assert {g for g, m in rep.items() if m is None} == {"z+", "z-", "w+1", "w-1", "w-3"}


class TestCriticalFrequencies:
    def test_exact_solution_set(self):
        sols = critical_frequencies()
        assert {s.omega for s in sols} == {F(3), F(-3), F(1, 3), F(-1, 3)}
        by = {}
        for s in sols:
            by.setdefault(s.omega, set()).add(s.lam)
        assert by[F(3)] == {F(2), F(-2)}
        assert by[F(-3)] == {F(2), F(-2)}
        assert by[F(1, 3)] == {F(2, 3)}
        assert by[F(-1, 3)] == {F(-2, 3)}

    def test_back_substitution(self):
        for s in critical_frequencies():
            assert crit_eq1(s.lam, s.omega) == 0
            assert crit_eq2(s.lam, s.omega) == 0

    def test_brute_force_oracle(self):
        """Enumerate small rationals and compare against the solver output."""
        found = set()
        denoms = range(1, 7)
        nums = range(-10, 11)
        omegas = {F(p, q) for p in nums for q in denoms}
        lams = {F(p, q) for p in nums for q in denoms if p != 0}
        for w in omegas:
            for lam in lams:
                if crit_eq1(lam, w) == 0 and crit_eq2(lam, w) == 0:
                    found.add((w, lam))
        got = {(s.omega, s.lam) for s in critical_frequencies()}
        assert got == found


class TestLambdaCandidates:
    def test_decoupled_generic_formal(self):
        h = theta_family(None, 0, 0).substitute(gamma=0)
        cands = set(lambda_candidates(h))
        want = {(F(0), 0), (F(1), 0), (F(-1), 0), (F(2), 0), (F(-2), 0),
                (F(0), 1), (F(0), -1), (F(0), 2), (F(0), -2),
                (F(1), 1), (F(-1), -1), (F(1), -1), (F(-1), 1)}
        assert cands >= want

    def test_harmonic_only(self):
        h = parse_op("x^2 * (1/2) + Dx^2 * (-1/2)")
        cands = {m for m, n in lambda_candidates(h) if n == 0}
        assert cands >= {F(0), F(1), F(-1), F(2), F(-2)}

    def test_coupled_equals_decoupled(self):
        dec = lambda_candidates(theta_family(3, 0, 0).substitute(gamma=0))
        coup = lambda_candidates(theta_family(3, None, 0))
        assert dec == coup
        assert {m for m, _ in dec} == {F(0), F(1), F(-1), F(2), F(-2),
                                       F(3), F(-3), F(4), F(-4), F(6), F(-6)}

    def test_large_denominator_frequency(self):
        # the leading coefficient of the characteristic polynomial is near
        # 113^8, past the float denominator, so float roots alone miss +-w
        w = F(355, 113)
        cands = {m for m, _ in lambda_candidates(theta_family(w, 0, 0))}
        assert cands == {F(0), F(1), F(-1), F(2), F(-2), w, -w, 2 * w, -2 * w,
                         1 + w, -1 - w, w - 1, 1 - w}

    def test_formal_frequency_multiples_past_four(self):
        h = theta_family(None, 0, 0).substitute(gamma=0)
        got = set(lambda_candidates(h.scale(5)))
        want = {(F(5 * m), 5 * n) for m, n in
                [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (1, -1)]}
        assert got == want | {(-m, -n) for m, n in want}
        assert len(got) == 13

    def test_fractional_multiple_of_w_rejected(self):
        # ad_H has the eigenvalues +-1/2 and +-w/2; a phase needs an integer multiple of w
        h = theta_family(None, 0, 0).substitute(gamma=0)
        with pytest.raises(UnsupportedShape):
            lambda_candidates(h.scale(F(1, 2)))

    def test_non_quadratic_rejected(self):
        with pytest.raises(NonQuadratic):
            lambda_candidates(parse_op("x^3 * (1)"))
        with pytest.raises(NonQuadratic):
            lambda_candidates(parse_op("t^1*x^1 * (1)"))


def rand_quadratic(rng, arity):
    """A random time-independent H with constant, linear and quadratic terms,
    weighted by Q(i) scalars times g^-1, g^0 or g^1 and w^0 or w^1."""
    def weight():
        return Coefficient.monomial((F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-2, 2))),
                                    rng.randint(-1, 1), rng.randint(0, 1))

    def pows(degree):
        slots = [0] * (2 * arity)
        for _ in range(degree):
            slots[rng.randrange(2 * arity)] += 1
        return tuple(slots[:arity]), tuple(slots[arity:])

    terms = {}
    for degree in [0, 1, 2] + [rng.randint(1, 2) for _ in range(rng.randint(0, 3))]:
        x, d = pows(degree)
        mono = Monomial.make(x_pows=x, d_pows=d)
        terms[mono] = terms.get(mono, Coefficient()) + weight()
    return WeylOp(terms)


def catalog_hamiltonians():
    return [theta_family(w, g, 0) for w in (None, 1, 3, F(355, 113)) for g in (0, None)]


def random_hamiltonians():
    rng = random.Random(8)
    return [rand_quadratic(rng, arity) for arity in (1, 1, 2, 2, 2, 2, 3, 3)
            for _ in range(3)]


class TestAdjointCharpoly:
    @pytest.mark.parametrize("h", catalog_hamiltonians() + random_hamiltonians())
    def test_block_product_is_the_full_polynomial(self, h):
        """ad_H is block upper triangular by degree, so its characteristic polynomial is
        the product of the diagonal blocks' polynomials."""
        basis, mat = adjoint_matrix(h)
        for i, row in enumerate(mat):
            for j, c in enumerate(row):
                assert not c or basis[i].spatial_degree() <= basis[j].spatial_degree()
        want = [Coefficient.of(1)]
        for deg in sorted({m.spatial_degree() for m in basis}):
            idx = [j for j, m in enumerate(basis) if m.spatial_degree() == deg]
            block = linalg.charpoly([[mat[i][j] for j in idx] for i in idx])
            prod = [Coefficient() for _ in range(len(want) + len(block) - 1)]
            for (i, a), (j, b) in product(enumerate(want), enumerate(block)):
                prod[i + j] = prod[i + j] + a * b
            want = prod
        assert linalg.charpoly(mat) == want

    def test_charpoly_runs_once_on_the_whole_space(self, monkeypatch):
        orders = []
        charpoly = invariance.charpoly
        monkeypatch.setattr(invariance, "charpoly", lambda m: orders.append(len(m)) or charpoly(m))
        lambda_candidates(theta_family(3, 0, 0))
        assert orders == [15]

    @pytest.mark.parametrize("omega,gamma", [(None, 0), (None, None), (3, 0), (3, None)])
    def test_sympy_oracle(self, omega, gamma):
        sympy = pytest.importorskip("sympy")
        g, w, x = sympy.symbols("g w x")

        def expr(c):
            return sum((sympy.Rational(re.numerator, re.denominator)
                        + sympy.I * sympy.Rational(im.numerator, im.denominator)) * g ** a * w ** b
                       for (a, b), (re, im) in c.terms)

        h = theta_family(omega, gamma, 0)
        _, mat = adjoint_matrix(h)
        want = sympy.Matrix([[expr(c) for c in row] for row in mat]).charpoly(x).all_coeffs()[::-1]
        got = linalg.charpoly(mat)
        assert len(got) == len(want)
        assert all(sympy.expand(expr(c) - e) == 0 for c, e in zip(got, want))


class TestDecouplingMap:
    @pytest.mark.parametrize("w", [F(3), F(2), F(355, 113), F(-1, 3)])
    def test_theta_closed_form(self, w):
        """E = g (iw x Dy - i Dx Dy)/(w^2 - 1) + g^2 Dy^2 / (4w (w^2 - 1)) takes
        Theta(w, g) to Theta(w, 0)."""
        g, r = GAMMA, 1 / (w * w - 1)
        want = WeylOp({Monomial.make(x_pows=(1, 0), d_pows=(0, 1)): I * g * (w * r),
                       Monomial.make(d_pows=(1, 1)): -I * g * r,
                       Monomial.make(d_pows=(0, 2)): g * g * (r / (4 * w))})
        e = decoupling_map(theta_family(w, 0), theta_family(w))
        assert e == want
        assert similarity(e, theta_family(w)) == theta_family(w, 0)

    @pytest.mark.parametrize("w", [0, 1, -1])
    def test_resonant_frequencies_raise(self, w, deadline):
        """At w = 0 the residual's Dy^2 lies outside Theta(0, 0)'s single coordinate:
        the basis takes h's coordinates too, or that term would be dropped."""
        with deadline(10), pytest.raises(DegenerateModes):
            decoupling_map(theta_family(w, 0), theta_family(w))

    def test_a_series_that_never_closes_raises(self):
        """Every step solves, and every similarity terminates, yet each correction
        leaves a new residual: the map gives up after as many steps as ad_h0's
        space has dimensions (15 in two coordinates)."""
        h0 = parse_op("Dy^2 * (1) + y^1*Dx^1 * (1) + x^1*Dx^1 * (1)")
        with pytest.raises(NonTerminatingSeries, match="no decoupling map within 15 steps") as info:
            decoupling_map(h0, h0 + parse_op("y^1*Dx^1 * (1)"))
        assert info.value.residual

    def test_residual_of_degree_three_is_rejected(self):
        h0 = theta_family(3, 0)
        with pytest.raises(NonQuadratic):
            decoupling_map(h0, h0 + WeylOp({Monomial.make(x_pows=(3,)): 1}))

    def test_formal_frequency_is_unsupported(self):
        """Over a formal w the map divides by w^2 - 1, which the ring cannot."""
        with pytest.raises(UnsupportedShape):
            decoupling_map(theta_family(None, 0), theta_family(None))

    def test_identity_map_keeps_the_class(self):
        from cgalgebra.fock import LadderOp, k_ladder
        e = decoupling_map(k_ladder(0), k_ladder(0))
        assert e.is_zero() and type(e) is LadderOp


class TestFindSymmetries:
    def test_lambda_text(self):
        lams = [(F(2), 0), (F(0), -1), (F(1), 2), (F(-1, 2), -3)]
        assert [SymmetryResult(lam, WeylOp.zero(), WeylOp.zero()).lam_text() for lam in lams] == \
            ["2", "-1*w", "1+2*w", "-1/2-3*w"]

    def test_wrong_product_raises_not_in_ideal(self, monkeypatch):
        """The finder's own re-verification, by multiplier_division's remainder test,
        which the symmetries suite's reverify checks rely on."""
        om = WeylOp.dt().scale(I) - theta_family(3, 0, 0)
        monkeypatch.setattr(invariance, "multiply", lambda a, b: multiply(a, b) + WeylOp.one())
        with pytest.raises(NotInIdeal, match="nonzero remainder"):
            find_symmetries(om, lam_set=[2])

    def test_one_bracket_per_basis_operator(self, monkeypatch):
        # 15 for the adjoint matrix, 12 [b, H] and 12 re-verifications
        calls = []
        commutator = invariance.commutator
        monkeypatch.setattr(invariance, "commutator", lambda a, b: calls.append(a) or commutator(a, b))
        assert len(find_symmetries(inv_op(3))) == 12
        assert len(calls) == 15 + 12 + 12

    def test_generic_dimension_is_9(self):
        res = find_symmetries(inv_op(None))
        assert len(res) == 9
        profile = Counter(r.lam for r in res)
        assert profile[(F(0), 0)] == 3
        assert profile[(F(2), 0)] == profile[(F(-2), 0)] == 1
        assert profile[(F(1), 0)] == profile[(F(-1), 0)] == 1
        assert profile[(F(0), 1)] == profile[(F(0), -1)] == 1

    @pytest.mark.parametrize("omega_op", [theta_family(3, 0, 0), inv_op(3).scale(2)])
    def test_operator_not_i_dt_minus_h_is_typed(self, omega_op):
        with pytest.raises(UnsupportedShape, match=r"expected an operator of the form i\*Dt - H"):
            find_symmetries(omega_op)

    @pytest.mark.parametrize("term", [Monomial.make(t_pow=1, x_pows=(1,)), Monomial.make(2, x_pows=(1,))])
    def test_time_dependent_h_is_typed(self, term):
        with pytest.raises(NonQuadratic, match="H must be time independent"):
            find_symmetries(inv_op(3) + WeylOp({term: 1}))

    @pytest.mark.parametrize("w,expected", [(1, 12), (3, 12)])
    def test_critical_dimensions(self, w, expected):
        res = find_symmetries(inv_op(w))
        assert len(res) == expected

    def test_lambda_profiles_distinguish_the_tables(self):
        p3 = Counter(r.lam for r in find_symmetries(inv_op(3)))
        p1 = Counter(r.lam for r in find_symmetries(inv_op(1)))
        assert p3 != p1
        assert p3[(F(-6), 0)] == 1 and p3[(F(-4), 0)] == 1
        assert p1[(F(-2), 0)] == 3 and p1[(F(0), 0)] == 4

    def test_generic_span_matches_catalog(self):
        """Each of the 9 solutions decomposes over the generic catalog.

        Decomposition coefficients live in the fraction field (1/w shows up
        for the zero-phase block), so span membership is checked after a
        rational frequency substitution.
        """
        res = find_symmetries(inv_op(None))
        dg = decoupled_generic(None)
        gens = [dg[n].substitute(omega=13) for n in dg.names()]
        sols = [r.generator.substitute(omega=13) for r in res]
        from cgalgebra.linalg import solve_in_span
        keys = sorted({m for g in gens for m, _ in g.terms()} |
                      {m for s in sols for m, _ in s.terms()}, key=Monomial.sort_key)
        idx = {m: i for i, m in enumerate(keys)}
        cols = []
        for g in gens:
            col = [Coefficient() for _ in keys]
            for m, c in g.terms():
                col[idx[m]] = c
            cols.append(col)
        for s in sols:
            target = [Coefficient() for _ in keys]
            for m, c in s.terms():
                target[idx[m]] = c
            assert solve_in_span(cols, target) is not None

    def test_full_formal_scan_finds_uniform_family(self):
        """Scanning multiples and mixed phases reveals a 12-dimensional space
        whose three extra members specialize to the critical-frequency extras."""
        h = theta_family(None, 0, 0).substitute(gamma=0)
        res = find_symmetries(inv_op(None), lam_set=lambda_candidates(h))
        assert len(res) == 12
        lams = {r.lam for r in res}
        assert (F(1), -1) in lams and (F(-1), -1) in lams and (F(0), -2) in lams

    def test_every_result_reverifies(self):
        om = inv_op(3)
        for r in find_symmetries(om):
            assert (commutator(r.generator, om) - multiply(r.multiplier, om)).is_zero()

    def test_gen_osc_time_phase_families(self):
        for sign in (1, -1):
            p = gen_params(F(3, 2), (sign,))
            res = find_symmetries(gen_osc(p), lam_set=[2, -2])
            assert len(res) == 2
            assert all(any(m.dt_pow for m, _ in r.generator.terms()) for r in res)

    def test_rank_52_both_sign_choices(self):
        for signs in ((1, 1), (-1, 1)):
            p = gen_params(F(5, 2), signs, gammas=(GAMMA, GAMMA * 2))
            res = find_symmetries(gen_osc(p), lam_set=[2, -2], coeff_degree_bound=2)
            assert {r.lam for r in res} == {(F(2), 0), (F(-2), 0)}
            assert all(any(m.dt_pow for m, _ in r.generator.terms()) for r in res)


C = Coefficient.of

# the five suite runs that call find_symmetries, and the phases each one scans
FINDER_RUNS = {"symmetries-generic": (["symmetries", "--omega", "generic"], 7),
               "symmetries-1": (["symmetries", "--omega", "1"], 5),
               "symmetries-3": (["symmetries", "--omega", "3"], 11),
               "general-l-3_2": (["general-l", "--ell", "3/2"], 2),
               "general-l-5_2": (["general-l", "--ell", "5/2"], 4)}


@pytest.fixture(scope="module")
def finder_systems():
    """Per run of FINDER_RUNS: the arguments of each ``_phase_system`` call, and
    a copy of the rows and the width of each ``_singleton_sweep`` call."""
    build, sweep = invariance._phase_system, invariance._singleton_sweep
    out = {}
    for name, (argv, _) in FINDER_RUNS.items():
        builds, sweeps = [], []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(invariance, "_phase_system", lambda *args: builds.append(args) or build(*args))
            patch.setattr(invariance, "_singleton_sweep",
                          lambda rows, n: sweeps.append(([dict(row) for row in rows], n)) or sweep(rows, n))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0
        out[name] = builds, sweeps
    return out


def dense(rows, ncols):
    """Maps {column: entry} as dense rows ``ncols`` wide."""
    return [[row.get(j, Coefficient()) for j in range(ncols)] for row in rows]


class TestPhaseSystem:
    @pytest.mark.parametrize("run", FINDER_RUNS)
    def test_matches_the_coefficient_matrix_of_the_operator_columns(self, run, finder_systems):
        """Every phase the run scans: the rows and entries of coefficient_matrix of
        the columns [b, H] - lam b and i lam H, built by operator arithmetic."""
        builds, _ = finder_systems[run]
        assert len(builds) == FINDER_RUNS[run][1]
        for basis, brackets, h, lam in builds:
            lam_c = Coefficient.of(lam[0]) + OMEGA * lam[1]
            columns = [bh - WeylOp({b: 1}).scale(lam_c) for b, bh in zip(basis, brackets)]
            columns.append(h.scale(I * lam_c))
            rows, matrix = coefficient_matrix(columns)
            got_rows, got = invariance._phase_system(basis, brackets, h, lam)
            assert got_rows == rows
            assert all(all(got_row.values()) for got_row in got)
            assert dense(got, len(columns)) == matrix

    def test_the_shift_cancels_at_y_and_minus_w(self, finder_systems):
        """[y, H] has the entry -w at y, and no other column reaches y: so at lam = -w
        row y drops out, and at lam = w it holds -2w in column y alone."""
        builds = {b[3]: b for b in finder_systems["symmetries-generic"][0]}
        basis, brackets, h, _ = builds[(0, -1)]
        y = Monomial.make(x_pows=(0, 1))
        j = basis.index(y)
        assert brackets[j].coefficient(y) == -OMEGA
        assert y not in invariance._phase_system(basis, brackets, h, (F(0), -1))[0]
        rows, got = invariance._phase_system(basis, brackets, h, (F(0), 1))
        assert got[rows.index(y)] == {j: OMEGA * -2}


def dense_singleton_sweep(rows, ncols):
    """The sweep over dense rows, re-reading every entry until nothing changes:
    the reference for ``_singleton_sweep``."""
    forced = set()
    changed = True
    while changed:
        changed = False
        for row in rows:
            live = [j for j, c in enumerate(row) if c and j not in forced]
            if len(live) == 1:
                forced.add(live[0])
                changed = True
    live_cols = [j for j in range(ncols) if j not in forced]
    kept = [[row[j] for j in live_cols] for row in rows if any(row[j] for j in live_cols)]
    return kept, live_cols


def cascade_rows(rng, ncols, chain):
    """Sparse random rows ``ncols`` wide over a random subset of the columns (so
    some columns are zero), with two zero rows and a cascade put in: one row
    holds column p0 alone and row k holds p(k-1) and pk, so forcing p(k-1)
    leaves pk alone in row k."""
    cols = rng.sample(range(ncols), ncols - 2)
    p = cols[:chain]
    rows = [{j: C(rng.choice((-2, -1, 1, 2, 3))) for j in rng.sample(cols, rng.randint(2, min(4, len(cols))))}
            for _ in range(rng.randint(2, 6))]
    rows += [{p[0]: C(1)}] + [{p[k - 1]: C(2), p[k]: C(-1)} for k in range(1, chain)] + [{}, {}]
    rng.shuffle(rows)
    return rows


class TestSingletonSweep:
    def test_matches_the_dense_sweep_on_random_cascades(self):
        rng = random.Random(34)
        for _ in range(200):
            ncols, chain = rng.randint(6, 12), rng.randint(1, 4)
            rows = cascade_rows(rng, ncols, chain)
            kept, live = invariance._singleton_sweep(rows, ncols)
            assert (kept, live) == dense_singleton_sweep(dense(rows, ncols), ncols)
            assert len(live) <= ncols - chain
            # the forced set is a fixpoint, whatever the order the rows are read in
            assert invariance._singleton_sweep(rng.sample(rows, len(rows)), ncols)[1] == live

    def test_zero_rows_and_columns(self):
        """Row 3 forces column 3; columns 0 and 2 are zero, so they stay live."""
        rows = [{}, {1: C(1), 3: C(2), 4: C(1)}, {}, {3: GAMMA}]
        zero = Coefficient()
        assert invariance._singleton_sweep(rows, 5) == ([[zero, C(1), zero, C(1)]], [0, 1, 2, 4])
        assert invariance._singleton_sweep([{}, {}], 3) == ([], [0, 1, 2])
        assert invariance._singleton_sweep([], 2) == ([], [0, 1])

    @pytest.mark.parametrize("run", FINDER_RUNS)
    def test_matches_the_dense_sweep_on_the_suites_systems(self, run, finder_systems):
        _, sweeps = finder_systems[run]
        assert len(sweeps) == FINDER_RUNS[run][1]
        for rows, ncols in sweeps:
            assert invariance._singleton_sweep(rows, ncols) == dense_singleton_sweep(dense(rows, ncols), ncols)


class TestCloseAlgebra:
    def test_heisenberg(self):
        tbl = close_algebra([WeylOp.coord(0), WeylOp.deriv(0), WeylOp.one()],
                            ["x", "dx", "one"])
        assert tbl.bracket("x", "dx") == {"one": Coefficient.of(-1)}
        assert "one" in tbl.central

    def test_not_closed(self):
        with pytest.raises(NotClosed) as err:
            close_algebra([WeylOp.coord(0), WeylOp.deriv(0)], ["x", "dx"])
        assert err.value.pair == ("x", "dx")
        assert err.value.residual == WeylOp.one().scale(-1)  # [x, Dx] = -1

    def test_not_closed_names_the_first_pair_outside_the_span(self):
        # [x, Dx] = -1 lies in the span; [Dx, x^3] = 3x^2 is the first that does not
        gens = [WeylOp.coord(0), WeylOp.deriv(0), WeylOp.one(), parse_op("x^3 * (1)")]
        with pytest.raises(NotClosed) as err:
            close_algebra(gens, ["x", "dx", "one", "x3"])
        assert err.value.pair == ("dx", "x3")
        assert err.value.residual == parse_op("x^2 * (3)")

    def test_one_elimination_per_closure(self, monkeypatch):
        calls = []
        rref = invariance.rref_fraction_free
        monkeypatch.setattr(invariance, "rref_fraction_free", lambda m: calls.append(m) or rref(m))

        def forbidden(*args):
            raise AssertionError("close_algebra must not call rank or solve_in_span")

        monkeypatch.setattr(linalg, "rank", forbidden)
        monkeypatch.setattr(linalg, "solve_in_span", forbidden)
        tbl = self._full_table(3)
        assert len(calls) == 1
        assert len(calls[0][0]) == 12 + len(tbl.brackets)

    def test_dependent_generators_rejected(self):
        with pytest.raises(UnsupportedShape, match="generators are linearly dependent"):
            close_algebra([WeylOp.coord(0), WeylOp.coord(0).scale(2)])

    def _full_table(self, w):
        dg = decoupled_generic(w)
        ex = enhanced_extras(w)
        names = list(dg.names()) + list(ex)
        gens = [dg[n] for n in dg.names()] + list(ex.values())
        tbl = close_algebra(gens, names)
        tbl.validate()
        return tbl

    def test_omega3_table(self):
        tbl = self._full_table(3)
        assert tbl.bracket("r-1", "r-2") == {"r-3": Coefficient.of(-2)}
        assert tbl.bracket("d", "r-1") == {"r-1": Coefficient.of(-1)}
        assert tbl.bracket("d", "r-2") == {"r-2": Coefficient.of(-2)}
        assert tbl.bracket("d", "r-3") == {"r-3": Coefficient.of(-3)}
        assert tbl.bracket("w+omega", "r-1") == {"w+1": Coefficient.of(1)}
        assert tbl.bracket("w-1", "r-1") == {"w-omega": Coefficient.of(2)}
        assert tbl.bracket("w+omega", "r-3") == {"w-omega": Coefficient.of(2)}
        assert tbl.central == frozenset({"c"})

    def test_omega1_table(self):
        tbl = self._full_table(1)
        assert tbl.bracket("q1", "q3") == {"q2": Coefficient.of(-2)}
        assert tbl.bracket("w+omega", "q1") == {"w+1": Coefficient.of(1)}
        assert tbl.bracket("w-1", "q1") == {"w-omega": Coefficient.of(2)}
        assert tbl.bracket("w+omega", "q2") == {"w-omega": Coefficient.of(2)}
        # the raising bracket closes on q1ahead of the quoted label
        assert tbl.bracket("z+", "q3") == {"q1": Coefficient.of((0, -2))}
        # d-grading of the extras differs from the omega=3 one
        assert tbl.bracket("d", "q1") == {}
        assert tbl.bracket("d", "q2") == {"q2": Coefficient.of(-1)}
        assert tbl.bracket("d", "q3") == {"q3": Coefficient.of(-1)}

    def test_tables_inequivalent(self):
        t3 = self._full_table(3)
        t1 = self._full_table(1)
        extras3 = [t3.bracket("d", n).get(n) for n in ("r-1", "r-2", "r-3")]
        extras1 = [t1.bracket("d", n).get(n, Coefficient()) for n in ("q1", "q2", "q3")]
        deg3 = sorted(str(c) for c in extras3)
        deg1 = sorted(str(c or Coefficient()) for c in extras1)
        assert deg3 != deg1


class TestContraction:
    def test_limit_exists_for_both_realizations(self):
        for builder in (realization_free, realization_osc):
            contracted = contract(builder())
            assert set(contracted.gens) == set(builder().gens)

    def test_contracted_operators(self):
        c = contract(realization_osc())
        assert print_op(c["w-3"]) == "e[-3,0]*y^1 * (-48)"
        assert c["c"] == WeylOp.one()
        assert c["z+"] == realization_osc().gens["z+"]  # untouched at power 0

    def test_contracted_table_closes(self):
        c = contract(realization_osc())
        from cgalgebra.invariance import verify_table
        assert not any(verify_table(c, contraction_table()).values())

    def test_central_charge_bracket(self):
        c = contract(realization_osc())
        # [w~_|k|, w~_-|k|] = (3 - 2|k|) 16 c~ with c~ = 1
        assert commutator(c["w+1"], c["w-1"]) == WeylOp.scalar(16)
        assert commutator(c["w+3"], c["w-3"]) == WeylOp.scalar(-48)

    def test_not_a_subalgebra(self):
        c = contract(realization_osc())
        assert commutator(c["z+"], c["z-"]).is_zero()
        assert cga32_table().bracket("z+", "z-") != {}

    def test_singular_without_rescaling(self):
        # z0's power 0 leaves its 1/g pole in place
        with pytest.raises(SingularLimit):
            contract(Realization("pole", {"z0": WeylOp.scalar(GAMMA_INV)}))
