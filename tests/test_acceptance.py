"""Acceptance gate: one check per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Every symbolic identity is exact (zero residual);
numerical tolerances are pinned where stated.
"""

import random
import time
from collections import Counter
from fractions import Fraction as F

import numpy as np

from cgalgebra.ring import Coefficient, GAMMA, I
from cgalgebra.weyl import (
    Monomial,
    WeylOp,
    apply,
    commutator,
    multiply,
    print_op,
    similarity,
)
from cgalgebra import realizations as R
from cgalgebra import invariance as inv
from cgalgebra import fock


def _report(num, ok, summary, t0, limit):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:2d}] {status}  {summary}  ({elapsed:.2f}s < {limit}s)")
    assert ok, f"criterion {num}: {summary}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_01_algebra_tables():
    t0 = time.perf_counter()
    table = R.cga32_table()
    table.validate()
    ok = True
    for builder in (R.realization_free, R.realization_osc):
        check = inv.verify_table(builder(), table)
        ok = ok and not any(check.values()) and len(check) == 28
    _report(1, ok, "both realizations satisfy all 28 bracket pairs exactly", t0, 5)


def test_criterion_02_sl2_and_onshell():
    t0 = time.perf_counter()
    ok = True
    expected = {
        ("free", 0): {"z0": "1 * (2i)", "z-": "t^1 * (8)"},
        ("free", 1): {"z+": "t^-1 * (1)", "z-": "t^1 * (4)"},
        ("free", 2): {"z0": "1 * (-2i)", "z+": "t^-1 * (2)"},
        ("osc", 0): {"z0": "1 * (2i)", "z-": "e[-2,0] * (4i)"},
        ("osc", 1): {"z+": "e[2,0] * (-2i)", "z-": "e[-2,0] * (2i)"},
        ("osc", 2): {"z+": "e[2,0] * (-4i)", "z0": "1 * (-2i)"},
    }
    for builder in (R.realization_free, R.realization_osc):
        r = builder()
        om_p, om_0, om_m = R.omega_ops(r)
        ok = ok and commutator(om_0, om_p) == om_p.scale(-2)
        ok = ok and commutator(om_0, om_m) == om_m.scale(2)
        ok = ok and commutator(om_p, om_m) == om_0.scale(4)
        for k, om in enumerate((om_p, om_0, om_m)):
            rep = inv.onshell_report(r, om)
            got = {g: print_op(m) for g, m in rep.items() if m}
            ok = ok and None not in rep.values() and got == expected[(r.name, k)]
    _report(2, ok, "sl(2) closes; both on-shell lists match the exact multipliers", t0, 5)


def test_criterion_03_connection_identities():
    t0 = time.perf_counter()
    x_p, h0, k_p = R.x_plus_op(), R.h0_op(), R.k_plus_op()
    two_i = Coefficient.monomial((0, 2), 0, 0)
    ok = commutator(x_p, h0) == k_p.scale(two_i)
    ok = ok and commutator(x_p, k_p) == k_p.scale(-two_i)
    ok = ok and (x_p.scale(I) + h0 + k_p).is_zero()
    _report(3, ok, "the three finite connection identities hold exactly", t0, 5)


def test_criterion_04_critical_frequencies():
    t0 = time.perf_counter()
    sols = inv.critical_frequencies()
    by = {}
    for s in sols:
        by.setdefault(s.omega, set()).add(s.lam)
    ok = set(by) == {F(3), F(-3), F(1, 3), F(-1, 3)}
    ok = ok and by[F(3)] == {F(2), F(-2)} and by[F(-3)] == {F(2), F(-2)}
    # at +-1/3 the admissible values are +-2/3, paired by sign with omega
    ok = ok and by[F(1, 3)] == {F(2, 3)} and by[F(-1, 3)] == {F(-2, 3)}
    ok = ok and all(inv.crit_eq1(s.lam, s.omega) == 0 and inv.crit_eq2(s.lam, s.omega) == 0
                    for s in sols)
    _report(4, ok, "critical set {+-1/3, +-3} with lam verified by back-substitution", t0, 1)


def test_criterion_05_symmetry_discovery():
    t0 = time.perf_counter()

    def run(omega):
        om = WeylOp.dt().scale(I) - R.theta_family(omega, 0, 0)
        res = inv.find_symmetries(om, coeff_degree_bound=2)
        for r in res:
            assert (commutator(r.generator, om) - multiply(r.multiplier, om)).is_zero()
        return res

    res_gen = run(None)
    res_1 = run(1)
    res_3 = run(3)
    ok = len(res_gen) == 9 and len(res_1) == 12 and len(res_3) == 12

    def table(w):
        dg = R.decoupled_generic(w)
        ex = R.enhanced_extras(w)
        names = list(dg.names()) + list(ex)
        gens = [dg[n] for n in dg.names()] + list(ex.values())
        t = inv.close_algebra(gens, names)
        t.validate()
        return t

    t1, t3 = table(1), table(3)
    # the extras sit at different grades: structure constants of d differ
    d1 = sorted(str(t1.bracket("d", n).get(n, Coefficient())) for n in ("q1", "q2", "q3"))
    d3 = sorted(str(t3.bracket("d", n).get(n, Coefficient())) for n in ("r-1", "r-2", "r-3"))
    ok = ok and d1 != d3
    lam1 = Counter(r.lam for r in res_1)
    lam3 = Counter(r.lam for r in res_3)
    ok = ok and lam1 != lam3
    _report(5, ok, "dimensions 9/12/12; the two enhanced tables are inequivalent", t0, 120)


def test_criterion_06_contraction():
    t0 = time.perf_counter()
    contracted = inv.contract(R.realization_osc())
    table = R.contraction_table()
    table.validate()
    ok = not any(inv.verify_table(contracted, table).values())
    st = R.s_tilde_exponent()
    for name, (combo, expected, combined) in R.contraction_identification().items():
        ok = ok and similarity(st, combined, 8) == expected
        ok = ok and contracted[name] == expected
    # the eight-generator table is *not* the pre-contraction one
    ok = ok and commutator(contracted["z+"], contracted["z-"]).is_zero()
    ok = ok and R.cga32_table().bracket("z+", "z-") != {}
    _report(6, ok, "rescaled limit closes the contracted table; identifications verify", t0, 10)


def test_criterion_07_spectrum():
    t0 = time.perf_counter()
    ok = True
    expect = np.sort([n + 3 * m + 0.5 for n in range(13) for m in range(13)])
    base = None
    for g in (0, 0.3, 0.7 + 0.2j, 2):
        mat = fock.k_matrix(g, 12, 12)
        ok = ok and np.abs(np.triu(mat, 1)).max() == 0.0
        res = fock.spectrum(mat)
        vals = np.sort(res.eigenvalues.real)
        ok = ok and bool(np.allclose(vals, expect, atol=1e-9))
        ok = ok and float(np.abs(res.eigenvalues.imag).max()) < 1e-9
        if base is None:
            base = vals
        else:
            ok = ok and bool(np.allclose(vals, base, atol=1e-9))
    res = fock.spectrum(fock.k_matrix(0.5, 6, 6, modes=(1, -3)))
    unb = np.sort(res.eigenvalues.real)
    want = np.sort([n - 3 * m + 0.5 for n in range(7) for m in range(7)])
    ok = ok and bool(np.allclose(unb, want, atol=1e-9))
    _report(7, ok, "exact triangularity; eigenvalues n+3m+1/2; unbounded variant n-3m+1/2", t0, 30)


def test_criterion_08_modes_and_overlaps():
    t0 = time.perf_counter()
    sols = fock.mode_solver()
    ok = [s.lam for s in sols] == [F(-3), F(-1), F(1), F(3)]
    by = {s.lam: s.coeffs for s in sols}
    from cgalgebra.fock import _pairing
    for i in (1, 3):
        for j in (1, 3):
            want = Coefficient.of(1) if i == j else Coefficient()
            ok = ok and _pairing(by[F(-i)], by[F(j)]) == want
    vac = {(0, 0): Coefficient.of(1)}
    for g in (F(1, 2), F(1), F(4)):
        p = fock.overlap_probability(fock.eigenstate(1, 1, g), vac)
        a2 = Coefficient.of(g).abs2()
        ok = ok and abs(float(p) - float(a2 / (16 + 9 * a2))) < 1e-12
        ok = ok and p < F(1, 9)
    _report(8, ok, "adjoint eigenvalues {+-1, +-3}; exact pairing; decay formula to 1e-12", t0, 10)


def test_criterion_09_eigenfunctions():
    t0 = time.perf_counter()
    r = R.realization_osc()
    h0 = R.h0_op()
    ok = True
    # the four low states, built from the definition
    computed = {}
    from cgalgebra.weyl import Wavefunction
    for name, (n, m) in (("psi10", (1, 0)), ("psi20", (2, 0)),
                         ("psi01", (0, 1)), ("psi11", (1, 1))):
        f = Wavefunction.ground()
        for _ in range(m):
            f = apply(r["w-3"], f)
        for _ in range(n):
            f = apply(r["w-1"], f)
        computed[name] = f
        ok = ok and f == fock.expected_psi(name)
    # three printed forms agree exactly; the fourth is demonstrably misprinted:
    # it is not proportional to the true eigenfunction and fails the
    # eigenvalue identity it is supposed to satisfy (decisions ledger)
    for name in ("psi10", "psi20", "psi01"):
        ok = ok and fock.quoted_psi(name) == computed[name]
    bad = fock.quoted_psi("psi11")
    ok = ok and bad.proportionality(computed["psi11"]) is None
    ok = ok and not (apply(h0, bad) - bad.scale(6)).is_zero()
    ok = ok and (apply(h0, computed["psi11"]) - computed["psi11"].scale(6)).is_zero()
    # eigenvalue identity for every level n + 3m <= 6
    for total in range(7):
        for m in range(total // 3 + 1):
            n = total - 3 * m
            f = Wavefunction.ground()
            for _ in range(m):
                f = apply(r["w-3"], f)
            for _ in range(n):
                f = apply(r["w-1"], f)
            ok = ok and (apply(h0, f) - f.scale(n + 3 * m + 2)).is_zero()
    _report(9, ok, "eigenfunctions exact for n+3m<=6; (1,1) misprint demonstrated", t0, 30)


def test_criterion_10_general_rank():
    t0 = time.perf_counter()
    ok = True
    for signs in ((1, 1), (-1, 1)):
        p = R.gen_params(F(5, 2), signs, gammas=(GAMMA, GAMMA * 2))
        om = R.gen_osc(p)
        res = inv.find_symmetries(om, lam_set=[2, -2], coeff_degree_bound=2)
        ok = ok and {r.lam for r in res} == {(F(2), 0), (F(-2), 0)}
        ok = ok and all(any(mo.dt_pow for mo, _ in r.generator.terms()) for r in res)
        for r in res:
            ok = ok and (commutator(r.generator, om)
                         - multiply(r.multiplier, om)).is_zero()
    _report(10, ok, "rank 5/2 admits lam=+-2 time-phase generators for (+,+) and (-,+)", t0, 600)


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(2024)

    def rand_op():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = Monomial.make(rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(0, 2),
                                 (rng.randint(0, 2), rng.randint(0, 2)),
                                 (rng.randint(0, 2), rng.randint(0, 2)),
                                 rng.randint(0, 1))
            c = Coefficient.monomial(
                (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))),
                rng.randint(-1, 1), rng.randint(0, 1))
            terms[mono] = terms.get(mono, Coefficient()) + c
        return WeylOp(terms)

    ok = True
    for _ in range(100):
        a, b, c = rand_op(), rand_op(), rand_op()
        ok = ok and multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        jac = (commutator(a, commutator(b, c)) + commutator(b, commutator(c, a))
               + commutator(c, commutator(a, b)))
        ok = ok and jac.is_zero()
    h = R.h0_op(F(3, 7))
    ok = ok and fock.pt_check(h)
    ok = ok and not fock.pt_check(h + WeylOp.coord(0))
    _report(11, ok, "Jacobi/associativity on 100 random operators; PT checks", t0, 60)
