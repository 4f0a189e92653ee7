import inspect
import random
from fractions import Fraction as F
from itertools import product
from math import comb, factorial, isqrt, perm, sqrt

import numpy as np
import pytest
from monomials import dense

from cgalgebra import fock, weyl
from cgalgebra.errors import (AlgebraError, CheckFailed, CutoffTooSmall, DegenerateModes, FloatOverflow, UnknownName,
                              UnsupportedShape)
from cgalgebra.linalg import charpoly, gaussian_rational_roots, nullspace
from cgalgebra.ring import Coefficient, GAMMA
from cgalgebra.weyl import Monomial, WeylOp, apply, coefficient_matrix, commutator, similarity
from cgalgebra.invariance import decoupling_map
from cgalgebra.realizations import h0_op, realization_osc
from cgalgebra.fock import (
    MODE_WORDS,
    FockBasis,
    _root_factorial,
    LadderOp,
    eigenstate,
    eigenstate_matrix,
    expected_psi,
    h0_eigencheck,
    k_ladder,
    k_matrix,
    kgamma_decoupling_check,
    ladder_matrix,
    mode_solver,
    n_ladder,
    overlap_probability,
    pt_check,
    quoted_psi,
    spectrum,
    state_inner,
)


def gr(re=0, im=0):
    return Coefficient.of((F(re), F(im)))


def accumulate(acc, key, value):
    """Reference sparse add: acc[key] += value, a key whose sum cancels dropped."""
    value = acc.get(key, Coefficient()) + value
    if value:
        acc[key] = value
    else:
        acc.pop(key, None)


def linear(coeffs):
    """The linear ladder combination sum c w over {name of w in MODE_WORDS: c}."""
    return LadderOp((MODE_WORDS[name], c) for name, c in coeffs.items())


A, ADAG, B, BDAG = (linear({name: 1}) for name in MODE_WORDS)


def oracle_matrices(na, nb):
    """First-principles matrices of a, b on the product basis, in the package's order.

    Independent route: single-mode ladder matrices composed by Kronecker
    product, then permuted into the package's basis order and transposed to
    its row-as-input convention.
    """
    def ann(dim):
        return np.diag([sqrt(k) for k in range(1, dim)], 1)

    a1 = ann(na + 1)
    b1 = ann(nb + 1)
    a = np.kron(a1, np.eye(nb + 1))
    b = np.kron(np.eye(na + 1), b1)
    # product-basis index (n, m) -> n*(nb+1) + m; package order by m, then n
    states = FockBasis(na, nb).states()
    perm = [n * (nb + 1) + m for n, m in states]
    p = np.zeros((len(perm), len(perm)))
    for i, j in enumerate(perm):
        p[i, j] = 1
    return p @ a @ p.T, p @ b @ p.T


def ref_word_product(x, y):
    """Reference: the product of word maps {(p, q, r, s): c} for
    (a+)^p a^q (b+)^r b^s, by the ladder normal-ordering rule
    a^q (a+)^p = sum_k C(q, k) p!/(p-k)! (a+)^(p-k) a^(q-k), and alike for b."""
    acc = {}
    for (p1, q1, r1, s1), c1 in x.items():
        for (p2, q2, r2, s2), c2 in y.items():
            base = c1 * c2
            for k in range(min(q1, p2) + 1):
                ca = comb(q1, k) * perm(p2, k)
                for l in range(min(s1, r2) + 1):
                    cb = comb(s1, l) * perm(r2, l)
                    w = (p1 + p2 - k, q1 + q2 - k, r1 + r2 - l, s1 + s2 - l)
                    accumulate(acc, w, base * (ca * cb))
    return acc


def ref_apply_state(x, state):
    """Reference: a word map acting on a ket over unnormalized |n, m>."""
    out = {}
    for (n, m), amp in state.items():
        for (p, q, r, s), c in x.items():
            if q <= n and s <= m:
                accumulate(out, (n - q + p, m - s + r), amp * c * (perm(n, q) * perm(m, s)))
    return out


def words(op):
    """The word map of a LadderOp, read back through the Bargmann map."""
    out = {}
    for mono, c in op.terms():
        (p, r), (q, s) = dense(mono, 2)
        out[(p, q, r, s)] = c
    return out


def rand_words(rng, formal):
    out = {}
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.randint(0, 2) for _ in range(4))
        c = Coefficient.monomial(gr(rng.randint(-3, 3), rng.randint(-3, 3)),
                                 rng.randint(0, 2) if formal else 0, 0)
        accumulate(out, w, c)
    return out


def ladder(word_map):
    return LadderOp({Monomial.make(x_pows=(p, r), d_pows=(q, s)): c
                     for (p, q, r, s), c in word_map.items()})


class TestLadderAlgebra:
    def test_product_matches_word_reference(self):
        rng = random.Random(7)
        for k in range(200):
            x, y = rand_words(rng, formal=k % 2 == 0), rand_words(rng, formal=k % 2 == 0)
            got = ladder(x) * ladder(y)
            assert type(got) is LadderOp
            assert words(got) == ref_word_product(x, y), (x, y)

    def test_apply_state_matches_word_reference(self):
        rng = random.Random(11)
        for k in range(100):
            x = rand_words(rng, formal=k % 2 == 0)
            state = {(rng.randint(0, 4), rng.randint(0, 4)): Coefficient.of(gr(rng.randint(-3, 3), 1))
                     for _ in range(rng.randint(1, 3))}
            assert ladder(x).apply_state(state) == ref_apply_state(x, state), (x, state)

    def test_powers_stay_ladder_ops(self):
        x = ADAG + B.scale(gr(1, F(1, 2))) + BDAG * A
        want = LadderOp.one()
        for k in range(4):
            got = x ** k
            assert type(got) is LadderOp and got == want, k
            want = want * x

    def test_traced_methods_are_the_ladder_layers_own(self):
        """Benchmark tracing wraps LadderOp.__mul__ and apply_state by name;
        inherited or aliased WeylOp methods would make it rebind WeylOp's too."""
        for name in ("__mul__", "apply_state"):
            fn = vars(LadderOp).get(name)
            assert inspect.isfunction(fn) and fn is not vars(WeylOp).get(name), name

    def test_canonical_relations(self):
        assert commutator(A, ADAG) == LadderOp.one()
        assert commutator(B, BDAG) == LadderOp.one()
        for x in (A, ADAG):
            for y in (B, BDAG):
                assert commutator(x, y).is_zero()

    def test_sum_with_negative_is_empty(self):
        k = k_ladder()
        assert len(k + (-k)) == 0 and (k - k).is_zero()
        assert LadderOp([*k.terms(), *(-k).terms()]) == LadderOp.zero()

    def test_number_operator_action(self):
        num = ADAG * A
        state = {(3, 0): Coefficient.of(1)}
        assert num.apply_state(state) == {(3, 0): Coefficient.of(3)}

    def test_apply_state_unnormalized(self):
        # a |n> = n |n-1> on unnormalized states
        out = A.apply_state({(4, 2): Coefficient.of(1)})
        assert out == {(3, 2): Coefficient.of(4)}
        out = BDAG.apply_state({(0, 1): Coefficient.of(1)})
        assert out == {(0, 2): Coefficient.of(1)}


class TestDecoupling:
    def test_formal_and_numeric(self):
        for g in (None, F(1, 2), gr(0, 2)):
            ok, depth = kgamma_decoupling_check(g)
            assert ok
            assert depth <= 4

    def test_zero_coupling_is_identity(self):
        ok, depth = kgamma_decoupling_check(0)
        assert depth == 0 and ok
        assert decoupling_map(k_ladder(0), k_ladder()).substitute(gamma=0).is_zero()

    def test_wrong_orientation_fails(self):
        e_op = decoupling_map(k_ladder(0), k_ladder(F(1, 2)))
        got = similarity(e_op, k_ladder(0), 16)
        assert got != k_ladder(F(1, 2))

    def test_k_n_commute_symbolically(self):
        assert commutator(k_ladder(), n_ladder()).is_zero()

    def test_printed_forms_at_modes_1_3(self):
        """The derived map and N at formal gbar are the forms printed for K(gbar)."""
        g = GAMMA
        printed_e = -((ADAG * B).scale(g * F(1, 2)) + (A * B).scale(g * F(1, 4))
                      + (B * B).scale(g * g * F(1, 48)))
        printed_n = ADAG * A + BDAG * B + (A * B).scale(g * F(1, 2)) - (B * B).scale(g * g * F(1, 12))
        assert decoupling_map(k_ladder(0), k_ladder()) == printed_e
        assert n_ladder() == printed_n

    @pytest.mark.parametrize("modes", [(1, 3), (1, -3), (-1, 3), (2, 5), (2, -5), (3, 1)])
    def test_derived_at_every_mode_pair(self, modes):
        """E = g (a+b/(m1 - m2) - ab/(m1 + m2)) + g^2 m1 b^2 / (2 m2 (m1^2 - m2^2)),
        and it decouples K at formal and numeric couplings."""
        m1, m2 = modes
        want = (ADAG * B).scale(GAMMA * F(1, m1 - m2)) - (A * B).scale(GAMMA * F(1, m1 + m2)) \
            + (B * B).scale(GAMMA * GAMMA * F(m1, 2 * m2 * (m1 * m1 - m2 * m2)))
        assert decoupling_map(k_ladder(0, modes), k_ladder(None, modes)) == want
        for g in (None, gr(F(2, 3), F(-1, 5))):
            assert kgamma_decoupling_check(g, modes) == (True, 2), g

    @pytest.mark.parametrize("modes", [(1, 1), (1, -1)])
    def test_resonant_modes_raise(self, modes, deadline):
        with deadline(10), pytest.raises(DegenerateModes):
            decoupling_map(k_ladder(0, modes), k_ladder(None, modes))


class TestModes:
    def test_eigenvalues(self):
        sols = mode_solver()  # formal coupling
        assert list(sols) == [F(-3), F(-1), F(1), F(3)]

    def test_mode_coefficients(self):
        sols = mode_solver()
        half_g = GAMMA * F(1, 2)
        quarter_g = GAMMA * F(1, 4)
        assert sols[F(-3)] == linear({"b": Coefficient.of(1)})
        assert sols[F(-1)] == linear({"a": Coefficient.of(1), "b": -half_g})
        assert sols[F(1)] == linear({"a+": Coefficient.of(1), "b": quarter_g})
        assert sols[F(3)] == linear({"b+": Coefficient.of(1), "a": quarter_g,
                                     "a+": half_g, "b": GAMMA * GAMMA * F(1, 24)})

    def test_canonical_pairing(self):
        by = mode_solver()
        for i in (1, 3):
            for j in (1, 3):
                want = WeylOp.scalar(int(i == j))
                assert commutator(by[F(-i)], by[F(j)]) == want

    @pytest.mark.parametrize("gbar", [None, gr(F(2, 3), F(-1, 5))])
    def test_unbounded_variant_modes(self, gbar):
        """At modes (1, -3) ad_K still has eigenvalues -3, -1, 1, 3, with the
        same canonical pairing."""
        by = mode_solver(gbar, (1, -3))
        assert list(by) == [F(-3), F(-1), F(1), F(3)]
        if gbar is None:  # the images of b+ and -b under the decoupling map
            assert by[F(-3)] == linear({"b+": Coefficient.of(1), "a+": GAMMA * F(-1, 4),
                                        "a": GAMMA * F(-1, 2), "b": GAMMA * GAMMA * F(-1, 24)})
            assert by[F(3)] == linear({"b": Coefficient.of(-1)})
        for i in (1, 3):
            for j in (1, 3):
                assert commutator(by[F(-i)], by[F(j)]) == WeylOp.scalar(int(i == j)), (i, j)

    def test_k_and_n_in_mode_basis(self):
        by = mode_solver()
        k_combo = (by[F(3)] * by[F(-3)]).scale(3) + by[F(1)] * by[F(-1)] \
            + LadderOp.scalar(F(1, 2))
        assert k_combo == k_ladder()
        assert (by[F(3)] * by[F(-3)]) + (by[F(1)] * by[F(-1)]) == n_ladder()

    def test_bogoliubov_inverts(self):
        """Expressing the ladder basis through the modes and back is exact."""
        sols = mode_solver(F(2, 3))
        from cgalgebra.linalg import solve_in_span
        matrix_cols = [[s.coefficient(w) for w in MODE_WORDS.values()] for s in sols.values()]
        for k in range(4):
            target = [Coefficient.of(1) if i == k else Coefficient() for i in range(4)]
            sol = solve_in_span(matrix_cols, target)
            assert sol is not None
            recomposed = [Coefficient() for _ in range(4)]
            for j, c in enumerate(sol):
                for i in range(4):
                    recomposed[i] = recomposed[i] + c * matrix_cols[j][i]
            assert recomposed == target


def direct_mode_solve(gbar, modes):
    """The eigen-solve of ad_K at the coupling ``gbar`` itself, built from the
    public linear algebra: no formal solve, no substitution, no cache."""
    k = k_ladder(gbar, modes)
    words = list(MODE_WORDS.values())
    _, mat = coefficient_matrix([commutator(k, LadderOp({w: 1})) for w in words], rows=words)
    cp = charpoly(mat)
    if not all(c.is_scalar() for c in cp):
        raise DegenerateModes("adjoint eigenvalues are not scalars")
    roots = gaussian_rational_roots(cp)
    if len(roots) != 4:
        raise DegenerateModes(f"expected 4 distinct rational eigenvalues, got {roots}")
    out = {}
    for lam in sorted(roots):
        shifted = [[mat[i][j] - (Coefficient.of(lam) if i == j else Coefficient())
                    for j in range(4)] for i in range(4)]
        vecs = nullspace(shifted)
        if len(vecs) != 1:
            raise DegenerateModes(f"eigenvalue {lam} has multiplicity {len(vecs)}")
        out[lam] = LadderOp(zip(words, vecs[0]))
    for lam, op in out.items():
        if lam > 0 and -lam in out:
            pairing = commutator(out[-lam], op).coefficient(Monomial.make())
            out[lam] = op.scale(Coefficient.of(1).divide_exact(pairing))
    return out


def solve_outcome(solve, gbar, modes):
    """solve's modes as a list of pairs, or the message of its DegenerateModes."""
    try:
        return list(solve(gbar, modes).items())
    except DegenerateModes as exc:
        return f"DegenerateModes: {exc}"


MODE_PAIRS = [(1, 3), (1, -3), (-1, 3), (-1, -3), (2, 5), (3, 1), (2, -5)]
DEGENERATE_PAIRS = [(1, 1), (1, -1), (0, 3), (1, 0)]
_rng = random.Random(1308)
ORACLE_COUPLINGS = [None, 0, 1, gr(0, 1), 1000, 0.7 + 0.2j,
                    gr(F(10**30 + 7, 3 * 10**29 + 1), F(-(10**29) + 3, 7 * 10**30 - 9))] + [
    gr(F(_rng.randint(-60, 60), _rng.randint(1, 25)), F(_rng.randint(-60, 60), _rng.randint(1, 25)))
    for _ in range(60)]


def specialized(formal, gbar):
    """A formal ket {(n, m): c} with the coupling substituted, zero amplitudes dropped."""
    g = fock._coupling(gbar)
    return {nm: v for nm, c in formal.items() if not (v := c.substitute(gamma=g)).is_zero()}


def proportional(x, y):
    """x and y are nonzero multiples of each other over MODE_WORDS: every 2 x 2 minor is zero."""
    rows = [[op.coefficient(w) for w in MODE_WORDS.values()] for op in (x, y)]
    return not x.is_zero() and not y.is_zero() and all(
        (rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]).is_zero() for i in range(4) for j in range(i))


class TestModeSolverOracle:
    """mode_solver takes the decoupling map's images of a, a+, b, b+ with g formal and
    substitutes the coupling; the direct solve at each coupling must give the same
    modes (at m2 < 0, where the direct solve scales A_{m2} by its g-dependent a
    entry, the same modes up to scale)."""

    @pytest.mark.parametrize("modes", MODE_PAIRS + DEGENERATE_PAIRS)
    def test_equals_the_direct_solve(self, modes):
        for gbar in ORACLE_COUPLINGS:
            want = solve_outcome(direct_mode_solve, gbar, modes)
            got = solve_outcome(mode_solver, gbar, modes)
            assert isinstance(want, list) == (modes in MODE_PAIRS)
            if not isinstance(want, list) or modes[1] > 0:
                assert got == want, (modes, gbar)
            else:
                assert [lam for lam, _ in got] == [lam for lam, _ in want], (modes, gbar)
                assert all(proportional(op, ref) for (_, op), (_, ref) in zip(got, want)), (modes, gbar)
            if isinstance(want, list):
                k, by = k_ladder(gbar, modes), dict(got)
                assert all(commutator(k, op) == op.scale(lam) for lam, op in got), (modes, gbar)
                freqs = [F(abs(m)) for m in modes]
                assert all(commutator(by[-i], by[j]) == WeylOp.scalar(int(i == j))
                           for i in freqs for j in freqs), (modes, gbar)

    @pytest.mark.parametrize("modes", MODE_PAIRS)
    def test_specializes_the_formal_modes_and_kets(self, modes):
        """mode_solver(g) and eigenstate(1, 1, g) are their formal results substituted at g."""
        formal_modes = mode_solver(None, modes)
        formal_ket = eigenstate(1, 1, None, modes=modes)
        for gbar in ORACLE_COUPLINGS:
            g = fock._coupling(gbar)
            assert mode_solver(gbar, modes) == {lam: op.substitute(gamma=g) for lam, op in formal_modes.items()}, \
                (modes, gbar)
            assert eigenstate(1, 1, gbar, modes=modes) == specialized(formal_ket, gbar), (modes, gbar)

    @pytest.mark.parametrize("modes", MODE_PAIRS)
    def test_formal_vectors_survive_every_coupling(self, modes):
        """Each formal mode is polynomial in g with a nonzero scalar entry,
        so substituting a coupling never gives the zero operator."""
        for _, op in fock._formal_modes(modes):
            vec = [op.coefficient(w) for w in MODE_WORDS.values()]
            assert all(a >= 0 for c in vec for (a, _), _ in c.terms)
            assert any(c.is_scalar() and not c.is_zero() for c in vec)

    def test_one_formal_solve_per_mode_pair(self, monkeypatch):
        """One decoupling_map call serves the modes, N, the decoupling check and the eigenstates."""
        fock._decoupling.cache_clear()
        fock._formal_modes.cache_clear()
        calls = []
        real = fock.decoupling_map
        monkeypatch.setattr(fock, "decoupling_map", lambda *a: calls.append(a) or real(*a))
        mode_solver(None, (1, -3))
        mode_solver(F(1, 2), (1, -3))
        n_ladder(F(1, 2), (1, -3))
        kgamma_decoupling_check(F(1, 2), (1, -3))
        eigenstate_matrix(F(1, 2), 6, 6, (1, -3))
        assert len(calls) == 1

    def test_a_formal_coupling_substitutes_nothing(self, monkeypatch):
        """With gbar None the formal operators come back with no g -> g substitution;
        an explicit formal g substitutes, and gives the same operators."""
        formal = mode_solver(None), n_ladder(None), kgamma_decoupling_check(None)  # builds the caches
        calls = []
        real = weyl.substituted  # the batched substitution behind WeylOp.substitute
        monkeypatch.setattr(weyl, "substituted", lambda *a, **k: calls.append(1) or real(*a, **k))
        got = mode_solver(None), n_ladder(None), kgamma_decoupling_check(None)
        assert calls == []
        assert got == formal == (mode_solver(GAMMA), n_ladder(GAMMA), kgamma_decoupling_check(GAMMA))
        assert calls
        assert all(type(op) is LadderOp for op in [*got[0].values(), got[1]])

    def test_returned_modes_do_not_reach_the_cache(self):
        for gbar in (F(1, 2), None):
            first = mode_solver(gbar)
            want = list(first.items())
            first.pop(F(3))
            first[F(1)] = LadderOp.scalar(7)
            assert list(mode_solver(gbar).items()) == want
            assert list(mode_solver(gbar, [1, 3]).items()) == want  # the key is tuple(modes)
        cached = fock._formal_modes((1, 3))
        assert isinstance(cached, tuple) and all(type(pair) is tuple for pair in cached)


class TestMatrices:
    def test_entries_against_kronecker_oracle(self):
        na = nb = 5
        for g in (0.4, 0.25 + 0.5j):
            a, b = oracle_matrices(na, nb)
            k_oracle = (a.conj().T @ a + 3 * b.conj().T @ b + 0.5 * np.eye(a.shape[0])
                        + g * (a + a.conj().T) @ b)
            got = k_matrix(g, na, nb)
            assert np.abs(got - k_oracle.T).max() < 1e-12

    def test_coupling_entry_values(self):
        g = 0.3
        na = nb = 4
        basis = FockBasis(na, nb)
        idx = basis.index()
        m = k_matrix(g, na, nb)
        # row (n, m) column (n-1, m-1): amplitude g*sqrt(n*m) from the ab term
        n_, m_ = 2, 1
        i, j = idx[(n_, m_)], idx[(n_ - 1, m_ - 1)]
        assert abs(m[i, j] - g * sqrt(n_ * m_)) < 1e-12
        j2 = idx[(n_ + 1, m_ - 1)]
        assert abs(m[i, j2] - g * sqrt((n_ + 1) * m_)) < 1e-12

    def test_block_lower_triangular(self):
        for g in (0, 0.3, 0.7 + 0.2j, 2):
            m = k_matrix(g, 12, 12)
            assert np.abs(np.triu(m, 1)).max() == 0.0

    def test_basis_order_is_b_number_first(self):
        # the b-number m, then n: (3, 0) before (0, 1), whatever their energies
        assert FockBasis(3, 1).states() == [(0, 0), (1, 0), (2, 0), (3, 0),
                                            (0, 1), (1, 1), (2, 1), (3, 1)]
        assert list(FockBasis(3, 1).index().values()) == list(range(8))

    @pytest.mark.parametrize("modes", [(1, 3), (1, -3), (3, 1), (2, -2), (1, 0), (0, 0)])
    @pytest.mark.parametrize("g", [0.7 + 0.2j, 2, 1e300])
    def test_strictly_lower_triangular_at_any_modes(self, g, modes):
        """Every coupling term of K lowers the b-number, so nothing lies above the
        diagonal in the basis order, also where |m2| <= |m1| or a frequency is zero."""
        m = k_matrix(g, 4, 3, modes)
        assert np.isfinite(m).all() and np.abs(np.tril(m, -1)).max() > 0
        assert not np.triu(m, 1).any()

    def test_diagonal(self):
        m = k_matrix(0.9, 6, 6)
        states = FockBasis(6, 6).states()
        want = np.array([n + 3 * q + 0.5 for n, q in states])
        assert np.abs(np.diag(m) - want).max() == 0.0

    def test_decoupled_is_diagonal(self):
        m = k_matrix(0, 8, 8)
        assert np.abs(m - np.diag(np.diag(m))).max() == 0.0

    def test_cutoff_validation(self):
        with pytest.raises(CutoffTooSmall):
            k_matrix(0.5, 0, 4)

    @pytest.mark.parametrize("modes", [(1, 3), (1, -3), (2, 5), (3, 1)])
    @pytest.mark.parametrize("na, nb", [(1, 1), (3, 5), (6, 2), (12, 12)])
    def test_cached_entries_against_exact_route(self, na, nb, modes):
        """K0 + g K1 from the cached formal entries equals K(g) applied ket by ket
        with exact arithmetic; the triangle and the diagonal hold exactly."""
        basis = FockBasis(na, nb)
        states = basis.states()
        diag = np.array([modes[0] * n + modes[1] * m + 0.5 for n, m in states])
        for g in (0, 0.3, 0.7 + 0.2j, 2, 1000, gr(F(2, 3), F(-1, 5))):
            got = k_matrix(g, na, nb, modes)
            assert np.abs(got - ladder_matrix(k_ladder(g, modes), basis)).max() <= 1e-12
            assert np.abs(np.triu(got, 1)).max() == 0.0
            assert np.array_equal(np.diag(got), diag)
        off = k_matrix(0, na, nb, modes)
        assert np.array_equal(off, np.diag(diag))

    def test_ladder_entry_past_the_float_range_is_typed(self):
        # 1.5e308 is a float, but its entries at n = 1, 2 carry sqrt(2) and sqrt(3)
        op = LadderOp({MODE_WORDS["a+"]: 15 * 10**307})
        with pytest.raises(FloatOverflow, match=r"ladder amplitude of \(2, 0\) past the float range"):
            ladder_matrix(op, FockBasis(3, 1))
        assert np.isfinite(ladder_matrix(op, FockBasis(1, 1))).all()
        # an operator with no entry inside the truncation goes through the same fill
        zero = ladder_matrix(LadderOp({fock._word(5, 0, 0, 0): 1}), FockBasis(3, 1))
        assert zero.shape == (8, 8) and zero.dtype == complex and not zero.any()


class TestKMatrixCache:
    @pytest.fixture(autouse=True)
    def cleared(self):
        fock._k_entries.cache_clear()
        yield
        fock._k_entries.cache_clear()

    def test_one_formal_build_per_cutoff_and_modes(self, monkeypatch):
        calls = []
        real = LadderOp.apply_state
        monkeypatch.setattr(LadderOp, "apply_state", lambda self, st: calls.append(1) or real(self, st))
        for g in (0, 0.3, 0.7 + 0.2j, 2):
            k_matrix(g, 4, 4)
        assert fock._k_entries.cache_info().misses == 1
        assert len(calls) == 25  # one formal application per ket of the 5 x 5 basis
        k_matrix(0.5, 4, 4, modes=[1, 3])
        assert fock._k_entries.cache_info().misses == 1
        k_matrix(0.5, 4, 4, modes=(1, -3))
        assert fock._k_entries.cache_info().misses == 2

    def test_returned_matrix_does_not_reach_the_cache(self):
        want = k_matrix(0.5, 3, 3)
        got = k_matrix(0.5, 3, 3)
        got[:] = 7
        assert np.array_equal(k_matrix(0.5, 3, 3), want)
        *arrays, certified = fock._k_entries(3, 3, (1, 3))
        assert certified is True and all(not arr.flags.writeable for arr in arrays)

    def test_guards_run_before_any_build(self):
        with pytest.raises(CutoffTooSmall):
            k_matrix(0.5, 0, 4)
        with pytest.raises(UnsupportedShape, match="needs a numeric coupling"):
            k_matrix(None, 4, 4)
        assert fock._k_entries.cache_info().currsize == 0

    @pytest.mark.parametrize("na, nb", [(-1, 3), (3, -2), (0, 0), (0, 3), (3, 0)])
    def test_eigenstate_matrix_cutoff_below_one_is_typed(self, na, nb):
        with pytest.raises(CutoffTooSmall, match="at least 1"):
            eigenstate_matrix(0.5, na, nb)

    def test_eigenstate_matrix_guard_runs_before_any_build(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("eigenstate_matrix must reject a formal coupling before solving for modes")

        monkeypatch.setattr(fock, "mode_solver", forbidden)
        with pytest.raises(UnsupportedShape, match="needs a numeric coupling"):
            eigenstate_matrix(None, 4, 4)

    def test_coupling_beyond_the_float_range_is_typed(self):
        with pytest.raises(FloatOverflow):
            k_matrix(10**400, 2, 2)

    @pytest.mark.parametrize("gbar", [1e308, 1e308j, -1e308 + 1e308j])
    def test_finite_coupling_past_the_float_range_is_typed(self, gbar):
        # finite, but it takes an entry past 1.8e308; no warning escapes (warnings are errors here)
        with pytest.raises(FloatOverflow, match="past the float range"):
            k_matrix(gbar, 2, 2)
        assert np.isfinite(k_matrix(1e300, 2, 2)).all()

    def test_mode_beyond_the_float_range_is_typed(self):
        with pytest.raises(FloatOverflow):
            k_matrix(1, 3, 3, (1, 10**400))

    def test_infinite_coupling_is_typed(self):
        for gbar in (float("inf"), float("-inf"), complex(1, float("inf"))):
            with pytest.raises(FloatOverflow, match="infinite"):
                k_matrix(gbar, 2, 2)
        assert fock._k_entries.cache_info().currsize == 0

    def test_nan_coupling_is_typed(self):
        fock._decoupling.cache_clear()
        fock._formal_modes.cache_clear()
        for gbar in (float("nan"), complex(float("nan"), 1), complex(float("inf"), float("nan"))):
            with pytest.raises(UnsupportedShape, match="not a number"):
                mode_solver(gbar)
        assert fock._formal_modes.cache_info().currsize == fock._decoupling.cache_info().currsize == 0


class TestSpectra:
    def test_gamma_independence(self):
        base = None
        expect = np.sort([n + 3 * m + 0.5 for n in range(13) for m in range(13)])
        for g in (0, 0.3, 0.7 + 0.2j, 2):
            res = spectrum(k_matrix(g, 12, 12))
            vals = np.sort(res.eigenvalues.real)
            assert np.allclose(vals, expect, atol=1e-9)
            assert np.abs(res.eigenvalues.imag).max() < 1e-9
            if base is None:
                base = vals
            else:
                assert np.allclose(vals, base, atol=1e-9)

    def test_lowest_five(self):
        res = spectrum(k_matrix(0.7, 12, 12))
        assert np.allclose(np.sort(res.eigenvalues.real)[:5],
                           [0.5, 1.5, 2.5, 3.5, 3.5], atol=1e-12)

    def test_unbounded_variant(self):
        res = spectrum(k_matrix(0.5, 6, 6, modes=(1, -3)))
        vals = np.sort(res.eigenvalues.real)
        expect = np.sort([n - 3 * m + 0.5 for n in range(7) for m in range(7)])
        assert np.allclose(vals, expect, atol=1e-9)
        assert vals[0] < 0 < vals[-1]

    def test_kn_commute_on_interior_rows(self):
        """Truncation only breaks the commutator where the coupling leaks
        over the boundary; interior input states commute exactly."""
        na = nb = 10
        k = k_matrix(0.7, na, nb)
        n = ladder_matrix(n_ladder(0.7), FockBasis(na, nb))
        comm = k @ n - n @ k
        states = FockBasis(na, nb).states()
        interior = [i for i, (p, q) in enumerate(states) if p <= na - 2 and q <= nb - 2]
        assert np.abs(comm[interior, :]).max() < 1e-12
        assert np.abs(comm).max() > 1.0  # the boundary rows do leak


class TestResidualBound:
    """The all-ones n x n matrix: largest column norm sqrt(n), ||M||_2 = n."""

    N = 16
    ONES = np.ones((N, N))

    def patch(self, monkeypatch, delta):
        """Make eig return eigenpairs whose worst residual is delta * sqrt(n);
        returns the list of shapes passed to the 2-norm."""
        n = self.N
        vals = np.zeros(n, dtype=complex)
        vals[0] = n
        vecs = np.zeros((n, n), dtype=complex)
        vecs[:, 0] = 1 / sqrt(n)
        for k in range(1, n):  # e_{k-1} - e_k, an exact null vector
            vecs[k - 1, k], vecs[k, k] = 1, -1
        vecs[0, 1] += delta  # residual delta * ||M e_0|| = delta * sqrt(n)
        norm2_calls = []
        norm = np.linalg.norm

        def spy(x, ord=None, **kw):
            if ord == 2:
                norm2_calls.append(x.shape)
            return norm(x, ord, **kw)

        monkeypatch.setattr(np.linalg, "eig", lambda m: (vals.copy(), vecs.copy()))
        monkeypatch.setattr(np.linalg, "norm", spy)
        return norm2_calls

    def test_column_bound_decides_a_pass(self, monkeypatch):
        norm2_calls = self.patch(monkeypatch, 0.5e-9)  # residual 2e-9 <= 1e-9 * 4
        assert spectrum(self.ONES).max_residual == pytest.approx(2e-9, rel=1e-6)
        assert norm2_calls == []

    def test_pass_that_needs_the_two_norm(self, monkeypatch):
        norm2_calls = self.patch(monkeypatch, 2e-9)  # 8e-9: > 1e-9 * 4, <= 1e-9 * 16
        assert spectrum(self.ONES).max_residual == pytest.approx(8e-9, rel=1e-6)
        assert norm2_calls == [(1, self.N, self.N)]  # the one component, as a stack

    def test_failure(self, monkeypatch):
        norm2_calls = self.patch(monkeypatch, 8e-9)  # 3.2e-8 > 1e-9 * 16
        with pytest.raises(CheckFailed):
            spectrum(self.ONES)
        assert norm2_calls == [(1, self.N, self.N)]  # the one component, as a stack


def component_sets(matrix):
    """The components of :func:`fock._components` as sorted index tuples."""
    return sorted(tuple(row) for group in fock._components(matrix) for row in group.tolist())


def eig_shapes(monkeypatch, perturb_call=None):
    """Spy on np.linalg.eig: returns the list of shapes it is called on.  At call
    number ``perturb_call``, whose input must be a stack, one entry of the last
    block's eigenvectors is moved by 1e-3."""
    shapes = []
    eig = np.linalg.eig

    def spy(a):
        vals, vecs = eig(a)
        if len(shapes) == perturb_call:
            vecs[-1, 0, 0] += 1e-3
        shapes.append(np.shape(a))
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eig", spy)
    return shapes


class TestBlockSpectrum:
    """Random complex blocks of sizes 1, 1, 3, 3 and 5 on the diagonal, the second
    1-block joined to the 5-block by one strictly lower entry, hidden by a random
    permutation: four components, of sizes 1, 3, 3 and 6."""

    SIZES = (1, 1, 3, 3, 5)
    SHAPES = [(1, 1, 1), (2, 3, 3), (1, 6, 6)]  # the stacks, one eig call per size, ascending

    @classmethod
    def hidden(cls):
        """(the permuted matrix, its components as sorted index tuples)."""
        rng = np.random.default_rng(5)
        n = sum(cls.SIZES)
        m = np.zeros((n, n), dtype=complex)
        parts, start = [], 0
        for s in cls.SIZES:
            m[start:start + s, start:start + s] = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
            parts.append(list(range(start, start + s)))
            start += s
        m[n - 1, 1] = 0.5 - 0.25j  # row n - 1 in the 5-block, column 1 the second 1-block
        parts[-1] += parts.pop(1)
        perm = rng.permutation(n)  # new index k holds old index perm[k]
        where = np.argsort(perm)
        return m[np.ix_(perm, perm)], sorted(tuple(sorted(where[p].tolist())) for p in parts)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_components_are_the_hidden_blocks(self, transpose):
        m, parts = self.hidden()
        assert component_sets(m.T if transpose else m) == parts

    @pytest.mark.parametrize("transpose", [False, True])
    def test_eigenvalues_equal_the_dense_solve(self, transpose, monkeypatch):
        m, _ = self.hidden()
        m = m.T if transpose else m
        want = np.sort_complex(np.linalg.eigvals(m))
        shapes = eig_shapes(monkeypatch)
        res = spectrum(m)
        assert shapes == self.SHAPES
        assert np.abs(np.sort_complex(res.eigenvalues) - want).max() < 1e-9
        assert res.max_residual < 1e-9 * np.linalg.norm(m, 2)

    @pytest.mark.parametrize("call", [1, 2])  # a 1 x 1 block takes any vector
    def test_perturbed_block_vectors_fail(self, call, monkeypatch):
        m, _ = self.hidden()
        shapes = eig_shapes(monkeypatch, perturb_call=call)
        with pytest.raises(CheckFailed, match="eigen residual"):
            spectrum(m)
        assert len(shapes) == 3


class TestKBlocks:
    """K's coupling gbar (a + a+) b changes n + m by 0 or -2: at gbar != 0 the
    components of its truncated matrix are the two parity classes of n + m,
    at gbar = 0 the dim singletons."""

    @pytest.mark.parametrize("na, nb, modes", [(12, 12, (1, 3)), (12, 12, (1, -3)), (9, 4, (1, 3)),
                                               (4, 7, (1, -3)), (6, 1, (1, 3)), (1, 1, (1, 3))])
    def test_components_are_the_parity_classes(self, na, nb, modes, monkeypatch):
        states = FockBasis(na, nb).states()
        classes = [[i for i, (n, k) in enumerate(states) if (n + k) % 2 == p] for p in (0, 1)]
        m = k_matrix(0.7 + 0.2j, na, nb, modes)
        assert component_sets(m) == sorted(map(tuple, classes))
        sizes = [len(c) for c in classes]  # 85 and 84 at cutoff 12: two eig calls
        shapes = eig_shapes(monkeypatch)
        spectrum(m)
        assert shapes == [(sizes.count(s), s, s) for s in sorted(set(sizes))]

    @pytest.mark.parametrize("na, nb, modes", [(12, 12, (1, 3)), (4, 7, (1, -3))])
    def test_zero_coupling_makes_one_call(self, na, nb, modes, monkeypatch):
        shapes = eig_shapes(monkeypatch)
        res = spectrum(k_matrix(0, na, nb, modes))
        dim = (na + 1) * (nb + 1)
        assert shapes == [(dim, 1, 1)] and res.max_residual == 0.0


def per_state_rows(gbar, na, nb, modes):
    """eigenstate_matrix built the slow way: one eigenstate() call per row."""
    index = FockBasis(na, nb).index()
    rows = []
    for m in range(nb + 1):
        for n in range(na + 1):
            if n + abs(modes[1]) * m > na:
                continue
            row = np.zeros(len(index), dtype=complex)
            for (n2, m2), amp in eigenstate(n, m, gbar, modes=modes).items():
                row[index[(n2, m2)]] = complex(amp) * sqrt(
                    factorial(n2) * factorial(m2))
            rows.append(row)
    return np.array(rows)


class TestEigenstateMatrix:
    @pytest.fixture(autouse=True)
    def cleared(self):
        fock._formal_rows.cache_clear()
        yield
        fock._formal_rows.cache_clear()

    def test_rows_equal_per_state_eigenstates(self):
        for gbar in (F(1, 2), F(-4, 3), gr(3, F(2, 7)), 0.7 + 0.2j):
            for na, nb, modes in ((6, 6, (1, 3)), (9, 2, (1, 3)), (5, 9, (1, 3)),
                                  (7, 7, (1, -3)), (8, 1, (1, -3))):
                got = eigenstate_matrix(gbar, na, nb, modes)
                want = per_state_rows(gbar, na, nb, modes)
                assert got.shape == want.shape and np.array_equal(got, want), (gbar, na, nb, modes)

    @pytest.mark.parametrize("gbar", [0, 1000])
    @pytest.mark.parametrize("na, nb, modes", [(7, 3, (1, 3)), (4, 6, (1, 3)), (9, 2, (1, -3)), (3, 5, (1, -3))])
    def test_rows_equal_per_state_eigenstates_bitwise_at_the_ends(self, gbar, na, nb, modes):
        """At gbar = 0 the formal amplitudes that vanish are no entries at all; at 1000 the
        largest powers of g dominate; both round like the per-state route, bit for bit."""
        got = eigenstate_matrix(gbar, na, nb, modes)
        want = per_state_rows(gbar, na, nb, modes)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_one_mode_solve_per_call(self, monkeypatch):
        """One formal build per cutoff and mode pair makes the one mode solve, with the
        coupling formal; later couplings at that cutoff make none."""
        calls = []
        solve = fock.mode_solver
        monkeypatch.setattr(fock, "mode_solver", lambda *a: calls.append(a) or solve(*a))
        eigenstate_matrix(F(1, 2), 12, 12)
        assert calls == [(None, (1, 3))]
        eigenstate_matrix(gr(3, F(2, 7)), 12, 12)
        eigenstate_matrix(0.5, 12, 12, [1, 3])
        assert calls == [(None, (1, 3))]

    def test_a_second_coupling_makes_no_ladder_action(self, monkeypatch):
        eigenstate_matrix(F(1, 2), 8, 8)
        calls = []
        real = LadderOp.apply_state
        monkeypatch.setattr(LadderOp, "apply_state", lambda self, st: calls.append(1) or real(self, st))
        monkeypatch.setattr(fock, "mode_solver", lambda *a: calls.append(a))
        eigenstate_matrix(gr(-4, F(1, 3)), 8, 8)
        assert calls == []
        assert fock._formal_rows.cache_info().misses == 1

    def test_formal_rows_hold_no_negative_power_of_g(self):
        for na, nb, modes in ((12, 12, (1, 3)), (7, 7, (1, -3)), (6, 4, (2, 5))):
            count, amps, rows, cols, ks, factors, unit = fock._formal_rows(na, nb, modes)
            exps = {k for amp in amps for k, _ in amp.terms}
            assert min(a for a, _ in exps) == 0 and {b for _, b in exps} == {0}
            assert len(set(amps)) == len(amps) == 1 + ks.max()
            assert count == 1 + rows.max()
            assert len(rows) == len(cols) == len(ks) == len(factors)
            assert unit is True
        count, amps, rows, cols, ks, factors, _ = fock._formal_rows(12, 12, (1, 3))
        assert (count, len(rows), len(amps)) == (35, 123, 43)
        assert max(a for amp in amps for (a, _), _ in amp.terms) == 4

    def test_zero_frequency_is_degenerate(self):
        with pytest.raises(DegenerateModes):
            eigenstate_matrix(F(1, 2), 4, 4, (1, 0))

    def test_leaking_state_raises(self, monkeypatch):
        # a raising operator that moves the a-count by 4 > |m2| leaves the cutoff
        leaky = LadderOp({Monomial.make(x_pows=(4, 1)): Coefficient.of(1)})  # (a+)^4 b+
        monkeypatch.setattr(fock, "mode_solver", lambda gbar, modes: {F(1): ADAG, F(3): leaky})
        with pytest.raises(CutoffTooSmall):
            eigenstate_matrix(F(1, 2), 6, 6)


    def test_coupling_past_the_float_range_is_typed(self):
        # g^4 at 1e150 is past 1.8e308 where sqrt(301!) is not: the amplitude overflows
        with pytest.raises(FloatOverflow, match=r"eigenstate amplitude of \(18, 0\) past the float range"):
            eigenstate_matrix(10**150, 30, 2)
        assert np.isfinite(eigenstate_matrix(10**50, 30, 2)).all()

    def test_amplitude_past_the_float_range_is_typed(self):
        # sqrt(301!) is past 1.8e308; cutoff 300 still builds
        assert eigenstate_matrix(F(1, 2), 300, 1).shape == (300 + 1 + 300 - 3 + 1, 301 * 2)
        with pytest.raises(FloatOverflow, match="past the float range"):
            eigenstate_matrix(F(1, 2), 301, 1)

    def test_exact_amplitude_past_the_float_range_names_its_entry(self):
        # g^2 at 1e300 is past 1.8e308 before any factor: the fill names it, as it names an
        # overflowing product, and so does ladder_matrix for a coefficient past the range
        with pytest.raises(FloatOverflow, match=r"^eigenstate amplitude of \(0, 0\) past the float range$"):
            eigenstate_matrix(10**300, 6, 2)
        with pytest.raises(FloatOverflow, match=r"^ladder amplitude of \(1, 0\) past the float range$"):
            ladder_matrix(LadderOp({MODE_WORDS["a+"]: 10**400}), FockBasis(1, 1))


def k_plus_gbar(word):
    """``k_ladder`` with gbar times ``word`` added, for callers that build K with the coupling formal."""
    def mutant(gbar=None, modes=(1, 3)):
        assert gbar is None
        return k_ladder(None, modes) + LadderOp({word: GAMMA})
    return mutant


# the cutoffs and mode pairs where both certificates hold
CERTIFIED = [((12, 4), modes) for modes in ((1, 3), (1, -3), (2, 5), (-1, 3), (3, 1), (1, 2))] + \
    [((12, 12), (1, 3)), ((12, 12), (1, -3))]


class TestExactCertificates:
    @pytest.fixture(autouse=True)
    def cleared(self):
        fock._k_entries.cache_clear()
        fock._formal_rows.cache_clear()
        yield
        fock._k_entries.cache_clear()
        fock._formal_rows.cache_clear()

    @pytest.mark.parametrize("cutoffs, modes", CERTIFIED)
    def test_both_triangles_hold(self, cutoffs, modes):
        assert fock.k_lower_triangular(*cutoffs, modes) is True
        assert fock.eigenstates_unit_triangular(*cutoffs, modes) is True

    @pytest.mark.parametrize("word", [fock._word(1, 0, 0, 0), fock._word(1, 1, 0, 0)], ids=["a+", "a+a"])
    def test_k_fails_on_an_entry_above_the_diagonal_or_gbar_on_it(self, word, monkeypatch):
        monkeypatch.setattr(fock, "k_ladder", k_plus_gbar(word))
        assert fock.k_lower_triangular(12, 4) is False
        # the matrix at gbar = 0 is the true K's, but the verdict holds for every coupling
        assert np.array_equal(k_matrix(0, 12, 4), np.diag(np.diag(k_matrix(0, 12, 4))))

    def test_rows_fail_on_an_amplitude_after_the_own_state(self, monkeypatch):
        solve = fock.mode_solver

        def mutant(gbar, modes):  # A_{m1} + gbar b+: A_{m1}|vac> reaches |0, 1> after |1, 0>
            ops = solve(gbar, modes)
            return {**ops, F(modes[0]): ops[F(modes[0])] + LadderOp({MODE_WORDS["b+"]: GAMMA})}

        monkeypatch.setattr(fock, "mode_solver", mutant)
        assert fock.eigenstates_unit_triangular(12, 12) is False  # at (12, 4) the b+ terms leak

    def test_the_arguments_are_read_like_the_matrices(self):
        for check in (fock.k_lower_triangular, fock.eigenstates_unit_triangular):
            with pytest.raises(CutoffTooSmall, match="^cutoffs must be at least 1$"):
                check(0, 4)
            with pytest.raises(UnsupportedShape):
                check(2.5, 2)
            assert check(4, 4, [F(1), 3]) is True

    def test_k_needs_no_mode_solve(self):
        # equal frequencies have no modes, but K's triangle holds
        assert fock.k_lower_triangular(4, 4, (1, 1)) is True
        with pytest.raises(DegenerateModes):
            fock.eigenstates_unit_triangular(4, 4, (1, 1))


class TestRootFactorials:
    def test_math_sqrt_in_the_float_range_and_scaled_past_it(self):
        for n, m in product((0, 1, 12, 170, 171, 172, 300, 400), (0, 1, 171)):
            r, k = _root_factorial(n, m)
            q = factorial(n) * factorial(m)
            try:
                assert (r, k) == (sqrt(q), 0), (n, m)
            except OverflowError:  # q is past the float range
                assert k > 0 and 2 ** 499 < r < 2 ** 502
                assert abs(F(r) * 2 ** k / isqrt(q) - 1) < 1e-14, (n, m)

    @pytest.mark.parametrize("na, nb", [(171, 1), (1, 171), (400, 1)])
    def test_k_matrix_past_cutoff_170_matches_its_spectrum(self, na, nb):
        # 171! is past the float range; the normalizing factors are ratios of roots
        m = k_matrix(F(1, 2), na, nb)
        assert np.isfinite(m).all()
        want = sorted(n + 3 * k + 0.5 for n in range(na + 1) for k in range(nb + 1))
        assert np.allclose(np.sort(spectrum(m).eigenvalues.real), want)


class TestStatesAndOverlaps:
    def test_state_expansion_formal(self):
        st = eigenstate(1, 1)
        assert st == {(1, 1): Coefficient.of(1),
                      (2, 0): GAMMA * F(1, 2),
                      (0, 0): GAMMA * F(1, 4)}
        # pure a-ladder states coincide with the unperturbed ones
        assert eigenstate(0, 0) == {(0, 0): Coefficient.of(1)}
        assert eigenstate(1, 0) == {(1, 0): Coefficient.of(1)}
        assert eigenstate(2, 0) == {(2, 0): Coefficient.of(1)}
        assert eigenstate(3, 0) == {(3, 0): Coefficient.of(1)}
        # the first mixed state picks up a single correction of weight g/2
        assert eigenstate(0, 1) == {(0, 1): Coefficient.of(1),
                                    (1, 0): GAMMA * F(1, 2)}

    def test_states_are_matrix_eigenvectors(self):
        g = 0.5
        na = nb = 9
        m = k_matrix(g, na, nb)
        basis = FockBasis(na, nb)
        idx = basis.index()
        for (n, q) in ((0, 0), (1, 0), (1, 1), (0, 2)):
            st = eigenstate(n, q, F(1, 2))
            from math import factorial
            vec = np.zeros(len(idx), dtype=complex)
            for (n2, m2), amp in st.items():
                vec[idx[(n2, m2)]] = complex(amp) * sqrt(
                    factorial(n2) * factorial(m2))
            # row-as-input convention: v K = lam v
            assert np.abs(vec @ m - (n + 3 * q + 0.5) * vec).max() < 1e-10

    @pytest.mark.parametrize("modes", [(1, -3), (-1, 3), (-1, -3), (2, 5), (2, -5)])
    def test_states_are_matrix_eigenvectors_at_any_modes(self, modes):
        """|n-bar, m-bar> = A_{m1}^n A_{m2}^m |vac> is a nonzero eigenvector of K
        with eigenvalue m1 n + m2 m + 1/2, also where a frequency is negative."""
        na = nb = 9
        m = k_matrix(0.5, na, nb, modes)
        idx = FockBasis(na, nb).index()
        for (n, q) in ((0, 0), (1, 0), (1, 1), (0, 1)):
            vec = np.zeros(len(idx), dtype=complex)
            for (n2, m2), amp in eigenstate(n, q, F(1, 2), modes=modes).items():
                vec[idx[(n2, m2)]] = complex(amp) * sqrt(factorial(n2) * factorial(m2))
            assert np.abs(vec).max() > 0.5
            assert np.abs(vec @ m - (modes[0] * n + modes[1] * q + 0.5) * vec).max() < 1e-10

    def test_overlap_closed_form(self):
        vac = {(0, 0): Coefficient.of(1)}
        for g in (F(1, 2), F(1), F(4), gr(0, 1), gr(3, F(2, 7))):
            st = eigenstate(1, 1, g)
            p = overlap_probability(st, vac)
            a2 = Coefficient.of(g).abs2()
            assert p == a2 / (16 + 9 * a2)
            assert p < F(1, 9)

    def test_overlap_limit(self):
        vac = {(0, 0): Coefficient.of(1)}
        p = overlap_probability(eigenstate(1, 1, 1000), vac)
        assert abs(float(p) - 1 / 9) < 1e-4

    @pytest.mark.parametrize("modes", [(1, 3), (3, 1), (1, -3), (-1, 3), (-1, -3), (2, 5), (1, 2), (2, 3),
                                       (5, -2), (7, 1), (1, 1000)])
    def test_overlap_closed_form_at_any_modes(self, modes):
        """A_{m1} A_{m2}|vac> = |1,1> + beta g|0,0> - alpha g|2,0> with alpha = 1/(m1 - m2)
        and beta = 1/(m1 + m2), so p = beta^2|g|^2 / (1 + c|g|^2) with c = beta^2 + 2 alpha^2,
        and p falls short of its limit L = beta^2 / c by exactly L / (1 + c|g|^2)."""
        alpha, beta = F(1, modes[0] - modes[1]), F(1, modes[0] + modes[1])
        c = beta ** 2 + 2 * alpha ** 2
        limit = beta ** 2 / c
        vac = {(0, 0): Coefficient.of(1)}
        assert eigenstate(1, 1, modes=modes) == {(1, 1): gr(1), (0, 0): GAMMA * beta, (2, 0): GAMMA * -alpha}
        for g in (gr(F(1, 2)), gr(1), gr(4), gr(F(2, 3)), gr(1, F(-1, 5)), gr(1000)):
            st = eigenstate(1, 1, g, modes=modes)
            assert st == {(1, 1): gr(1), (0, 0): g * beta, (2, 0): g * -alpha}
            p, a2 = overlap_probability(st, vac), g.abs2()
            assert p == beta ** 2 * a2 / (1 + c * a2)
            assert limit - p == limit / (1 + c * a2)

    @pytest.mark.parametrize("n, m", [(-1, 0), (0, -1)])
    def test_negative_quantum_number_is_typed(self, n, m, monkeypatch):
        def forbidden(*args):
            raise AssertionError("eigenstate must reject the quantum numbers before solving for modes")

        monkeypatch.setattr(fock, "mode_solver", forbidden)
        with pytest.raises(UnsupportedShape, match="quantum number [nm] must be an integer >= 0, got -1"):
            eigenstate(n, m)

    @pytest.mark.parametrize("n, m", [(1.5, 0), (0, F(1, 2))])
    def test_non_integer_quantum_number_is_typed(self, n, m, monkeypatch):
        def forbidden(*args):
            raise AssertionError("eigenstate must reject the quantum numbers before solving for modes")

        monkeypatch.setattr(fock, "mode_solver", forbidden)
        with pytest.raises(UnsupportedShape, match="quantum number [nm] must be an integer"):
            eigenstate(n, m)

    def test_zero_state_overlap_is_typed(self):
        vac = {(0, 0): Coefficient.of(1)}
        for s1, s2 in (({}, vac), (vac, {})):
            with pytest.raises(UnsupportedShape, match="cannot normalize a zero state"):
                overlap_probability(s1, s2)

    def test_formal_state_overlap_is_typed(self):
        vac = {(0, 0): Coefficient.of(1)}
        formal = eigenstate(1, 1)
        for s1, s2 in ((formal, vac), (vac, formal), (formal, formal)):
            with pytest.raises(UnsupportedShape, match="numeric amplitudes"):
                overlap_probability(s1, s2)

    def test_self_overlap(self):
        st = eigenstate(1, 1, F(1, 2))
        assert overlap_probability(st, st) == 1

    def test_inner_product_metric(self):
        s = {(2, 1): Coefficient.of(1)}
        assert state_inner(s, s) == gr(2)  # 2! * 1!

    def test_eigenstate_family_full_rank(self):
        mat = eigenstate_matrix(1.0, 12, 12)
        assert np.linalg.matrix_rank(mat) == mat.shape[0]
        assert np.isfinite(np.linalg.cond(mat))


class TestEigencheck:
    def test_report_all_green(self):
        rep = h0_eigencheck()
        assert not any(rep.values()), [label for label, residual in rep.items() if residual]
        labels = list(rep)
        assert "H0 psi_(2,0) = 4 psi" in labels
        assert "H0 psi_(0,2) = 8 psi" in labels

    def test_quoted_forms(self):
        r = realization_osc()
        ground_ok = apply(r["w+1"], expected_psi("psi10").scale(0) + WeylOp.one()).is_zero()
        assert ground_ok
        for name in ("psi10", "psi20", "psi01"):
            assert quoted_psi(name) == expected_psi(name)
        assert quoted_psi("psi11") != expected_psi("psi11")

    def test_unknown_quoted_form_is_typed(self):
        # typed, and still the KeyError that callers outside the package catch
        assert issubclass(UnknownName, AlgebraError) and issubclass(UnknownName, KeyError)
        for lookup in (quoted_psi, expected_psi):
            with pytest.raises(AlgebraError, match="psi02"):
                lookup("psi02")

    def test_quoted_psi11_fails_eigen_identity(self):
        h0 = h0_op()
        bad = quoted_psi("psi11")
        assert not (apply(h0, bad) - bad.scale(6)).is_zero()
        good = expected_psi("psi11")
        assert (apply(h0, good) - good.scale(6)).is_zero()


class TestPT:
    def test_differential_operators(self):
        assert pt_check(h0_op(F(3, 7)))
        assert pt_check(h0_op())  # formal coupling transforms like a real one
        assert not pt_check(h0_op(F(3, 7)) + WeylOp.coord(0))
        assert pt_check(h0_op(0))

    def test_ladder_operators(self):
        assert pt_check(k_ladder(gr(0, F(1, 2))))  # imaginary coupling
        assert not pt_check(k_ladder(F(1, 2)))     # real coupling breaks it
        assert pt_check(k_ladder(0))
