"""On-shell invariance machinery.

The on-shell condition for a candidate symmetry Z of the equation
Omega psi = 0 is [Z, Omega] = f * Omega with f a function of the
coordinates; :func:`multiplier_division` extracts f by matching the Dt part and
verifying the remainder, :func:`onshell_report` runs that over a whole realization,
:func:`find_symmetries` solves the determining linear system exactly for first-order
candidates, :func:`close_algebra` recovers structure constants, :func:`decoupling_map`
finds the similarity that decouples a quadratic operator, and :func:`contract`
performs the rescaled deformation-parameter limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (CheckFailed, DegenerateModes, NonQuadratic, NonTerminatingSeries, NotClosed,
                     NotInIdeal, UnsupportedShape)
from .linalg import (
    Matrix,
    charpoly,
    eval_poly,
    gaussian_rational_roots,
    nullspace,
    rational_roots,
    rref_fraction_free,
)
from .realizations import CONTRACTION_POWERS, GeneratorTable, Realization
from .ring import Coefficient, I, OMEGA
from .weyl import Monomial, WeylOp, coefficient_matrix, commutator, multiply, similarity

F = Fraction

Lambda = Tuple[Fraction, int]  # lam = m + n*w


def _as_lambda(v) -> Lambda:
    if isinstance(v, tuple):
        return (F(v[0]), int(v[1]))
    return (F(v), 0)


def _lambda_coeff(lam: Lambda) -> Coefficient:
    return Coefficient({(0, 0): lam[0], (0, 1): lam[1]})


def _lambda_str(lam: Lambda) -> str:
    m, n = lam
    if n == 0:
        return str(m)
    if m == 0:
        return f"{n}*w"
    return f"{m}{'+' if n > 0 else ''}{n}*w"


# ---------------------------------------------------------------------------
# multiplier extraction
# ---------------------------------------------------------------------------

def _dt_part(op: WeylOp) -> WeylOp:
    """Terms with exactly one Dt, with the Dt stripped; errors on Dt^2."""
    terms = {}
    for mono, c in op.terms():
        if mono.dt_pow == 0:
            continue
        if mono.dt_pow > 1:
            raise NotInIdeal("second-order time derivative present", residual=op)
        terms[Monomial.make(mono.phase_m, mono.phase_n, mono.t_pow,
                            mono.x_pows, mono.d_pows, 0)] = c
    return WeylOp(terms)


def multiplier_division(cand: WeylOp, omega_op: WeylOp) -> WeylOp:
    """Return the function f with cand = f * omega_op, or raise NotInIdeal.

    Requires omega_op's Dt part to be a single function monomial with an
    invertible coefficient (true for every invariant operator here: the
    leading term is i*Dt, possibly times a phase or a time power).  The
    extracted f may carry negative time powers (e.g. 1/t), which the
    operator product handles exactly.
    """
    om_dt = _dt_part(omega_op)
    if len(om_dt) != 1:
        raise NotInIdeal("divisor needs a single Dt leading term", residual=omega_op)
    (om_mono, om_c), = om_dt.terms()
    if not om_mono.is_function():
        raise NotInIdeal("divisor Dt coefficient is not a function", residual=omega_op)

    cand_dt = _dt_part(cand)
    if cand_dt.is_zero():
        if cand.is_zero():
            return WeylOp.zero()
        raise NotInIdeal("candidate has no Dt part but is nonzero", residual=cand)

    terms = {}
    for mono, c in cand_dt.terms():
        xs = list(mono.x_pows) + [0] * (om_mono.arity - mono.arity)
        for i in range(om_mono.arity):
            xs[i] -= om_mono.x_pows[i]
            if xs[i] < 0:
                raise NotInIdeal("division would need a negative coordinate power",
                                 residual=cand)
        if not mono.is_function():
            raise NotInIdeal("multiplier would carry derivatives", residual=cand)
        try:
            cq = c.divide_exact(om_c)
        except (ValueError, ZeroDivisionError) as exc:
            raise NotInIdeal(f"coefficient division failed: {exc}", residual=cand)
        key = Monomial.make(mono.phase_m - om_mono.phase_m,
                            mono.phase_n - om_mono.phase_n,
                            mono.t_pow - om_mono.t_pow,
                            tuple(xs), (0,) * len(xs), 0)
        terms[key] = cq
    f = WeylOp(terms)
    residual = cand - multiply(f, omega_op)
    if not residual.is_zero():
        raise NotInIdeal("nonzero remainder after division", residual=residual)
    return f


def onshell_report(r: Realization, omega_op: WeylOp) -> Dict[str, Optional[WeylOp]]:
    """The multiplier f_g of [g, Omega] = f_g * Omega for every generator of the
    realization: zero where g commutes with Omega, None where no f_g exists."""
    out: Dict[str, Optional[WeylOp]] = {}
    for name in r.names():
        c = commutator(r[name], omega_op)
        try:
            out[name] = multiplier_division(c, omega_op) if c else WeylOp.zero()
        except NotInIdeal:
            out[name] = None
    return out


# ---------------------------------------------------------------------------
# table verification
# ---------------------------------------------------------------------------

def verify_table(r: Realization, table: GeneratorTable) -> Dict[Tuple[str, str], WeylOp]:
    """Exact commutator check of a realization against structure constants: the
    residual [a, b] - sum_k c_ab^k k of every pair, zero where the table holds."""
    out: Dict[Tuple[str, str], WeylOp] = {}
    names = table.names
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            want = WeylOp.zero()
            for k, cf in table.bracket(a, b).items():
                want = want + r[k].scale(cf)
            out[(a, b)] = commutator(r[a], r[b]) - want
    return out


# ---------------------------------------------------------------------------
# critical frequencies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalSolution:
    omega: Fraction
    lam: Fraction


def crit_eq1(lam: Fraction, omega: Fraction) -> Fraction:
    """lam (omega^2 + 1 - (5/2) lam^2)."""
    return lam * (omega * omega + 1 - F(5, 2) * lam * lam)


def crit_eq2(lam: Fraction, omega: Fraction) -> Fraction:
    """-3 lam^2 + 3 lam^4 + 2 lam w + 4 lam^3 w - lam^2 w^2 - 2 lam w^3."""
    return (-3 * lam ** 2 + 3 * lam ** 4 + 2 * lam * omega
            + 4 * lam ** 3 * omega - lam ** 2 * omega ** 2 - 2 * lam * omega ** 3)


def critical_frequencies() -> List[CriticalSolution]:
    """Exact elimination of the two-equation system for nonzero lam.

    On the lam != 0 branch of the first equation, lam^2 = s(w) with
    s = (2/5)(w^2+1).  Splitting the second equation into even and odd lam
    parts, E(w) + lam O(w) = 0, a rational solution needs the resultant-type
    polynomial E^2 - s O^2 to vanish; its rational roots give the critical
    frequencies, and every (w, lam) pair is verified by exact
    back-substitution into both original equations before being returned.
    """
    w = OMEGA
    s = F(2, 5) * (1 + w * w)
    e_poly = -3 * s + 3 * s * s - s * w * w    # E: the even part, lam^2 -> s
    o_poly = 2 * w + 4 * s * w - 2 * w ** 3    # O: the odd part divided by lam
    p_poly = e_poly * e_poly - s * o_poly * o_poly
    p_coeffs = [_weight(p_poly, 0, k).re for k in range(p_poly.omega_degree() + 1)]
    out: List[CriticalSolution] = []
    for omega, _mult in rational_roots(p_coeffs):
        s_val, o_val, e_val = (c.substitute(omega=omega).re
                               for c in (s, o_poly, e_poly))
        cands: List[Fraction] = []
        if o_val != 0:
            cands.append(-e_val / o_val)
        elif e_val == 0:
            cands.extend(lam for lam, _ in rational_roots([-s_val, 0, 1]))
        for lam in cands:
            if lam == 0:
                continue
            if lam * lam == s_val and crit_eq1(lam, omega) == 0 and crit_eq2(lam, omega) == 0:
                out.append(CriticalSolution(omega, lam))
    out.sort(key=lambda cs: (cs.omega, cs.lam))
    return out


# ---------------------------------------------------------------------------
# adjoint spectrum of a quadratic Hamiltonian
# ---------------------------------------------------------------------------

def _check_time_independent_quadratic(h: WeylOp) -> None:
    if not h.is_time_independent():
        raise NonQuadratic("Hamiltonian must be time independent")
    if h.spatial_degree() > 2:
        raise NonQuadratic("Hamiltonian exceeds total degree 2 in coordinates/derivatives")


def adjoint_matrix(h: WeylOp, arity: int = 1) -> Tuple[List[Monomial], Matrix]:
    """Matrix of ad_H = [H, .] on the monomials of degree <= 2 in at least ``arity`` coordinates
    and their derivatives, lowest degree first: [H, m] never has a higher degree than m."""
    _check_time_independent_quadratic(h)
    arity = max(h.arity, arity)
    basis = [Monomial.make(x_pows=e[:arity], d_pows=e[arity:])
             for e in sorted(_monomials_up_to(2 * arity, 2), key=sum)]
    return coefficient_matrix([commutator(h, WeylOp({m: 1})) for m in basis], rows=basis)


def decoupling_map(h0: WeylOp, h: WeylOp) -> WeylOp:
    """E with e^{-E} h0 e^{E} = h, of h0's class, by the Lie-transform normal form (Deprit 1969).

    Each step solves [h0, E_k] = h - e^{-E} h0 e^{E} on :func:`adjoint_matrix`'s space for the
    coordinates of h0 and h, free unknowns 0, until the residual is exactly zero; with a formal
    coupling each step raises the residual's order in it.  Raises :class:`DegenerateModes` at a
    resonance (a residual outside ad_h0's image), :class:`UnsupportedShape` unless h0 has scalar
    coefficients, :class:`NonTerminatingSeries` after as many steps as the space has dimensions.
    """
    if not all(c.is_scalar() for _, c in h0.terms()):
        raise UnsupportedShape("h0 must have scalar coefficients", residual=h0)
    _check_time_independent_quadratic(h)
    basis, mat = adjoint_matrix(h0, h.arity)
    e = type(h0)()
    for _ in basis:
        residual = h - similarity(-e, h0)
        if not residual:
            return e
        _, col = coefficient_matrix([residual], basis)
        red, pivots, d = rref_fraction_free([r + c for r, c in zip(mat, col)])
        if pivots[-1:] == [len(basis)]:
            raise DegenerateModes("resonance: the residual is outside the image of ad_h0", residual=residual)
        e = e + type(h0)({basis[c]: red[i][-1].divide_exact(d) for i, c in enumerate(pivots)})
    raise NonTerminatingSeries(f"no decoupling map within {len(basis)} steps", residual=residual)


def lambda_candidates(h: WeylOp) -> List[Lambda]:
    """Exact eigenvalues m + n*w of ad_H on the degree <= 2 space, zero included.

    Where the characteristic polynomial p vanishes at m + n*w, m is a root
    of its g^0 w^0 slice (nonzero, as p is monic) and n a root of every g
    slice of the top-w-degree coefficient of q(n*w), q(x) = p(x + m).  So
    the rational roots of those slices give every candidate, scalar or
    formal, and a pair is kept, with its negative, where p vanishes
    exactly.  A root with non-integer n raises :class:`UnsupportedShape`,
    since a phase carries an integer multiple of w.
    p is the product over all degree blocks (:func:`_adjoint_charpoly`), the
    degree-2 block included, so a rational lam_i + lam_j with irrational
    parts is found; the degree-1 block alone would lose it.
    """
    cp = _adjoint_charpoly(h)
    cands: set = {(F(0), 0)}
    for m in gaussian_rational_roots([_weight(c, 0, 0) for c in cp]):
        if m < 0:
            continue  # the spectrum is symmetric: each pair below comes with its negative
        q = _taylor_shift(cp, m)  # p(m + n*w) = sum_j q_j w^j n^j
        top = max(c.omega_degree() + j for j, c in enumerate(q) if c)
        a = min(ga for j, c in enumerate(q) for (ga, b), _ in c.terms if b == top - j)
        for n in gaussian_rational_roots([_weight(c, a, top - j) for j, c in enumerate(q)]):
            if eval_poly(cp, _lambda_coeff((m, n))):
                continue
            if n.denominator != 1:
                raise UnsupportedShape(f"ad_H has the eigenvalue {_lambda_str((m, n))}, "
                                       "but a phase carries an integer multiple of w")
            cands.update({(m, int(n)), (-m, -int(n))})
    return sorted(cands)


def _adjoint_charpoly(h: WeylOp) -> List[Coefficient]:
    """det(xI - ad_H) on the degree <= 2 space, as a product over degree blocks.

    For H of spatial degree <= 2, [H, m] never has a higher degree than m,
    so ordered by degree the matrix is block upper triangular, and det(xI - M)
    is exactly the product of its diagonal blocks' characteristic polynomials.
    """
    basis, mat = adjoint_matrix(h)
    cp = [Coefficient.of(1)]
    for deg in sorted({m.spatial_degree() for m in basis}):
        idx = [j for j, m in enumerate(basis) if m.spatial_degree() == deg]
        block = charpoly([[mat[i][j] for j in idx] for i in idx])
        prod = [Coefficient() for _ in range(len(cp) + len(block) - 1)]
        for (i, a), (j, b) in product(enumerate(cp), enumerate(block)):
            if a and b:
                prod[i + j] = prod[i + j] + a * b
        cp = prod
    return cp


def _weight(c: Coefficient, a: int, b: int) -> Coefficient:
    """The scalar weight of g^a w^b in c."""
    return Coefficient.of(dict(c.terms).get((a, b), (0, 0)))


def _taylor_shift(cp: Sequence[Coefficient], m: Fraction) -> List[Coefficient]:
    """Coefficients of p(x + m), by repeated synthetic division."""
    q, mc = list(cp), Coefficient.of(m)
    for i in range(len(q) - 1):
        for k in range(len(q) - 2, i - 1, -1):
            if q[k + 1]:
                q[k] = q[k] + q[k + 1] * mc
    return q


# ---------------------------------------------------------------------------
# first-order symmetry finder
# ---------------------------------------------------------------------------

@dataclass
class SymmetryResult:
    lam: Lambda
    generator: WeylOp
    multiplier: WeylOp

    def lam_text(self) -> str:
        return _lambda_str(self.lam)


def _split_i_dt_minus_h(omega_op: WeylOp) -> WeylOp:
    """Return H from Omega = i Dt - H; validates the shape."""
    dt_mono = Monomial.make(dt_pow=1)
    lead = omega_op.coefficient(dt_mono)
    if lead != I:
        raise ValueError("expected an operator of the form i*Dt - H")
    h = WeylOp({dt_mono: I}) - omega_op
    if not h.is_time_independent():
        raise ValueError("H must be time independent")
    return h


def _monomials_up_to(arity: int, bound: int) -> List[tuple]:
    """Exponent tuples of total degree <= bound, ascending (the constant one alone
    for bound < 0), built a coordinate at a time so none is made and dropped."""
    if arity == 0:
        return [()]
    return [(e,) + rest for e in range(max(bound, 0) + 1)
            for rest in _monomials_up_to(arity - 1, bound - e)]


def _singleton_sweep(rows: Matrix, ncols: int) -> Tuple[Matrix, List[int]]:
    """Iteratively force unknowns appearing alone in a homogeneous row to zero.

    Returns the rows restricted to the live columns, those rows that keep a
    nonzero entry, and the live column indices.
    """
    forced: set = set()
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


def find_symmetries(omega_op: WeylOp,
                    lam_set: Optional[Iterable] = None,
                    coeff_degree_bound: int = 2) -> List[SymmetryResult]:
    """Solve [Z, Omega] = f Omega exactly for first-order candidates.

    Candidates have the form Z = e^{i lam t} (c Dt + sum_i a_i(x) D_i + a_0(x))
    of total spatial degree <= coeff_degree_bound (so the derivative
    coefficients a_i have degree <= coeff_degree_bound - 1 and the function
    part a_0 degree <= coeff_degree_bound), c an unknown scalar.  For
    Omega = i Dt - H with time-independent H the multiplier is forced to
    f = -i lam c e^{i lam t}, so the determining system reduces to the
    spatial identity [W, H] - lam W + i lam c H = 0, solved by exact
    fraction-free elimination (lam = m + n*w with rational m and integer n
    when the frequency is formal).

    When ``lam_set`` is None it defaults to :func:`lambda_candidates`, every
    eigenvalue of ad_H found exactly; if the frequency is formal, that
    default is filtered to the rational directions plus the fundamental +-w
    phases (the degrees carried by the generic catalog).  Pass the full
    candidate list explicitly to scan formal multiples and mixed phases such
    as 2w or 1+w; the solution space then also contains the uniform
    deformation families that specialize to the critical-frequency extras.

    The brackets [b, H] of the basis operators do not depend on lam and are
    computed once.  Every returned generator is re-verified against the full
    operator product before being reported.
    """
    h = _split_i_dt_minus_h(omega_op)
    arity = max(h.arity, 1)
    if lam_set is None:
        cands = lambda_candidates(h)
        if any(n for _, n in cands):
            cands = [(m, n) for (m, n) in cands if n == 0 or (m == 0 and abs(n) == 1)]
        lam_set = cands
    lams = sorted({_as_lambda(v) for v in lam_set})

    func_exps = _monomials_up_to(arity, coeff_degree_bound)
    deriv_exps = _monomials_up_to(arity, max(coeff_degree_bound - 1, 0))
    basis_ops: List[WeylOp] = []
    for i in range(arity):
        d = [0] * arity
        d[i] = 1
        for mu in deriv_exps:
            basis_ops.append(WeylOp({Monomial.make(x_pows=mu, d_pows=tuple(d)): 1}))
    for mu in func_exps:
        basis_ops.append(WeylOp({Monomial.make(x_pows=mu, d_pows=(0,) * arity): 1}))

    brackets = [commutator(b, h) for b in basis_ops]  # independent of lam
    results: List[SymmetryResult] = []
    for lam in lams:
        lam_c = _lambda_coeff(lam)
        columns = [bh - b.scale(lam_c) for b, bh in zip(basis_ops, brackets)]
        columns.append(h.scale(I * lam_c))
        kept, live = _singleton_sweep(coefficient_matrix(columns)[1], len(columns))
        for vec in nullspace(kept, ncols=len(live)):
            coeffs = dict(zip(live, vec))
            c_coeff = coeffs.pop(len(basis_ops), Coefficient())
            inner = WeylOp.dt().scale(c_coeff)
            for j, c in coeffs.items():
                inner = inner + basis_ops[j].scale(c)
            phase = WeylOp.phase(lam[0], lam[1])
            gen = multiply(phase, inner)
            mult = phase.scale(-(I * lam_c * c_coeff))
            check = commutator(gen, omega_op) - multiply(mult, omega_op)
            if not check.is_zero():
                raise CheckFailed("solver produced a non-symmetry", residual=check)
            results.append(SymmetryResult(lam, gen, mult))
    return results


# ---------------------------------------------------------------------------
# closure into structure constants
# ---------------------------------------------------------------------------

def close_algebra(gens: Sequence[WeylOp],
                  names: Optional[Sequence[str]] = None) -> GeneratorTable:
    """Compute all pairwise commutators and express them in the span.

    One fraction-free elimination over [generator columns | every nonzero
    bracket column]: a generator column without a pivot raises
    ``ValueError`` (dependent generators), and the first bracket column
    with one raises :class:`NotClosed` for that pair, the first outside the
    span in (i, j) order, with its commutator as residual.  Otherwise the
    generator pivots, all equal to d, fill rows 0..k-1, and a bracket's
    coefficients are its column's entries there, divided by d.
    """
    gens = list(gens)
    names = list(names) if names is not None else [f"g{i}" for i in range(len(gens))]
    pairs = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            c_op = commutator(gens[i], gens[j])
            if not c_op.is_zero():
                pairs.append(((names[i], names[j]), c_op))
    _, matrix = coefficient_matrix(gens + [c_op for _, c_op in pairs])
    red, pivots, d = rref_fraction_free(matrix)
    k = len(gens)
    if pivots[:k] != list(range(k)):
        raise ValueError("generators are linearly dependent")
    if len(pivots) > k:
        pair, c_op = pairs[pivots[k] - k]
        raise NotClosed(f"[{pair[0]}, {pair[1]}] is outside the span", pair=pair, residual=c_op)
    brackets: Dict[Tuple[str, str], Dict[str, Coefficient]] = {}
    for p, (pair, _) in enumerate(pairs):
        brackets[pair] = {names[r]: red[r][k + p].divide_exact(d)
                          for r in range(k) if red[r][k + p]}
    central = frozenset(n for n in names if not any(n in pair for pair in brackets))
    return GeneratorTable(tuple(names), brackets, central=central)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def contract(r: Realization, powers: Optional[Mapping[str, int]] = None) -> Realization:
    """Rescale each generator by g^{s} and take the g -> 0 limit.

    Raises :class:`~cgalgebra.errors.SingularLimit` when any generator keeps
    a pole after its rescaling.
    """
    if powers is None:
        powers = CONTRACTION_POWERS
    gens = {}
    for name, op in r.gens.items():
        s = powers[name]
        scaled = op.scale(Coefficient.monomial(1, s, 0))
        gens[name] = scaled.gamma_limit()
    return Realization(f"{r.name}-contracted", gens, gamma=0)
