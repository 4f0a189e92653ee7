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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (DegenerateModes, NonQuadratic, NonTerminatingSeries, NotClosed, NotDivisible, NotInIdeal,
                     UnknownName, UnsupportedShape, ZeroDivisor, integer, pair, rational)
from .linalg import (
    Matrix,
    Row,
    charpoly,
    eval_poly,
    gaussian_rational_roots,
    nullspace,
    rational_roots,
    rref_fraction_free,
    solve_in_span,
)
from .realizations import CONTRACTION_POWERS, GeneratorTable, Realization
from .ring import Coefficient, I, OMEGA
from .weyl import Monomial, WeylOp, coefficient_matrix, commutator, monomial_order, multiply, similarity

Lambda = Tuple[Fraction, int]  # lam = m + n*w


def _as_lambda(v) -> Lambda:
    """lam = m + n*w from a number m or a pair (m, n), m read by :func:`errors.rational`
    and n by :func:`errors.integer`; any other entry raises :class:`UnsupportedShape`."""
    m, n = pair(v, "a phase (m, n)") if isinstance(v, tuple) else (v, 0)
    return rational(m, "the number m in a phase (m, n)"), integer(n, "the multiple n of w in a phase (m, n)")


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
        terms[mono._replace(dt_pow=0)] = c
    return WeylOp(terms)


def multiplier_division(cand: WeylOp, omega_op: WeylOp) -> WeylOp:
    """Return the function f with cand = f * omega_op, or raise NotInIdeal.

    Requires omega_op's Dt part to be a single function monomial with an
    invertible coefficient (true for every invariant operator here: the
    leading term is i*Dt, possibly times a phase or a time power).  The
    extracted f may carry negative time powers (e.g. 1/t), which the
    operator product handles exactly.  The remainder test alone rejects a
    nonzero cand with no Dt part, or one whose Dt part carries derivatives.
    """
    om_dt = _dt_part(omega_op)
    if len(om_dt) != 1:
        raise NotInIdeal("divisor needs a single Dt leading term", residual=omega_op)
    (om_mono, om_c), = om_dt.terms()
    if not om_mono.is_function():
        raise NotInIdeal("divisor Dt coefficient is not a function", residual=omega_op)

    om_xs = {i: x for i, (x, _) in om_mono.coordinate_powers().items()}
    terms = {}
    for mono, c in _dt_part(cand).terms():
        xs = {i: x for i, (x, _) in mono.coordinate_powers().items()}
        for i, x in om_xs.items():
            xs[i] = xs.get(i, 0) - x
        if min(xs.values(), default=0) < 0:
            raise NotInIdeal("division would need a negative coordinate power", residual=cand)
        try:
            cq = c.divide_exact(om_c)
        except (NotDivisible, ZeroDivisor) as exc:
            raise NotInIdeal(f"coefficient division failed: {exc}", residual=cand)
        key = Monomial.make(mono.phase_m - om_mono.phase_m,
                            mono.phase_n - om_mono.phase_n,
                            mono.t_pow - om_mono.t_pow,
                            xs, (), 0)
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
            want = WeylOp(term for k, cf in table.bracket(a, b).items() for term in r[k].scale(cf).terms())
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
    return lam * (omega * omega + 1 - Fraction(5, 2) * lam * lam)


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
    frequencies.  At each, the rational roots of lam^2 - s(w) (never zero,
    as s > 0) are kept where both original equations vanish exactly.
    """
    w = OMEGA
    s = Fraction(2, 5) * (1 + w * w)
    e_poly = -3 * s + 3 * s * s - s * w * w    # E: the even part, lam^2 -> s
    o_poly = 2 * w + 4 * s * w - 2 * w ** 3    # O: the odd part divided by lam
    p_poly = e_poly * e_poly - s * o_poly * o_poly
    p_coeffs = [_weight(p_poly, 0, k).re for k in range(p_poly.omega_degree() + 1)]
    out: List[CriticalSolution] = []
    for omega, _mult in rational_roots(p_coeffs):
        for lam, _ in rational_roots([-s.substitute(omega=omega).re, 0, 1]):
            if crit_eq1(lam, omega) == 0 and crit_eq2(lam, omega) == 0:
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
    columns = [list(col) for col in zip(*mat)]
    e = type(h0)()
    for _ in basis:
        residual = h - similarity(-e, h0)
        if not residual:
            return e
        sol = solve_in_span(columns, [row[0] for row in coefficient_matrix([residual], basis)[1]])
        if sol is None:
            raise DegenerateModes("resonance: the residual is outside the image of ad_h0", residual=residual)
        e += type(h0)(zip(basis, sol))
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
    p is the characteristic polynomial of all of :func:`adjoint_matrix`, the
    degree-2 monomials included, so a rational lam_i + lam_j with irrational
    parts is found; the degree-1 block alone would lose it.
    """
    cp = charpoly(adjoint_matrix(h)[1])
    cands: set = {(Fraction(0), 0)}
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
        raise UnsupportedShape("expected an operator of the form i*Dt - H")
    h = WeylOp({dt_mono: I}) - omega_op
    if not h.is_time_independent():
        raise NonQuadratic("H must be time independent")
    return h


def _monomials_up_to(arity: int, bound: int) -> List[tuple]:
    """Exponent tuples of total degree <= bound, ascending (the constant one alone
    for bound < 0), built a coordinate at a time so none is made and dropped."""
    if arity == 0:
        return [()]
    return [(e,) + rest for e in range(max(bound, 0) + 1)
            for rest in _monomials_up_to(arity - 1, bound - e)]


def _phase_system(basis: Sequence[Monomial], brackets: Sequence[WeylOp], h: WeylOp,
                  lam: Lambda) -> Tuple[List[Monomial], List[Row]]:
    """The determining system [W, H] - lam W + i lam c H = 0 at one phase, by rows.

    Column j < len(basis) belongs to basis[j]'s unknown and holds
    [b_j, H] - lam b_j, read from the lam-independent bracket ``brackets[j]``
    with its entry at b_j shifted by -lam (and dropped where that cancels);
    the last column belongs to c and holds i lam H.  Returns the row
    monomials in :func:`monomial_order` and each row's nonzero entries
    {column: coefficient}: the rows and columns of
    ``coefficient_matrix([[b_j, H] - lam b_j ..., i lam H])``.
    """
    rows: Dict[Monomial, Row] = {}
    for j, bh in enumerate(brackets):
        for mono, c in bh.terms():
            rows.setdefault(mono, {})[j] = c
    lam_c = _lambda_coeff(lam)
    if lam_c:
        for j, b in enumerate(basis):
            row = rows.setdefault(b, {})
            entry = row[j] - lam_c if j in row else -lam_c
            if entry:
                row[j] = entry
            else:
                del row[j]
        i_lam = I * lam_c
        for mono, c in h.terms():
            rows.setdefault(mono, {})[len(basis)] = c * i_lam
    order = monomial_order(mono for mono, row in rows.items() if row)
    return order, [rows[mono] for mono in order]


def _singleton_sweep(rows: Sequence[Row], ncols: int) -> Tuple[Matrix, List[int]]:
    """Iteratively force unknowns appearing alone in a homogeneous row to zero.

    ``rows`` are maps {column: entry} of nonzero entries.  The forced set is
    the least fixpoint of "a row whose support has one unforced column
    forces it", so the order rows are read in does not change it.  Returns
    the rows that keep a live column, in their order and restricted to the
    live columns, and the live column indices.
    """
    forced: set = set()
    while True:
        singles: set = set()
        for row in rows:
            live = row.keys() - forced
            if len(live) == 1:
                singles |= live
        if not singles:
            break
        forced |= singles
    live_cols = [j for j in range(ncols) if j not in forced]
    zero = Coefficient()
    kept = [[row.get(j, zero) for j in live_cols] for row in rows if row.keys() - forced]
    return kept, live_cols


def default_phases(cands: Sequence[Lambda]) -> List[Lambda]:
    """The phases :func:`find_symmetries` scans by default among ad_H's eigenvalues ``cands``:
    all of them at a scalar frequency; with the frequency formal, the rational directions
    plus the fundamental +-w phases (the degrees carried by the generic catalog)."""
    formal = any(n for _, n in cands)
    return [(m, n) for m, n in cands if not formal or n == 0 or (m == 0 and abs(n) == 1)]


def find_symmetries(omega_op: WeylOp,
                    lam_set: Optional[Iterable] = None,
                    coeff_degree_bound: int = 2) -> List[SymmetryResult]:
    """Solve [Z, Omega] = f Omega exactly for first-order candidates.

    Candidates have the form Z = e^{i lam t} (c Dt + sum_i a_i(x) D_i + a_0(x)),
    the derivative coefficients a_i of degree <= max(coeff_degree_bound - 1, 0)
    and the function part a_0 of degree <= coeff_degree_bound, c an unknown
    scalar; so at bound 0 the D_i, of spatial degree 1, are candidates.  For
    Omega = i Dt - H with time-independent H the multiplier is forced to
    f = -i lam c e^{i lam t}, so the determining system reduces to the
    spatial identity [W, H] - lam W + i lam c H = 0, solved by exact
    fraction-free elimination (lam = m + n*w with rational m and integer n
    when the frequency is formal).

    When ``lam_set`` is None it defaults to :func:`default_phases` of
    :func:`lambda_candidates`, every eigenvalue of ad_H found exactly.  Pass the full
    candidate list explicitly to scan formal multiples and mixed phases such
    as 2w or 1+w; the solution space then also contains the uniform
    deformation families that specialize to the critical-frequency extras.

    The brackets [b, H] of the basis operators do not depend on lam and are
    computed once; :func:`_phase_system` builds each phase's rows from them,
    and the solve sweeps out the forced unknowns and takes the nullspace.
    Each generator's multiplier comes from
    :func:`multiplier_division` of [Z, Omega] by Omega, which re-verifies
    [Z, Omega] = f Omega against the full operator product and raises
    :class:`NotInIdeal` where it fails.
    """
    h = _split_i_dt_minus_h(omega_op)
    arity = max(h.arity, 1)
    if lam_set is None:
        lam_set = default_phases(lambda_candidates(h))
    lams = sorted({_as_lambda(v) for v in lam_set})

    func_exps = _monomials_up_to(arity, coeff_degree_bound)
    deriv_exps = _monomials_up_to(arity, max(coeff_degree_bound - 1, 0))
    basis: List[Monomial] = []
    for i in range(arity):
        basis += [Monomial.make(x_pows=mu, d_pows={i: 1}) for mu in deriv_exps]
    basis += [Monomial.make(x_pows=mu) for mu in func_exps]

    unknowns = [WeylOp({b: 1}) for b in basis] + [WeylOp.dt()]
    brackets = [commutator(b, h) for b in unknowns[:-1]]  # independent of lam
    results: List[SymmetryResult] = []
    for lam in lams:
        kept, live = _singleton_sweep(_phase_system(basis, brackets, h, lam)[1], len(unknowns))
        for vec in nullspace(kept, ncols=len(live)):
            inner = WeylOp(term for j, c in zip(live, vec) for term in unknowns[j].scale(c).terms())
            gen = multiply(WeylOp.phase(lam[0], lam[1]), inner)
            results.append(SymmetryResult(lam, gen, multiplier_division(commutator(gen, omega_op), omega_op)))
    return results


# ---------------------------------------------------------------------------
# closure into structure constants
# ---------------------------------------------------------------------------

def close_algebra(gens: Sequence[WeylOp],
                  names: Optional[Sequence[str]] = None) -> GeneratorTable:
    """Compute all pairwise commutators and express them in the span.

    One fraction-free elimination over [generator columns | every nonzero
    bracket column]: a generator column without a pivot raises
    :class:`UnsupportedShape` (dependent generators), and the first bracket column
    with one raises :class:`NotClosed` for that pair, the first outside the
    span in (i, j) order, with its commutator as residual.  Otherwise the
    generator pivots, all equal to d, fill rows 0..k-1, and a bracket's
    coefficients are its column's entries there, divided by d.
    """
    gens = list(gens)
    names = list(names) if names is not None else [f"g{i}" for i in range(len(gens))]
    if len(names) != len(gens) or len(set(names)) != len(names):
        raise UnsupportedShape(f"need one distinct name per generator for {len(gens)} generators, got {names!r}")
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
        raise UnsupportedShape("generators are linearly dependent")
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

def contract(r: Realization) -> Realization:
    """Rescale each generator by g^{s}, s its entry of ``CONTRACTION_POWERS``,
    and take the g -> 0 limit.

    Raises :class:`~cgalgebra.errors.SingularLimit` when any generator keeps
    a pole after its rescaling, :class:`UnknownName` for one outside ``CONTRACTION_POWERS``.
    """
    gens = {}
    for name, op in r.gens.items():
        if name not in CONTRACTION_POWERS:
            raise UnknownName(f"no contraction power for the generator {name!r}")
        scaled = op.scale(Coefficient.monomial(1, CONTRACTION_POWERS[name], 0))
        gens[name] = scaled.gamma_limit()
    return Realization(f"{r.name}-contracted", gens, gamma=0)
