"""On-shell invariance machinery.

The on-shell condition for a candidate symmetry Z of the equation
Omega psi = 0 is [Z, Omega] = f * Omega with f a function of the
coordinates; :func:`multiplier_division` extracts f by matching the Dt
part and verifying the remainder, :func:`onshell_report` runs that over a
whole realization, :func:`find_symmetries` solves the determining linear
system exactly for first-order candidates, :func:`close_algebra` recovers
structure constants, and :func:`contract` performs the rescaled
deformation-parameter limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import CheckFailed, NonQuadratic, NotClosed, NotInIdeal
from .linalg import (
    charpoly,
    eval_poly,
    fraction_sqrt,
    gaussian_rational_roots,
    nullspace,
    rank,
    rational_roots,
    solve_in_span,
)
from .realizations import CONTRACTION_POWERS, GeneratorTable, Realization
from .ring import Coefficient, I, OMEGA
from .weyl import Monomial, WeylOp, commutator, multiply

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


@dataclass
class OnShellEntry:
    generator: str
    multiplier: Optional[WeylOp]
    ok: bool
    detail: str = ""


@dataclass
class OnShellReport:
    entries: List[OnShellEntry]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def multipliers(self) -> Dict[str, WeylOp]:
        return {e.generator: e.multiplier for e in self.entries if e.multiplier is not None}

    def nonzero(self) -> Dict[str, WeylOp]:
        return {k: v for k, v in self.multipliers().items() if not v.is_zero()}


def onshell_report(r: Realization, omega_op: WeylOp) -> OnShellReport:
    """Check [g, Omega] = f_g * Omega for every generator of the realization."""
    entries = []
    for name in r.names():
        c = commutator(r[name], omega_op)
        if c.is_zero():
            entries.append(OnShellEntry(name, WeylOp.zero(), True))
            continue
        try:
            f = multiplier_division(c, omega_op)
            entries.append(OnShellEntry(name, f, True))
        except NotInIdeal as exc:
            entries.append(OnShellEntry(name, None, False, str(exc)))
    return OnShellReport(entries)


# ---------------------------------------------------------------------------
# table verification
# ---------------------------------------------------------------------------

@dataclass
class TableCheckEntry:
    pair: Tuple[str, str]
    ok: bool
    residual: str = ""


@dataclass
class TableCheck:
    entries: List[TableCheckEntry]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def n_pairs(self) -> int:
        return len(self.entries)


def verify_table(r: Realization, table: GeneratorTable) -> TableCheck:
    """Exact commutator check of a realization against structure constants."""
    entries = []
    names = table.names
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            got = commutator(r[a], r[b])
            want = WeylOp.zero()
            for k, cf in table.bracket(a, b).items():
                want = want + r[k].scale(cf)
            diff = got - want
            entries.append(TableCheckEntry((a, b), diff.is_zero(),
                                           "" if diff.is_zero() else str(diff)))
    return TableCheck(entries)


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
    p_coeffs = [F(0)] * (p_poly.omega_degree() + 1)
    for (_, k), (re, _) in p_poly.terms:
        p_coeffs[k] = re
    out: List[CriticalSolution] = []
    for omega, _mult in rational_roots(p_coeffs):
        s_val, o_val, e_val = (c.substitute(omega=omega).re
                               for c in (s, o_poly, e_poly))
        cands: List[Fraction] = []
        if o_val != 0:
            cands.append(-e_val / o_val)
        elif e_val == 0:
            root = fraction_sqrt(s_val)
            if root is not None:
                cands.extend([root, -root])
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

def _quadratic_basis(arity: int) -> List[Monomial]:
    """Monomials of total degree <= 2 in coordinates and derivatives."""
    gens = []
    for i in range(arity):
        x = [0] * arity
        x[i] = 1
        gens.append((tuple(x), (0,) * arity))
        d = [0] * arity
        d[i] = 1
        gens.append(((0,) * arity, tuple(d)))
    basis = [Monomial.make(x_pows=(0,) * arity, d_pows=(0,) * arity)]
    basis += [Monomial.make(x_pows=x, d_pows=d) for x, d in gens]
    seen = set(basis)
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            xa, da = gens[a]
            xb, db = gens[b]
            mono = Monomial.make(x_pows=tuple(p + q for p, q in zip(xa, xb)),
                                 d_pows=tuple(p + q for p, q in zip(da, db)))
            if mono not in seen:
                seen.add(mono)
                basis.append(mono)
    return basis


def _check_time_independent_quadratic(h: WeylOp) -> None:
    if not h.is_time_independent():
        raise NonQuadratic("Hamiltonian must be time independent")
    if h.spatial_degree() > 2:
        raise NonQuadratic("Hamiltonian exceeds total degree 2 in coordinates/derivatives")


def adjoint_matrix(h: WeylOp) -> Tuple[List[Monomial], List[List[Coefficient]]]:
    """Matrix of ad_H = [H, .] on the degree <= 2 operator space."""
    _check_time_independent_quadratic(h)
    arity = max(h.arity, 1)
    basis = _quadratic_basis(arity)
    index = {m: j for j, m in enumerate(basis)}
    n = len(basis)
    mat = [[Coefficient() for _ in range(n)] for _ in range(n)]
    for j, mono in enumerate(basis):
        image = commutator(h, WeylOp({mono: Coefficient.of(1)}))
        for m2, c in image.terms():
            if m2 not in index:
                raise NonQuadratic("adjoint action leaves the degree <= 2 space")
            mat[index[m2]][j] = c
    return basis, mat


def lambda_candidates(h: WeylOp, window: int = 4) -> List[Lambda]:
    """Exact eigenvalues of ad_H on the quadratic filtration, as m + n*w.

    For a Hamiltonian with purely scalar entries the rational spectrum comes
    from the characteristic polynomial; with formal parameters present the
    lattice points (m, n), |m|, |n| <= window, are tested against the exact
    characteristic polynomial.  Zero is always included; the returned set is
    symmetric under negation.
    """
    _, mat = adjoint_matrix(h)
    cp = charpoly(mat)
    cands: set = {(F(0), 0)}
    if all(c.is_scalar() for c in cp):
        for root in gaussian_rational_roots(cp):
            cands.add((root, 0))
            cands.add((-root, 0))
    else:
        for m in range(-window, window + 1):
            for n in range(-window, window + 1):
                lam = _lambda_coeff((F(m), n))
                if eval_poly(cp, lam).is_zero():
                    cands.add((F(m), n))
                    cands.add((F(-m), -n))
    return sorted(cands)


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


ANSATZ_FIRST_ORDER = "first-order"
ANSATZ_TIME_TRANSLATION = "time-translation"


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
    out = [()]
    for _ in range(bound):
        nxt = []
        for mu in out:
            for i in range(arity):
                nxt.append(tuple(sorted(mu + (i,))))
        out = sorted(set(out) | set(nxt))
    # convert index multisets to exponent tuples
    exps = set()
    for mu in out:
        e = [0] * arity
        for i in mu:
            e[i] += 1
        exps.add(tuple(e))
    return sorted(exps)


def _singleton_sweep(rows: List[Dict[int, Coefficient]]) -> Tuple[List[Dict[int, Coefficient]], set]:
    """Iteratively force unknowns appearing alone in a homogeneous row to zero."""
    forced: set = set()
    changed = True
    while changed:
        changed = False
        for row in rows:
            live = [j for j in row if j not in forced]
            if len(live) == 1:
                forced.add(live[0])
                changed = True
    kept_rows = []
    for row in rows:
        live = {j: c for j, c in row.items() if j not in forced}
        if live:
            kept_rows.append(live)
    return kept_rows, forced


def find_symmetries(omega_op: WeylOp,
                    lam_set: Optional[Iterable] = None,
                    ansatz: str = ANSATZ_TIME_TRANSLATION,
                    coeff_degree_bound: int = 2) -> List[SymmetryResult]:
    """Solve [Z, Omega] = f Omega exactly for first-order candidates.

    Candidates have the form Z = e^{i lam t} (c Dt + sum_i a_i(x) D_i + a_0(x))
    of total spatial degree <= coeff_degree_bound (so the derivative
    coefficients a_i have degree <= coeff_degree_bound - 1 and the function
    part a_0 degree <= coeff_degree_bound); the "first-order" ansatz forces
    c = 0, the "time-translation" ansatz leaves c as an unknown scalar.  For
    Omega = i Dt - H with time-independent H the multiplier is forced to
    f = -i lam c e^{i lam t}, so the determining system reduces to the
    spatial identity [W, H] - lam W + i lam c H = 0, solved by exact
    fraction-free elimination (lam may sit on the (m, n) lattice when the
    frequency is formal).

    When ``lam_set`` is None it defaults to :func:`lambda_candidates`; if
    the frequency is formal, that default is filtered to the rational
    lattice directions plus the fundamental +-w phases (the degrees carried
    by the generic catalog).  Pass the full candidate list explicitly to
    scan formal multiples and mixed phases such as 2w or 1+w; the solution
    space then also contains the uniform deformation families that
    specialize to the critical-frequency extras.

    Every returned generator is re-verified against the full operator
    product before being reported.
    """
    if ansatz not in (ANSATZ_FIRST_ORDER, ANSATZ_TIME_TRANSLATION):
        raise ValueError(f"unknown ansatz {ansatz!r}")
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
            basis_ops.append(WeylOp({Monomial.make(x_pows=mu, d_pows=tuple(d)): Coefficient.of(1)}))
    for mu in func_exps:
        basis_ops.append(WeylOp({Monomial.make(x_pows=mu, d_pows=(0,) * arity): Coefficient.of(1)}))

    results: List[SymmetryResult] = []
    for lam in lams:
        lam_c = _lambda_coeff(lam)
        columns: List[Dict[Monomial, Coefficient]] = []
        for b in basis_ops:
            d_op = commutator(b, h) - b.scale(lam_c)
            columns.append(dict(d_op.terms()))
        include_c = ansatz == ANSATZ_TIME_TRANSLATION
        if include_c:
            d_op = h.scale(I * lam_c)
            columns.append(dict(d_op.terms()))
        row_keys = sorted({m for col in columns for m in col},
                          key=lambda m: m.sort_key(arity))
        row_index = {m: i for i, m in enumerate(row_keys)}
        sparse_rows: List[Dict[int, Coefficient]] = [dict() for _ in row_keys]
        for j, col in enumerate(columns):
            for m, c in col.items():
                sparse_rows[row_index[m]][j] = c
        n_unknowns = len(columns)
        kept, forced = _singleton_sweep(sparse_rows)
        live_cols = sorted(set(range(n_unknowns)) - forced)
        col_pos = {j: p for p, j in enumerate(live_cols)}
        dense = [[row.get(j, Coefficient()) for j in live_cols] for row in kept]
        if live_cols:
            vectors = nullspace(dense, ncols=len(live_cols))
        else:
            vectors = []
        for vec in vectors:
            full = [Coefficient() for _ in range(n_unknowns)]
            for j, p in col_pos.items():
                full[j] = vec[p]
            w_op = WeylOp.zero()
            for j, b in enumerate(basis_ops):
                if not full[j].is_zero():
                    w_op = w_op + b.scale(full[j])
            c_coeff = full[-1] if include_c else Coefficient()
            inner = w_op
            if not c_coeff.is_zero():
                inner = inner + WeylOp.dt().scale(c_coeff)
            phase = WeylOp.phase(lam[0], lam[1])
            gen = multiply(phase, inner)
            mult = phase.scale(-(I * lam_c * c_coeff)) if not c_coeff.is_zero() else WeylOp.zero()
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

    Raises :class:`NotClosed` (with the offending pair and residual) when a
    commutator falls outside the linear span, and ``ValueError`` when the
    generators are linearly dependent.
    """
    gens = list(gens)
    if names is None:
        names = [f"g{i}" for i in range(len(gens))]
    names = list(names)
    arity = max([g.arity for g in gens] + [1])
    row_keys = sorted({m for g in gens for m, _ in g.terms()},
                      key=lambda m: m.sort_key(arity))
    row_index = {m: i for i, m in enumerate(row_keys)}
    span_cols = []
    for g in gens:
        col = [Coefficient() for _ in row_keys]
        for m, c in g.terms():
            col[row_index[m]] = c
        span_cols.append(col)
    span_matrix = [[span_cols[j][i] for j in range(len(gens))] for i in range(len(row_keys))]
    if rank(span_matrix) != len(gens):
        raise ValueError("generators are linearly dependent")

    brackets: Dict[Tuple[str, str], Dict[str, Coefficient]] = {}
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            c_op = commutator(gens[i], gens[j])
            if c_op.is_zero():
                continue
            target = [Coefficient() for _ in row_keys]
            outside = False
            for m, c in c_op.terms():
                if m not in row_index:
                    outside = True
                    break
                target[row_index[m]] = c
            sol = None if outside else solve_in_span(span_cols, target)
            if sol is None:
                raise NotClosed(f"[{names[i]}, {names[j]}] is outside the span",
                                pair=(names[i], names[j]), residual=c_op)
            combo = {names[k]: v for k, v in enumerate(sol) if not v.is_zero()}
            brackets[(names[i], names[j])] = combo
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
