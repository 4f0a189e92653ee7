"""Command-line verification suites with machine-readable reports.

Every suite runs a named list of exact checks and serializes a Report;
reports are deterministic apart from the timing fields.  Exit status: 0 when
all checks pass, 1 on any failed check, 2 on a usage error (a bad flag,
value, config or path: ``usage error: <message>``, no report) or when a
suite raises an AlgebraError outside its checks (``error: <message>``; ``all``
still prints the reports of the other suites).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction as F
from functools import cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fock, invariance, realizations
from .errors import AlgebraError
from .linalg import det
from .ring import Coefficient, GAMMA, I
# multiply is not called here, but the benchmark's tracer tests read it as cli.multiply
from .weyl import (Monomial, WeylOp, apply, coefficient_matrix, commutator, multiply,  # noqa: F401
                   parse_op, print_op, similarity)

SCHEMA_VERSION = "cgalgebra-report/1"


@dataclass
class CheckRecord:
    id: str
    status: str  # pass | fail | skip
    details: str = ""
    residual: str = ""
    seconds: float = 0.0


@dataclass
class Report:
    """A suite's check records.  A record's ``seconds`` is the time since the
    previous record (or since the report was created), the times since the
    start rounded first, so that they add up to the total."""

    suite: str
    options: Dict[str, str]
    checks: List[CheckRecord] = field(default_factory=list)
    _start: float = field(default_factory=time.perf_counter, repr=False)
    _last: float = field(default=0.0, repr=False)

    def check(self, cid: str, ok: Optional[bool] | Callable[[], object], details: str = "",
              residual: str = ""):
        """Record a check; ``ok`` of None records a skip (nothing to compare with).

        ``ok`` may be a callable, called here, returning ``ok`` or ``(ok, details)``;
        an AlgebraError it raises records a fail with details ``"<Type>: <message>"``.
        """
        if callable(ok):
            try:
                ok = ok()
            except AlgebraError as exc:
                ok, details = False, f"{type(exc).__name__}: {exc}"
            if isinstance(ok, tuple):
                ok, details = ok
        now = round(time.perf_counter() - self._start, 4)
        status = "skip" if ok is None else "pass" if ok else "fail"
        self.checks.append(CheckRecord(cid, status, details, residual, round(now - self._last, 4)))
        self._last = now

    @property
    def summary(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.summary["fail"] == 0

    def payload(self) -> dict:
        """The report as the JSON object of the ``cgalgebra-report/1`` schema."""
        return {"schema": SCHEMA_VERSION, "suite": self.suite, "options": self.options,
                "checks": [asdict(c) for c in self.checks], "summary": self.summary}

    def to_markdown(self) -> str:
        lines = [f"# suite: {self.suite}", "", "| check | status | details |", "|---|---|---|"]
        for c in self.checks:
            detail = c.details.replace("|", "\\|")
            lines.append(f"| {c.id} | {c.status} | {detail} |")
        s = self.summary
        lines += ["", f"**{s['pass']} passed, {s['fail']} failed, {s['skip']} skipped**"]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_verify_algebra(opts) -> Report:
    rep = Report("verify-algebra", {"realization": opts.realization})
    table = realizations.cga32_table()
    rep.check("table-consistency", table.validate, details="antisymmetry + Jacobi")
    which = {"free": [realizations.realization_free],
             "osc": [realizations.realization_osc],
             "both": [realizations.realization_free, realizations.realization_osc]}[opts.realization]
    for builder in which:
        r = builder(opts.gamma)
        for (a, b), diff in invariance.verify_table(r, table).items():
            rep.check(f"{r.name}:[{a},{b}]", not diff, residual=str(diff) if diff else "")
    return rep


def _closure(w: F) -> Tuple[bool, str]:
    """Close the enhanced catalog at frequency w, validate its table, and print its brackets."""
    gens = {**realizations.decoupled_generic(w).gens, **realizations.enhanced_extras(w)}
    tbl = invariance.close_algebra(list(gens.values()), list(gens))
    table_txt = {f"[{a},{b}]": {k: str(v) for k, v in combo.items()}
                 for (a, b), combo in sorted(tbl.brackets.items())}
    return tbl.validate(), json.dumps(table_txt, sort_keys=True)


def suite_omega(opts) -> Report:
    rep = Report("omega", {})
    for builder in (realizations.realization_free, realizations.realization_osc):
        r = builder(opts.gamma)
        om_p, om_0, om_m = realizations.omega_ops(r)
        rep.check(f"{r.name}:sl2:[O0,O+]", commutator(om_0, om_p) == om_p.scale(-2))
        rep.check(f"{r.name}:sl2:[O0,O-]", commutator(om_0, om_m) == om_m.scale(2))
        rep.check(f"{r.name}:sl2:[O+,O-]", commutator(om_p, om_m) == om_0.scale(4))
    x_p = realizations.x_plus_op()
    h0 = realizations.h0_op(opts.gamma)
    k_p = realizations.k_plus_op(opts.gamma)
    two_i = Coefficient.of((0, 2))
    rep.check("[X+,H0]=2iK+", commutator(x_p, h0) == k_p.scale(two_i))
    rep.check("[X+,K+]=-2iK+", commutator(x_p, k_p) == k_p.scale(-two_i))
    rep.check("iX+ + H0 + K+ = 0", (x_p.scale(I) + h0 + k_p).is_zero())
    th_c = realizations.theta_family(3, opts.gamma, F(3, 2))
    th_d = realizations.theta_family(3, 0, F(3, 2))
    rep.check("coupling-similarity-decouples",
              lambda: similarity(_theta_exponent().substitute(gamma=opts.gamma), th_c, 64) == th_d,
              details="terminating series")
    return rep


@cache
def _theta_exponent() -> WeylOp:
    """E with e^{E} Theta(3, g) e^{-E} = Theta(3, 0) at formal g; the constant C commutes."""
    return invariance.decoupling_map(realizations.theta_family(3, 0), realizations.theta_family(3))


def suite_onshell(opts) -> Report:
    rep = Report("onshell", {})
    expected = {
        ("free", 0): {"z0": "1 * (2i)", "z-": "t^1 * (8)"},
        ("free", 1): {"z+": "t^-1 * (1)", "z-": "t^1 * (4)"},
        ("free", 2): {"z0": "1 * (-2i)", "z+": "t^-1 * (2)"},
        ("osc", 0): {"z0": "1 * (2i)", "z-": "e[-2,0] * (4i)"},
        ("osc", 1): {"z+": "e[2,0] * (-2i)", "z-": "e[-2,0] * (2i)"},
        ("osc", 2): {"z+": "e[2,0] * (-4i)", "z0": "1 * (-2i)"},
    }
    for builder in (realizations.realization_free, realizations.realization_osc):
        r = builder(opts.gamma)
        ops = realizations.omega_ops(r)
        for k, om in enumerate(ops):
            name = ("Omega+1", "Omega0", "Omega-1")[k]
            ok, got = _multipliers(invariance.onshell_report(r, om))
            rep.check(f"{r.name}:{name}", ok and got == expected[(r.name, k)],
                      details=json.dumps(got, sort_keys=True))
    dg = realizations.decoupled_generic(None)
    om = WeylOp.dt().scale(I) - realizations.theta_family(None, 0, 0)
    ok, got = _multipliers(invariance.onshell_report(dg, om))
    # the time-phase pair carries the forced multiplier -i*lam*e^{i lam t};
    # every purely spatial generator commutes on shell with zero multiplier
    want = {"z+": "e[2,0] * (-2i)", "z-": "e[-2,0] * (2i)"}
    rep.check("decoupled-generic", ok and got == want,
              details=json.dumps(got, sort_keys=True))
    return rep


def _multipliers(report: Dict[str, Optional[WeylOp]]) -> Tuple[bool, Dict[str, str]]:
    """Whether every generator has an on-shell multiplier, and the nonzero ones as text."""
    return (all(m is not None for m in report.values()),
            {g: print_op(m) for g, m in report.items() if m})


def suite_critical(opts) -> Report:
    rep = Report("critical", {})
    sols = invariance.critical_frequencies()
    omegas = sorted({s.omega for s in sols})
    rep.check("omega-set", omegas == [F(-3), F(-1, 3), F(1, 3), F(3)],
              details=str([str(w) for w in omegas]))
    by_omega: Dict[F, List[F]] = {}
    for s in sols:
        by_omega.setdefault(s.omega, []).append(s.lam)
    rep.check("lambda-at-3", sorted(by_omega.get(F(3), [])) == [F(-2), F(2)])
    rep.check("lambda-at-minus-3", sorted(by_omega.get(F(-3), [])) == [F(-2), F(2)])
    rep.check("lambda-at-third", by_omega.get(F(1, 3)) == [F(2, 3)])
    rep.check("lambda-at-minus-third", by_omega.get(F(-1, 3)) == [F(-2, 3)])
    back = all(invariance.crit_eq1(s.lam, s.omega) == 0 and invariance.crit_eq2(s.lam, s.omega) == 0
               for s in sols)
    rep.check("back-substitution", back)
    return rep


def _symmetry_dimension(omega: Optional[F], bound: int) -> Optional[int]:
    """Expected number of first-order symmetries, or None where none is pinned.

    Formal frequency: bound 0 finds Dt, 1 and e^{iwt} Dy; bound 1 adds
    e^{+-it}(Dx +- x) and e^{-iwt} y; bound 2 adds e^{+-2it}(i Dt + ...) and
    y Dy; bound 3 adds e^{-iwt} y^2 Dy, as [w y Dy, y^2 Dy] = w y^2 Dy.  The
    candidates of higher bounds, y^k Dy at lam = -(k-1) w, lie off the +-w
    directions that the formal-frequency filter keeps, so the count stays 10.
    Rational frequency w != 0: every eigenvalue of ad_H is rational, so bound
    2 also finds y^2 and y(Dx -+ x) at lam = -2w and -w -+ 1 (the enhanced
    extras at w = 1 and 3).  At w = 0 and at other bounds nothing is pinned.
    """
    if omega is None:
        return {0: 3, 1: 6, 2: 9}.get(bound, 10 if bound > 2 else None)
    return 12 if omega and bound == 2 else None


def suite_symmetries(opts) -> Report:
    w = opts.omega
    rep = Report("symmetries", {"omega": "generic" if w is None else str(w),
                                "degree_bound": str(opts.degree_bound)})
    om = WeylOp.dt().scale(I) - realizations.theta_family(w, 0, 0)
    res = invariance.find_symmetries(om, coeff_degree_bound=opts.degree_bound)
    expect = _symmetry_dimension(w, opts.degree_bound)
    rep.check("generic-dimension" if w is None else "dimension",
              None if expect is None else len(res) == expect, details=f"dim={len(res)}")
    for k, r in enumerate(res):
        # find_symmetries raises CheckFailed unless [Z, Omega] = f Omega holds exactly
        rep.check(f"reverify:{k}:lam={r.lam_text()}", True,
                  details=json.dumps({"generator": print_op(r.generator),
                                      "multiplier": print_op(r.multiplier)}))
    if w in (1, 3):
        rep.check("catalog-closure", lambda: _closure(w))
    return rep


def suite_contract(opts) -> Report:
    rep = Report("contract", {})
    r = realizations.realization_osc()
    contracted = invariance.contract(r)
    table = realizations.contraction_table()
    rep.check("table-consistency", table.validate)
    tc = invariance.verify_table(contracted, table)
    rep.check("contracted-closure", not any(tc.values()), details=f"{len(tc)} pairs")
    st = realizations.s_tilde_exponent()
    for name, (combo, expected, combined) in realizations.contraction_identification().items():
        got = similarity(st, combined, 8)
        ok = got == expected and contracted[name] == expected
        rep.check(f"identification:{name}", ok,
                  residual="" if ok else print_op(got - expected))
    cga = realizations.cga32_table()
    z_bracket_contracted = table.bracket("z+", "z-")
    z_bracket_cga = cga.bracket("z+", "z-")
    rep.check("not-a-subalgebra",
              z_bracket_contracted == {} and bool(z_bracket_cga),
              details="[z+,z-] vanishes after contraction but not before")
    return rep


def suite_spectrum(opts) -> Report:
    rep = Report("spectrum", {"cutoff_a": str(opts.cutoff_a), "cutoff_b": str(opts.cutoff_b)})
    na, nb = opts.cutoff_a, opts.cutoff_b
    modes = opts.modes
    expect = np.sort([modes[0] * n + modes[1] * m + 0.5
                      for n in range(na + 1) for m in range(nb + 1)])
    couplings = [complex(opts.gamma_bar)] if opts.gamma_bar is not None else [0.0, 0.3, 0.7 + 0.2j, 2.0]
    # every coupling term of K contains b, so K is strictly lower triangular
    # once the basis is ordered by the b-number m (stably, keeping energy order)
    by_b = np.argsort([m for _, m in fock.FockBasis(na, nb, modes).states()], kind="stable")
    base = None
    csv_rows = []
    for g in couplings:
        m = fock.k_matrix(g, na, nb, modes)
        tri = float(np.abs(np.triu(m[np.ix_(by_b, by_b)], 1)).max())
        rep.check(f"triangular:g={g}", tri == 0.0, details=f"off-triangle max {tri:.1e}")
        res = fock.spectrum(m)
        vals = np.sort(res.eigenvalues.real)
        ok = bool(np.allclose(vals, expect, atol=1e-9)) and float(np.abs(res.eigenvalues.imag).max()) < 1e-9
        rep.check(f"eigenvalues:g={g}", ok, details=f"max residual {res.max_residual:.1e}")
        csv_rows.extend((g, k, v, res.max_residual) for k, v in enumerate(vals))
        if base is None:
            base = vals
        else:
            rep.check(f"gamma-independence:g={g}", bool(np.allclose(vals, base, atol=1e-9)))
    if opts.csv:
        with open(opts.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gamma_bar", "index", "eigenvalue", "max_residual"])
            for g, k, v, r in csv_rows:
                writer.writerow([g, k, repr(float(v)), f"{r:.3e}"])
        rep.check("csv-written", True, details=opts.csv)
    return rep


def suite_modes(opts) -> Report:
    rep = Report("modes", {})
    modes = opts.modes
    ops = fock.mode_solver(opts.gamma_bar, modes)  # None = formal
    lams = list(ops)
    freqs = [F(abs(m)) for m in modes]
    rep.check("eigenvalue-multiset", lams == sorted(s * f for f in freqs for s in (-1, 1)), details=str(lams))
    rep.check("canonical-pairing", all(commutator(ops[-i], ops[j]) == WeylOp.scalar(int(i == j))
                                       for i in freqs for j in freqs))
    # the mode numbers n_i = sgn(m_i) A_|m_i| A_-|m_i| - [m_i < 0] (at m_i < 0 the
    # pair is ordered like b b+ = b+ b + 1): K = sum m_i n_i + 1/2 and N = sum n_i
    n1, n2 = ((ops[f] * ops[-f]).scale(1 if m > 0 else -1) - WeylOp.scalar(int(m < 0))
              for m, f in zip(modes, freqs))
    k_op, n_op = fock.k_ladder(opts.gamma_bar, modes), fock.n_ladder(opts.gamma_bar, modes)
    rep.check("K-in-mode-basis", n1.scale(modes[0]) + n2.scale(modes[1]) + WeylOp.scalar(F(1, 2)) == k_op)
    rep.check("N-in-mode-basis", n1 + n2 == n_op)
    rep.check("K-N-commute", commutator(k_op, n_op).is_zero())
    ok, depth = fock.kgamma_decoupling_check(opts.gamma_bar, modes)
    rep.check("decoupling-similarity", ok, details=f"ad-depth {depth}")
    # invertibility of the mode change of basis
    _, mat = coefficient_matrix(ops.values(), rows=list(fock.MODE_WORDS.values()))
    d = det(mat)
    rep.check("bogoliubov-invertible", not d.is_zero(), details=f"det {d}")
    gbar = opts.gamma_bar if opts.gamma_bar is not None else 1
    emat = fock.eigenstate_matrix(gbar, opts.cutoff_a, opts.cutoff_b, modes)
    rk = int(np.linalg.matrix_rank(emat))
    cond = float(np.linalg.cond(emat))
    rep.check("eigenstates-span", rk == emat.shape[0],
              details=f"rank {rk}/{emat.shape[0]}, condition number {cond:.3e}")
    return rep


def suite_overlap(opts) -> Report:
    rep = Report("overlap", {})
    skip = "" if opts.modes == (1, 3) else f"expectation derived for modes (1, 3) only, not {opts.modes}"
    vac = {(0, 0): Coefficient.of(1)}
    values = [opts.gamma_bar] if opts.gamma_bar is not None else [F(1, 2), F(1), F(4)]
    for g in values:
        p = None if skip else fock.overlap_probability(fock.eigenstate(1, 1, g), vac)
        a2 = Coefficient.of(g).abs2()
        # a scalar Coefficient prints in parentheses; the check id keeps the bare value
        rep.check(f"decay-probability:g={str(g).strip('()')}",
                  None if skip else p == a2 / (16 + 9 * a2) and p < F(1, 9), details=skip or f"p = {p}")
    big = None if skip else float(fock.overlap_probability(fock.eigenstate(1, 1, 1000), vac))
    rep.check("large-coupling-limit", None if skip else abs(big - 1 / 9) < 1e-4,
              details=skip or f"p = {big:.6f}")
    st = fock.eigenstate(1, 1, F(1, 2), modes=opts.modes)
    rep.check("self-overlap", fock.overlap_probability(st, st) == 1)
    got = {} if skip else {k: str(v) for k, v in sorted(fock.eigenstate(1, 1).items())}  # formal
    rep.check("state-11-expansion",
              None if skip else got == {(0, 0): "(1/4)*g^1", (1, 1): "(1)", (2, 0): "(1/2)*g^1"},
              details=skip or json.dumps({str(k): v for k, v in got.items()}, sort_keys=True))
    return rep


def suite_eigencheck(opts) -> Report:
    rep = Report("eigencheck", {})
    for label, residual in fock.h0_eigencheck().items():
        rep.check(label, not residual, residual=residual)
    # the commonly quoted (1,1) closed form carries a misprint: it fails the
    # eigenvalue identity, while the computed eigenfunction satisfies it, and
    # the two differ only in the xy term, which the quoted form halves
    h0_formal = realizations.h0_op()
    bad = fock.quoted_psi("psi11")
    good = fock.expected_psi("psi11")
    xy = Monomial.make(-4, x_pows=(1, 1))
    slip = WeylOp({xy: bad.coefficient(xy)})
    demonstrated = (not (apply(h0_formal, bad) - bad.scale(6)).is_zero()
                    and (apply(h0_formal, good) - good.scale(6)).is_zero()
                    and not slip.is_zero() and good == bad + slip)
    rep.check("quoted-(1,1)-misprint-demonstrated", demonstrated,
              details="xy coefficient must be 8i/g, not 4i/g")
    h0 = realizations.h0_op(opts.gamma if opts.gamma is not None else F(3, 7))
    rep.check("PT:H0", fock.pt_check(h0))
    rep.check("PT:odd-perturbation", not fock.pt_check(h0 + WeylOp.coord(0)))
    return rep


def suite_general_l(opts) -> Report:
    ell = opts.ell
    rep = Report("general-l", {"ell": str(ell), "signs": ",".join(str(s) for s in opts.signs or ())})
    bound = opts.degree_bound
    # the time-phase generators have spatial degree 2: a lower bound cannot find them
    pinned = bound >= 2
    if ell == F(3, 2):
        p = realizations.gen_params(ell, opts.signs or (1,))
        rep.check("free-matches-quadratic-invariant",
                  realizations.gen_free(p) == realizations.omega_ops(realizations.realization_free())[0])
        res = invariance.find_symmetries(realizations.gen_osc(p), lam_set=[2, -2], coeff_degree_bound=bound)
        rep.check("osc-time-phase-family", len(res) == 2 if pinned else None,
                  details=f"{len(res)} generators at lam = +-2")
        return rep
    ones = realizations.gen_params(ell).eps_vec
    gammas = [GAMMA * k for k in range(1, len(ones) + 1)]
    signs_list = [tuple(opts.signs)] if opts.signs else [ones, (-1,) + ones[1:]]
    for signs in signs_list:
        p = realizations.gen_params(ell, signs, gammas=gammas)
        om = realizations.gen_osc(p)
        res = invariance.find_symmetries(om, lam_set=[2, -2], coeff_degree_bound=bound)
        dt_fam = sum(1 for r in res if any(m.dt_pow for m, _ in r.generator.terms()))
        ok = len(res) >= 2 and dt_fam >= 2 and {r.lam for r in res} == {(F(2), 0), (F(-2), 0)}
        rep.check(f"signs={signs}:time-phase-family", ok if pinned else None,
                  details=f"{len(res)} generators, {dt_fam} with Dt")
    return rep


# ---------------------------------------------------------------------------
# catalog dump / golden comparison
# ---------------------------------------------------------------------------

def catalog_entries() -> Dict[str, str]:
    """Canonical serialization of every cataloged operator, keyed by label."""
    out: Dict[str, str] = {}
    for builder in (realizations.realization_free, realizations.realization_osc):
        r = builder()
        for name in r.names():
            out[f"{r.name}:{name}"] = print_op(r[name])
        om = realizations.omega_ops(r)
        for tag, op in zip(("Omega+1", "Omega0", "Omega-1"), om):
            out[f"{r.name}:{tag}"] = print_op(op)
    dg = realizations.decoupled_generic(None)
    for name in dg.names():
        out[f"generic:{name}"] = print_op(dg[name])
    for w in (1, 3):
        for name, op in realizations.enhanced_extras(w).items():
            out[f"enhanced{w}:{name}"] = print_op(op)
    out["aux:X+"] = print_op(realizations.x_plus_op())
    out["aux:K+"] = print_op(realizations.k_plus_op())
    out["aux:H0"] = print_op(realizations.h0_op())
    out["aux:S2"] = print_op(realizations.s2_exponent())
    out["aux:S~"] = print_op(realizations.s_tilde_exponent())
    out["aux:R2"] = print_op(_theta_exponent())
    return out


class UsageError(Exception):
    """A flag, config or --golden fixture that the suites cannot use."""


def suite_catalog(opts) -> Report:
    rep = Report("catalog", {})
    entries = catalog_entries()
    if opts.golden:
        path = Path(opts.golden) / "catalog.json"
        stored = json.loads(path.read_text())
        if not isinstance(stored, dict) or not all(isinstance(v, str) for v in stored.values()):
            raise UsageError(f"{path} is not a JSON object of strings")
        for key in sorted(set(entries) | set(stored)):
            rep.check(f"golden:{key}", entries.get(key) == stored.get(key),
                      details="" if entries.get(key) == stored.get(key)
                      else f"got {entries.get(key)!r} want {stored.get(key)!r}")
        # round-trip: parse every stored line back
        for key, text in sorted(stored.items()):
            try:
                ok, details = print_op(parse_op(text)) == text, ""
            except ValueError as exc:
                ok, details = False, f"ValueError: {exc}"
            rep.check(f"roundtrip:{key}", ok, details=details)
    else:
        for key in sorted(entries):
            rep.check(key, True, details=entries[key])
    return rep


SUITES: Dict[str, Callable] = {
    "verify-algebra": suite_verify_algebra,
    "omega": suite_omega,
    "onshell": suite_onshell,
    "critical": suite_critical,
    "symmetries": suite_symmetries,
    "contract": suite_contract,
    "spectrum": suite_spectrum,
    "modes": suite_modes,
    "overlap": suite_overlap,
    "eigencheck": suite_eigencheck,
    "general-l": suite_general_l,
    "catalog": suite_catalog,
}

# The 14 runs of `cgalgebra all`: a suite and the parsed options it overrides.
ALL_RUNS: List[Tuple[str, Dict[str, object]]] = [
    ("verify-algebra", {}), ("omega", {}), ("onshell", {}), ("critical", {}), ("contract", {}),
    ("eigencheck", {}), ("modes", {}), ("overlap", {}), ("spectrum", {}),
    ("symmetries", {"omega": None}), ("symmetries", {"omega": F(1)}), ("symmetries", {"omega": F(3)}),
    ("general-l", {"ell": F(3, 2)}), ("general-l", {"ell": F(5, 2)}),
]


def run_all(opts) -> Tuple[List[Report], List[str]]:
    """Run ALL_RUNS: the reports that finished, and ``[suite] message`` per AlgebraError."""
    reports, errors = [], []
    for suite, overrides in ALL_RUNS:
        try:
            reports.append(SUITES[suite](argparse.Namespace(**{**vars(opts), **overrides})))
        except AlgebraError as exc:
            errors.append(f"[{suite}] {exc}")
    return reports, errors


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _flag_type(parse: Callable[[str], object]) -> Callable[[str], object]:
    """``parse`` as a flag type: its ValueError or ZeroDivisionError is a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


MAX_DIGITS = 1000  # per numerator and denominator of a rational flag value


def _rational(text: str) -> F:
    """``F(text)`` with numerator and denominator of at most MAX_DIGITS digits each."""
    try:  # int reads an exponent as F does (sign, spaces, underscores), before F computes 10**exponent
        exponent = int(text.lower().partition("e")[2])
    except ValueError:
        exponent = 0  # no exponent, or a literal that F refuses with its own message
    if abs(exponent) > 2 * MAX_DIGITS:
        raise ValueError(f"exponent {exponent} is out of range")
    q = F(text)
    if max(abs(q.numerator), q.denominator) >= 10 ** MAX_DIGITS:
        raise ValueError(f"numerator or denominator has more than {MAX_DIGITS} digits")
    return q


def _complex_rational(text: str) -> Coefficient:
    parts = [_rational(x) for x in text.split(",", 1)]
    return Coefficient.of(tuple(parts) if len(parts) == 2 else parts[0])


def _count(text: str) -> int:
    if int(text) < 0:
        raise ValueError(f"must be >= 0, got {int(text)}")
    return int(text)


def _modes(text: str) -> Tuple[int, int]:
    modes = tuple(int(x) for x in text.split(","))
    if len(modes) != 2:
        raise ValueError(f"needs two integers like 1,3, got {len(modes)}")
    return modes


def _signs(text: str) -> Tuple[int, ...]:
    tokens = [s.strip() for s in text.split(",")]
    bad = [s for s in tokens if s not in ("+", "+1", "1", "-", "-1")]
    if bad:
        raise ValueError(f"takes +, -, +1, -1 or 1 separated by commas, got {bad[0]!r}")
    return tuple(-1 if s.startswith("-") else 1 for s in tokens)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cgalgebra",
        description="exact verification suites for the deformed-oscillator operator algebra",
        allow_abbrev=False,  # a flag matches by its full name only, as _joined expects
    )
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--realization", choices=("free", "osc", "both"), default="both")
    p.add_argument("--gamma", type=_flag_type(_rational), default=None,
                   help="rational value for the deformation parameter (default: formal)")
    p.add_argument("--gamma-bar", dest="gamma_bar", type=_flag_type(_complex_rational), default=None,
                   help='oscillator coupling as "re,im" rationals (default: formal/sweep)')
    p.add_argument("--omega", type=_flag_type(lambda t: None if t == "generic" else _rational(t)),
                   default=None, help='frequency: rational like "3" or "generic"')
    p.add_argument("--ell", type=_flag_type(_rational), default=F(3, 2), help="half-integer rank, e.g. 5/2")
    p.add_argument("--signs", type=_flag_type(_signs), default=None,
                   help='frequency signs like "+,-" for the general-rank builders')
    p.add_argument("--cutoff-a", dest="cutoff_a", type=_flag_type(_count), default=12)
    p.add_argument("--cutoff-b", dest="cutoff_b", type=_flag_type(_count), default=12)
    p.add_argument("--modes", type=_flag_type(_modes), default=(1, 3), help='mode pair, "1,3" or "1,-3"')
    p.add_argument("--degree-bound", dest="degree_bound", type=_flag_type(_count), default=2)
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.add_argument("--csv", default=None, help="also write spectra as CSV (spectrum suite)")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--golden", default=None, help="directory of golden fixtures (catalog suite)")
    p.add_argument("--config", default=None, help="JSON config file; flags take precedence")
    return p


def _config_flags(path: str) -> List[str]:
    """The entries of a JSON config object as ``--key=value`` flags; null keeps a default.

    The ``=`` form keeps a value such as ``-1/3`` from reading as a flag.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must hold a JSON object, not {type(data).__name__}")
    return [f"--{key.replace('_', '-')}={value}" for key, value in data.items() if value is not None]


def _joined(parser: argparse.ArgumentParser, argv: List[str]) -> List[str]:
    """argv with each value flag and a next token that is no option as ``--flag=value``,
    since argparse takes ``-1/3``, ``-1,3`` or ``-,+`` for an option, not a value."""
    options, out = parser._option_string_actions, []
    for tok in argv:
        if out and out[-1] in options and options[out[-1]].nargs is None and tok not in options:
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def _usage_error(message: str):
    raise UsageError(message)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    parser.error = _usage_error
    argv = _joined(parser, list(sys.argv[1:] if argv is None else argv))
    try:
        args = parser.parse_args(argv)
        if args.config:
            # parse again with the config's flags first: each goes through its
            # flag's type and choices, and an explicit flag, coming later, wins
            args = parser.parse_args(_config_flags(args.config) + argv)
        if args.suite == "all":
            reports, errors = run_all(args)
            payload = [r.payload() for r in reports]
        else:
            reports, errors = [SUITES[args.suite](args)], []
            payload = reports[0].payload()
        blob = json.dumps(payload, indent=2, sort_keys=True) if args.format == "json" \
            else "\n\n".join(r.to_markdown() for r in reports)
        if args.out:
            Path(args.out).write_text(blob + "\n")
    except SystemExit:  # --help, which has printed
        return 0
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a flag or --config; a --golden, --csv or --out path; a --config or --golden file
    except (UsageError, OSError, UnicodeError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        print(blob)
    for r in reports:
        s = r.summary
        print(f"[{r.suite}] {s['pass']} passed, {s['fail']} failed, {s['skip']} skipped", file=sys.stderr)
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    return 2 if errors else 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
