"""Catalogs of abstract algebra tables and concrete operator realizations.

Everything here is a constant: the eight-generator centrally extended
algebra table, its two differential realizations (polynomial-time "free"
picture and phase-time "oscillator" picture), the quadratic invariant
operators built from them, the nine-generator decoupled catalog with its
enhanced variants, and the general half-integer-rank builders.

Operators are immutable :class:`~cgalgebra.weyl.WeylOp` values over the
exact ring; a ``gamma`` of ``None`` keeps the deformation parameter formal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .errors import BadArity, CheckFailed
from .ring import GAMMA, I, OMEGA, ONE, Coefficient, CoefficientLike, accumulate
from .weyl import Monomial, WeylOp, anticommutator, multiply

F = Fraction


def _c(re=0, im=0, g=0, w=0) -> Coefficient:
    return Coefficient.monomial((re, im), g, w)


def _op(*terms) -> WeylOp:
    """Sum of (coefficient, monomial) pairs."""
    return WeylOp({m: c for c, m in terms})


def _m(pm=0, pn=0, t=0, x=0, y=0, dx=0, dy=0, dt=0) -> Monomial:
    return Monomial.make(F(pm), pn, t, (x, y), (dx, dy), dt)


# ---------------------------------------------------------------------------
# abstract tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorTable:
    """Abstract Lie-algebra presentation with Coefficient structure constants."""

    names: Tuple[str, ...]
    brackets: Mapping[Tuple[str, str], Mapping[str, Coefficient]]
    central: frozenset = frozenset()

    def bracket(self, a: str, b: str) -> Dict[str, Coefficient]:
        if (a, b) in self.brackets:
            return dict(self.brackets[(a, b)])
        if (b, a) in self.brackets:
            return {k: -v for k, v in self.brackets[(b, a)].items()}
        return {}

    def validate(self) -> bool:
        """Antisymmetry of storage and the Jacobi identity.

        With the storage antisymmetric the Jacobi sum is totally antisymmetric,
        so it is checked once per set of three distinct names.  Returns True;
        raises :class:`CheckFailed` naming the first violation.
        """
        for (a, b) in self.brackets:
            if a == b and self.brackets[(a, b)]:
                raise CheckFailed(f"[{a},{a}] must vanish")
            if (b, a) in self.brackets and (a, b) != (b, a):
                fwd = self.brackets[(a, b)]
                bwd = self.brackets[(b, a)]
                for k in set(fwd) | set(bwd):
                    s = fwd.get(k, Coefficient()) + bwd.get(k, Coefficient())
                    if not s.is_zero():
                        raise CheckFailed(f"brackets ({a},{b}) and ({b},{a}) not antisymmetric")
        for c in self.central:
            for other in self.names:
                if self.bracket(c, other):
                    raise CheckFailed(f"central element {c} has a nonzero bracket with {other}")
        for a, b, c in combinations(self.names, 3):
            acc: Dict[str, Coefficient] = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for k, f in self.bracket(y, z).items():
                    for m, g in self.bracket(x, k).items():
                        accumulate(acc, m, f * g)
            if acc:
                raise CheckFailed(f"Jacobi fails on ({a},{b},{c}): {acc}")
        return True


@dataclass(frozen=True)
class Realization:
    """Assignment of concrete operators to abstract generator labels."""

    name: str
    gens: Mapping[str, WeylOp]
    gamma: Optional[CoefficientLike] = None  # None = formal

    def __getitem__(self, key: str) -> WeylOp:
        return self.gens[key]

    def names(self) -> Tuple[str, ...]:
        return tuple(self.gens.keys())


CGA_NAMES = ("z0", "z+", "z-", "w+3", "w+1", "w-1", "w-3", "c")


def cga32_table() -> GeneratorTable:
    """The eight-generator centrally extended table.

    [z0,z+-] = +-2i z+-, [z+,z-] = -4i z0, [z0,wk] = ik wk,
    [z+-,wk] = i(k-+3) w_{k+-2}, [w_|k|, w_-|k|] = (3-2|k|) 16 c.
    """
    br: Dict[Tuple[str, str], Dict[str, Coefficient]] = {}

    def put(a, b, combo):
        combo = {k: v for k, v in combo.items() if not v.is_zero()}
        if combo:
            br[(a, b)] = combo

    put("z0", "z+", {"z+": _c(0, 2)})
    put("z0", "z-", {"z-": _c(0, -2)})
    put("z+", "z-", {"z0": _c(0, -4)})
    for k in (3, 1, -1, -3):
        put("z0", f"w{k:+d}", {f"w{k:+d}": _c(0, k)})
        if -3 <= k + 2 <= 3:
            put("z+", f"w{k:+d}", {f"w{k+2:+d}": _c(0, k - 3)})
        if -3 <= k - 2 <= 3:
            put("z-", f"w{k:+d}", {f"w{k-2:+d}": _c(0, k + 3)})
    put("w+1", "w-1", {"c": _c(16)})
    put("w+3", "w-3", {"c": _c(-48)})
    return GeneratorTable(CGA_NAMES, br, central=frozenset({"c"}))


# ---------------------------------------------------------------------------
# the two differential realizations (rank 3/2)
# ---------------------------------------------------------------------------

def realization_free(gamma: Optional[CoefficientLike] = None) -> Realization:
    """Polynomial-time realization acting on functions of (t, x, y)."""
    gens = {
        "z0": _op((_c(0, -2), _m(t=1, dt=1)), (_c(0, -1), _m(x=1, dx=1)),
                  (_c(0, -3), _m(y=1, dy=1)), (_c(0, -2), _m())),
        "z+": _op((_c(1), _m(dt=1))),
        "z-": _op((_c(-4), _m(t=2, dt=1)), (_c(-4), _m(t=1, x=1, dx=1)),
                  (_c(12, 0, -1), _m(y=1, dx=1)), (_c(-12), _m(t=1, y=1, dy=1)),
                  (_c(-8), _m(t=1)), (_c(0, 8), _m(x=2))),
        "w+3": _op((_c(1), _m(dy=1))),
        "w+1": _op((_c(0, -2), _m(t=1, dy=1)), (_c(0, 2, -1), _m(dx=1))),
        "w-1": _op((_c(-4), _m(t=2, dy=1)), (_c(8, 0, -1), _m(t=1, dx=1)),
                   (_c(0, -8, -1), _m(x=1))),
        "w-3": _op((_c(0, 8), _m(t=3, dy=1)), (_c(0, -24, -1), _m(t=2, dx=1)),
                   (_c(-48, 0, -1), _m(t=1, x=1)), (_c(-48, 0, -2), _m(y=1))),
        "c": _op((_c(1, 0, -2), _m())),
    }
    return Realization("free", {k: v.substitute(gamma=gamma) for k, v in gens.items()}, gamma)


def realization_osc(gamma: Optional[CoefficientLike] = None) -> Realization:
    """Phase-time realization acting on functions of (t, x, y)."""
    gens = {
        "z0": _op((_c(1), _m(dt=1))),
        "z+": _op((_c(1), _m(2, 0, dt=1)), (_c(0, 1), _m(2, 0, x=1, dx=1)),
                  (_c(0, 3), _m(2, 0, y=1, dy=1)), (_c(0, 1), _m(2, 0, x=2)),
                  (_c(0, 2), _m(2, 0))),
        "z-": _op((_c(1), _m(-2, 0, dt=1)), (_c(0, -1), _m(-2, 0, x=1, dx=1)),
                  (_c(0, -3), _m(-2, 0, y=1, dy=1)), (_c(12, 0, -1), _m(-2, 0, y=1, dx=1)),
                  (_c(0, 7), _m(-2, 0, x=2)), (_c(12, 0, -1), _m(-2, 0, x=1, y=1)),
                  (_c(0, -2), _m(-2, 0))),
        "w+3": _op((_c(1), _m(3, 0, dy=1))),
        "w+1": _op((_c(1), _m(1, 0, dy=1)), (_c(0, 2, -1), _m(1, 0, dx=1)),
                   (_c(0, 2, -1), _m(1, 0, x=1))),
        "w-1": _op((_c(1), _m(-1, 0, dy=1)), (_c(0, 4, -1), _m(-1, 0, dx=1)),
                   (_c(0, -4, -1), _m(-1, 0, x=1))),
        "w-3": _op((_c(1), _m(-3, 0, dy=1)), (_c(0, 6, -1), _m(-3, 0, dx=1)),
                   (_c(0, -18, -1), _m(-3, 0, x=1)), (_c(-48, 0, -2), _m(-3, 0, y=1))),
        "c": _op((_c(1, 0, -2), _m())),
    }
    return Realization("osc", {k: v.substitute(gamma=gamma) for k, v in gens.items()}, gamma)


def omega_ops(r: Realization) -> Tuple[WeylOp, WeylOp, WeylOp]:
    """Quadratic invariant operators (degree +1, 0, -1) built from a realization.

    Omega_+1 = i z+ + (g^2/16)({w+3, w-1} - {w+1, w+1})
    Omega_0  = i z0 + (g^2/32)({w+3, w-3} - {w+1, w-1})
    Omega_-1 = i z- + (g^2/16)({w+1, w-3} - {w-1, w-1})
    """
    g16, g32 = (Coefficient.monomial(F(1, d), 2, 0).substitute(gamma=r.gamma) for d in (16, 32))
    w = {k: r[k] for k in ("w+3", "w+1", "w-1", "w-3")}
    om_p = r["z+"].scale(I) + (anticommutator(w["w+3"], w["w-1"])
                               - anticommutator(w["w+1"], w["w+1"])).scale(g16)
    om_0 = r["z0"].scale(I) + (anticommutator(w["w+3"], w["w-3"])
                               - anticommutator(w["w+1"], w["w-1"])).scale(g32)
    om_m = r["z-"].scale(I) + (anticommutator(w["w+1"], w["w-3"])
                               - anticommutator(w["w-1"], w["w-1"])).scale(g16)
    return om_p, om_0, om_m


# -- operators entering the similarity connection ---------------------------

def x_plus_op() -> WeylOp:
    """X+ with z+ = e^{2it}(Dt + X+): i x Dx + 3i y Dy + i x^2 + 2i."""
    return _op((_c(0, 1), _m(x=1, dx=1)), (_c(0, 3), _m(y=1, dy=1)),
               (_c(0, 1), _m(x=2)), (_c(0, 2), _m()))


def k_plus_op(gamma: Optional[CoefficientLike] = None) -> WeylOp:
    """K+ = (Dx + x)^2 / 2 - i g x Dy."""
    dxx = WeylOp.deriv(0) + WeylOp.coord(0)
    op = multiply(dxx, dxx).scale(F(1, 2)) + _op((_c(0, -1, 1), _m(x=1, dy=1)))
    return op.substitute(gamma=gamma)


def h0_op(gamma: Optional[CoefficientLike] = None) -> WeylOp:
    """Non-hermitian oscillator H0 = -Dx^2/2 + x^2/2 + 3 y Dy + i g x Dy + 3/2: the
    :func:`theta_family` at w = 3 and C = 3/2, with the sign of g flipped."""
    return theta_family(3, -Coefficient.of(GAMMA if gamma is None else gamma), F(3, 2))


def s2_exponent() -> WeylOp:
    """x^2/2."""
    return _op((_c(F(1, 2)), _m(x=2)))


def s_tilde_exponent() -> WeylOp:
    """-(3/2) i t, the contraction-identification exponent."""
    return _op((_c(0, F(-3, 2)), _m(t=1)))


# ---------------------------------------------------------------------------
# decoupled catalog (rank 3/2, gamma = 0)
# ---------------------------------------------------------------------------

def decoupled_generic(omega: Optional[CoefficientLike] = None) -> Realization:
    """Nine-generator symmetry catalog of the decoupled oscillator pair.

    ``omega`` is the second frequency.  The generators are written once with
    it formal (phases on the (m, n) lattice, the y-number terms carrying i*w);
    a value is put in by :meth:`WeylOp.substitute`, which folds the phases and
    raises ValueError on a complex frequency.  Generator names follow the
    catalog convention: the x-ladder pair is w+1/w-1, the y-pair w+omega/w-omega.
    """
    iw = _c(0, 1, 0, 1)  # the scalar i*w
    gens = {
        "z+": _op((_c(1), _m(2, 0, dt=1)), (_c(0, 1), _m(2, 0, x=1, dx=1)),
                  (_c(0, 1), _m(2, 0, x=2)), (_c(0, F(1, 2)), _m(2, 0)), (iw, _m(2, 0, y=1, dy=1))),
        "z-": _op((_c(1), _m(-2, 0, dt=1)), (_c(0, -1), _m(-2, 0, x=1, dx=1)),
                  (_c(0, 1), _m(-2, 0, x=2)), (_c(0, F(-1, 2)), _m(-2, 0)), (iw, _m(-2, 0, y=1, dy=1))),
        "z0": _op((_c(1), _m(dt=1)), (iw, _m(y=1, dy=1))),
        "d": _op((_c(0, F(-1, 2)), _m(dt=1))),
        "c": WeylOp.one(),
        "w+omega": _op((ONE, _m(0, 1, dy=1))),
        "w+1": _op((_c(1), _m(1, 0, dx=1)), (_c(1), _m(1, 0, x=1))),
        "w-1": _op((_c(1), _m(-1, 0, dx=1)), (_c(-1), _m(-1, 0, x=1))),
        "w-omega": _op((ONE, _m(0, -1, y=1))),
    }
    return Realization("decoupled-generic", {k: v.substitute(omega=omega) for k, v in gens.items()},
                       gamma=0)


def generic_table(omega: Optional[CoefficientLike] = None) -> GeneratorTable:
    """Structure constants closed by the nine decoupled generators."""
    w2 = OMEGA.substitute(omega=omega) * F(1, 2)
    br: Dict[Tuple[str, str], Dict[str, Coefficient]] = {
        ("d", "z+"): {"z+": _c(1)},
        ("d", "z-"): {"z-": _c(-1)},
        ("d", "w+1"): {"w+1": _c(F(1, 2))},
        ("d", "w-1"): {"w-1": _c(F(-1, 2))},
        ("d", "w+omega"): {"w+omega": w2},
        ("d", "w-omega"): {"w-omega": -w2},
        ("z0", "z+"): {"z+": _c(0, 2)},
        ("z0", "z-"): {"z-": _c(0, -2)},
        ("z+", "z-"): {"z0": _c(0, -4)},
        ("z0", "w+1"): {"w+1": _c(0, 1)},
        ("z0", "w-1"): {"w-1": _c(0, -1)},
        ("z+", "w-1"): {"w+1": _c(0, -2)},
        ("z-", "w+1"): {"w-1": _c(0, 2)},
        ("w+1", "w-1"): {"c": _c(-2)},
        ("w+omega", "w-omega"): {"c": _c(1)},
    }
    names = ("z+", "z-", "z0", "d", "c", "w+omega", "w+1", "w-1", "w-omega")
    return GeneratorTable(names, br, central=frozenset({"c"}))


def enhanced_extras(omega: int) -> Dict[str, WeylOp]:
    """The three extra generators appearing at the critical frequencies."""
    if omega == 1:
        return {
            "q1": _op((_c(1), _m(y=1, dx=1)), (_c(1), _m(x=1, y=1))),
            "q2": _op((_c(1), _m(-2, 0, y=2))),
            "q3": _op((_c(1), _m(-2, 0, y=1, dx=1)), (_c(-1), _m(-2, 0, x=1, y=1))),
        }
    if omega == 3:
        return {
            "r-1": _op((_c(1), _m(-2, 0, y=1, dx=1)), (_c(1), _m(-2, 0, x=1, y=1))),
            "r-2": _op((_c(1), _m(-4, 0, y=1, dx=1)), (_c(-1), _m(-4, 0, x=1, y=1))),
            "r-3": _op((_c(1), _m(-6, 0, y=2))),
        }
    raise ValueError("enhanced generators exist at frequency 1 or 3 only")


def theta_family(omega: Optional[CoefficientLike] = None,
                 gamma: Optional[CoefficientLike] = None,
                 constant: CoefficientLike = 0) -> WeylOp:
    """Theta = -Dx^2/2 + x^2/2 + w y Dy - i g x Dy + C (formal where None)."""
    op = _op((_c(F(-1, 2)), _m(dx=2)), (_c(F(1, 2)), _m(x=2)),
             (_c(0, -1, 1), _m(x=1, dy=1)), (OMEGA, _m(y=1, dy=1)), (constant, _m()))
    return op.substitute(gamma=gamma, omega=omega)


# ---------------------------------------------------------------------------
# general half-integer rank builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenParams:
    """Parameters of the general-rank invariant operator.

    ell is a half-integer >= 3/2; gamma_vec has ell - 1/2 entries (the
    couplings); eps_vec has ell - 1/2 entries of +-1 fixing the signs of the
    frequencies omega_i = eps_i (2i - 1) for i = 2 .. ell + 1/2.
    """

    ell: Fraction
    gamma_vec: Tuple[Coefficient, ...]
    eps_vec: Tuple[int, ...]

    def __post_init__(self):
        ell = Fraction(self.ell)
        if ell < F(3, 2) or (ell - F(1, 2)).denominator != 1:
            raise BadArity(f"rank must be a half-integer >= 3/2, got {ell}")
        n_par = int(ell - F(1, 2))
        if len(self.gamma_vec) != n_par:
            raise BadArity(f"need {n_par} couplings for rank {ell}, got {len(self.gamma_vec)}")
        if len(self.eps_vec) != n_par:
            raise BadArity(f"need {n_par} signs for rank {ell}, got {len(self.eps_vec)}")
        if any(e not in (1, -1) for e in self.eps_vec):
            raise BadArity("signs must be +1 or -1")

    def omega_vec(self) -> Tuple[int, ...]:
        """omega_i = eps_i (2i - 1), i = 2 .. ell + 1/2; |omega_i| = 2i - 1."""
        return tuple(e * (2 * i - 1) for i, e in enumerate(self.eps_vec, start=2))


def gen_params(ell, signs: Iterable[int] = (), gammas: Optional[Iterable] = None) -> GenParams:
    ell = Fraction(ell)
    n_par = int(ell - F(1, 2))
    eps = tuple(signs) or (1,) * n_par
    if gammas is None:
        gvec = tuple(GAMMA for _ in range(n_par))
    else:
        gvec = tuple(Coefficient.of(g) if not isinstance(g, Coefficient) else g for g in gammas)
    return GenParams(ell, gvec, eps)


def _coupling_terms(p: GenParams) -> WeylOp:
    """-i sum_j g_j x_j D_{j+1} (the i Dt - H convention carries the minus)."""
    out = WeylOp.zero()
    for j, g in enumerate(p.gamma_vec):
        out = out + multiply(WeylOp.coord(j), WeylOp.deriv(j + 1)).scale(-I * g)
    return out


def gen_free(p: GenParams) -> WeylOp:
    """i Dt + Dx1^2/2 - i sum g_j x_j D_{j+1}: the continuous-spectrum operator."""
    return WeylOp.dt().scale(I) + (WeylOp.deriv(0) ** 2).scale(F(1, 2)) + _coupling_terms(p)


def gen_osc(p: GenParams) -> WeylOp:
    """i Dt + Dx1^2/2 - x1^2/2 - sum omega_i x_i D_i - i sum g_j x_j D_{j+1}."""
    out = WeylOp.dt().scale(I) + (WeylOp.deriv(0) ** 2 - WeylOp.coord(0) ** 2).scale(F(1, 2))
    for i, w in enumerate(p.omega_vec(), start=1):
        out = out - multiply(WeylOp.coord(i), WeylOp.deriv(i)).scale(w)
    return out + _coupling_terms(p)


# ---------------------------------------------------------------------------
# contraction bookkeeping
# ---------------------------------------------------------------------------

CONTRACTION_POWERS: Dict[str, int] = {
    "z0": 0, "z+": 0, "w+3": 0,
    "z-": 1, "w+1": 1, "w-1": 1,
    "w-3": 2,
    # the central element is rescaled by g^2 so that the printed limit c~ = 1
    # holds; its naive power bookkeeping has a pole (see decisions ledger)
    "c": 2,
}


def contraction_table() -> GeneratorTable:
    """The contracted algebra: planar Euclidean piece acting on two ladder pairs."""
    br: Dict[Tuple[str, str], Dict[str, Coefficient]] = {
        ("z0", "z+"): {"z+": _c(0, 2)},
        ("z0", "z-"): {"z-": _c(0, -2)},
        ("z0", "w+3"): {"w+3": _c(0, 3)},
        ("z0", "w+1"): {"w+1": _c(0, 1)},
        ("z0", "w-1"): {"w-1": _c(0, -1)},
        ("z0", "w-3"): {"w-3": _c(0, -3)},
        ("z+", "w-1"): {"w+1": _c(0, -4)},
        ("z-", "w+3"): {"w+1": _c(0, 6)},
        ("z-", "w-1"): {"w-3": _c(0, 2)},
        ("w+1", "w-1"): {"c": _c(16)},
        ("w+3", "w-3"): {"c": _c(-48)},
    }
    return GeneratorTable(CGA_NAMES, br, central=frozenset({"c"}))


def contraction_identification() -> Dict[str, Tuple[Dict[str, Coefficient], WeylOp, WeylOp]]:
    """Contracted generators as conjugated combinations of the frequency-3 catalog.

    Each value is (combination over the 12-generator basis, expected operator,
    combined operator before conjugation).  Conjugating the combination by
    exp of :func:`s_tilde_exponent` must reproduce the expected operator; the
    combination coefficients are the ones that actually verify.
    """
    om3 = decoupled_generic(3)
    ex3 = enhanced_extras(3)

    expected = {
        "z+": _op((_c(1), _m(2, 0, dt=1)), (_c(0, 1), _m(2, 0, x=1, dx=1)),
                  (_c(0, 3), _m(2, 0, y=1, dy=1)), (_c(0, 1), _m(2, 0, x=2)),
                  (_c(0, 2), _m(2, 0))),
        "z0": _op((_c(1), _m(dt=1))),
        "z-": _op((_c(12), _m(-2, 0, y=1, dx=1)), (_c(12), _m(-2, 0, x=1, y=1))),
        "w+3": _op((_c(1), _m(3, 0, dy=1))),
        "w+1": _op((_c(0, 2), _m(1, 0, dx=1)), (_c(0, 2), _m(1, 0, x=1))),
        "w-1": _op((_c(0, 4), _m(-1, 0, dx=1)), (_c(0, -4), _m(-1, 0, x=1))),
        "w-3": _op((_c(-48), _m(-3, 0, y=1))),
        "c": WeylOp.one(),
    }
    combos = {
        "z+": {"z+": ONE},
        "z0": {"d": _c(0, 2), "c": _c(0, F(-3, 2))},
        "z-": {"r-1": _c(12)},
        "w+3": {"w+omega": ONE},
        "w+1": {"w+1": _c(0, 2)},
        "w-1": {"w-1": _c(0, 4)},
        "w-3": {"w-omega": _c(-48)},
        "c": {"c": ONE},
    }
    out = {}
    basis = dict(om3.gens)
    basis.update(ex3)
    for name, combo in combos.items():
        op = WeylOp.zero()
        for bname, cf in combo.items():
            op = op + basis[bname].scale(cf)
        out[name] = (combo, expected[name], op)
    return out
