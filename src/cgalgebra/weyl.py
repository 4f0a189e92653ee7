"""Normal-ordered differential-operator algebra over the exact ring.

An operator is a finite sum of monomials

    e^{i(m+n*w)t} * t^a * x1^b1..xk^bk * Dx1^c1..Dxk^ck * Dt^f

with :class:`~cgalgebra.ring.Coefficient` weights.  The canonical (normal)
order is fixed: phase, then t and coordinate powers, then coordinate
derivatives, then Dt.  Products reorder exactly via the Weyl relations
[Dxi, xi] = 1, [Dt, t] = 1 and the phase derivation
Dt e^{i(m+nw)t} = e^{i(m+nw)t} (Dt + i(m+nw)).

The phase label m is an exact rational, an int when integral (the lattice
is Q + Z*w, which covers substitution of rational frequencies into phases);
t powers may be negative, which is what lets on-shell multipliers such as
1/t live in the same class.
Coordinate and derivative powers are never negative.

A :class:`Wavefunction` is the closed class polynomial(x) * exp(-x1^2/2)
* phase used for exact eigenfunction work.  An operator acts on it through
the product: :func:`apply` conjugates by the Gaussian, multiplies by the
phase and polynomial, and keeps the derivative-free terms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial
from operator import add
from typing import Iterable, Mapping, NamedTuple, Optional, Tuple

from .errors import NonTerminatingSeries, UnsupportedShape
from .ring import Coefficient, CoefficientLike, accumulate

Phase = Tuple[Fraction, int]


def _falling(a: int, r: int) -> int:
    """a (a-1) ... (a-r+1); valid for negative a as well."""
    out = 1
    for j in range(r):
        out *= a - j
    return out


def _trim(x_pows: tuple, d_pows: tuple) -> tuple:
    k = len(x_pows)
    while k and x_pows[k - 1] == 0 and d_pows[k - 1] == 0:
        k -= 1
    return x_pows[:k], d_pows[:k]


def _phase(m):
    """An exact phase label, as an int when integral: ints hash without
    ``Fraction.__hash__``, and compare, hash and print like the equal Fraction."""
    return m.numerator if m.denominator == 1 else m


class Monomial(NamedTuple):
    phase_m: Fraction = 0
    phase_n: int = 0
    t_pow: int = 0
    x_pows: tuple = ()
    d_pows: tuple = ()
    dt_pow: int = 0

    @staticmethod
    def make(phase_m=0, phase_n=0, t_pow=0, x_pows=(), d_pows=(), dt_pow=0) -> "Monomial":
        x_pows = tuple(x_pows)
        d_pows = tuple(d_pows)
        if len(x_pows) != len(d_pows):
            n = max(len(x_pows), len(d_pows))
            x_pows = x_pows + (0,) * (n - len(x_pows))
            d_pows = d_pows + (0,) * (n - len(d_pows))
        if any(p < 0 for p in x_pows) or any(p < 0 for p in d_pows):
            raise ValueError("coordinate and derivative powers must be >= 0")
        if dt_pow < 0:
            raise ValueError("Dt power must be >= 0")
        x_pows, d_pows = _trim(x_pows, d_pows)
        return Monomial(_phase(Fraction(phase_m)), int(phase_n), int(t_pow), x_pows, d_pows, int(dt_pow))

    @property
    def arity(self) -> int:
        return len(self.x_pows)

    def is_function(self) -> bool:
        return self.dt_pow == 0 and all(p == 0 for p in self.d_pows)

    def spatial_degree(self) -> int:
        return sum(self.x_pows) + sum(self.d_pows)

    def sort_key(self, arity: int) -> tuple:
        xp = self.x_pows + (0,) * (arity - len(self.x_pows))
        dp = self.d_pows + (0,) * (arity - len(self.d_pows))
        return (self.phase_m, self.phase_n, self.t_pow) + xp + dp + (self.dt_pow,)


_MONO_ONE = Monomial.make()


def _phase_theta(m: Fraction, n: int) -> Coefficient:
    """Coefficient i*(m + n*w) from deriving the phase e^{i(m+nw)t}."""
    return Coefficient({(0, 0): (0, m), (0, 1): (0, n)})


def _op(cls, terms: dict):
    """An operator of class ``cls`` that takes ownership of a finished term map."""
    out = object.__new__(cls)
    out._terms = terms
    return out


class WeylOp:
    """Immutable normal-ordered operator: map Monomial -> Coefficient.

    Sums, scalings, products and parameter maps of a subclass instance stay
    in its class (``fock.LadderOp``); the static constructors build WeylOps.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Coefficient] = ()):
        d = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, c in items:
            accumulate(d, mono, Coefficient.of(c))
        self._terms = d

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero() -> "WeylOp":
        return _ZERO_OP

    @staticmethod
    def scalar(c: CoefficientLike) -> "WeylOp":
        return WeylOp({_MONO_ONE: Coefficient.of(c)})

    @staticmethod
    def one() -> "WeylOp":
        return WeylOp.scalar(1)

    @staticmethod
    def coord(i: int) -> "WeylOp":
        x = [0] * (i + 1)
        x[i] = 1
        return WeylOp({Monomial.make(x_pows=x): Coefficient.of(1)})

    @staticmethod
    def deriv(i: int) -> "WeylOp":
        d = [0] * (i + 1)
        d[i] = 1
        return WeylOp({Monomial.make(d_pows=d): Coefficient.of(1)})

    @staticmethod
    def t(power: int = 1) -> "WeylOp":
        return WeylOp({Monomial.make(t_pow=power): Coefficient.of(1)})

    @staticmethod
    def dt() -> "WeylOp":
        return WeylOp({Monomial.make(dt_pow=1): Coefficient.of(1)})

    @staticmethod
    def phase(m, n: int = 0) -> "WeylOp":
        return WeylOp({Monomial.make(phase_m=Fraction(m), phase_n=n): Coefficient.of(1)})

    # -- views ------------------------------------------------------------
    def terms(self) -> Iterable:
        return self._terms.items()

    def coefficient(self, mono: Monomial) -> Coefficient:
        return self._terms.get(mono, Coefficient())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def arity(self) -> int:
        return max((m.arity for m in self._terms), default=0)

    def spatial_degree(self) -> int:
        return max((m.spatial_degree() for m in self._terms), default=0)

    def is_function(self) -> bool:
        """True when no derivative (coordinate or time) appears."""
        return all(m.is_function() for m in self._terms)

    def is_time_independent(self) -> bool:
        return all(m.phase_m == 0 and m.phase_n == 0 and m.t_pow == 0 and m.dt_pow == 0
                   for m in self._terms)

    # -- equality -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylOp):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- linear structure ----------------------------------------------------
    def __add__(self, other) -> "WeylOp":
        if not isinstance(other, WeylOp):
            return NotImplemented
        d = dict(self._terms)
        for mono, c in other._terms.items():
            accumulate(d, mono, c)
        return _op(type(self), d)

    def __neg__(self) -> "WeylOp":
        return _op(type(self), {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "WeylOp":
        return self + (-other)

    def scale(self, c: CoefficientLike) -> "WeylOp":
        c = Coefficient.of(c)
        if c.is_zero():
            return _op(type(self), {})
        return _op(type(self), {m: v * c for m, v in self._terms.items()})

    def __mul__(self, other) -> "WeylOp":
        if isinstance(other, WeylOp):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other) -> "WeylOp":
        # scalars commute with nothing here except by acting as left factors,
        # but scaling by a ring element is the same on either side
        return self.scale(other)

    def __pow__(self, k: int) -> "WeylOp":
        if k < 0:
            raise ValueError("negative operator power")
        out = WeylOp.one()
        for _ in range(k):
            out = multiply(out, self)
        return out

    # -- parameter maps ---------------------------------------------------
    def substitute(self, gamma: CoefficientLike = None, omega: CoefficientLike = None) -> "WeylOp":
        """Substitute parameter values; omega folds phases (m,n) -> (m+n*omega, 0).

        ``omega`` must be an exact rational when any term carries a nonzero
        w-phase index, because the phase lattice stays real.
        """
        if gamma is None and omega is None:
            return self
        pairs = []
        for mono, c in self._terms.items():
            c2 = c.substitute(gamma=gamma, omega=omega)
            if omega is not None and mono.phase_n:
                wq = Coefficient.of(omega)
                if wq.im:
                    raise ValueError("cannot fold a complex frequency into a phase")
                mono = Monomial.make(mono.phase_m + mono.phase_n * wq.re, 0, mono.t_pow,
                                     mono.x_pows, mono.d_pows, mono.dt_pow)
            pairs.append((mono, c2))
        return type(self)(pairs)

    def gamma_limit(self) -> "WeylOp":
        return type(self)((mono, c.gamma_limit()) for mono, c in self._terms.items())

    def pt_transform(self) -> "WeylOp":
        """x1 -> -x1, i -> -i: flip sign by (x1+Dx1) parity, conjugate, negate phases."""
        pairs = []
        for mono, c in self._terms.items():
            x1 = mono.x_pows[0] if mono.x_pows else 0
            d1 = mono.d_pows[0] if mono.d_pows else 0
            m2 = Monomial.make(-mono.phase_m, -mono.phase_n, mono.t_pow,
                               mono.x_pows, mono.d_pows, mono.dt_pow)
            pairs.append((m2, -c.conj() if (x1 + d1) % 2 else c.conj()))
        return type(self)(pairs)

    # -- text -------------------------------------------------------------
    def __str__(self) -> str:
        return print_op(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({print_op(self)})"


_ZERO_OP = _op(WeylOp, {})


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------

def _mono_mul(m1: Monomial, c1: Coefficient, m2: Monomial, c2: Coefficient, acc: dict) -> None:
    """Accumulate the normal-ordered expansion of (c1 m1) * (c2 m2) into acc.

    Each output monomial carries an integer weight (binomials times falling
    factorials) and one power of the phase derivative theta; the ring
    coefficient c1*c2*theta^p is built once per p and scaled by the weight.
    """
    base = c1 * c2
    if base.is_zero():
        return

    x1, d1, x2, d2 = m1.x_pows, m1.d_pows, m2.x_pows, m2.d_pows
    pad = len(x1) - len(x2)
    if pad > 0:
        x2, d2 = x2 + (0,) * pad, d2 + (0,) * pad
    elif pad < 0:
        x1, d1 = x1 + (0,) * -pad, d1 + (0,) * -pad

    # spatial contractions: Dxi^p xi^q = sum_s C(p,s) falling(q,s) xi^{q-s} Dxi^{p-s},
    # as (x powers, D powers, weight); the uncontracted term needs no trim
    spatial = [(tuple(map(add, x1, x2)), tuple(map(add, d1, d2)), 1)]
    for i, (p, q) in enumerate(zip(d1, x2)):
        if p and q:
            spatial = [_trim(xs[:i] + (xs[i] - s,) + xs[i + 1:], ds[:i] + (ds[i] - s,) + ds[i + 1:])
                       + (w * comb(p, s) * _falling(q, s),)
                       for xs, ds, w in spatial for s in range(min(p, q) + 1)]

    # time block: Dt^k across e^{i theta t} t^a, as (t shift r, Dt left, coefficient, weight)
    k = m1.dt_pow
    a = m2.t_pow
    if k:
        theta = _phase_theta(m2.phase_m, m2.phase_n)
        theta_pows = [base]
        for _ in range(k):
            theta_pows.append(theta_pows[-1] * theta)
        time_choices = []
        for j in range(k + 1):
            ckj = comb(k, j)
            for r in range(j + 1):
                ff = _falling(a, r)
                if ff and not theta_pows[j - r].is_zero():
                    time_choices.append((r, k - j, theta_pows[j - r], ckj * comb(j, r) * ff))
    else:
        time_choices = [(0, 0, base, 1)]

    phase_m = _phase(m1.phase_m + m2.phase_m)
    phase_n = m1.phase_n + m2.phase_n
    t_pow = m1.t_pow + a
    for xs, ds, weight in spatial:
        for r, dt_left, tc, tw in time_choices:
            w = weight * tw
            accumulate(acc, Monomial(phase_m, phase_n, t_pow - r, xs, ds, dt_left + m2.dt_pow),
                       tc * w if w != 1 else tc)


def multiply(a: WeylOp, b: WeylOp) -> WeylOp:
    """Normal-ordered associative product a*b, of the class of a."""
    acc: dict = {}
    for m1, c1 in a.terms():
        for m2, c2 in b.terms():
            _mono_mul(m1, c1, m2, c2, acc)
    return _op(type(a), acc)


def commutator(a, b):
    """[a, b] = ab - ba through the operands' own ``*``: ``fock.LadderOp``'s for ladder pairs."""
    return a * b - b * a


def anticommutator(a: WeylOp, b: WeylOp) -> WeylOp:
    return multiply(a, b) + multiply(b, a)


def similarity(s, a, max_depth: int = 64):
    """e^s a e^{-s} through the terminating ad-series sum ad_s^n(a)/n!.

    Works on any operator class with ``*``, ``+``, ``-`` and ``scale``.
    Raises :class:`NonTerminatingSeries` when ad_s^{max_depth}(a) != 0;
    callers must fall back to finite identities in that case.
    """
    return ad_series(s, a, max_depth)[0]


def ad_series(s, a, max_depth: int = 64) -> tuple:
    """(e^s a e^{-s}, depth): the summed series and its number of nonzero ad terms."""
    out = term = a
    for n in range(1, max_depth + 1):
        term = commutator(s, term)
        if term.is_zero():
            return out, n - 1
        out = out + term.scale(Fraction(1, factorial(n)))
    raise NonTerminatingSeries(
        f"ad-series did not terminate within {max_depth} steps", residual=term)


def coefficient_matrix(ops: Iterable[WeylOp], rows: Optional[list] = None) -> tuple:
    """(rows, matrix) with column j the coefficients of ops[j] on the row monomials.

    By default the rows are the union of the operators' monomials, ordered by
    :meth:`Monomial.sort_key` at the largest arity; given rows, a monomial
    outside them is left out.
    """
    ops = list(ops)
    if rows is None:
        arity = max((op.arity for op in ops), default=0)
        rows = sorted({m for op in ops for m in op._terms}, key=lambda m: m.sort_key(arity))
    zero = Coefficient()
    return rows, [[op._terms.get(m, zero) for op in ops] for m in rows]


# ---------------------------------------------------------------------------
# wavefunctions
# ---------------------------------------------------------------------------

class Wavefunction:
    """polynomial(x1..xk) * exp(-x1^2/2) * e^{i(m+nw)t}, Coefficient weights."""

    __slots__ = ("poly", "gaussian", "phase_m", "phase_n")

    def __init__(self, poly: Mapping[tuple, Coefficient] = (), gaussian: bool = True,
                 phase_m=0, phase_n: int = 0):
        d: dict = {}
        items = poly.items() if isinstance(poly, Mapping) else poly
        for k, c in items:
            k = tuple(k)
            accumulate(d, _trim(k, (0,) * len(k))[0], Coefficient.of(c))
        self.poly = d
        self.gaussian = bool(gaussian)
        self.phase_m = Fraction(phase_m)
        self.phase_n = int(phase_n)

    @staticmethod
    def ground() -> "Wavefunction":
        """exp(-x1^2/2), no phase."""
        return Wavefunction({(): Coefficient.of(1)})

    def is_zero(self) -> bool:
        return not self.poly

    def __eq__(self, other) -> bool:
        if not isinstance(other, Wavefunction):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (self.poly == other.poly and self.gaussian == other.gaussian
                and self.phase_m == other.phase_m and self.phase_n == other.phase_n)

    def __hash__(self):
        if self.is_zero():
            return 0  # every zero is equal, whatever its shape
        return hash((frozenset(self.poly.items()), self.gaussian, self.phase_m, self.phase_n))

    def scale(self, c: CoefficientLike) -> "Wavefunction":
        c = Coefficient.of(c)
        return Wavefunction({k: v * c for k, v in self.poly.items()},
                            self.gaussian, self.phase_m, self.phase_n)

    def __add__(self, other: "Wavefunction") -> "Wavefunction":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if (self.gaussian, self.phase_m, self.phase_n) != (other.gaussian, other.phase_m, other.phase_n):
            raise UnsupportedShape("cannot add wavefunctions with different phase or gaussian factor")
        return Wavefunction([*self.poly.items(), *other.poly.items()],
                            self.gaussian, self.phase_m, self.phase_n)

    def __sub__(self, other: "Wavefunction") -> "Wavefunction":
        return self + other.scale(-1)

    def proportionality(self, other: "Wavefunction") -> Optional[Coefficient]:
        """Return c with self = c*other, or None when not proportional."""
        if other.is_zero():
            return Coefficient() if self.is_zero() else None
        if self.is_zero():
            return Coefficient()
        if (self.gaussian, self.phase_m, self.phase_n) != (other.gaussian, other.phase_m, other.phase_n):
            return None
        if set(self.poly) != set(other.poly):
            return None
        key = next(iter(sorted(self.poly)))
        try:
            ratio = self.poly[key].divide_exact(other.poly[key])
        except ValueError:
            return None
        if all((self.poly[k] - ratio * other.poly[k]).is_zero() for k in self.poly):
            return ratio
        return None

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        arity = max((len(k) for k in self.poly), default=0)
        names = _coord_names(max(arity, 1))
        chunks = []
        for k in sorted(self.poly, key=lambda kk: kk + (0,) * (arity - len(kk))):
            facs = [f"{names[i]}^{p}" for i, p in enumerate(k) if p]
            head = "*".join(facs) if facs else "1"
            chunks.append(f"{head} * ({self.poly[k]})")
        body = " + ".join(chunks)
        tags = []
        if self.gaussian:
            tags.append("exp(-x^2/2)")
        if self.phase_m or self.phase_n:
            tags.append(f"e[{self.phase_m},{self.phase_n}]")
        return " ".join([body] + tags)

    __repr__ = __str__


def apply(op: WeylOp, f: Wavefunction) -> Wavefunction:
    """Exact action of a WeylOp on the closed wavefunction class, through the product.

    With f = P e^{-x1^2/2} (P carrying f's phase), op f = e^{-x1^2/2} Q where Q
    is the derivative-free part of ``similarity(x1^2/2, op) * P``: the terms
    that end in a derivative vanish on the constant function.  Without the
    Gaussian factor the conjugation is the identity.  Raises
    :class:`UnsupportedShape` for operators with explicit t powers (the class
    carries phases only) or when terms would produce mixed phases.
    """
    if f.is_zero():
        return Wavefunction({}, f.gaussian, f.phase_m, f.phase_n)
    if any(mono.t_pow for mono, _ in op.terms()):
        raise UnsupportedShape("explicit t powers fall outside the closed class")
    p = WeylOp({Monomial.make(f.phase_m, f.phase_n, 0, k): c for k, c in f.poly.items()})
    image = multiply(similarity(_GAUSSIAN_EXPONENT, op) if f.gaussian else op, p)
    phases: dict = {}
    for mono, c in image.terms():
        if mono.is_function():
            phases.setdefault((mono.phase_m, mono.phase_n), {})[mono.x_pows] = c
    if not phases:
        return Wavefunction({}, f.gaussian, f.phase_m, f.phase_n)
    if len(phases) > 1:
        raise UnsupportedShape("terms produce mixed phases")
    ((pm, pn), poly), = phases.items()
    return Wavefunction(poly, f.gaussian, pm, pn)


_GAUSSIAN_EXPONENT = WeylOp({Monomial.make(x_pows=(2,)): Fraction(1, 2)})


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------

def _coord_names(arity: int) -> list:
    if arity <= 2:
        return ["x", "y"][:max(arity, 0)] or ["x"]
    return [f"x{i+1}" for i in range(arity)]


def print_op(op: WeylOp) -> str:
    """Deterministic canonical serialization, e.g. ``e[2,0]*x^1*Dx^1 * (2i)``."""
    if op.is_zero():
        return "0"
    arity = op.arity
    names = _coord_names(arity) if arity else []
    chunks = []
    for mono, c in sorted(op.terms(), key=lambda kv: kv[0].sort_key(arity)):
        facs = []
        if mono.phase_m or mono.phase_n:
            facs.append(f"e[{mono.phase_m},{mono.phase_n}]")
        if mono.t_pow:
            facs.append(f"t^{mono.t_pow}")
        for i, p in enumerate(mono.x_pows):
            if p:
                facs.append(f"{names[i]}^{p}")
        for i, p in enumerate(mono.d_pows):
            if p:
                facs.append(f"D{names[i]}^{p}")
        if mono.dt_pow:
            facs.append(f"Dt^{mono.dt_pow}")
        head = "*".join(facs) if facs else "1"
        body = str(c) if len(c.terms) == 1 else f"({c})"
        chunks.append(f"{head} * {body}")
    return " + ".join(chunks)


def _split_terms(s: str) -> list:
    """Split on ' + ' at paren depth zero."""
    out, depth, start, i = [], 0, 0, 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and s.startswith(" + ", i):
            out.append(s[start:i])
            i += 3
            start = i
            continue
        i += 1
    out.append(s[start:])
    return out


_FACTOR_RX = re.compile(
    r"^(?:e\[(?P<pm>-?\d+(?:/\d+)?),(?P<pn>-?\d+)\]"
    r"|t\^(?P<t>-?\d+)"
    r"|(?P<dx>D)?(?P<name>x\d*|y)\^(?P<xp>\d+)"
    r"|Dt\^(?P<dt>\d+)"
    r"|1)$"
)


def _is_wrapped(s: str) -> bool:
    """True when the whole string is one balanced (...) group."""
    if not (s.startswith("(") and s.endswith(")")):
        return False
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and i != len(s) - 1:
                return False
    return depth == 0


def _coord_index(name: str) -> int:
    if name == "x":
        return 0
    if name == "y":
        return 1
    return int(name[1:]) - 1


def parse_op(text: str) -> WeylOp:
    """Inverse of :func:`print_op`; round-trips exactly."""
    s = text.strip()
    if s == "0":
        return WeylOp.zero()
    terms = []
    for chunk in _split_terms(s):
        chunk = chunk.strip()
        head, sep, coeff_txt = chunk.rpartition(" * ")
        if not sep or not coeff_txt.startswith("("):
            raise ValueError(f"bad operator term: {chunk!r}")
        if coeff_txt.startswith("((") and _is_wrapped(coeff_txt):
            coeff_txt = coeff_txt[1:-1]
        c = Coefficient.parse(coeff_txt)
        pm, pn, tp, dt = Fraction(0), 0, 0, 0
        xs: dict = {}
        ds: dict = {}
        for fac in head.split("*"):
            m = _FACTOR_RX.match(fac.strip())
            if not m:
                raise ValueError(f"bad factor {fac!r} in {chunk!r}")
            if m.group("pm") is not None:
                pm, pn = Fraction(m.group("pm")), int(m.group("pn"))
            elif m.group("t") is not None:
                tp = int(m.group("t"))
            elif m.group("name") is not None:
                i = _coord_index(m.group("name"))
                if m.group("dx"):
                    ds[i] = ds.get(i, 0) + int(m.group("xp"))
                else:
                    xs[i] = xs.get(i, 0) + int(m.group("xp"))
            elif m.group("dt") is not None:
                dt = int(m.group("dt"))
        n = max([i + 1 for i in xs] + [i + 1 for i in ds] + [0])
        terms.append((Monomial.make(pm, pn, tp,
                                    tuple(xs.get(i, 0) for i in range(n)),
                                    tuple(ds.get(i, 0) for i in range(n)), dt), c))
    return WeylOp(terms)
