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

A constructor, sum, difference, ad-series or product collects a ring
coefficient and an int weight for each term it finds, per output monomial,
and one :func:`~cgalgebra.ring.summed` call adds each monomial's terms into
one canonical Coefficient, or drops the monomial if they cancel; so do the
commutator and anticommutator, both orders into one ``summed`` call.  A product
works out the normal-ordering combinatorics only, taking its integer weights
from two tables keyed by exponents (spatial contractions and the Dt block).
A monomial holds the sorted (index, x power, D power) entries of the
coordinates it has, so its cost follows the coordinates present, not their
indices.  Per pair of monomials the product merges the two entry lists once,
grows the spatial terms one contraction at a time, each rewriting one entry
(dropped at x^0 Dx^0), and pairs them with the time terms of a Dt block, if
any, in nested loops.  Its output keys are made by ``tuple.__new__`` from a
Monomial's fields, past the checks of ``Monomial.make``, which every routine
taking outside exponents still passes through.

A function is a derivative-free operator f, read as f * exp(-x1^2/2): its
phases, t powers and coordinate powers are its monomials.  An operator acts
on it through the product: :func:`apply` conjugates by the Gaussian,
multiplies by f, and keeps the derivative-free terms.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import accumulate, repeat
from math import comb, factorial, perm, prod
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import ComplexFrequency, NonTerminatingSeries, ParseError, UnsupportedShape, excerpt, integer, rational
from .ring import Coefficient, CoefficientLike, parse_number, substituted, summed


# _key(Monomial, fields): a Monomial from a tuple of its fields, past the NamedTuple's own __new__
_key = tuple.__new__


def _phase(m):
    """An exact phase label, as an int when integral: ints hash without
    ``Fraction.__hash__``, and compare, hash and print like the equal Fraction."""
    return m.numerator if m.denominator == 1 else m


def _powers(pows, what: str) -> dict:
    """{index: power} of a dense sequence or of an {index: power} mapping, zero powers left out;
    an index or power that is not an integer >= 0 (read by :func:`errors.integer`), or powers
    neither in a list, a tuple nor a mapping, raise :class:`UnsupportedShape`."""
    if isinstance(pows, Mapping):
        items = pows.items()
    elif isinstance(pows, (list, tuple)):
        items = enumerate(pows)
    else:
        raise UnsupportedShape(f"{what}s must be a list, a tuple or an {{index: power}} mapping, got {pows!r}")
    return {i: p for i, p in ((integer(i, "coordinate index", 0), integer(p, what, 0)) for i, p in items) if p}


class Monomial(NamedTuple):
    phase_m: Fraction = 0
    phase_n: int = 0
    t_pow: int = 0
    spatial: tuple = ()  # (index, x power, D power) of each coordinate present, ascending index
    dt_pow: int = 0

    @staticmethod
    def make(phase_m=0, phase_n=0, t_pow=0, x_pows=(), d_pows=(), dt_pow=0) -> "Monomial":
        """The canonical monomial, its coordinate and derivative powers each a dense sequence or
        an {index: power} mapping; a phase ``Fraction`` cannot read (read by :func:`errors.rational`),
        an exponent or index that is not an integer (read by :func:`errors.integer`), a negative Dt,
        coordinate or derivative power or index, or powers in another container (a set, a generator)
        raise :class:`UnsupportedShape`."""
        phase_n, t_pow = integer(phase_n, "phase multiple of w"), integer(t_pow, "t power")
        dt_pow = integer(dt_pow, "Dt power", 0)
        xs, ds = _powers(x_pows, "coordinate power"), _powers(d_pows, "derivative power")
        spatial = tuple((i, xs.get(i, 0), ds.get(i, 0)) for i in sorted(xs.keys() | ds.keys()))
        return Monomial(_phase(rational(phase_m, "phase")), phase_n, t_pow, spatial, dt_pow)

    @property
    def arity(self) -> int:
        """The highest coordinate index present, plus one."""
        return self.spatial[-1][0] + 1 if self.spatial else 0

    def powers(self, i: int) -> tuple:
        """(x power, D power) of coordinate i, (0, 0) where the monomial has none."""
        return next(((x, d) for j, x, d in self.spatial if j == i), (0, 0))

    def is_function(self) -> bool:
        return self.dt_pow == 0 and not any(d for _, _, d in self.spatial)

    def spatial_degree(self) -> int:
        return sum(x + d for _, x, d in self.spatial)

    def sort_key(self) -> tuple:
        """The order of the dense exponent vectors at any common arity: phase, t power, the x
        powers, the D powers, Dt; of two x (or D) parts, the first with a power at the lower index
        where they differ sorts higher, and an entry list sorts after its prefix."""
        return (self.phase_m, self.phase_n, self.t_pow, tuple((-i, x) for i, x, _ in self.spatial if x),
                tuple((-i, d) for i, _, d in self.spatial if d), self.dt_pow)


_MONO_ONE = Monomial.make()


@cache
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

    Sums, scalings, products, powers and parameter maps of a subclass instance stay
    in its class (``fock.LadderOp``); the static constructors build WeylOps.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Coefficient] = ()):
        acc = defaultdict(list)
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, c in items:
            acc[mono].append((Coefficient.of(c), 1))
        self._terms = summed(acc)

    @classmethod
    def _weighted_sum(cls, parts) -> "WeylOp":
        """sum of w * op over the (op, int w) pairs, of class cls, in one summed pass."""
        acc = defaultdict(list)
        for op, w in parts:
            for mono, c in op._terms.items():
                acc[mono].append((c, w))
        return _op(cls, summed(acc))

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
        return WeylOp({Monomial.make(x_pows={integer(i, "coordinate index", 0): 1}): Coefficient.of(1)})

    @staticmethod
    def deriv(i: int) -> "WeylOp":
        return WeylOp({Monomial.make(d_pows={integer(i, "coordinate index", 0): 1}): Coefficient.of(1)})

    @staticmethod
    def t(power: int = 1) -> "WeylOp":
        return WeylOp({Monomial.make(t_pow=power): Coefficient.of(1)})

    @staticmethod
    def dt() -> "WeylOp":
        return WeylOp({Monomial.make(dt_pow=1): Coefficient.of(1)})

    @staticmethod
    def phase(m, n: int = 0) -> "WeylOp":
        return WeylOp({Monomial.make(phase_m=m, phase_n=n): Coefficient.of(1)})

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
        return self._weighted_sum(((self, 1), (other, 1)))

    def __neg__(self) -> "WeylOp":
        return _op(type(self), {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "WeylOp":
        if not isinstance(other, WeylOp):
            return NotImplemented
        return self._weighted_sum(((self, 1), (other, -1)))

    def scale(self, c: CoefficientLike) -> "WeylOp":
        c = Coefficient.of(c)
        if c.is_zero():
            return _op(type(self), {})
        return _op(type(self), {m: v * c for m, v in self._terms.items()})

    def __mul__(self, other) -> "WeylOp":
        return multiply(self, other) if isinstance(other, WeylOp) else NotImplemented

    def __pow__(self, k: int) -> "WeylOp":
        """Repeated product; a k that is not an integer >= 0 (read by :func:`errors.integer`)
        raises :class:`UnsupportedShape`."""
        n = integer(k, "operator power", 0)
        out = _op(type(self), {_MONO_ONE: Coefficient.of(1)})
        for _ in range(n):
            out = multiply(out, self)
        return out

    # -- parameter maps ---------------------------------------------------
    def substitute(self, gamma: CoefficientLike = None, omega: CoefficientLike = None) -> "WeylOp":
        """Substitute parameter values; omega folds phases (m,n) -> (m+n*omega, 0).

        ``omega`` must be an exact rational when any term carries a nonzero
        w-phase index, else :class:`ComplexFrequency`: the phase lattice stays real.
        """
        if gamma is None and omega is None:
            return self
        monos = list(self._terms)
        values = substituted(self._terms.values(), gamma, omega)
        if omega is not None and any(mono.phase_n for mono in monos):
            wq = Coefficient.of(omega)
            if wq.im:
                raise ComplexFrequency("cannot fold a complex frequency into a phase")
            monos = [mono._replace(phase_m=_phase(mono.phase_m + mono.phase_n * wq.re), phase_n=0)
                     if mono.phase_n else mono for mono in monos]
        return type(self)(zip(monos, values))

    def gamma_limit(self) -> "WeylOp":
        return type(self)((mono, c.gamma_limit()) for mono, c in self._terms.items())

    def pt_transform(self) -> "WeylOp":
        """x1 -> -x1, i -> -i: flip sign by (x1+Dx1) parity, conjugate, negate phases."""
        pairs = []
        for mono, c in self._terms.items():
            m2 = mono._replace(phase_m=-mono.phase_m, phase_n=-mono.phase_n)
            pairs.append((m2, -c.conj() if sum(mono.powers(0)) % 2 else c.conj()))
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

@cache
def _contractions(p: int, q: int) -> tuple:
    """Dxi^p xi^q = sum_s C(p,s) q!/(q-s)! xi^{q-s} Dxi^{p-s}, as (s, weight) from s = 0."""
    return tuple((s, comb(p, s) * perm(q, s)) for s in range(min(p, q) + 1))


@cache
def _time_block(k: int, a: int) -> tuple:
    """Dt^k e^{i theta t} t^a = sum_{j,r} C(k,j) C(j,r) a(a-1)..(a-r+1) theta^{j-r} e^{i theta t} t^{a-r}
    Dt^{k-j}, any int a, as the (r, k - j, j - r, weight) of nonzero weight, (0, k, 0, 1) first."""
    return tuple((r, k - j, j - r, comb(k, j) * comb(j, r) * ff)
                 for j in range(k + 1) for r in range(j + 1) if (ff := prod(range(a, a - r, -1))))


def _mono_mul(m1: Monomial, c1: Coefficient, m2: Monomial, c2: Coefficient, acc: dict,
              contracted: bool) -> None:
    """Accumulate the normal-ordered expansion of (c1 m1) * (c2 m2) into acc, the
    ``defaultdict(list)`` of (coefficient, int weight) pairs per output monomial that
    :func:`~cgalgebra.ring.summed` adds.  The weights come from the tables keyed by
    exponents, :func:`_contractions` and :func:`_time_block`; each ring coefficient
    c1*c2*theta^p (theta from deriving the phase) is built once per p.  With ``contracted``
    the uncontracted term, the one that is the same in both orders of the factors, is left out.
    The exponents are canonical already, so the output keys skip ``Monomial.make``'s checks.
    """
    pm1, pn1, t1, s1, k = m1
    pm2, pn2, a, s2, dt2 = m2
    # one merge of the two entry lists; a hit (position in merged, D power of m1, x power of
    # m2) is a coordinate where the two factors contract
    merged, hits, j, n2 = [], [], 0, len(s2)
    for e in s1:
        i = e[0]
        while j < n2 and s2[j][0] < i:
            merged.append(s2[j])
            j += 1
        if j < n2 and s2[j][0] == i:
            _, x2, d2 = s2[j]
            j += 1
            if e[2] and x2:
                hits.append((len(merged), e[2], x2))
            e = (i, e[1] + x2, e[2] + d2)
        merged.append(e)
    merged = (*merged, *s2[j:])
    timed = k and (pm2 or pn2 or a)
    if contracted and not hits and not timed:
        return
    base = c1 * c2
    phase_m = _phase(pm1 + pm2)
    phase_n = pn1 + pn2
    t_pow = t1 + a

    # (entries, weight), the uncontracted first; a contraction rewrites the entry at its hit,
    # dropped at x^0 Dx^0.  The hits go from the last to the first, so a dropped entry shifts
    # no hit still to come, and each hit's choices go outermost, so the terms come in the
    # order of their contraction counts read from the first hit to the last
    spatial = [(merged, 1)]
    for pos, p, q in reversed(hits):
        i, xi, di = merged[pos]
        grown = list(spatial)
        for s, sw in _contractions(p, q)[1:]:
            mid = ((i, xi - s, di - s),) if xi != s or di != s else ()
            grown += [(ents[:pos] + mid + ents[pos + 1:], w * sw) for ents, w in spatial]
        spatial = grown

    if not timed:  # with contracted, the first spatial entry has no contraction
        dt = k + dt2
        for ents, w in spatial[1:] if contracted else spatial:
            acc[_key(Monomial, (phase_m, phase_n, t_pow, ents, dt))].append((base, w))
        return

    # (t shift r, Dt power out, coefficient, weight); theta is 0 without a phase
    theta_pows = list(accumulate(repeat(_phase_theta(pm2, pn2), k), mul, initial=base))
    time_choices = [(r, dt_left + dt2, tc, tw) for r, dt_left, power, tw in _time_block(k, a)
                    if (tc := theta_pows[power])]
    # with contracted, the first spatial entry skips the first time choice: no contraction
    choices = time_choices[1:] if contracted else time_choices
    for ents, w in spatial:
        for r, dt, tc, tw in choices:
            acc[_key(Monomial, (phase_m, phase_n, t_pow - r, ents, dt))].append((tc, w * tw))
        choices = time_choices


def multiply(a: WeylOp, b: WeylOp, *, contracted: bool = False,
             into: Optional[dict] = None) -> Optional[WeylOp]:
    """Normal-ordered associative product a*b, of the class of a.

    With ``contracted`` only the terms with at least one contraction: a*b
    less the commutative product of the symbols.  With ``into``, a
    ``defaultdict(list)`` in :func:`~cgalgebra.ring.summed`'s input format, the
    product's (coefficient, int weight) pairs are appended to it, to be summed
    by the caller, and the result is None.
    """
    acc = defaultdict(list) if into is None else into
    for m1, c1 in a.terms():
        for m2, c2 in b.terms():
            _mono_mul(m1, c1, m2, c2, acc, contracted)
    return _op(type(a), summed(acc)) if into is None else None


def commutator(a: WeylOp, b: WeylOp) -> WeylOp:
    """[a, b] = ab - ba, of the class of a: the contracted terms of ab and of (-b)a
    go into one accumulator, and one ``summed`` call adds them."""
    acc = defaultdict(list)
    multiply(a, b, contracted=True, into=acc)
    multiply(-b, a, contracted=True, into=acc)
    return _op(type(a), summed(acc))


def anticommutator(a: WeylOp, b: WeylOp) -> WeylOp:
    """ab + ba, of the class of a, both orders summed in one ``summed`` call."""
    acc = defaultdict(list)
    multiply(a, b, into=acc)
    multiply(b, a, into=acc)
    return _op(type(a), summed(acc))


def similarity(s: WeylOp, a: WeylOp, max_depth: int = 64) -> WeylOp:
    """e^s a e^{-s} through the terminating ad-series sum ad_s^n(a)/n!.

    Takes WeylOps (subclasses included), as :func:`commutator` does; the
    result has the class of a.  Raises :class:`NonTerminatingSeries` when
    ad_s^{max_depth}(a) != 0; callers must fall back to finite identities
    in that case.
    """
    return ad_series(s, a, max_depth)[0]


def ad_series(s: WeylOp, a: WeylOp, max_depth: int = 64) -> tuple:
    """(e^s a e^{-s}, depth): the summed series and its number of nonzero ad terms,
    for WeylOp operands as :func:`similarity` takes them.  The series is summed
    once, as sum (N!/n!) ad_s^n(a) over the common denominator N!."""
    terms = [term := a]
    for depth in range(max_depth):
        term = commutator(s, term)
        if term.is_zero():
            top = factorial(depth)
            out = type(a)._weighted_sum((t, top // factorial(n)) for n, t in enumerate(terms))
            return out.scale(Fraction(1, top)), depth
        terms.append(term)
    raise NonTerminatingSeries(
        f"ad-series did not terminate within {max_depth} steps", residual=term)


def monomial_order(monos: Iterable[Monomial]) -> list:
    """The monomials sorted by :meth:`Monomial.sort_key`: the row order of :func:`coefficient_matrix`."""
    return sorted(monos, key=Monomial.sort_key)


def coefficient_matrix(ops: Iterable[WeylOp], rows: Optional[list] = None) -> tuple:
    """(rows, matrix) with column j the coefficients of ops[j] on the row monomials.

    By default the rows are the union of the operators' monomials, ordered by
    :meth:`Monomial.sort_key`; given rows, a monomial
    outside them is left out.
    """
    ops = list(ops)
    if rows is None:
        rows = monomial_order({m for op in ops for m in op._terms})
    zero = Coefficient()
    return rows, [[op._terms.get(m, zero) for op in ops] for m in rows]


# ---------------------------------------------------------------------------
# action on functions
# ---------------------------------------------------------------------------

# s = x1^2/2: a function f stands for f exp(-s), and ``apply`` conjugates by s
GAUSSIAN_EXPONENT = WeylOp({Monomial.make(x_pows=(2,)): Fraction(1, 2)})


def apply(op: WeylOp, f: WeylOp) -> WeylOp:
    """op acting on the function f exp(-x1^2/2), f a derivative-free WeylOp.

    With s = x1^2/2, op (f e^{-s}) = e^{-s} (e^s op e^{-s}) f applied to 1,
    and a normal-ordered term that ends in a derivative vanishes on 1, so the
    image is the derivative-free part of ``similarity(s, op) * f``.  Phases and
    t powers are monomials like any other: Dt derives those of f, and those of
    op multiply.
    """
    image = multiply(similarity(GAUSSIAN_EXPONENT, op), f)
    return _op(WeylOp, {mono: c for mono, c in image.terms() if mono.is_function()})


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------

def _term_text(mono: Monomial, c: Coefficient, wide: bool) -> str:
    """One term of :func:`print_op`'s text; coordinate i is x, y, or x{i+1} where ``wide``
    (an operator of arity above 2), and only the coordinates the term has are named."""
    def name(i: int) -> str:
        return f"x{i + 1}" if wide else "xy"[i]
    facs = []
    if mono.phase_m or mono.phase_n:
        facs.append(f"e[{mono.phase_m},{mono.phase_n}]")
    if mono.t_pow:
        facs.append(f"t^{mono.t_pow}")
    facs += [f"{name(i)}^{x}" for i, x, _ in mono.spatial if x]
    facs += [f"D{name(i)}^{d}" for i, _, d in mono.spatial if d]
    if mono.dt_pow:
        facs.append(f"Dt^{mono.dt_pow}")
    body = str(c) if len(c.terms) == 1 else f"({c})"
    return f"{'*'.join(facs) or '1'} * {body}"


def print_op(op: WeylOp) -> str:
    """Deterministic canonical serialization, e.g. ``e[2,0]*x^1*Dx^1 * (2i)``."""
    if op.is_zero():
        return "0"
    wide = op.arity > 2
    return " + ".join(_term_text(mono, c, wide) for mono, c in sorted(op.terms(), key=lambda kv: kv[0].sort_key()))


# one term of print_op's text, then " + " or the end: the factors, " * ", and a
# coefficient that is one term of ring's text or a parenthesized sum of them
_TERM_RX = re.compile(r"(?P<term>(?P<head>[^ ]+) \* (?:(?P<one>\([^()]*\)[^ ()]*)"
                      r"|\((?P<sum>(?=\()(?:[^()]|\([^()]*\))*)\)))(?: \+ |\Z)")
_FACTOR_RX = re.compile(r"e\[(?P<pm>[^],]*),(?P<pn>-?\d+)\]|t\^(?P<t>-?\d+)|Dt\^(?P<dt>\d+)"
                        r"|(?P<d>D?)(?:x(?P<xi>[1-9]\d*)|x|(?P<y>y))\^(?P<p>\d+)")


def _monomial(head: str) -> Monomial:
    """The monomial of a term's factors, ``1`` for none; a factor that is not one
    :func:`print_op` writes raises :class:`ParseError`."""
    pm, pn, tp, dt, xs, ds = 0, 0, 0, 0, {}, {}
    for fac in () if head == "1" else head.split("*"):
        m = _FACTOR_RX.fullmatch(fac)
        if not m:
            raise ParseError(f"bad factor {excerpt(fac)} in {excerpt(head)}")
        if m["pm"] is not None:
            pm, pn = parse_number(m["pm"]), parse_number(m["pn"])
        elif m["t"] is not None:
            tp = parse_number(m["t"])
        elif m["dt"] is not None:
            dt = parse_number(m["dt"])
        else:
            i = 1 if m["y"] else parse_number(m["xi"] or "1") - 1
            (ds if m["d"] else xs)[i] = parse_number(m["p"])
    return Monomial.make(pm, pn, tp, xs, ds, dt)


def parse_op(text: str) -> WeylOp:
    """Inverse of :func:`print_op`: reads each term exactly as it prints, in any order
    of the terms, by one pattern match per term, and raises :class:`ParseError` for any
    other text (a repeated monomial included) in time linear in the text's length."""
    s = text.strip()
    if s == "0":
        return WeylOp.zero()
    terms: dict = {}  # monomial -> (coefficient, the term's text)
    pos = 0
    while pos < len(s) or not terms:
        m = _TERM_RX.match(s, pos)
        if not m:
            raise ParseError(f"bad operator term: {excerpt(s[pos:])}")
        mono = _monomial(m["head"])
        if mono in terms:
            raise ParseError(f"repeated monomial in {excerpt(m['term'])}")
        terms[mono] = Coefficient.parse(m["one"] or m["sum"]), m["term"]
        pos = m.end()
    wide = max(mono.arity for mono in terms) > 2
    for mono, (c, term) in terms.items():
        if _term_text(mono, c, wide) != term:
            raise ParseError(f"operator term not in canonical form: {excerpt(term)}")
    return _op(WeylOp, {mono: c for mono, (c, _) in terms.items()})
