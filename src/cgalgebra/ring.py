"""Exact scalar arithmetic.

One type, :class:`Coefficient`: Laurent polynomials in the formal
deformation parameter ``g`` and ordinary polynomials in the formal frequency
``w``, with weights in Q(i).  Its scalars (no ``g``, no ``w``) are the
package's Gaussian rationals, the couplings and values substituted for the
parameters.  Every symbolic module in the package works over this ring;
nothing here ever rounds.

A :class:`Coefficient` does not hold ``Fraction`` objects: it stores each
weight's real and imaginary numerators as Python ints over one positive
denominator shared by all its terms, reduced so that the common gcd is 1
(the integer-preserving idea of Bareiss elimination, applied to the ring).
Its ``terms`` view and the parts ``re``/``im`` of a scalar convert to
Fractions on demand; no other module reads that storage.  One routine,
:func:`_sum`, adds ``(coefficient, int weight)`` pairs as ints over one
denominator, keeping no zero value: ``+``, ``-``, the constructor and
:func:`substituted` (which puts values in for g and w, many coefficients per
call) each make one call per result.  :func:`summed` sums a term
map: the caller collects a list of pairs per key (operator constructors,
sums, ad-series and products, the ladder action on kets, Jacobi sums), and
``summed`` makes one ``_sum`` call per key of several pairs; a key of one
pair ``(c, w)`` becomes ``c``, ``-c`` or ``c`` scaled by ``w`` in place.

Canonical text form, used in golden files and reports::

    (3/2) + (-2+1i)*g^-1*w^2

Its numerals are those ``str(Fraction)`` prints, read by :func:`parse_number` for both readers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

from .errors import (FloatOverflow, NegativeOmegaPower, NotDivisible, NotExact, NotScalar, ParseError,
                     SingularLimit, ZeroDivisor, ZeroSubstitution, excerpt, integer, pair)


# a numeral as str(Fraction) prints it: a signed integer, optionally over a
# denominator that is not zero; parse_number reads every number of both text forms
_NUMERAL = r"-?\d+(?:/[1-9]\d*)?"

# one term of the canonical text form: (x), (x+yi), (x-yi) or (yi), then *g^a and *w^b
_TERM_RX = re.compile(rf"\((?:(?P<x>{_NUMERAL})(?:(?P<sign>[+-])(?P<y>{_NUMERAL})i)?|(?P<iy>{_NUMERAL})i)\)"
                      r"(?:\*g\^(?P<a>-?\d+))?(?:\*w\^(?P<b>\d+))?")


def _scalar_text(x: Fraction, y: Fraction) -> str:
    """x + i*y as in ``3/2``, ``-2+1i`` or ``1i``; not both zero."""
    parts = [str(x)] if x else []
    if y:
        sign = "-" if y < 0 else ("+" if parts else "")
        parts.append(f"{sign}{abs(y)}i")
    return "".join(parts)


def parse_number(text: str) -> Union[int, Fraction]:
    """The value of a numeral as ``str(Fraction)`` prints it (``-3/2``, ``7``), an int when
    integral.  Other text (a ``+``, a leading zero, a point, an exponent, ``_``, a space, ``/0``,
    ``/1``, a fraction not in lowest terms) and a digit string past the int-conversion limit
    raise :class:`ParseError`, in time linear in the text's length."""
    if re.fullmatch(_NUMERAL, text):
        num, _, den = text.partition("/")
        try:
            q = Fraction(int(num), int(den or 1))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(f"numeral of {len(text)} characters is too long") from None
        if str(q) == text:
            return q.numerator if q.denominator == 1 else q
    raise ParseError(f"bad numeral: {excerpt(text)}")


def summed(acc: dict) -> dict:
    """{key: sum of w * c} over ``acc``'s lists of ``(Coefficient c, int w)``
    pairs, in canonical form, leaving out each key whose sum cancels; a lone
    pair is scaled in place, several go through :func:`_sum`."""
    out = {}
    for key, slot in acc.items():
        if len(slot) == 1:  # a lone term, summed in place
            c, w = slot[0]
            c = c if w == 1 else -c if w == -1 else c._scaled(w)
        else:
            c = _sum(slot)
        if c:
            out[key] = c
    return out


class Coefficient:
    """Finite sum  sum_{(a,b)} q_{a,b} * g^a * w^b  with q in Q(i).

    ``a`` may be negative (the operator catalogs contain 1/g and 1/g^2);
    ``b`` is never negative.

    Storage is integral: ``_num`` maps each exponent pair ``(a, b)`` to a
    pair ``(re, im)`` of Python ints, never both zero, and ``_den`` is one
    positive denominator shared by every term, so q_{a,b} = (re + i*im)/_den.
    The gcd of ``_den`` and every ``re`` and ``im`` is 1, which makes the
    form canonical: equal values have equal storage, hence equal hashes.
    Ring operations work on the ints and divide out that gcd once per
    result.  Instances are immutable.
    """

    __slots__ = ("_num", "_den", "_terms")

    def __init__(self, terms=()):
        """Sum of ``((a, b), q)`` pairs (or a mapping), q an exact scalar:
        an int, a Fraction, an ``(re, im)`` pair or a scalar Coefficient."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        c = _sum((Coefficient.monomial(q, *pair(k, "exponent key")), 1) for k, q in items)
        self._num, self._den = c._num, c._den

    # -- constructors ---------------------------------------------------
    @staticmethod
    def of(value: "CoefficientLike") -> "Coefficient":
        """An int, a Fraction or an ``(re, im)`` pair as a scalar; a Coefficient as is."""
        if isinstance(value, Coefficient):
            return value
        if type(value) is int:
            return _new({(0, 0): (value, 0)}, 1) if value else ZERO
        return Coefficient.monomial(value)

    @staticmethod
    def monomial(q, g_exp: int = 0, w_exp: int = 0) -> "Coefficient":
        """q * g^g_exp * w^w_exp for an exact scalar q: an int, a Fraction, an
        ``(re, im)`` pair of those or a scalar Coefficient.  An exponent that is not
        an integer (read by :func:`errors.integer`) raises :class:`UnsupportedShape`."""
        g_exp, w_exp = integer(g_exp, "exponent of g"), integer(w_exp, "exponent of w")
        if w_exp < 0:
            raise NegativeOmegaPower("negative w exponent is not part of the ring")
        if isinstance(q, Coefficient):
            q = q.re, q.im
        x, y = q if isinstance(q, tuple) and len(q) == 2 else (q, 0)
        if not (isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction))):
            raise NotExact(f"cannot interpret {q!r} as an exact scalar")
        if not (x or y):
            return ZERO
        # the lcm of the reduced denominators already leaves gcd 1
        den = lcm(x.denominator, y.denominator)
        return _new({(g_exp, w_exp): (x.numerator * (den // x.denominator),
                                      y.numerator * (den // y.denominator))}, den)

    # -- views ------------------------------------------------------------
    @property
    def terms(self) -> tuple:
        """``((a, b), (re, im))`` pairs, parts as Fractions, sorted by key, zeros omitted."""
        try:
            return self._terms
        except AttributeError:
            d = self._den
            self._terms = tuple((k, (Fraction(re, d), Fraction(im, d)))
                                for k, (re, im) in sorted(self._num.items()))
            return self._terms

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_scalar(self) -> bool:
        return not self._num or (len(self._num) == 1 and (0, 0) in self._num)

    def _scalar(self) -> tuple:
        """The (re, im) numerators over ``_den`` of a scalar; :class:`NotScalar` otherwise."""
        if not self.is_scalar():
            raise NotScalar(f"not a scalar: {self}")
        return self._num.get((0, 0), (0, 0))

    @property
    def re(self) -> Fraction:
        """Real part of a scalar."""
        return Fraction(self._scalar()[0], self._den)

    @property
    def im(self) -> Fraction:
        """Imaginary part of a scalar."""
        return Fraction(self._scalar()[1], self._den)

    def abs2(self) -> Fraction:
        """|q|^2 of a scalar q."""
        re, im = self._scalar()
        return Fraction(re * re + im * im, self._den * self._den)

    def __complex__(self) -> complex:
        """The scalar as a complex float; :class:`FloatOverflow` where a part exceeds the float range."""
        re, im = self._scalar()
        try:
            return complex(re / self._den, im / self._den)
        except OverflowError:
            raise FloatOverflow("scalar too large for a complex float (magnitude above 1.8e308)") from None

    def omega_degree(self) -> int:
        return max((b for _, b in self._num), default=0)

    # -- equality -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        return f"Coefficient({self})"

    # -- ring operations ---------------------------------------------------
    def __add__(self, other) -> "Coefficient":
        try:
            other = Coefficient.of(other)
        except TypeError:
            return NotImplemented
        return _sum(((self, 1), (other, 1)))

    __radd__ = __add__

    def __neg__(self) -> "Coefficient":
        return _new({k: (-re, -im) for k, (re, im) in self._num.items()}, self._den)

    def __sub__(self, other) -> "Coefficient":
        return _sum(((self, 1), (Coefficient.of(other), -1)))

    def __rsub__(self, other) -> "Coefficient":
        return _sum(((Coefficient.of(other), 1), (self, -1)))

    def __mul__(self, other) -> "Coefficient":
        if type(other) is int:
            return self._scaled(other)
        try:
            other = Coefficient.of(other)
        except TypeError:
            return NotImplemented
        n1, n2 = self._num, other._num
        d: dict = {}
        for (a1, b1), (r1, i1) in n1.items():
            for (a2, b2), (r2, i2) in n2.items():
                k = (a1 + a2, b1 + b2)
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                old = d.get(k)
                if old is not None:
                    re += old[0]
                    im += old[1]
                d[k] = (re, im)
        if len(n1) > 1 and len(n2) > 1:
            # only sums can cancel: Z[i] has no zero divisors
            d = {k: v for k, v in d.items() if v[0] or v[1]}
        return _reduced(d, self._den * other._den)

    __rmul__ = __mul__

    def _scaled(self, k: int) -> "Coefficient":
        if not k or not self._num:
            return ZERO
        # the storage is reduced, so the new gcd is gcd(den, k)
        den = self._den
        if den != 1:
            g = gcd(den, k)
            k //= g
            den //= g
        return _new({key: (re * k, im * k) for key, (re, im) in self._num.items()}, den)

    def __pow__(self, k: int) -> "Coefficient":
        """Power by squaring; a negative k divides 1 exactly by self^-k, which
        raises :class:`NotDivisible` unless self is a unit (a nonzero scalar times a
        power of g).  A k that is not an integer (read by :func:`errors.integer`) raises
        :class:`UnsupportedShape`."""
        k = integer(k, "exponent")
        if k < 0:
            return ONE.divide_exact(self ** -k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = base if out is ONE else out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conj(self) -> "Coefficient":
        """i -> -i; the formal parameters g, w stay untouched."""
        return _new({k: (re, -im) for k, (re, im) in self._num.items()}, self._den)

    # -- division -----------------------------------------------------------
    def divide_exact(self, other: "Coefficient") -> "Coefficient":
        """Exact division; raises :class:`NotDivisible` when not a ring multiple
        and :class:`ZeroDivisor` for a zero divisor.

        Leading-term division in (g, w) with lexicographic order, on the
        integer numerators: with S*N = Q*D + R kept invariant, each step
        multiplies S, Q and R by the least m that makes the next quotient
        term integral.  A quotient's g exponents are bounded below by
        ``min_g(self) - min_g(other)`` (the lowest g terms of a product
        multiply, since Q(i)[w] has no zero divisors), so division stops
        with :class:`NotDivisible` once the remainder would need a lower one.
        """
        other = Coefficient.of(other)
        dnum = other._num
        if not dnum:
            raise ZeroDivisor("division by zero coefficient")
        if not self._num:
            return ZERO
        lead_a, lead_b = lead = max(dnum)
        lr, li = dnum[lead]
        norm = lr * lr + li * li
        a_floor = min(a for a, _ in self._num) - min(a for a, _ in dnum)
        rem = dict(self._num)
        quo: dict = {}
        scale = 1
        while rem:
            k = max(rem)
            qa, qb = k[0] - lead_a, k[1] - lead_b
            if qb < 0 or qa < a_floor:
                raise NotDivisible(f"({self}) is not divisible by ({other})")
            rr, ri = rem[k]
            # (rr + i ri) / (lr + i li) = (rr + i ri)(lr - i li) / norm
            tr, ti = rr * lr + ri * li, ri * lr - rr * li
            m = norm // gcd(norm, tr, ti)
            if m != 1:
                scale *= m
                tr *= m
                ti *= m
                rem = {kk: (r * m, i * m) for kk, (r, i) in rem.items()}
                quo = {kk: (r * m, i * m) for kk, (r, i) in quo.items()}
            qr, qi = tr // norm, ti // norm
            quo[(qa, qb)] = (qr, qi)
            for (a, b), (dr, di) in dnum.items():
                kk = (a + qa, b + qb)
                pr, pi = qr * dr - qi * di, qr * di + qi * dr
                old = rem.get(kk)
                if old is None:
                    rem[kk] = (-pr, -pi)
                elif old[0] != pr or old[1] != pi:
                    rem[kk] = (old[0] - pr, old[1] - pi)
                else:
                    del rem[kk]
        # self/other = (N/n)/(D/d) = Q*d / (S*n)
        dd = other._den
        return _reduced({k: (r * dd, i * dd) for k, (r, i) in quo.items()},
                       scale * self._den)

    # -- evaluation ----------------------------------------------------------
    def substitute(self, gamma=None, omega=None) -> "Coefficient":
        """Partial substitution of exact scalars, as a one-item :func:`substituted` call."""
        return substituted((self,), gamma, omega)[0]

    def gamma_limit(self) -> "Coefficient":
        """Drop every g^a term with a > 0; error on a < 0 (pole at g=0)."""
        if any(a < 0 for a, _ in self._num):
            raise SingularLimit(f"gamma -> 0 limit of ({self}) does not exist")
        return _reduced({k: v for k, v in self._num.items() if k[0] == 0}, self._den)

    # -- normalization helpers -----------------------------------------------
    def rational_content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer parts."""
        if not self._num:
            return Fraction(1)
        return Fraction(gcd(*(x for v in self._num.values() for x in v)), self._den)

    # -- text -------------------------------------------------------------
    def __str__(self) -> str:
        if not self._num:
            return "0"
        chunks = []
        for (a, b), v in reversed(self.terms):
            s = f"({_scalar_text(*v)})"
            if a:
                s += f"*g^{a}"
            if b:
                s += f"*w^{b}"
            chunks.append(s)
        return " + ".join(chunks)

    @staticmethod
    def parse(text: str) -> "Coefficient":
        """Inverse of ``str``: reads exactly the text it prints, one pattern match per
        `` + ``-separated term, and raises :class:`ParseError` for any other text."""
        s = text.strip()
        if s == "0":
            return ZERO
        pairs = []
        for chunk in s.split(" + "):
            m = _TERM_RX.fullmatch(chunk)
            if not m:
                raise ParseError(f"bad coefficient term: {excerpt(chunk)}")
            x, sign, y, iy, a, b = m.groups()
            q = parse_number(x or "0"), parse_number(y or iy or "0") * (-1 if sign == "-" else 1)
            pairs.append(((parse_number(a or "0"), parse_number(b or "0")), q))
        c = Coefficient(pairs)
        if str(c) != s:  # a repeated key, a zero weight or the terms out of order
            raise ParseError(f"coefficient not in canonical form: {excerpt(s)}")
        return c


def _new(num: dict, den: int) -> Coefficient:
    """Coefficient with storage that is already canonical."""
    c = object.__new__(Coefficient)
    c._num = num
    c._den = den
    return c


def _reduced(num: dict, den: int) -> Coefficient:
    """num/den in canonical form: ``num`` maps exponent pairs to ``(re, im)``
    int pairs, none of them ``(0, 0)``, over the positive int ``den``; the
    gcd of ``den`` and every numerator is divided out."""
    if not num:
        return ZERO
    if den != 1:
        g = den
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        else:
            num = {k: (re // g, im // g) for k, (re, im) in num.items()}
            den //= g
    return _new(num, den)


def _sum(pairs) -> Coefficient:
    """Canonical sum of w * c over ``(Coefficient c, int w)`` pairs: a lone
    nonzero term as ``c`` (w = 1) or ``c._scaled(w)``, otherwise ints over the
    lcm of the denominators, deleting each key whose sum cancels."""
    first = num = None
    for c, w in pairs:
        if not w or not c._num:
            continue
        if first is None:
            first, fw = c, w
            continue
        if num is None:
            den = first._den
            num = dict(first._num) if fw == 1 else \
                {k: (re * fw, im * fw) for k, (re, im) in first._num.items()}
        cd = c._den
        if cd != den:
            if den % cd:
                up = cd // gcd(den, cd)
                den *= up
                num = {k: (re * up, im * up) for k, (re, im) in num.items()}
            w *= den // cd
        for k, (re, im) in c._num.items():
            if w != 1:
                re *= w
                im *= w
            old = num.get(k)
            if old is not None:
                re += old[0]
                im += old[1]
                if not (re or im):
                    del num[k]
                    continue
            num[k] = (re, im)
    if num is None:
        return ZERO if first is None else first if fw == 1 else first._scaled(fw)
    return _reduced(num, den)


def substituted(coeffs, gamma=None, omega=None) -> list:
    """The coefficients with exact scalars put in for g and w; ``None`` leaves a parameter formal.

    Each power of gamma and of omega that a term needs is made once per call
    (``__pow__``: a negative power of gamma divides exactly), and so is each
    product g^a w^b, a parameter left formal keeping its exponent.  A result is
    one :func:`_sum` of those products weighted by its terms' numerators.
    gamma = 0 at a negative power of g raises :class:`ZeroSubstitution`.
    """
    coeffs = list(coeffs)
    if not coeffs or gamma is None and omega is None:
        return coeffs
    gq = None if gamma is None else Coefficient.of(gamma)
    wq = None if omega is None else Coefficient.of(omega)
    g_pows: dict = {}
    w_pows: dict = {}
    powers: dict = {}  # (a, b) -> (g^a w^b with the values put in, times i)
    out = []
    for c in coeffs:
        parts = []
        for (a, b), (re, im) in c._num.items():
            p = powers.get((a, b))
            if p is None:
                if gq is None:
                    q = _new({(a, 0): (1, 0)}, 1)
                elif a in g_pows:
                    q = g_pows[a]
                elif a < 0 and not gq:
                    raise ZeroSubstitution("gamma=0 hits a gamma pole")
                else:
                    q = g_pows[a] = gq ** a
                if wq is None:
                    q = _new({(ka, kb + b): v for (ka, kb), v in q._num.items()}, q._den)
                else:
                    if b not in w_pows:
                        w_pows[b] = wq ** b
                    q = q * w_pows[b]
                p = powers[(a, b)] = q, q * I
            parts += (p[0], re), (p[1], im)
        s = _sum(parts)
        out.append(_reduced(s._num, s._den * c._den))
    return out


CoefficientLike = Union[Coefficient, int, Fraction, tuple]

ZERO = _new({}, 1)
ONE = Coefficient.of(1)
I = Coefficient.of((0, 1))
GAMMA = Coefficient.monomial(1, 1, 0)
GAMMA_INV = Coefficient.monomial(1, -1, 0)
OMEGA = Coefficient.monomial(1, 0, 1)


def GaussianRational(re=0, im=0) -> Coefficient:
    """The scalar re + i*im, as ``Coefficient.of((re, im))``.

    Kept only because ``benchmarks/workloads.py`` builds its couplings and
    weights with this name; it goes with the benchmark's next change.
    """
    return Coefficient.of((re, im))
