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
Fractions on demand.  The sparse term maps of the other layers (operators,
functions, which are derivative-free operators, and ladder states) add into
themselves through :func:`accumulate`, which keeps no zero value.

Canonical text form, used in golden files and reports::

    (3/2) + (-2+1i)*g^-1*w^2
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

from .errors import FloatOverflow, SingularLimit, ZeroSubstitution


def _parts(q) -> tuple:
    """(re, im) Fractions of an exact scalar: an int, a Fraction, an (re, im)
    pair of those, or a scalar :class:`Coefficient`."""
    if isinstance(q, Coefficient):
        return q.re, q.im
    x, y = q if isinstance(q, tuple) and len(q) == 2 else (q, 0)
    if not (isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction))):
        raise TypeError(f"cannot interpret {q!r} as an exact scalar")
    return Fraction(x), Fraction(y)


# one term of the canonical text form: (weight)*g^a*w^b
_TERM_RX = re.compile(r"^\(([^()]*)\)(?:\*g\^(-?\d+))?(?:\*w\^(\d+))?$")


def _scalar_text(x: Fraction, y: Fraction) -> str:
    """x + i*y as in ``3/2``, ``-2+1i`` or ``1i``; not both zero."""
    parts = [str(x)] if x else []
    if y:
        sign = "-" if y < 0 else ("+" if parts else "")
        parts.append(f"{sign}{abs(y)}i")
    return "".join(parts)


def _parse_scalar(text: str) -> tuple:
    """Inverse of :func:`_scalar_text`, as an (re, im) pair of Fractions."""
    s = text.strip()
    if not s.endswith("i"):
        return Fraction(s), Fraction(0)
    body = s[:-1]
    # split a trailing rational off the real part, e.g. "1/2-3i"
    m = re.match(r"^([+-]?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)$", body)
    if m:
        return Fraction(m.group(1)), Fraction(m.group(2))
    return Fraction(0), Fraction({"": "1", "+": "1", "-": "-1"}.get(body, body))


def accumulate(acc: dict, key, value) -> None:
    """acc[key] += value, keeping no zero: a key whose sum cancels is dropped."""
    old = acc.get(key)
    if old is not None:
        value = old + value
    if value:
        acc[key] = value
    elif old is not None:
        del acc[key]


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

    __slots__ = ("_num", "_den", "_terms", "_hash")

    def __init__(self, terms=()):
        """Sum of ``((a, b), q)`` pairs (or a mapping), q an exact scalar:
        an int, a Fraction, an ``(re, im)`` pair or a scalar Coefficient."""
        if not terms:
            self._num, self._den = {}, 1
            return
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for (a, b), q in items:
            if b < 0:
                raise ValueError("negative w exponent is not part of the ring")
            x, y = _parts(q)
            old = acc.get((a, b))
            acc[(a, b)] = (x, y) if old is None else (old[0] + x, old[1] + y)
        parts = [(k, re, im) for k, (re, im) in acc.items() if re or im]
        # the lcm of the reduced denominators already leaves gcd 1
        den = lcm(*(f.denominator for _, re, im in parts for f in (re, im)))
        self._num = {k: (re.numerator * (den // re.denominator),
                         im.numerator * (den // im.denominator)) for k, re, im in parts}
        self._den = den

    # -- constructors ---------------------------------------------------
    @staticmethod
    def of(value: "CoefficientLike") -> "Coefficient":
        """An int, a Fraction or an ``(re, im)`` pair as a scalar; a Coefficient as is."""
        if isinstance(value, Coefficient):
            return value
        if type(value) is int:
            return _new({(0, 0): (value, 0)}, 1) if value else ZERO
        return Coefficient({(0, 0): value})

    @staticmethod
    def monomial(q, g_exp: int = 0, w_exp: int = 0) -> "Coefficient":
        return Coefficient({(g_exp, w_exp): q})

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
        """The (re, im) numerators over ``_den`` of a scalar; ValueError otherwise."""
        if not self.is_scalar():
            raise ValueError(f"not a scalar: {self}")
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

    def gamma_exponents(self) -> tuple:
        if not self._num:
            return (0, 0)
        exps = [a for a, _ in self._num]
        return (min(exps), max(exps))

    def omega_degree(self) -> int:
        return max((b for _, b in self._num), default=0)

    # -- equality -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self._den, frozenset(self._num.items())))
            return self._hash

    def __repr__(self) -> str:
        return f"Coefficient({self})"

    # -- ring operations ---------------------------------------------------
    def __add__(self, other) -> "Coefficient":
        try:
            other = Coefficient.of(other)
        except TypeError:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Coefficient":
        return _new({k: (-re, -im) for k, (re, im) in self._num.items()}, self._den)

    def __sub__(self, other) -> "Coefficient":
        return _combine(self, Coefficient.of(other), -1)

    def __rsub__(self, other) -> "Coefficient":
        return _combine(Coefficient.of(other), self, -1)

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
        g = gcd(self._den, k)
        k //= g
        return _new({key: (re * k, im * k) for key, (re, im) in self._num.items()},
                    self._den // g)

    def __pow__(self, k: int) -> "Coefficient":
        """Power by squaring; a negative k divides 1 exactly by self^-k, which
        raises ``ValueError`` unless self is a unit (a nonzero scalar times a
        power of g)."""
        if k < 0:
            return ONE.divide_exact(self ** -k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "Coefficient":
        """i -> -i; the formal parameters g, w stay untouched."""
        return _new({k: (re, -im) for k, (re, im) in self._num.items()}, self._den)

    # -- division -----------------------------------------------------------
    def divide_exact(self, other: "Coefficient") -> "Coefficient":
        """Exact division; raises ``ValueError`` when not a ring multiple.

        Leading-term division in (g, w) with lexicographic order, on the
        integer numerators: with S*N = Q*D + R kept invariant, each step
        multiplies S, Q and R by the least m that makes the next quotient
        term integral.  A quotient's g exponents are bounded below by
        ``min_g(self) - min_g(other)`` (the lowest g terms of a product
        multiply, since Q(i)[w] has no zero divisors), so division stops
        with ``ValueError`` once the remainder would need a lower one.
        """
        other = Coefficient.of(other)
        dnum = other._num
        if not dnum:
            raise ZeroDivisionError("division by zero coefficient")
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
                raise ValueError(f"({self}) is not divisible by ({other})")
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
        """Partial substitution of exact scalars; ``None`` leaves a parameter formal.

        A negative power of g becomes an exact division (see ``__pow__``).
        """
        if gamma is None and omega is None:
            return self
        gq = None if gamma is None else Coefficient.of(gamma)
        wq = None if omega is None else Coefficient.of(omega)
        if gq is not None and not gq and any(a < 0 for a, _ in self._num):
            raise ZeroSubstitution("gamma=0 hits a gamma pole")
        out = ZERO
        for (a, b), v in self._num.items():
            term = _new({(a if gq is None else 0, b if wq is None else 0): v}, 1)
            if gq is not None:
                term = term * gq ** a
            if wq is not None:
                term = term * wq ** b
            out = out + term
        return _reduced(out._num, out._den * self._den)

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
        s = text.strip()
        if s == "0":
            return ZERO
        pairs = []
        for chunk in s.split(" + "):
            m = _TERM_RX.match(chunk.strip())
            if not m:
                raise ValueError(f"bad coefficient term: {chunk!r}")
            q = _parse_scalar(m.group(1))
            a = int(m.group(2)) if m.group(2) else 0
            b = int(m.group(3)) if m.group(3) else 0
            pairs.append(((a, b), q))
        return Coefficient(pairs)


def _new(num: dict, den: int) -> Coefficient:
    """Coefficient with storage that is already canonical."""
    c = object.__new__(Coefficient)
    c._num = num
    c._den = den
    return c


def _reduced(num: dict, den: int) -> Coefficient:
    """num/den with the common gcd divided out; ``num`` holds no zeros."""
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


def _combine(x: Coefficient, y: Coefficient, sign: int) -> Coefficient:
    """x + sign*y, for sign 1 or -1."""
    ny = y._num
    if not ny:
        return x
    nx = x._num
    if not nx:
        return y if sign > 0 else -y
    dx, dy = x._den, y._den
    if dx == dy:
        den, my = dx, sign
        d = dict(nx)
    else:
        g = gcd(dx, dy)
        mx, my = dy // g, sign * (dx // g)
        den = dx * mx
        d = {k: (re * mx, im * mx) for k, (re, im) in nx.items()}
    for k, (re, im) in ny.items():
        if my != 1:
            re *= my
            im *= my
        old = d.get(k)
        if old is None:
            d[k] = (re, im)
        else:
            re += old[0]
            im += old[1]
            if re or im:
                d[k] = (re, im)
            else:
                del d[k]
    return _reduced(d, den)


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
