"""Exact coefficient arithmetic for the symbol algebra.

Scalars live in the field Q(alpha) of rational functions in a formal
parameter ``alpha`` with rational coefficients.  Every scalar is kept in a
unique reduced form (a gcd-reduced fraction with a monic denominator), so two
scalars are equal exactly when their stored representations coincide.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm

Rat = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


class PoleError(ZeroDivisionError):
    """Substituting a value for alpha hit a root of a stored denominator."""

    def __init__(self, denominator: "AlphaPoly", value: Fraction):
        self.denominator = denominator
        self.value = value
        super().__init__(
            "alpha = %s is a root of the denominator %s" % (value, denominator)
        )


class AlphaPoly:
    """Sparse polynomial in alpha with Fraction coefficients.

    The coefficient map never stores zeros, so the zero polynomial is the
    empty map and ``bool(p)`` tests for nonzero.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: dict | None = None):
        self.c = coeffs if coeffs is not None else {}

    @staticmethod
    def const(value) -> "AlphaPoly":
        v = Fraction(value)
        return AlphaPoly({0: v} if v else {})

    @staticmethod
    def variable() -> "AlphaPoly":
        return AlphaPoly({1: _F1})

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlphaPoly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def degree(self) -> int:
        """Degree in alpha; -1 for the zero polynomial."""
        return max(self.c) if self.c else -1

    def leading(self) -> Fraction:
        return self.c[max(self.c)] if self.c else _F0

    def is_one(self) -> bool:
        return self.c == {0: _F1}

    def is_constant(self) -> bool:
        return not self.c or self.c.keys() == {0}

    def __add__(self, other: "AlphaPoly") -> "AlphaPoly":
        if not other.c:
            return self
        if not self.c:
            return other
        out = dict(self.c)
        for e, v in other.c.items():
            nv = out.get(e, _F0) + v
            if nv:
                out[e] = nv
            else:
                out.pop(e, None)
        return AlphaPoly(out)

    def __neg__(self) -> "AlphaPoly":
        return AlphaPoly({e: -v for e, v in self.c.items()})

    def __sub__(self, other: "AlphaPoly") -> "AlphaPoly":
        return self + (-other)

    def __mul__(self, other: "AlphaPoly") -> "AlphaPoly":
        a, b = self.c, other.c
        if not a or not b:
            return _P_ZERO
        if len(a) == 1:
            ((ea, va),) = a.items()
            if ea == 0 and va == 1:
                return other
            return AlphaPoly({e + ea: v * va for e, v in b.items()})
        if len(b) == 1:
            ((eb, vb),) = b.items()
            if eb == 0 and vb == 1:
                return self
            return AlphaPoly({e + eb: v * vb for e, v in a.items()})
        out: dict = {}
        for ea, va in a.items():
            for eb, vb in b.items():
                e = ea + eb
                nv = out.get(e, _F0) + va * vb
                if nv:
                    out[e] = nv
                else:
                    out.pop(e, None)
        return AlphaPoly(out)

    def scaled(self, factor: Fraction) -> "AlphaPoly":
        if not factor:
            return _P_ZERO
        if factor == 1:
            return self
        return AlphaPoly({e: v * factor for e, v in self.c.items()})

    def evaluate(self, value: Fraction) -> Fraction:
        acc = _F0
        for e, v in self.c.items():
            acc += v * value**e
        return acc

    def mod_p(self, value: int, p: int) -> int:
        """Value at alpha = ``value`` in F_p (p prime); ValueError when p
        divides the denominator of a coefficient."""
        acc = 0
        for e, v in self.c.items():
            acc += v.numerator * pow(v.denominator, -1, p) * pow(value, e, p)
        return acc % p

    def __divmod__(self, other: "AlphaPoly"):
        if not other.c:
            raise ZeroDivisionError("polynomial division by zero")
        db = other.degree()
        lb = other.leading()
        q: dict = {}
        r = dict(self.c)
        while r:
            dr = max(r)
            if dr < db:
                break
            f = r[dr] / lb
            e = dr - db
            q[e] = f
            for k, v in other.c.items():
                kk = k + e
                nv = r.get(kk, _F0) - v * f
                if nv:
                    r[kk] = nv
                else:
                    r.pop(kk, None)
        return AlphaPoly(q), AlphaPoly(r)

    def exact_div(self, other: "AlphaPoly") -> "AlphaPoly":
        q, r = divmod(self, other)
        if r.c:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "AlphaPoly":
        if not self.c:
            return self
        lc = self.leading()
        return self if lc == 1 else self.scaled(1 / lc)

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return "AlphaPoly(%s)" % (self,)


_P_ZERO = AlphaPoly({})
_P_ONE = AlphaPoly({0: _F1})
_P_ALPHA = AlphaPoly({1: _F1})


def poly_gcd(a: AlphaPoly, b: AlphaPoly) -> AlphaPoly:
    """Monic gcd in Q[alpha] (Euclid with monic normalization per step)."""
    a, b = a.monic(), b.monic()
    while b.c:
        a, b = b, divmod(a, b)[1].monic()
    return a


def poly_lcm(a: AlphaPoly, b: AlphaPoly) -> AlphaPoly:
    if not a.c or not b.c:
        return _P_ZERO
    return (a * b.exact_div(poly_gcd(a, b))).monic()


def poly_str(p: AlphaPoly, var: str = "alpha") -> str:
    """Render with integer-free Fractions allowed, decreasing degree."""
    if not p.c:
        return "0"
    parts = []
    for e in sorted(p.c, reverse=True):
        v = p.c[e]
        sign = "-" if v < 0 else "+"
        av = -v if v < 0 else v
        if e == 0:
            body = str(av)
        else:
            base = var if e == 1 else "%s^%d" % (var, e)
            body = base if av == 1 else "%s*%s" % (av, base)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += " %s %s" % (sign, body)
    return out


def _reduce_fraction(num: AlphaPoly, den: AlphaPoly):
    """Reduce num/den to lowest terms with a monic denominator."""
    if not den.c:
        raise ZeroDivisionError("zero denominator")
    if not num.c:
        return _P_ZERO, _P_ONE
    if not den.is_one():
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lc = den.leading()
        if lc != 1:
            num = num.scaled(1 / lc)
            den = den.scaled(1 / lc)
    return num, den


class Scalar:
    """Element an/ad of Q(alpha), in canonical reduced form.

    ``an`` and ``ad`` are polynomials in alpha with gcd 1 and ``ad`` monic.
    """

    __slots__ = ("an", "ad")

    def __init__(self, an, ad, _reduced=False):
        if _reduced:
            self.an, self.ad = an, ad
        else:
            self.an, self.ad = _reduce_fraction(an, ad)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_fraction(value) -> "Scalar":
        return Scalar(AlphaPoly.const(value), _P_ONE, _reduced=True)

    @staticmethod
    def from_poly(p: AlphaPoly) -> "Scalar":
        return Scalar(p, _P_ONE, _reduced=True)

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.from_fraction(x)
        if isinstance(x, AlphaPoly):
            return Scalar.from_poly(x)
        raise TypeError("cannot coerce %r to Scalar" % (x,))

    # -- predicates ----------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.an.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_fraction(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.an == other.an and self.ad == other.ad

    def __hash__(self):
        return hash((self.an, self.ad))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        n1, d1, n2, d2 = self.an, self.ad, other.an, other.ad
        if d1.is_one() and d2.is_one():
            return Scalar(n1 + n2, _P_ONE, _reduced=True)
        return Scalar(n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.an, self.ad, _reduced=True)

    def __sub__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __mul__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        n1, d1, n2, d2 = self.an, self.ad, other.an, other.ad
        if not n1.c or not n2.c:
            return S_ZERO
        if d1.is_one() and d2.is_one():
            return Scalar(n1 * n2, _P_ONE, _reduced=True)
        return Scalar(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.ad, self.an)

    def __truediv__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return Scalar.coerce(other) * self.inv()

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = S_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- substitution ---------------------------------------------------
    def specialize(self, alpha_value) -> "Scalar":
        """Substitute a rational value for alpha.

        Raises PoleError naming the denominator when the value is one of its
        roots.  Only the stored reduced form is consulted: no further
        cancellation is attempted.
        """
        value = Fraction(alpha_value)
        den = self.ad.evaluate(value)
        if not den:
            raise PoleError(self.ad, value)
        return Scalar.from_fraction(self.an.evaluate(value) / den)

    def mod_p(self, value: int, p: int) -> int:
        """Image in F_p (p prime) under alpha -> ``value``.

        Raises ValueError when p divides the denominator of a rational
        coefficient, so that no value gives an image, and ZeroDivisionError
        when ``value`` is a root of the denominator mod p.
        """
        den = self.ad.mod_p(value, p)
        if not den:
            raise ZeroDivisionError("alpha = %d is a root of %s mod %d" % (value, self.ad, p))
        return self.an.mod_p(value, p) * pow(den, -1, p) % p

    # -- rendering -------------------------------------------------------
    def _integer_parts(self):
        """Form (p, r) with integer coefficients: self = p / r, the gcd of
        all coefficients 1 and the leading coefficient of r positive."""
        coeffs = [*self.an.c.values(), *self.ad.c.values()]
        lcm = int_lcm(*(v.denominator for v in coeffs))
        g = int_gcd(*(v.numerator * (lcm // v.denominator) for v in coeffs))
        factor = Fraction(lcm, g)
        return self.an.scaled(factor), self.ad.scaled(factor)

    def __str__(self) -> str:
        if not self:
            return "0"
        p, r = self._integer_parts()
        num = poly_str(p)
        if r.is_one():
            return num
        rs = poly_str(r)
        if len(r.c) > 1:
            rs = "(%s)" % rs
        if len(p.c) > 1:
            num = "(%s)" % num
        return "%s/%s" % (num, rs)

    def __repr__(self) -> str:
        return "Scalar(%s)" % (self,)

    def display_negative(self) -> bool:
        """True when the canonical rendering would start with a minus sign."""
        return bool(self.an.c) and self.an.leading() < 0

    def factor_str(self) -> str:
        """Render as a factor usable inside a product expression."""
        s = str(self)
        if " " in s and "/" not in s:
            return "(%s)" % s
        return s


S_ZERO = Scalar.from_fraction(0)
S_ONE = Scalar.from_fraction(1)
S_HALF = Scalar.from_fraction(Fraction(1, 2))
ALPHA = Scalar.from_poly(_P_ALPHA)

POLY_ONE = _P_ONE
