"""Exact coefficient arithmetic for the symbol algebra.

Scalars live in the field Q(alpha) of rational functions in a formal
parameter ``alpha`` with rational coefficients.  Every scalar is kept in a
unique reduced form (a gcd-reduced fraction with a monic denominator), so two
scalars are equal exactly when their stored representations coincide.  The
``Scalar`` constructor takes that form as given; ``Scalar.quotient``
reduces any fraction of polynomials to it, and arithmetic calls it only
where a polynomial denominator may leave a common factor.

A polynomial in alpha is stored as integer coefficients over one positive
integer denominator, c / d, with d coprime to the coefficients taken
together; equal polynomials therefore store equally.  Sums, products and
integer multiples run on Python ints with at most one integer gcd per
result; division, gcd and rendering work on Fractions.

``split_layers`` and ``fold_layers`` carry a whole term map across to ints
and back for the kernels: one int map per alpha power over one common
denominator, and one canonical Scalar per key on the way back, reduced by
one integer gcd when the key holds a single alpha power.  A
``symbols.Symbol`` splits its terms once, when a kernel first needs them as
an operand, and a symbol made by a kernel keeps its layers until its terms
are first read, when it folds them.  Substituting a rational alpha
(``AlphaPoly.evaluate``) also runs on ints, with one Fraction per call.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm

_F0 = Fraction(0)
_ONE = {0: 1}


class PoleError(ZeroDivisionError):
    """Substituting a value for alpha hit a root of a stored denominator."""

    def __init__(self, denominator: "AlphaPoly", value: Fraction):
        self.denominator = denominator
        self.value = value
        super().__init__(
            "alpha = %s is a root of the denominator %s" % (value, denominator)
        )


def _poly(c: dict, d: int) -> "AlphaPoly":
    """c / d in canonical form, for c without zeros and d > 0: the common
    factor of d and the coefficients is divided out."""
    if d != 1:
        if not c:
            return _P_ZERO
        g = int_gcd(d, *c.values())
        if g != 1:
            c = {e: v // g for e, v in c.items()}
            d //= g
    return AlphaPoly(c, d)


class AlphaPoly:
    """Polynomial c / d in alpha with rational coefficients.

    ``c`` maps exponents to nonzero ints and ``d`` is a positive int with
    gcd(d, every coefficient) = 1.  The constructor takes that form as
    given; ``from_rationals`` builds it from rational coefficients.  The
    zero polynomial is the empty map over 1, so ``bool(p)`` tests for
    nonzero.
    """

    __slots__ = ("c", "d")

    def __init__(self, c: dict, d: int = 1):
        self.c = c
        self.d = d

    @staticmethod
    def from_rationals(coeffs: dict) -> "AlphaPoly":
        """The polynomial with coefficients {exponent: int or Fraction}."""
        coeffs = {e: Fraction(v) for e, v in coeffs.items() if v}
        d = int_lcm(*(v.denominator for v in coeffs.values()))
        return _poly({e: v.numerator * (d // v.denominator) for e, v in coeffs.items()}, d)

    @staticmethod
    def const(value) -> "AlphaPoly":
        v = value if isinstance(value, int) else Fraction(value)
        return AlphaPoly({0: v.numerator}, v.denominator) if v else _P_ZERO

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlphaPoly) and self.d == other.d and self.c == other.c

    def __hash__(self):
        return hash((frozenset(self.c.items()), self.d))

    def _fractions(self) -> dict:
        d = self.d
        return {e: Fraction(v, d) for e, v in self.c.items()}

    def degree(self) -> int:
        """Degree in alpha; -1 for the zero polynomial."""
        return max(self.c) if self.c else -1

    def leading(self) -> Fraction:
        return Fraction(self.c[max(self.c)], self.d) if self.c else _F0

    def constant(self):
        """The coefficient of alpha^0: an int when the denominator is 1,
        else a Fraction."""
        v = self.c.get(0, 0)
        return v if self.d == 1 else Fraction(v, self.d)

    def is_one(self) -> bool:
        return self.d == 1 and self.c == _ONE

    def is_constant(self) -> bool:
        c = self.c
        return not c or (len(c) == 1 and 0 in c)

    def _add(self, other: "AlphaPoly", sign: int = 1) -> "AlphaPoly":
        """self + sign * other, for sign 1 or -1."""
        b = other.c
        if not b:
            return self
        a = self.c
        if not a:
            return other if sign > 0 else -other
        da, db = self.d, other.d
        if da == db:
            out = dict(a)
            fb = sign
        else:
            g = int_gcd(da, db)
            fa, fb = db // g, sign * da // g
            out = {e: v * fa for e, v in a.items()}
            da *= fa
        for e, v in b.items():
            nv = out.get(e, 0) + v * fb
            if nv:
                out[e] = nv
            else:
                del out[e]
        return AlphaPoly(out) if da == 1 else _poly(out, da)

    __add__ = _add

    def __neg__(self) -> "AlphaPoly":
        return AlphaPoly({e: -v for e, v in self.c.items()}, self.d)

    def __sub__(self, other: "AlphaPoly") -> "AlphaPoly":
        return self._add(other, -1)

    def __mul__(self, other: "AlphaPoly") -> "AlphaPoly":
        a, b = self.c, other.c
        if not a or not b:
            return _P_ZERO
        d = self.d * other.d
        if len(a) == 1:
            ((ea, va),) = a.items()
            if d == 1 and ea == 0 and va == 1:
                return other
            out = {e + ea: v * va for e, v in b.items()}
        elif len(b) == 1:
            ((eb, vb),) = b.items()
            if d == 1 and eb == 0 and vb == 1:
                return self
            out = {e + eb: v * vb for e, v in a.items()}
        else:
            out = {}
            for ea, va in a.items():
                for eb, vb in b.items():
                    e = ea + eb
                    nv = out.get(e, 0) + va * vb
                    if nv:
                        out[e] = nv
                    else:
                        del out[e]
        return AlphaPoly(out) if d == 1 else _poly(out, d)

    def scaled(self, factor) -> "AlphaPoly":
        """Multiple by a rational number, an int or a Fraction."""
        n, m = factor.numerator, factor.denominator
        if not n or not self.c:
            return _P_ZERO
        d = self.d
        if m != 1:
            return _poly({e: v * n for e, v in self.c.items()}, d * m)
        if n == 1:
            return self
        if d != 1:
            # gcd(d, n * content) = gcd(d, n), as d is coprime to the content
            g = int_gcd(d, n)
            n //= g
            d //= g
        return AlphaPoly({e: v * n for e, v in self.c.items()}, d)

    def evaluate(self, value) -> Fraction:
        """Value at a rational alpha = p/q, on ints: the sum of
        v p^e q^(deg - e) over d q^deg, one Fraction per call."""
        c = self.c
        if not c:
            return _F0
        p, q = value.numerator, value.denominator
        deg = max(c)
        acc = 0
        for e, v in c.items():
            acc += v * p**e * q**(deg - e)
        return Fraction(acc, self.d * q**deg)

    def mod_p(self, value: int, p: int) -> int:
        """Value at alpha = ``value`` in F_p (p prime); ValueError when p
        divides the denominator of a coefficient."""
        acc = 0
        for e, v in self.c.items():
            acc += v * pow(value, e, p)
        if self.d != 1:
            acc *= pow(self.d, -1, p)
        return acc % p

    def __divmod__(self, other: "AlphaPoly"):
        if not other.c:
            raise ZeroDivisionError("polynomial division by zero")
        b = other._fractions()
        db = max(b)
        lb = b[db]
        q: dict = {}
        r = self._fractions()
        while r:
            dr = max(r)
            if dr < db:
                break
            f = r[dr] / lb
            e = dr - db
            q[e] = f
            for k, v in b.items():
                kk = k + e
                nv = r.get(kk, _F0) - v * f
                if nv:
                    r[kk] = nv
                else:
                    r.pop(kk, None)
        return AlphaPoly.from_rationals(q), AlphaPoly.from_rationals(r)

    def exact_div(self, other: "AlphaPoly") -> "AlphaPoly":
        q, r = divmod(self, other)
        if r:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "AlphaPoly":
        """Divided by its leading coefficient: c / d over c_top / d is
        c / c_top."""
        c = self.c
        if not c:
            return self
        lc = c[max(c)]
        if lc == self.d:
            return self
        if lc < 0:
            c = {e: -v for e, v in c.items()}
        return _poly(c, abs(lc))

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return "AlphaPoly(%s)" % (self,)


_P_ZERO = AlphaPoly({})
_P_ONE = AlphaPoly({0: 1})
_P_ALPHA = AlphaPoly({1: 1})


def poly_gcd(a: AlphaPoly, b: AlphaPoly) -> AlphaPoly:
    """Monic gcd in Q[alpha] (Euclid with monic normalization per step)."""
    a, b = a.monic(), b.monic()
    while b:
        a, b = b, divmod(a, b)[1].monic()
    return a


def poly_lcm(a: AlphaPoly, b: AlphaPoly) -> AlphaPoly:
    if not a or not b:
        return _P_ZERO
    return (a * b.exact_div(poly_gcd(a, b))).monic()


def poly_str(p: AlphaPoly, var: str = "alpha") -> str:
    """Render with integer-free Fractions allowed, decreasing degree."""
    if not p:
        return "0"
    coeffs = p._fractions()
    parts = []
    for e in sorted(coeffs, reverse=True):
        v = coeffs[e]
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


class Scalar:
    """Element an/ad of Q(alpha), in canonical reduced form.

    ``an`` and ``ad`` are polynomials in alpha with gcd 1 and ``ad`` monic,
    and a denominator equal to 1 is the shared ``_P_ONE``, which the
    arithmetic tests with ``is`` for its fast paths.  The constructor takes
    that form as given, as ``AlphaPoly``'s does; ``quotient`` builds it
    from any fraction of polynomials.  Equality compares the stored forms.
    """

    __slots__ = ("an", "ad")

    def __init__(self, an, ad):
        self.an = an
        self.ad = ad

    # -- constructors -------------------------------------------------
    @staticmethod
    def quotient(num: AlphaPoly, den: AlphaPoly) -> "Scalar":
        """num/den for polynomials num and den != 0, reduced to the
        canonical form: the polynomial gcd divided out, den made monic."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return S_ZERO
        if den.is_one():
            return Scalar(num, _P_ONE)
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lc = den.leading()
        if lc != 1:
            num = num.scaled(1 / lc)
            den = den.monic()
        return Scalar(num, _P_ONE if den.is_one() else den)

    @staticmethod
    def from_fraction(value) -> "Scalar":
        return Scalar(AlphaPoly.const(value), _P_ONE)

    @staticmethod
    def from_poly(p: AlphaPoly) -> "Scalar":
        return Scalar(p, _P_ONE)

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
        if other.__class__ is Scalar:
            # canonical forms: equal exactly when stored alike
            a, b, da, db = self.an, other.an, self.ad, other.ad
            return a.d == b.d and a.c == b.c and (da is db or da.d == db.d and da.c == db.c)
        if isinstance(other, int):
            an = self.an
            return an.d == 1 and an.c == ({0: other} if other else {}) and self.ad.is_one()
        if isinstance(other, Fraction):
            other = Scalar.from_fraction(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.an == other.an and self.ad == other.ad

    def __hash__(self):
        # a constant hashes as the int or Fraction it equals
        an = self.an
        if an.is_constant() and self.ad.is_one():
            return hash(an.constant())
        return hash((an, self.ad))

    # -- arithmetic ----------------------------------------------------
    # A nonzero rational is a unit of Q[alpha]: adding k * ad to the
    # numerator or scaling it by k keeps a reduced fraction reduced.
    def __add__(self, other):
        if isinstance(other, Scalar):
            n2, d2 = other.an, other.ad
        elif isinstance(other, int):
            if not other:
                return self
            d1 = self.ad
            return Scalar(self.an + d1.scaled(other), d1)
        else:
            try:
                other = Scalar.coerce(other)
            except TypeError:
                return NotImplemented
            n2, d2 = other.an, other.ad
        n1, d1 = self.an, self.ad
        if d1 is _P_ONE and d2 is _P_ONE:
            return Scalar(n1 + n2, _P_ONE)
        return Scalar.quotient(n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.an, self.ad)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            try:
                other = Scalar.coerce(other)
            except TypeError:
                return NotImplemented
        n1, d1, n2, d2 = self.an, self.ad, other.an, other.ad
        if d1 is _P_ONE and d2 is _P_ONE:
            return Scalar(n1 - n2, _P_ONE)
        return Scalar.quotient(n1 * d2 - n2 * d1, d1 * d2)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, Scalar):
            n2, d2 = other.an, other.ad
        elif isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            if not other or not self.an.c:
                return S_ZERO
            return Scalar(self.an.scaled(other), self.ad)
        else:
            try:
                other = Scalar.coerce(other)
            except TypeError:
                return NotImplemented
            n2, d2 = other.an, other.ad
        n1, d1 = self.an, self.ad
        if not n1.c or not n2.c:
            return S_ZERO
        if d1 is _P_ONE and d2 is _P_ONE:
            return Scalar(n1 * n2, _P_ONE)
        return Scalar.quotient(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar.quotient(self.ad, self.an)

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
        if self.ad is _P_ONE:  # a polynomial: no denominator to invert
            an = self.an
            if an.d == 1 and len(an.c) == 1 and 0 in an.c:  # an integer
                return an.c[0] % p
            return an.mod_p(value, p)
        den = self.ad.mod_p(value, p)
        if not den:
            raise ZeroDivisionError("alpha = %d is a root of %s mod %d" % (value, self.ad, p))
        return self.an.mod_p(value, p) * pow(den, -1, p) % p

    # -- rendering -------------------------------------------------------
    def _integer_parts(self):
        """Form (p, r) with integer coefficients: self = p / r, the gcd of
        all coefficients 1 and the leading coefficient of r positive."""
        an, ad = self.an, self.ad
        m = int_lcm(an.d, ad.d)
        g = int_gcd(*(v * (m // an.d) for v in an.c.values()),
                    *(v * (m // ad.d) for v in ad.c.values()))
        factor = Fraction(m, g)
        return an.scaled(factor), ad.scaled(factor)

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


def split_layers(terms: dict):
    """Split a term map with Scalar coefficients into alpha-power layers.

    Returns (layers, d, den): ``layers`` maps each alpha power e to a term
    map with nonzero int coefficients, ``d`` is a positive int, ``den`` a
    monic polynomial or None for 1, and the coefficient of a key is
    sum_e layers[e][key] alpha^e / (d den).  ``den`` is the lcm of the
    polynomial denominators; ``d`` clears the rational ones.
    """
    d = 1
    for c in terms.values():
        if c.ad is not _P_ONE:
            return _split_over_lcm(terms)
        cd = c.an.d
        if d % cd:
            d = d // int_gcd(d, cd) * cd
    layers: dict = {}
    for key, c in terms.items():
        an = c.an
        f = d // an.d
        for e, v in an.c.items():
            layer = layers.get(e)
            if layer is None:
                layers[e] = {key: v * f}
            else:
                layer[key] = v * f
    return layers, d, None


def _split_over_lcm(terms: dict):
    den = _P_ONE
    for c in terms.values():
        if not c.ad.is_one():
            den = poly_lcm(den, c.ad)
    # each coefficient an/ad as (an den/ad) / den, the numerator carried
    # as a Scalar over 1 to the split above
    nums = {key: Scalar(c.an * den.exact_div(c.ad), _P_ONE) for key, c in terms.items()}
    layers, d, _ = split_layers(nums)
    return layers, d, None if den.is_one() else den


def fold_layers(layers: dict, d: int, den) -> dict:
    """The term map with coefficients sum_e layers[e][key] alpha^e / (d den),
    each a canonical Scalar; ``layers`` holds nonzero ints, ``d`` is a
    positive int and ``den`` a monic polynomial or None for 1.  A key met
    in one layer only, as most are, is one power v alpha^e / d, reduced by
    gcd(d, v) alone; a key met in several layers goes through ``_poly``.
    Only a polynomial ``den`` takes the polynomial gcd of the full
    reduction.  The layers are consumed: the result may reuse one of their
    dicts.
    """
    if len(layers) == 1 and den is None:
        ((e, out),) = layers.items()
        for key, v in out.items():
            g = int_gcd(d, v)
            out[key] = Scalar(AlphaPoly({e: v // g}, d // g), _P_ONE)
        return out
    out: dict = {}
    for e, layer in layers.items():
        for key, v in layer.items():
            c = out.get(key)
            if c is None:
                out[key] = (e, v)
            elif c.__class__ is tuple:
                out[key] = {c[0]: c[1], e: v}
            else:
                c[e] = v
    for key, c in out.items():
        if c.__class__ is tuple:
            e, v = c
            g = int_gcd(d, v)
            p = AlphaPoly({e: v // g}, d // g)
        else:
            p = _poly(c, d)
        out[key] = Scalar(p, _P_ONE) if den is None else Scalar.quotient(p, den)
    return out


S_ZERO = Scalar.from_fraction(0)
S_ONE = Scalar.from_fraction(1)
S_HALF = Scalar.from_fraction(Fraction(1, 2))
ALPHA = Scalar.from_poly(_P_ALPHA)

POLY_ONE = _P_ONE
