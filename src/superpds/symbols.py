"""Poisson superalgebra of pseudodifferential symbols on the 1|2 supercircle.

Elements are finite sums of monomials t^a tau^b xi1^e1 xi2^e2 eta1^e3
eta2^e4 beta^p h^q with scalar coefficients.  t carries Laurent powers, tau
is the symbol of d/dt, xi_i/eta_i are odd exterior generators and beta, h
are inert central deformation parameters (never differentiated, degree zero
in every grading).

Conventions pinned here and used everywhere else:

* Grassmann monomials are stored against the generator order
  xi1 < xi2 < eta1 < eta2; products reorder into that basis.
* Grassmann derivatives act from the left.
* The Poisson superbracket is
  {A, B} = dA/dtau dB/dt - dA/dt dB/dtau
           + (-1)^(p(A)+1) sum_i (dA/dxi_i dB/deta_i + dA/deta_i dB/dxi_i).
* Gradings: k(t) = k(tau) = k(xi_i) = k(eta_i) = 1 (so the bracket drops k
  by 2); n(t) = 1, n(tau) = -1; the weight of xi_i is the i-th coordinate
  vector, of eta_i its negative.

Every kernel walks int alpha-power layers (``kernel``), and a result is
folded into Scalars when it is read: a ``Symbol`` holds a term map, the
layers, or both (``Symbol`` docstring).  Products, scalar multiples,
derivatives, Poisson brackets and, in ``quantize``, star products and
h-brackets come out as layers; an operand is split once and keeps the split.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm as int_lcm

from . import kernel
from .scalars import Scalar, S_ONE, S_ZERO, fold_layers, split_layers

VAR_NAMES = ("t", "tau", "xi1", "xi2", "eta1", "eta2")
_VAR_INDEX = {name: i for i, name in enumerate(VAR_NAMES)}

TARGETS = ("P", "P+", "K4", "K4'")

# (t, tau, mask) of t^-1 tau^-1 xi1 xi2 eta1 eta2, which spans K(4)/K'(4);
# its absence cuts out the derived ideal.
K4PRIME_GAP = (-1, -1, 0b1111)


def mask_weight(mask: int):
    """Weight of a Grassmann mask: xi_i adds the i-th coordinate vector,
    eta_i subtracts it.  The gradings of the package are fixed in this
    module (module docstring)."""
    return ((mask & 1) - (mask >> 2 & 1), (mask >> 1 & 1) - (mask >> 3 & 1))


class MixedParityError(ValueError):
    """A parity-sensitive operation was fed a mixed-parity symbol."""


def _coerce_coeff(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar.coerce(x)


class Symbol:
    """Sparse symbol: monomial-key -> nonzero Scalar.

    Instances are immutable values; all operations return fresh symbols.
    A symbol holds its term map, its int alpha-power layers (the
    (layers, d, den) triple of ``scalars.split_layers``), or both, and
    makes the missing form on first use: ``terms`` folds the layers
    (``scalars.fold_layers``) on its first read, which consumes them, and
    ``layers`` splits the terms on its first call, and the split is kept.

    A symbol that has no term map yet is unfolded.  Truth, unary minus,
    ``without_h``, and + and - of two unfolded symbols over integer
    denominators (den None) work on its layers and leave the result
    unfolded; a sum with zero is the other operand.  No layer is empty and
    none holds a zero entry, so the symbol is zero exactly when it has no
    layer.  Every result made from layers owns fresh layer dicts, so a fold
    leaves the operands and every other result as they were.
    """

    __slots__ = ("_terms", "_layers")

    def __init__(self, terms: dict):
        self._terms = terms
        self._layers = None

    @staticmethod
    def from_layers(layers: tuple) -> "Symbol":
        """The unfolded symbol of a layer triple, whose dicts it takes
        over: its fold consumes them."""
        out = Symbol.__new__(Symbol)
        out._terms = None
        out._layers = layers
        return out

    @property
    def terms(self) -> dict:
        terms = self._terms
        if terms is None:
            terms = self._terms = fold_layers(*self._layers)
            self._layers = None
        return terms

    def layers(self) -> tuple:
        """The coefficients as alpha-power layers: the kernels' operand,
        which they only read."""
        layers = self._layers
        if layers is None:
            layers = self._layers = split_layers(self._terms)
        return layers

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero() -> "Symbol":
        return Symbol({})

    @staticmethod
    def monomial(t=0, tau=0, mask=0, beta=0, h=0, coeff=1) -> "Symbol":
        c = _coerce_coeff(coeff)
        if not c:
            return Symbol({})
        if beta < 0 or h < 0:
            raise ValueError("beta and h exponents must be nonnegative")
        return Symbol({(t, tau, mask, beta, h): c})

    @staticmethod
    def constant(value) -> "Symbol":
        return Symbol.monomial(coeff=value)

    @staticmethod
    def generator(name: str) -> "Symbol":
        i = _VAR_INDEX[name]
        if i == 0:
            return Symbol.monomial(t=1)
        if i == 1:
            return Symbol.monomial(tau=1)
        return Symbol.monomial(mask=1 << (i - 2))

    # -- ring structure ---------------------------------------------------
    def __bool__(self) -> bool:
        terms = self._terms
        return bool(self._layers[0]) if terms is None else bool(terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return self.terms == other.terms

    def _combine(self, other, sign: int):
        """self + sign * other on int layers over the lcm of the two d's,
        or None unless both are unfolded with den None.  The kernel's
        term-map sums need ring operations only, so they add int layers."""
        if self._terms is not None or other._terms is not None:
            return None
        la, da, pa = self._layers
        lb, db, pb = other._layers
        if not lb:
            return self
        if not la:
            return other if sign > 0 else -other
        if pa is not None or pb is not None:
            return None
        d = int_lcm(da, db)
        combine = kernel.add_terms if sign > 0 else kernel.sub_terms
        fa, fb = d // da, d // db
        out = {}
        for e in dict.fromkeys((*la, *lb)):
            # both sums return fresh dicts, so an unscaled layer is not copied
            ta, tb = la.get(e, {}), lb.get(e, {})
            layer = combine(ta if fa == 1 else kernel.scale_terms(ta, fa),
                            tb if fb == 1 else kernel.scale_terms(tb, fb))
            if layer:
                out[e] = layer
        return Symbol.from_layers((out, d, None))

    def __add__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        out = self._combine(other, 1)
        return Symbol(kernel.add_terms(self.terms, other.terms)) if out is None else out

    def __sub__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        out = self._combine(other, -1)
        return Symbol(kernel.sub_terms(self.terms, other.terms)) if out is None else out

    def __neg__(self):
        if self._terms is not None:
            return Symbol(kernel.neg_terms(self._terms))
        layers, d, den = self._layers
        return Symbol.from_layers(({e: kernel.neg_terms(layer) for e, layer in layers.items()}, d, den))

    def __mul__(self, other):
        """Product with a symbol, or multiple by a scalar (an int,
        Fraction, AlphaPoly or Scalar): the product with the constant."""
        if not isinstance(other, Symbol):
            try:
                other = Symbol.constant(other)
            except TypeError:
                return NotImplemented
        return Symbol.from_layers(kernel.mul_terms(self.layers(), other.layers()))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Symbol":
        if not isinstance(n, int) or n < 0:
            raise ValueError("symbol powers must be nonnegative integers")
        out = Symbol.monomial()
        for _ in range(n):
            out = out * self
        return out

    # -- calculus ---------------------------------------------------------
    def derive(self, var: str) -> "Symbol":
        i = _VAR_INDEX[var]
        layers, d, den = self.layers()
        out = {}
        for e, layer in layers.items():
            derived = kernel.derive_terms(layer, i)
            if derived:
                out[e] = derived
        return Symbol.from_layers((out, d, den))

    def poisson(self, other: "Symbol") -> "Symbol":
        return Symbol.from_layers(kernel.poisson_terms(self.layers(), other.layers()))

    # -- structure queries -------------------------------------------------
    def parity(self):
        """0 for even, 1 for odd, None for mixed (zero counts as even)."""
        p = None
        for key in self.terms:
            q = key[2].bit_count() & 1
            if p is None:
                p = q
            elif p != q:
                return None
        return 0 if p is None else p

    def parity_name(self) -> str:
        p = self.parity()
        return "mixed" if p is None else ("even", "odd")[p]

    def _common(self, fn):
        value = None
        for key in self.terms:
            v = fn(key)
            if value is None:
                value = v
            elif value != v:
                return None, False
        return value, True

    def k_degree(self):
        """Common k-degree, or None if inhomogeneous (zero: vacuously 0)."""
        v, ok = self._common(lambda k: k[0] + k[1] + k[2].bit_count())
        return (v if self.terms else 0) if ok else None

    def n_degree(self):
        v, ok = self._common(lambda k: k[0] - k[1])
        return (v if self.terms else 0) if ok else None

    def weight(self):
        v, ok = self._common(lambda k: mask_weight(k[2]))
        return (v if self.terms else (0, 0)) if ok else None

    def gradings(self):
        return self.k_degree(), self.n_degree(), self.weight()

    def in_subalgebra(self, target: str) -> bool:
        if target == "P":
            return True
        if target == "P+":
            return all(key[1] >= 0 for key in self.terms)
        if target == "K4":
            return all(key[0] + key[1] + key[2].bit_count() == 2 for key in self.terms)
        if target == "K4'":
            return self.in_subalgebra("K4") and not any(
                key[:3] == K4PRIME_GAP for key in self.terms
            )
        raise ValueError("unknown subalgebra %r" % (target,))

    # -- coefficient access -------------------------------------------------
    def coefficient(self, key) -> Scalar:
        return self.terms.get(key, S_ZERO)

    def beta_component(self, power: int) -> "Symbol":
        """Terms of the given beta power, with beta stripped off."""
        return Symbol(
            {
                (t, u, m, 0, h): c
                for (t, u, m, b, h), c in self.terms.items()
                if b == power
            }
        )

    def max_beta(self) -> int:
        return max((key[3] for key in self.terms), default=0)

    def shift_beta(self, power: int) -> "Symbol":
        return Symbol(
            {(t, u, m, b + power, h): c for (t, u, m, b, h), c in self.terms.items()}
        )

    def without_h(self) -> "Symbol":
        """Drop every term carrying a positive h power (set h = 0)."""
        if self._terms is not None:
            return Symbol({key: c for key, c in self._terms.items() if key[4] == 0})
        layers, d, den = self._layers
        out = {}
        for e, layer in layers.items():
            kept = {key: v for key, v in layer.items() if key[4] == 0}
            if kept:
                out[e] = kept
        return Symbol.from_layers((out, d, den))

    def specialize(self, alpha_value) -> "Symbol":
        out = {}
        for key, c in self.terms.items():
            v = c.specialize(alpha_value)
            if v:
                out[key] = v
        return Symbol(out)

    # -- rendering -----------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for key in sorted(self.terms, key=lambda k: (k[3], k[4], k[0], k[1], k[2])):
            t, u, m, b, h = key
            coeff = self.terms[key]
            neg = coeff.display_negative()
            if neg:
                coeff = -coeff
            factors = []
            if not coeff == 1:
                factors.append(coeff.factor_str())
            for exp, name in ((t, "t"), (u, "tau")):
                if exp == 1:
                    factors.append(name)
                elif exp:
                    factors.append("%s^%d" % (name, exp))
            for bit, name in enumerate(("xi1", "xi2", "eta1", "eta2")):
                if m >> bit & 1:
                    factors.append(name)
            for exp, name in ((b, "beta"), (h, "h")):
                if exp == 1:
                    factors.append(name)
                elif exp:
                    factors.append("%s^%d" % (name, exp))
            if not factors:
                factors.append("1")
            rendered.append((neg, "*".join(factors)))
        neg, body = rendered[0]
        out = ("-" if neg else "") + body
        for neg, body in rendered[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self) -> str:
        return "Symbol(%s)" % (self,)


SYM_ZERO = Symbol.zero()


class SuperVectorField:
    """First-order superderivation sum_v f_v d/dv over the six generators.

    Components are indexed like VAR_NAMES.  A field of definite parity has
    even coefficients on even generators and odd on odd ones (or the other
    way around for an odd field).
    """

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(components)
        if len(self.components) != 6:
            raise ValueError("expected 6 components")

    @staticmethod
    def zero() -> "SuperVectorField":
        return SuperVectorField([SYM_ZERO] * 6)

    def __eq__(self, other):
        if not isinstance(other, SuperVectorField):
            return NotImplemented
        return self.components == other.components

    def __bool__(self):
        return any(self.components)

    def parity(self):
        """Overall field parity, or None when inconsistent/mixed."""
        p = None
        for i, comp in enumerate(self.components):
            if not comp:
                continue
            cp = comp.parity()
            if cp is None:
                return None
            fp = cp ^ (0 if i < 2 else 1)
            if p is None:
                p = fp
            elif p != fp:
                return None
        return 0 if p is None else p

    def apply(self, sym: Symbol) -> Symbol:
        out = SYM_ZERO
        for i, comp in enumerate(self.components):
            if comp:
                out = out + comp * sym.derive(VAR_NAMES[i])
        return out

    def commutator(self, other: "SuperVectorField") -> "SuperVectorField":
        """Super commutator [X, Y] = XY - (-1)^(p(X)p(Y)) YX."""
        p1, p2 = self.parity(), other.parity()
        if p1 is None or p2 is None:
            raise MixedParityError("commutator needs definite-parity fields")
        sign = -1 if p1 and p2 else 1
        comps = []
        for i in range(6):
            term = self.apply(other.components[i])
            back = other.apply(self.components[i])
            comps.append(term - back if sign > 0 else term + back)
        return SuperVectorField(comps)

    def __str__(self):
        parts = [
            "(%s) d/d%s" % (comp, VAR_NAMES[i])
            for i, comp in enumerate(self.components)
            if comp
        ]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "SuperVectorField(%s)" % (self,)


def hamiltonian_field(sym: Symbol) -> SuperVectorField:
    """Hamiltonian super vector field of a definite-parity symbol.

    H_A = dA/dtau d/dt - dA/dt d/dtau
          - (-1)^p(A) sum_i (dA/dxi_i d/deta_i + dA/deta_i d/dxi_i)
    """
    p = sym.parity()
    if p is None:
        raise MixedParityError("hamiltonian field of a mixed-parity symbol")
    sign = S_ONE if p else -S_ONE
    return SuperVectorField(
        [
            sym.derive("tau"),
            -sym.derive("t"),
            sym.derive("eta1") * sign,
            sym.derive("eta2") * sign,
            sym.derive("xi1") * sign,
            sym.derive("xi2") * sign,
        ]
    )


def euler_field() -> SuperVectorField:
    """t d/dt + tau d/dtau + sum_i (xi_i d/dxi_i + eta_i d/deta_i)."""
    return SuperVectorField([Symbol.generator(name) for name in VAR_NAMES])


def random_monomial(rng, span=4, grassmann=True, beta=0, h=0) -> Symbol:
    """Uniform-ish random monomial for property tests."""
    mask = rng.randrange(16) if grassmann else 0
    coeff = Fraction(rng.randrange(-6, 7) or 1, rng.randrange(1, 4))
    return Symbol.monomial(
        t=rng.randrange(-span, span + 1),
        tau=rng.randrange(-span, span + 1),
        mask=mask,
        beta=rng.randrange(beta + 1) if beta else 0,
        h=rng.randrange(h + 1) if h else 0,
        coeff=coeff,
    )
