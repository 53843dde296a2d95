"""The h-deformed associative superalgebra of differential-operator symbols.

Symbols here are read as normal-ordered words: every stored monomial means
t^a (star) tau^b with all xi's left of all eta's.  The product combines the
star product on the (t, tau) part,

    A oh B = sum_{n >= 0} h^n/n! d^n_tau A d^n_t B,

with the deformed exterior relations xi_i xi_j = -xi_j xi_i,
eta_i eta_j = -eta_j eta_i, eta_i xi_j = h delta_ij - xi_j eta_i.  The
h-bracket [A, B]_h = (A B -+ B A)/h contracts to the Poisson bracket at
h = 0; h is a formal central variable, so identities checked here hold for
every numeric value of it.  Product and h-bracket are one walk in
``kernel``, on int coefficients one alpha power at a time, with the
Grassmann outcomes tabulated per pair of masks; the h-bracket never emits
the h^0 part, which the two orders cancel term pair by term pair.

Both return an unfolded ``Symbol``: the walk's int layers, folded into
Scalars only when the result's ``terms`` are first read.  A product used
as a star operand, or added to or subtracted from another such product
over integer denominators, is not folded; so ``(A B) C - A (B C)`` folds
nothing when the residual is zero, and ``contract`` of an h-bracket folds
only its h-free keys.  Operands are passed as layers (``Symbol.layers``),
through the module attribute ``kernel.moyal_terms``
(``kernel.h_bracket_terms``), so a tracer wrapped on it counts every
product.

tau exponents must be nonnegative (differential operators); t stays Laurent.
"""

from __future__ import annotations

from functools import lru_cache

from . import kernel
from .scalars import ALPHA, S_HALF, S_ONE
from .symbols import SYM_ZERO, Symbol


def moyal_mul(a: Symbol, b: Symbol) -> Symbol:
    """Associative normal-ordered product."""
    return Symbol.from_layers(kernel.moyal_terms(a.layers(), b.layers()))


def h_bracket(a: Symbol, b: Symbol) -> Symbol:
    """[A, B]_h = (1/h)(A B - (-1)^(p(A)p(B)) B A); the division is exact."""
    layers = kernel.h_bracket_terms(a.layers(), b.layers())
    out = Symbol.from_layers(layers)
    for layer in layers[0].values():
        for key in layer:
            if key[4] < 0:
                t, u, m, be, h = key
                raise RuntimeError(
                    "h-commutator produced an h-free term %s; product broken"
                    % (Symbol({(t, u, m, be, h + 1): out.terms[key]}),)
                )
    return out


def contract(a: Symbol) -> Symbol:
    """Set h = 0: the classical symbol underneath."""
    return a.without_h()


def check_contraction(a: Symbol, b: Symbol) -> bool:
    """contract([A, B]_h) = {contract A, contract B}."""
    lhs = contract(h_bracket(a, b))
    rhs = contract(a).poisson(contract(b))
    return lhs == rhs


def _word(*parts: Symbol) -> Symbol:
    out = parts[0]
    for p in parts[1:]:
        out = moyal_mul(out, p)
    return out


def _mono(t=0, tau=0, mask=0, h=0, coeff=1):
    return Symbol.monomial(t=t, tau=tau, mask=mask, h=h, coeff=coeff)


@lru_cache(maxsize=None)
def gamma_h_basis():
    """The 17 generators of the deformed copy of D(2,1;alpha).

    Everything is transcribed in normal order except the last two odd
    elements, whose defining words put the etas first; those are built by
    actually multiplying the word out, which picks up the h-corrections
    eta1 eta2 xi2 = xi2 eta1 eta2 + h eta1 (and likewise for the mirror).
    At h = 0 the basis contracts to the classical one.
    """
    a = ALPHA
    xi1, xi2 = _mono(mask=0b0001), _mono(mask=0b0010)
    eta1, eta2 = _mono(mask=0b0100), _mono(mask=0b1000)
    t_inv = _mono(t=-1)
    basis = {
        "E1": _mono(t=2),
        "H1": _mono(t=1, tau=1) + _mono(h=1, coeff=(S_ONE + a) * S_HALF),
        "F1": _mono(tau=2)
        - (
            _mono(t=-2, mask=0b1111, coeff=2)
            + _mono(t=-2, mask=0b0101, h=1)
            + _mono(t=-2, mask=0b1010, h=1)
            - _mono(t=-1, tau=1, h=1)
        )
        * a,
        "E2": _mono(mask=0b0011),
        "H2": _mono(mask=0b0101) + _mono(mask=0b1010) - _mono(h=1),
        "F2": _mono(mask=0b1100),
        "E3": _mono(mask=0b1001),
        "H3": _mono(mask=0b0101) - _mono(mask=0b1010),
        "F3": _mono(mask=0b0110),
        "T1": _mono(t=1, mask=0b0100),
        "T2": _mono(t=1, mask=0b1000),
        "T3": _mono(t=1, mask=0b0001),
        "T4": _mono(t=1, mask=0b0010),
        "D1": _mono(tau=1, mask=0b0001) + _mono(t=-1, mask=0b1011, coeff=a),
        "D2": _mono(tau=1, mask=0b0010) - _mono(t=-1, mask=0b0111, coeff=a),
        "D3": _mono(tau=1, mask=0b0100) + _word(t_inv, eta1, eta2, xi2) * a,
        "D4": _mono(tau=1, mask=0b1000) - _word(t_inv, eta1, eta2, xi1) * a,
    }
    return basis


def verify_h_structure_match():
    """Check [X, Y]_h closes on the deformed basis with the classical
    structure constants (independent of h).  Returns None or a mismatch."""
    from .d21 import BASIS_NAMES, structure_table

    basis = gamma_h_basis()
    table = structure_table()
    for x in BASIS_NAMES:
        for y in BASIS_NAMES:
            lhs = h_bracket(basis[x], basis[y])
            rhs = SYM_ZERO
            for name, coeff in table[(x, y)].items():
                rhs = rhs + basis[name] * coeff
            if lhs != rhs:
                return (x, y), lhs, rhs
    return None
