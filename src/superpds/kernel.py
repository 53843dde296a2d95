"""Term kernel of the sparse symbol algebra.

A term map is a dict from monomial keys (t_exp, tau_exp, grassmann_mask,
beta_exp, h_exp) to nonzero coefficient objects.  Coefficients only need
ring operations (+, *, unary -, truthiness and multiplication by ints), so
the kernel works unchanged for specialized and symbolic scalars.

Brackets and products walk pairs of terms, reading Koszul signs from
tables built at import from ``merge_sign`` and the left-derivative rule.
The Poisson bracket of two monomials is closed form: one coefficient product
and at most five integer-weighted terms.  The star product and the
h-bracket are one walk, ``_star_walk``.

Callers go through the module attribute (``kernel.poisson_terms(...)``),
never a name imported from here, so the functions can be wrapped on the
module for tracing.
"""

from __future__ import annotations

from math import comb

from ._exchange import EXCHANGE

IMPLEMENTATION = "python"  # recorded with every benchmark run

NGEN = 4  # xi1, xi2, eta1, eta2
XI_MASK = 0b0011
ETA_SHIFT = 2


def merge_sign(m1: int, m2: int) -> int:
    """Koszul sign for merging two ordered Grassmann blocks; 0 on overlap."""
    if m1 & m2:
        return 0
    swaps = 0
    for j in range(NGEN):
        if m2 >> j & 1:
            swaps += (m1 >> (j + 1)).bit_count()
    return -1 if swaps & 1 else 1


def add_terms(a: dict, b: dict) -> dict:
    if not b:
        return dict(a)
    out = dict(a)
    for key, coeff in b.items():
        if key in out:
            nv = out[key] + coeff
            if nv:
                out[key] = nv
            else:
                del out[key]
        else:
            out[key] = coeff
    return out


def neg_terms(a: dict) -> dict:
    return {key: -coeff for key, coeff in a.items()}


def scale_terms(a: dict, factor) -> dict:
    if not factor:
        return {}
    out = {}
    for key, coeff in a.items():
        nv = coeff * factor
        if nv:
            out[key] = nv
    return out


def mul_terms(a: dict, b: dict) -> dict:
    out: dict = {}
    for (t1, u1, m1, b1, h1), c1 in a.items():
        for (t2, u2, m2, b2, h2), c2 in b.items():
            sign = _MERGE[m1][m2]
            if not sign:
                continue
            key = (t1 + t2, u1 + u2, m1 | m2, b1 + b2, h1 + h2)
            c = c1 * c2
            if sign < 0:
                c = -c
            if key in out:
                nv = out[key] + c
                if nv:
                    out[key] = nv
                else:
                    del out[key]
            elif c:
                out[key] = c
    return out


def derive_terms(a: dict, var: int) -> dict:
    """Partial derivative; var 0 = t, 1 = tau, 2..5 = Grassmann bits 0..3.

    Grassmann derivatives act from the left: the generator is moved to the
    front of the ordered monomial (one sign per transposition) and removed.
    """
    out: dict = {}
    if var == 0:
        for (t, u, m, be, h), c in a.items():
            if t:
                out[(t - 1, u, m, be, h)] = c * t
    elif var == 1:
        for (t, u, m, be, h), c in a.items():
            if u:
                out[(t, u - 1, m, be, h)] = c * u
    else:
        bit = var - 2
        flag = 1 << bit
        below = flag - 1
        for (t, u, m, be, h), c in a.items():
            if m & flag:
                if (m & below).bit_count() & 1:
                    c = -c
                out[(t, u, m & ~flag, be, h)] = c
    return out


def parity_split(a: dict):
    """Split into (even, odd) parts by Grassmann degree mod 2."""
    even: dict = {}
    odd: dict = {}
    for key, coeff in a.items():
        if key[2].bit_count() & 1:
            odd[key] = coeff
        else:
            even[key] = coeff
    return even, odd


def _contractions(m1: int, m2: int) -> tuple:
    """Grassmann part of the bracket of two monomials with masks m1, m2.

    (-1)^(p(A)+1) sum_i (dA/dxi_i dB/deta_i + dA/deta_i dB/dxi_i) on unit
    monomials, as (mask, sign) pairs with coinciding masks summed: each
    contraction removes xi_i (eta_i) from the left factor and eta_i (xi_i)
    from the right one, with both left-derivative signs and the merge sign.
    """
    out: dict = {}
    for i in range(ETA_SHIFT):  # xi_i is bit i, eta_i bit i + ETA_SHIFT
        for ga, gb in ((i, i + ETA_SHIFT), (i + ETA_SHIFT, i)):
            fa, fb = 1 << ga, 1 << gb
            if not (m1 & fa and m2 & fb):
                continue
            r1, r2 = m1 ^ fa, m2 ^ fb
            sign = merge_sign(r1, r2)
            if not sign:
                continue
            if ((m1 & (fa - 1)).bit_count() + (m2 & (fb - 1)).bit_count()) & 1:
                sign = -sign
            if not m1.bit_count() & 1:
                sign = -sign
            out[r1 | r2] = out.get(r1 | r2, 0) + sign
    return tuple((mask, sign) for mask, sign in out.items() if sign)


_MASKS = range(1 << NGEN)
# indexed [m1][m2]; contractions as above, merge signs of m1 m2 (0 on overlap)
_CONTRACTIONS = tuple(tuple(_contractions(m1, m2) for m2 in _MASKS) for m1 in _MASKS)
_MERGE = tuple(tuple(merge_sign(m1, m2) for m2 in _MASKS) for m1 in _MASKS)


def poisson_terms(a: dict, b: dict) -> dict:
    """Poisson superbracket of term maps.

    {A, B} = dA/dtau dB/dt - dA/dt dB/dtau
             + (-1)^(p(A)+1) * sum_i (dA/dxi_i dB/deta_i + dA/deta_i dB/dxi_i)

    Evaluated in closed form on each pair of terms c1 t^t1 tau^u1 g1 and
    c2 t^t2 tau^u2 g2 (g1, g2 ordered Grassmann monomials): the even part is
    (u1 t2 - t1 u2) c1 c2 t^(t1+t2-1) tau^(u1+u2-1) g1 g2, and each of the
    at most four contractions gives +-c1 c2 t^(t1+t2) tau^(u1+u2) times the
    contracted word (signs tabulated by mask pair in ``_CONTRACTIONS``).
    A pair costs one coefficient product and one small-integer multiple
    per term.  Inhomogeneous A needs no splitting, since the parity factor
    is taken per term; beta and h exponents ride along untouched.
    """
    out: dict = {}
    for (t1, u1, m1, b1, h1), c1 in a.items():
        merges = _MERGE[m1]
        contractions = _CONTRACTIONS[m1]
        for (t2, u2, m2, b2, h2), c2 in b.items():
            t, u, be, hh = t1 + t2, u1 + u2, b1 + b2, h1 + h2
            w = (u1 * t2 - t1 * u2) * merges[m2]
            terms = [((t - 1, u - 1, m1 | m2, be, hh), w)] if w else []
            terms += [((t, u, mask, be, hh), s) for mask, s in contractions[m2]]
            if not terms:
                continue
            c0 = c1 * c2
            for key, w in terms:
                c = c0 if w == 1 else -c0 if w == -1 else c0 * w
                if key in out:
                    nv = out[key] + c
                    if nv:
                        out[key] = nv
                    else:
                        del out[key]
                elif c:
                    out[key] = c
    return out


def _star_walk(out: dict, a: dict, b: dict, shift: int = 0, back: bool = False) -> None:
    """Add A B h^shift into ``out``.  The (t, tau) part multiplies through
    the star sum sum_n h^n/n! d^n_tau A d^n_t B (finite because tau exponents
    are nonnegative here), the Grassmann parts through the deformed exterior
    relations.  Every stored monomial means the normal-ordered word
    t^a tau^b xi... eta... .  With ``back`` each pair of terms also takes the
    sign -(-1)^(p p') of its Grassmann parities.
    """
    for (t1, u1, m1, b1, h1), c1 in a.items():
        if u1 < 0:
            raise ValueError("star product needs nonnegative tau exponents")
        s1 = m1 & XI_MASK
        e1 = m1 >> ETA_SHIFT
        for (t2, u2, m2, b2, h2), c2 in b.items():
            s2 = m2 & XI_MASK
            eta2 = m2 & ~XI_MASK
            flip = -1 if back and not (m1.bit_count() & m2.bit_count() & 1) else 1
            c0 = c1 * c2
            for xi_out, eta_out, hp, exc in EXCHANGE[(e1, s2)]:
                sg = _MERGE[s1][xi_out] * _MERGE[eta_out << ETA_SHIFT][eta2]
                if not sg:
                    continue
                mask = s1 | xi_out | eta_out << ETA_SHIFT | eta2
                base = exc * sg * flip
                hh = h1 + h2 + hp + shift
                for n in range(u1 + 1):
                    factor = comb(u1, n)
                    for i in range(n):
                        factor *= t2 - i
                    if not factor:
                        continue
                    key = (t1 + t2 - n, u1 + u2 - n, mask, b1 + b2, hh + n)
                    w = base * factor
                    c = c0 if w == 1 else -c0 if w == -1 else c0 * w
                    if key in out:
                        nv = out[key] + c
                        if nv:
                            out[key] = nv
                        else:
                            del out[key]
                    elif c:
                        out[key] = c


def moyal_terms(a: dict, b: dict) -> dict:
    """Normal-ordered product of the h-deformed symbol algebra."""
    out: dict = {}
    _star_walk(out, a, b)
    return out


def h_bracket_terms(a: dict, b: dict) -> dict:
    """[A, B]_h = (A B - (-1)^(p(A)p(B)) B A)/h: walks over (A, B) and
    (B, A) into one map, the back-order sign taken per pair of terms, so
    mixed parity needs no split; the h^0 part cancels there."""
    out: dict = {}
    _star_walk(out, a, b, -1)
    _star_walk(out, b, a, -1, back=True)
    return out
