"""Term kernel of the sparse symbol algebra.

A term map is a dict from monomial keys (t_exp, tau_exp, grassmann_mask,
beta_exp, h_exp) to nonzero coefficient objects.  Coefficients only need
ring operations (+, *, unary -, truthiness and multiplication by ints), so
the kernel works unchanged for specialized and symbolic scalars.

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
            if m1 & m2:
                continue
            sign = merge_sign(m1, m2)
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


def poisson_terms(a: dict, b: dict) -> dict:
    """Poisson superbracket of term maps.

    {A, B} = dA/dtau dB/dt - dA/dt dB/dtau
             + (-1)^(p(A)+1) * sum_i (dA/dxi_i dB/deta_i + dA/deta_i dB/dxi_i)

    An inhomogeneous A is split into parity parts first.  beta and h
    exponents ride along untouched.
    """
    if not a or not b:
        return {}
    db = [derive_terms(b, v) for v in range(6)]
    out: dict = {}
    for part, sign in zip(parity_split(a), (-1, 1)):
        if not part:
            continue
        res = add_terms(
            mul_terms(derive_terms(part, 1), db[0]),
            neg_terms(mul_terms(derive_terms(part, 0), db[1])),
        )
        gr: dict = {}
        for i in range(2):
            gr = add_terms(gr, mul_terms(derive_terms(part, 2 + i), db[4 + i]))
            gr = add_terms(gr, mul_terms(derive_terms(part, 4 + i), db[2 + i]))
        if sign < 0:
            gr = neg_terms(gr)
        out = add_terms(out, add_terms(res, gr))
    return out


def moyal_terms(a: dict, b: dict) -> dict:
    """Normal-ordered product of the h-deformed symbol algebra.

    The (t, tau) part multiplies through the star sum
    sum_n h^n/n! d^n_tau A d^n_t B (finite because tau exponents are
    nonnegative here), the Grassmann parts through the deformed exterior
    relations.  Every stored monomial means the normal-ordered word
    t^a tau^b xi... eta... .
    """
    out: dict = {}
    for (t1, u1, m1, b1, h1), c1 in a.items():
        if u1 < 0:
            raise ValueError("star product needs nonnegative tau exponents")
        s1 = m1 & XI_MASK
        e1 = m1 >> ETA_SHIFT
        for (t2, u2, m2, b2, h2), c2 in b.items():
            s2 = m2 & XI_MASK
            e2 = m2 >> ETA_SHIFT
            c0 = c1 * c2
            for xi_out, eta_out, hp, exc in EXCHANGE[(e1, s2)]:
                if s1 & xi_out or e2 & eta_out:
                    continue
                sg = merge_sign(s1, xi_out) * merge_sign(eta_out << ETA_SHIFT, e2 << ETA_SHIFT)
                mask = (s1 | xi_out) | ((eta_out | e2) << ETA_SHIFT)
                base = exc * sg
                for n in range(u1 + 1):
                    factor = comb(u1, n)
                    for i in range(n):
                        factor *= t2 - i
                    if not factor:
                        continue
                    key = (t1 + t2 - n, u1 + u2 - n, mask, b1 + b2, h1 + h2 + hp + n)
                    c = c0 * (base * factor)
                    if key in out:
                        nv = out[key] + c
                        if nv:
                            out[key] = nv
                        else:
                            del out[key]
                    elif c:
                        out[key] = c
    return out
