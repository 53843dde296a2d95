"""Term kernel of the sparse symbol algebra.

A term map is a dict from monomial keys (t_exp, tau_exp, grassmann_mask,
beta_exp, h_exp) to nonzero coefficients.  The map sums, negation, integer
multiples (``scale_terms``) and derivatives (``derive_terms``) use only
ring operations on them (+, *, unary -, truthiness and multiplication by
ints), so they run on int maps as well as on ``Scalar`` ones; ``sub_terms``
also uses ==, and drops a key whose two coefficients are equal without
subtracting them, as coefficients are canonical, so unequal ones differ by
a nonzero.

Products and brackets walk pairs of terms on int coefficients and build no
``Scalar``, reading Koszul signs from tables built at import from
``merge_sign`` and the left-derivative rule: the supercommutative product
(``_mul_walk``), the Poisson bracket (``_poisson_walk``), in closed form,
one product of two ints and at most five integer-weighted terms per pair,
and the star product and the h-bracket (``_star_walk``).  They run over
pairs of alpha-power layers: int maps over one denominator, given as the
triple (layers, d, den) of ``scalars.split_layers``.  Given two layer
triples, ``mul_terms``, ``poisson_terms``, ``moyal_terms`` and
``h_bracket_terms`` walk and return the result's layer triple unfolded:
that is how ``symbols`` and ``quantize`` call them, and the fold is left to
whoever reads the coefficients (``symbols.Symbol.terms``).  Given two term
maps they split them, walk, and fold each output key back once into a
canonical ``Scalar`` (``scalars.fold_layers``), so a term map comes out;
the library no longer calls them that way, but the benchmark's kernel
timings (``benchmarks/bench_kernel.py``, ``perfbench/micro.py``) do.

Callers go through the module attribute (``kernel.poisson_terms(...)``),
never a name imported from here, so the functions can be wrapped on the
module for tracing.
"""

from __future__ import annotations

from math import comb

from ._exchange import EXCHANGE
from .scalars import fold_layers, split_layers

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


def sub_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, coeff in b.items():
        if key in out:
            old = out[key]
            if old == coeff:
                del out[key]
            else:
                out[key] = old - coeff
        else:
            out[key] = -coeff
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
            sign = _MERGE[r1][r2]
            if not sign:
                continue
            if ((m1 & (fa - 1)).bit_count() + (m2 & (fb - 1)).bit_count()) & 1:
                sign = -sign
            if not m1.bit_count() & 1:
                sign = -sign
            out[r1 | r2] = out.get(r1 | r2, 0) + sign
    return tuple((mask, sign) for mask, sign in out.items() if sign)


_MASKS = range(1 << NGEN)
# indexed [m1][m2]; merge signs of m1 m2 (0 on overlap), contractions as above
_MERGE = tuple(tuple(merge_sign(m1, m2) for m2 in _MASKS) for m1 in _MASKS)
_CONTRACTIONS = tuple(tuple(_contractions(m1, m2) for m2 in _MASKS) for m1 in _MASKS)


def _mul_walk(out: dict, a: dict, b: dict) -> None:
    """Add the pairwise supercommutative products of A and B into ``out``;
    all three carry int coefficients.  Overlapping Grassmann masks give 0,
    and the merge sign reorders the rest into the generator order."""
    for (t1, u1, m1, b1, h1), c1 in a.items():
        merges = _MERGE[m1]
        for (t2, u2, m2, b2, h2), c2 in b.items():
            sign = merges[m2]
            if not sign:
                continue
            key = (t1 + t2, u1 + u2, m1 | m2, b1 + b2, h1 + h2)
            nv = out.get(key, 0) + c1 * c2 * sign
            if nv:
                out[key] = nv
            else:
                del out[key]


def _poisson_walk(out: dict, a: dict, b: dict) -> None:
    """Add the pairwise Poisson superbrackets of A and B into ``out``; all
    three carry int coefficients, and it builds no Scalar.

    {A, B} = dA/dtau dB/dt - dA/dt dB/dtau
             + (-1)^(p(A)+1) * sum_i (dA/dxi_i dB/deta_i + dA/deta_i dB/dxi_i)

    Evaluated in closed form on each pair of terms c1 t^t1 tau^u1 g1 and
    c2 t^t2 tau^u2 g2 (g1, g2 ordered Grassmann monomials): the even part is
    (u1 t2 - t1 u2) c1 c2 t^(t1+t2-1) tau^(u1+u2-1) g1 g2, and each of the
    at most four contractions gives +-c1 c2 t^(t1+t2) tau^(u1+u2) times the
    contracted word (signs tabulated by mask pair in ``_CONTRACTIONS``).
    Inhomogeneous A needs no splitting, since the parity factor is taken
    per term; beta and h exponents ride along untouched.
    """
    for (t1, u1, m1, b1, h1), c1 in a.items():
        merges = _MERGE[m1]
        contractions = _CONTRACTIONS[m1]
        for (t2, u2, m2, b2, h2), c2 in b.items():
            w = (u1 * t2 - t1 * u2) * merges[m2]
            cs = contractions[m2]
            if not (w or cs):
                continue
            c0 = c1 * c2
            t, u, be, hh = t1 + t2, u1 + u2, b1 + b2, h1 + h2
            if w:
                key = (t - 1, u - 1, m1 | m2, be, hh)
                nv = out.get(key, 0) + c0 * w
                if nv:
                    out[key] = nv
                else:
                    del out[key]
            for mask, s in cs:
                key = (t, u, mask, be, hh)
                nv = out.get(key, 0) + c0 * s
                if nv:
                    out[key] = nv
                else:
                    del out[key]


def _star_tables():
    """Grassmann parts of the star product, tabulated by mask pair.

    For unit monomials g1 = xi-block s1 then eta-block e1, and g2 likewise,
    the normal-ordered word g1 g2 is a few (mask, h power, sign) outcomes:
    e1 s2 is rewritten by ``EXCHANGE`` and the outer blocks merge in with
    their Koszul signs.  Three tables [m1][m2] -> (outcomes at n = 0,
    outcomes at n >= 1) are returned: the product, the h-bracket's A B, and
    its B A with every sign also times -(-1)^(p p') of the two parities.
    The h-bracket tables leave out the n = 0 outcomes of h power 0: they
    are the supercommutative product, so the two orders cancel them pair
    by pair.
    """
    tables = ([], [], [])
    cells: dict = {}  # (outcomes, flip) -> the three cells, each stored once
    for m1 in _MASKS:
        s1, e1, p1 = m1 & XI_MASK, m1 >> ETA_SHIFT, m1.bit_count() & 1
        merge_xi = _MERGE[s1]
        rows = ([], [], [])
        for m2 in _MASKS:
            eta2 = m2 & ~XI_MASK
            outcomes = []
            for xi_out, eta_out, hp, exc in EXCHANGE[(e1, m2 & XI_MASK)]:
                sign = exc * merge_xi[xi_out] * _MERGE[eta_out << ETA_SHIFT][eta2]
                if sign:
                    outcomes.append((s1 | xi_out | eta_out << ETA_SHIFT | eta2, hp, sign))
            key = (tuple(outcomes), 1 if p1 & m2.bit_count() else -1)
            if key not in cells:
                out, flip = key
                back = tuple((mask, hp, sign * flip) for mask, hp, sign in out)
                cells[key] = ((out, out), (tuple(o for o in out if o[1]), out),
                              (tuple(o for o in back if o[1]), back))
            for row, cell in zip(rows, cells[key]):
                row.append(cell)
        for table, row in zip(tables, rows):
            table.append(tuple(row))
    return tuple(tuple(table) for table in tables)


_PRODUCT, _BRACKET, _BRACKET_BACK = _star_tables()

# (u1, t2) -> ((n, comb(u1, n) t2 (t2 - 1) ... (t2 - n + 1)), ...) over the
# 1 <= n <= u1 with nonzero weight; filled on first use, and small, since
# exponents stay within the scanned windows
_WEIGHTS: dict = {}


def _weights(u1: int, t2: int) -> tuple:
    out = []
    falling = 1
    for n in range(1, u1 + 1):
        falling *= t2 - n + 1
        if not falling:
            break
        out.append((n, comb(u1, n) * falling))
    out = _WEIGHTS[(u1, t2)] = tuple(out)
    return out


def _star_walk(out: dict, a: dict, b: dict, table: tuple, shift: int) -> None:
    """Add the pairwise star products of A and B, times h^shift, into
    ``out``; all three carry int coefficients.  Scalar maps reach it one
    pair of alpha-power layers at a time, through ``_layer_walk``; it
    builds no Scalar.

    The (t, tau) part multiplies through the star sum
    sum_n h^n/n! d^n_tau A d^n_t B (finite because tau exponents are
    nonnegative here), with the weights comb(u1, n) t2 (t2 - 1) ...
    (t2 - n + 1) cached per (u1, t2).  The Grassmann part is read from
    ``table`` per mask pair, as built by ``_star_tables``, with every sign
    folded in.  Every stored monomial means the normal-ordered word
    t^a tau^b xi... eta... .
    """
    for (t1, u1, m1, b1, h1), c1 in a.items():
        if u1 < 0:
            raise ValueError("star product needs nonnegative tau exponents")
        row = table[m1]
        for (t2, u2, m2, b2, h2), c2 in b.items():
            first, outcomes = row[m2]
            if not outcomes:
                continue
            c0 = c1 * c2
            t, u, be, hh = t1 + t2, u1 + u2, b1 + b2, h1 + h2 + shift
            for mask, hp, s in first:
                key = (t, u, mask, be, hh + hp)
                nv = out.get(key, 0) + c0 * s
                if nv:
                    out[key] = nv
                else:
                    del out[key]
            if not (u1 and t2):
                continue
            for n, w in _WEIGHTS.get((u1, t2)) or _weights(u1, t2):
                cw = c0 * w
                for mask, hp, s in outcomes:
                    key = (t - n, u - n, mask, be, hh + hp + n)
                    nv = out.get(key, 0) + cw * s
                    if nv:
                        out[key] = nv
                    else:
                        del out[key]


def _h_bracket_walk(out: dict, a: dict, b: dict) -> None:
    """A B and then B A, with the back-order signs, into one int map."""
    _star_walk(out, a, b, _BRACKET, -1)
    _star_walk(out, b, a, _BRACKET_BACK, -1)


def _layer_walk(a: tuple, b: tuple, walk, *args) -> tuple:
    """``walk`` on alpha-power layers (``scalars.split_layers`` triples):
    per pair of layers of A and B, one walk on ints into the layer of the
    sum of their powers.  Returns the result's layers, unfolded and none
    of them empty; they are fresh dicts, and the operands' are only read."""
    la, da, pa = a
    lb, db, pb = b
    layers: dict = {}
    for ea, ta in la.items():
        for eb, tb in lb.items():
            walk(layers.setdefault(ea + eb, {}), ta, tb, *args)
    if not all(layers.values()):
        layers = {e: layer for e, layer in layers.items() if layer}
    return layers, da * db, pa * pb if pa and pb else pa or pb


def _layered(a, b, walk, *args):
    """Term maps in, a folded term map out; layer triples in, layers out."""
    if isinstance(a, dict):
        return fold_layers(*_layer_walk(split_layers(a), split_layers(b), walk, *args))
    return _layer_walk(a, b, walk, *args)


def mul_terms(a, b):
    """Supercommutative product (``_mul_walk``).  Operands and result as
    for ``poisson_terms``."""
    return _layered(a, b, _mul_walk)


def poisson_terms(a, b):
    """Poisson superbracket (``_poisson_walk``).  Of two term maps, a term
    map; of two layer triples, the bracket's layers, unfolded (module
    docstring)."""
    return _layered(a, b, _poisson_walk)


def moyal_terms(a, b):
    """Normal-ordered product of the h-deformed symbol algebra.  Operands
    and result as for ``poisson_terms``."""
    return _layered(a, b, _star_walk, _PRODUCT, 0)


def h_bracket_terms(a, b):
    """[A, B]_h = (A B - (-1)^(p(A)p(B)) B A)/h: walks over (A, B) and
    (B, A) into one map, the back-order sign taken per pair of terms, so
    mixed parity needs no split; the h^0 part is never emitted.  Operands
    and result as for ``poisson_terms``."""
    return _layered(a, b, _h_bracket_walk)
