"""The 17-dimensional family D(2,1;alpha) = Gamma(sigma1, sigma2, sigma3).

Two realizations live here:

* the abstract superalgebra on sp(2)^3 + V1xV2xV3, with structure constants
  generated from the invariant pairings Phi_i (so the table is derived, not
  typed in), valid for any parameter triple and super-Jacobi exactly when
  sigma1 + sigma2 + sigma3 = 0;
* the concrete basis inside the symbol algebra, for the triple
  (2, -1-alpha, alpha-1), spanning a copy of the derived contact
  superconformal algebra K'(4) in k-degree 2.

The isomorphism between the two multiplies the odd part by the constant
sqrt(2)i.  ``verify_iso`` tracks that factor by parity, so every coefficient
stays in Q(alpha).

Both super-Jacobi checks take one triple per cyclic orbit, numbered in
lexicographic order (``_orbit_terms``), and check all orbits in one pass;
the first failing orbit is the first failing triple of the full
lexicographic scan.  ``jacobi_check_abstract`` sums each orbit's J on the
ints of the table, split once over one common denominator D: every product
carries the same nonzero 1/D^2, so an int sum is zero exactly when J is.
``jacobi_check_embedded`` tags orbit o with beta^o, which is central and
never differentiated, so 2 n brackets for n names give every orbit's J as
its own beta slice, independent of the others; the lowest tag of a nonzero
sum is the first failing orbit.  That orbit's residual is computed from
its three terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations
from math import lcm as int_lcm

from . import kernel
from .scalars import ALPHA, POLY_ONE, S_ONE, S_ZERO, Scalar, split_layers
from .symbols import Symbol

EVEN_NAMES = ("E1", "F1", "H1", "E2", "F2", "H2", "E3", "F3", "H3")
ODD_NAMES = ("T1", "T2", "T3", "T4", "D1", "D2", "D3", "D4")
BASIS_NAMES = EVEN_NAMES + ODD_NAMES
PARITY = {name: (0 if name in EVEN_NAMES else 1) for name in BASIS_NAMES}

def _mono(t=0, tau=0, mask=0, coeff=1):
    return Symbol.monomial(t=t, tau=tau, mask=mask, coeff=coeff)


@lru_cache(maxsize=None)
def embedded_basis():
    """The named spanning set of Gamma_alpha inside the symbol algebra.

    Masks collect the exterior generators in the fixed order
    (xi1, xi2, eta1, eta2) -> bits (0, 1, 2, 3).
    """
    a = ALPHA
    basis = {
        "E1": _mono(t=2),
        "F1": _mono(tau=2) + _mono(t=-2, mask=0b1111, coeff=-2 * a),
        "H1": _mono(t=1, tau=1),
        "E2": _mono(mask=0b0011),
        "F2": _mono(mask=0b1100),
        "H2": _mono(mask=0b0101) + _mono(mask=0b1010),
        "E3": _mono(mask=0b1001),
        "F3": _mono(mask=0b0110),
        "H3": _mono(mask=0b0101) + _mono(mask=0b1010, coeff=-1),
        "T1": _mono(t=1, mask=0b0100),
        "T2": _mono(t=1, mask=0b1000),
        "T3": _mono(t=1, mask=0b0001),
        "T4": _mono(t=1, mask=0b0010),
        "D1": _mono(tau=1, mask=0b0001) + _mono(t=-1, mask=0b1011, coeff=a),
        "D2": _mono(tau=1, mask=0b0010) + _mono(t=-1, mask=0b0111, coeff=-a),
        "D3": _mono(tau=1, mask=0b0100) + _mono(t=-1, mask=0b1110, coeff=a),
        "D4": _mono(tau=1, mask=0b1000) + _mono(t=-1, mask=0b1101, coeff=-a),
    }
    return basis


def basis_metadata():
    """(parity, n-degree, weight) per basis name, read off the symbols."""
    out = {}
    for name, sym in embedded_basis().items():
        k, n, w = sym.gradings()
        if k != 2 or n is None or w is None:
            raise AssertionError("basis element %s is not bihomogeneous" % name)
        out[name] = (PARITY[name], n, w)
    return out


# ---------------------------------------------------------------------------
# Abstract Gamma(sigma1, sigma2, sigma3)
# ---------------------------------------------------------------------------

# Even abstract names: ("Phi", factor, a, b) with (a, b) in {(1,1),(1,2),(2,2)}
# for the symmetric pairing values Phi_factor(v_a, v_b).  Odd names:
# ("v", a, b, c) for the pure tensor with indices a, b, c in {1, 2}.

EVEN_ABSTRACT = tuple(
    ("Phi", i, a, b) for i in (1, 2, 3) for (a, b) in ((1, 1), (1, 2), (2, 2))
)
ODD_ABSTRACT = tuple(
    ("v", a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)
)
ABSTRACT_NAMES = EVEN_ABSTRACT + ODD_ABSTRACT


def _psi(a: int, b: int) -> int:
    """Skew pairing with psi(v1, v2) = 1 on each two-dimensional factor."""
    if a == b:
        return 0
    return 1 if (a, b) == (1, 2) else -1


def _phi_matrix(a: int, b: int):
    """Action matrix of Phi(v_a, v_b) on the standard basis (v1, v2)."""
    mat = [[0, 0], [0, 0]]
    for z in (1, 2):
        # Phi(x, y) z = psi(y, z) x - psi(z, x) y
        mat[a - 1][z - 1] += _psi(b, z)
        mat[b - 1][z - 1] -= _psi(z, a)
    return mat


def _expand_sp(mat):
    """Write a traceless 2x2 matrix in the Phi(1,1), Phi(1,2), Phi(2,2) basis."""
    if mat[0][0] + mat[1][1] != 0:
        raise AssertionError("not traceless: %r" % (mat,))
    return {
        (1, 1): Fraction(mat[0][1], 2),
        (1, 2): Fraction(-mat[0][0]),
        (2, 2): Fraction(-mat[1][0], 2),
    }


def _add_into(acc: dict, name, coeff: Scalar):
    if not coeff:
        return
    cur = acc.get(name)
    nv = coeff if cur is None else cur + coeff
    if nv:
        acc[name] = nv
    else:
        del acc[name]


class AbstractAlgebra:
    """Structure-constant table for Gamma(sigma1, sigma2, sigma3).

    ``table[(x, y)]`` maps basis names to scalar coefficients of [x, y].
    ``sum_zero`` records whether the parameters satisfy the super-Jacobi
    constraint; ``simple`` whether all three are nonzero.
    """

    def __init__(self, sigma):
        self.sigma = tuple(Scalar.coerce(v) for v in sigma)
        if len(self.sigma) != 3:
            raise ValueError("three parameters expected")
        self.sum_zero = not (self.sigma[0] + self.sigma[1] + self.sigma[2])
        self.simple = all(bool(v) for v in self.sigma)
        self.names = ABSTRACT_NAMES
        self.parity = {name: (0 if name[0] == "Phi" else 1) for name in self.names}
        self.table = self._build_table()

    def _build_table(self):
        table = {}
        actions = {(a, b): _phi_matrix(a, b) for (a, b) in ((1, 1), (1, 2), (2, 2))}
        # even-even: commutators inside each sp(2) factor, zero across
        for x in EVEN_ABSTRACT:
            for y in EVEN_ABSTRACT:
                acc: dict = {}
                if x[1] == y[1]:
                    m1, m2 = actions[x[2:]], actions[y[2:]]
                    comm = [
                        [
                            sum(m1[i][k] * m2[k][j] - m2[i][k] * m1[k][j] for k in range(2))
                            for j in range(2)
                        ]
                        for i in range(2)
                    ]
                    for (a, b), v in _expand_sp(comm).items():
                        _add_into(acc, ("Phi", x[1], a, b), Scalar.from_fraction(v))
                table[(x, y)] = acc
        # even-odd: act in the matching tensor slot
        for x in EVEN_ABSTRACT:
            mat = actions[x[2:]]
            slot = x[1]
            for y in ODD_ABSTRACT:
                acc = {}
                z = y[slot]
                for w in (1, 2):
                    v = mat[w - 1][z - 1]
                    if v:
                        idx = list(y[1:])
                        idx[slot - 1] = w
                        _add_into(acc, ("v",) + tuple(idx), Scalar.from_fraction(v))
                table[(x, y)] = acc
                table[(y, x)] = {n: -c for n, c in acc.items()}
        # odd-odd: the sigma-weighted sum of pairings
        for x in ODD_ABSTRACT:
            for y in ODD_ABSTRACT:
                acc = {}
                for i in (1, 2, 3):
                    j, k = [m for m in (1, 2, 3) if m != i]
                    factor = _psi(x[j], y[j]) * _psi(x[k], y[k])
                    if not factor:
                        continue
                    pair = tuple(sorted((x[i], y[i])))
                    _add_into(acc, ("Phi", i, pair[0], pair[1]), self.sigma[i - 1] * factor)
                table[(x, y)] = acc
        return table

    def bracket_elements(self, ex: dict, ey: dict) -> dict:
        acc: dict = {}
        for n1, c1 in ex.items():
            for n2, c2 in ey.items():
                c = c1 * c2
                if not c:
                    continue
                for n3, c3 in self.table[(n1, n2)].items():
                    _add_into(acc, n3, c * c3)
        return acc


def abstract_algebra(sigma1, sigma2, sigma3) -> AbstractAlgebra:
    return AbstractAlgebra((sigma1, sigma2, sigma3))


def _cyclic_orbit_triples(names):
    """One ordered triple of ``names`` per orbit of cyclic rotation.

    Yields each triple that comes first, in ``names`` order, among its
    three rotations (x, y, z), (y, z, x), (z, x, y): its first entry is its
    smallest, and a triple (x, y, x) with y after x is left to its rotation
    (x, x, y).  The triples come in lexicographic order; there are
    (n^3 + 2n) / 3 of them for n names.
    """
    for i, x in enumerate(names):
        for j in range(i, len(names)):
            for z in names[i if j == i else i + 1:]:
                yield x, names[j], z


def _orbit_terms(names, parity):
    """The graded Jacobi sum of each orbit, as three terms.

    Yields, per triple (x, y, z) of ``_cyclic_orbit_triples(names)`` and in
    its order, the triple and its terms (a, (b, c), sign): (x, (y, z)),
    (y, (z, x)) and (z, (x, y)), the sign -1 when both names of (x, z),
    (y, x) or (z, y) respectively are odd, so that
    J(x, y, z) = sum sign [a, [b, c]].
    """
    for x, y, z in _cyclic_orbit_triples(names):
        yield (x, y, z), ((x, (y, z), -1 if parity[x] and parity[z] else 1),
                          (y, (z, x), -1 if parity[y] and parity[x] else 1),
                          (z, (x, y), -1 if parity[z] and parity[y] else 1))


def _abstract_jacobi(alg: AbstractAlgebra, terms) -> dict:
    """J of one orbit's ``terms`` as a name -> Scalar map, from the table."""
    acc: dict = {}
    for a, pair, sign in terms:
        for n, c in alg.bracket_elements({a: S_ONE}, alg.table[pair]).items():
            _add_into(acc, n, c if sign > 0 else -c)
    return acc


def jacobi_check_abstract(alg: AbstractAlgebra):
    """Graded Jacobi identity over all ordered basis triples.

    The graded Jacobi sum J(x, y, z) is the same three terms as J(y, z, x),
    so one triple per cyclic orbit is checked (``_orbit_terms``) and every
    ordered triple is still covered.  All rotations of a failing triple
    fail with the same residual, so the first failing triple of the full
    lexicographic scan is the smallest of its orbit, and the orbits come in
    lexicographic order: the first failing orbit gives the result of the
    full scan.

    The table is split once into int alpha-power layers over one common
    denominator D (``scalars.split_layers`` on all its entries), and each
    orbit's J is summed as int products v1 v2 sign per (name, alpha power).
    Every product carries the same factor 1/D^2, which is nonzero, so an
    orbit's sums are all zero exactly when its J is, for polynomial
    denominators too.  The residual of the first failing orbit is computed
    from the table (``_abstract_jacobi``).

    Returns None on success, else (triple, residual-coefficient-map).
    """
    layers, _, _ = split_layers({(pair, n): c for pair, row in alg.table.items()
                                 for n, c in row.items()})
    entries: dict = {}  # pair -> [(name, alpha power, int)]
    for e, layer in layers.items():
        for (pair, n), v in layer.items():
            entries.setdefault(pair, []).append((n, e, v))
    for triple, terms in _orbit_terms(alg.names, alg.parity):
        acc: dict = {}
        for a, pair, sign in terms:
            for n, e1, v1 in entries.get(pair, ()):
                for m, e2, v2 in entries.get((a, n), ()):
                    key = (m, e1 + e2)
                    acc[key] = acc.get(key, 0) + sign * v1 * v2
        if any(acc.values()):
            return triple, _abstract_jacobi(alg, terms)
    return None


def _embedded_jacobi(basis, terms) -> Symbol:
    """-J of one orbit's ``terms`` for the Poisson bracket of ``basis``."""
    acc = Symbol.zero()
    for a, (b, c), sign in terms:
        term = basis[a].poisson(basis[b].poisson(basis[c]))
        acc = acc + term if sign < 0 else acc - term
    return acc


def jacobi_check_embedded(basis=None):
    """Graded Jacobi for the Poisson bracket on all ordered basis triples.

    As in ``jacobi_check_abstract``, one triple per cyclic orbit is checked,
    and the first failing triple and its residual are those of the full
    lexicographic scan.  The residual returned is -J(x, y, z).

    All orbits are checked at once, with beta as a tag, in 2 n brackets
    for n names.  beta is central and never differentiated, so with no
    beta in the basis (a basis term carrying beta raises ValueError, as in
    ``cohomology.Engine``), {b, sum_i beta^i basis_i} has {b, basis_i} as its
    beta^i slice: n tagged walks give every pair bracket (the lemma of
    ``cohomology._brackets``).  Orbit o's terms put sign beta^o {b, c} into
    the operand R_a of their left name a, and the sum over a of {a, R_a}
    has J of orbit o as its beta^o slice.  The tags are distinct, so the
    slices are independent: the sum is zero exactly when every orbit's J
    is, and otherwise its lowest beta power is the first failing orbit.

    Each basis element enters on its int alpha-power layers with its own
    denominator dropped, that is multiplied by a nonzero constant of
    Q(alpha).  The bracket is bilinear over Q(alpha), so an orbit's J is
    scaled by the product of its three constants, which leaves its zero
    test exact.  The residual of the first failing orbit is computed from
    the basis itself (``_embedded_jacobi``).
    """
    basis = basis or embedded_basis()
    names = list(basis)
    for name in names:
        for key, c in basis[name].terms.items():
            if key[3]:
                raise ValueError("basis element %s has a beta term %s" % (name, Symbol({key: c})))
    split = {name: (basis[name].layers()[0], 1, None) for name in names}
    tagged: dict = {}
    for i, name in enumerate(names):
        for e, layer in split[name][0].items():
            tagged.setdefault(e, {}).update(((t, u, m, i, h), v) for (t, u, m, _, h), v in layer.items())
    pairs: dict = {}  # (b, c) -> [(alpha power, t, u, mask, h, int)]
    for b in names:
        for e, layer in kernel.poisson_terms(split[b], (tagged, 1, None))[0].items():
            for (t, u, m, i, h), v in layer.items():
                pairs.setdefault((b, names[i]), []).append((e, t, u, m, h, v))
    lefts: dict = {name: [] for name in names}  # a -> [(orbit, pair, sign)]
    for o, (_, terms) in enumerate(_orbit_terms(names, PARITY)):
        for a, pair, sign in terms:
            lefts[a].append((o, pair, sign))
    total: dict = {}
    for a, a_terms in lefts.items():  # one R_a at a time: memory stays flat
        r: dict = {}  # layers of R_a
        for o, pair, sign in a_terms:
            for e, t, u, m, h, v in pairs.get(pair, ()):
                layer = r.setdefault(e, {})
                key = (t, u, m, o, h)
                if nv := layer.get(key, 0) + sign * v:
                    layer[key] = nv
                else:
                    del layer[key]
        for e, layer in kernel.poisson_terms(split[a], (r, 1, None))[0].items():
            total[e] = kernel.add_terms(total.get(e, {}), layer)
    o = min((key[3] for layer in total.values() for key in layer), default=None)
    if o is None:
        return None
    triple, terms = next(islice(_orbit_terms(names, PARITY), o, None))
    return triple, _embedded_jacobi(basis, terms)


def sigma_equivalent(sigma, sigma_prime):
    """Search for (k, pi) with sigma'_i = k * sigma_{pi(i)}.

    Returns the first witness, or None.  Both triples are expected to sum to
    zero but that is not enforced here.
    """
    sigma = tuple(Scalar.coerce(v) for v in sigma)
    sigma_prime = tuple(Scalar.coerce(v) for v in sigma_prime)
    for pi in permutations(range(3)):
        k = None
        ok = True
        for i in range(3):
            source = sigma[pi[i]]
            target = sigma_prime[i]
            if not source:
                if target:
                    ok = False
                    break
                continue
            ratio = target / source
            if k is None:
                k = ratio
            elif k != ratio:
                ok = False
                break
        if ok and k is not None and k:
            return k, pi
        if ok and k is None:
            return S_ONE, pi
    return None


def standard_sigma():
    return (Scalar.from_fraction(2), -S_ONE - ALPHA, ALPHA - S_ONE)


def _iso_map():
    """Abstract name x -> (c_x, X) with rho(x) = s^p(x) * c_x * X.

    s = sqrt(2)i is the factor the odd images carry; it is left out of the
    table, so c_x lies in Q.
    """
    m = {
        ("Phi", 1, 1, 1): (-S_ONE, "E1"),
        ("Phi", 1, 2, 2): (-S_ONE, "F1"),
        ("Phi", 1, 1, 2): (-S_ONE, "H1"),
        ("Phi", 2, 1, 1): (Scalar.from_fraction(-2), "F2"),
        ("Phi", 2, 2, 2): (Scalar.from_fraction(-2), "E2"),
        ("Phi", 2, 1, 2): (S_ONE, "H2"),
        ("Phi", 3, 1, 1): (Scalar.from_fraction(-2), "F3"),
        ("Phi", 3, 2, 2): (Scalar.from_fraction(2), "E3"),
        ("Phi", 3, 1, 2): (S_ONE, "H3"),
        ("v", 1, 1, 1): (S_ONE, "T1"),
        ("v", 1, 1, 2): (S_ONE, "T2"),
        ("v", 1, 2, 1): (-S_ONE, "T4"),
        ("v", 1, 2, 2): (S_ONE, "T3"),
        ("v", 2, 1, 1): (S_ONE, "D3"),
        ("v", 2, 1, 2): (S_ONE, "D4"),
        ("v", 2, 2, 1): (-S_ONE, "D2"),
        ("v", 2, 2, 2): (S_ONE, "D1"),
    }
    return m


def verify_iso():
    """Check rho([x, y]) = {rho(x), rho(y)} on all 17 x 17 abstract pairs.

    With rho(x) = s^p(x) c_x X (see ``_iso_map``) and a bracket that
    preserves parity, both sides carry the factor s^p([x, y]).  Divided by
    it, and with s^2 = -2, the check is

        sum_n [x, y]_n c_n N = (-2)^(p(x) p(y)) c_x c_y {X, Y},

    exact over Q(alpha) with the parameter triple (2, -1-alpha, alpha-1).
    It runs as one bracket per abstract x, c_x X against the beta-tagged
    sum of the c_y Y, with one residual per x (``_tagged_residuals``; the
    beta-tag lemma is in the ``cohomology`` module docstring).  Returns
    None on success or, for the first failing pair, the record
    (pair, lhs, rhs) of the two sides of that equation.
    """
    alg = abstract_algebra(*standard_sigma())
    iso = _iso_map()
    basis = embedded_basis()
    names = alg.names

    def rows_of(x, _):
        # the left side over (-2)^(p(x) p(y)), so one tagged sum serves every x
        return [{iso[n][1]: c * iso[n][0] * (Fraction(-1, 2) if alg.parity[x] and alg.parity[y] else 1)
                 for n, c in alg.table[(x, y)].items()} for y in names]

    for x, _, i in _tagged_residuals(Symbol.poisson, {x: basis[iso[x][1]] * iso[x][0] for x in names},
                                     [basis[iso[y][1]] * iso[y][0] for y in names], basis, rows_of):
        if i is not None:
            y = names[i]
            (cx, bx), (cy, by) = iso[x], iso[y]
            coeff = cx * cy * (-2 if alg.parity[x] and alg.parity[y] else 1)
            lhs = Symbol.zero()
            for n, c in alg.table[(x, y)].items():
                cn, target = iso[n]
                lhs = lhs + basis[target] * (c * cn)
            return (x, y), lhs, basis[bx].poisson(basis[by]) * coeff
    return None


# ---------------------------------------------------------------------------
# Structure constants of the named basis under the Poisson bracket
# ---------------------------------------------------------------------------

# Monomial keys whose coefficients pin each basis element uniquely (H2/H3
# overlap on two keys and are separated by a 2x2 solve).
_LEAD_KEYS = {
    "E1": (2, 0, 0, 0, 0),
    "F1": (0, 2, 0, 0, 0),
    "H1": (1, 1, 0, 0, 0),
    "E2": (0, 0, 0b0011, 0, 0),
    "F2": (0, 0, 0b1100, 0, 0),
    "E3": (0, 0, 0b1001, 0, 0),
    "F3": (0, 0, 0b0110, 0, 0),
    "T1": (1, 0, 0b0100, 0, 0),
    "T2": (1, 0, 0b1000, 0, 0),
    "T3": (1, 0, 0b0001, 0, 0),
    "T4": (1, 0, 0b0010, 0, 0),
    "D1": (0, 1, 0b0001, 0, 0),
    "D2": (0, 1, 0b0010, 0, 0),
    "D3": (0, 1, 0b0100, 0, 0),
    "D4": (0, 1, 0b1000, 0, 0),
}
_H_KEYS = ((0, 0, 0b0101, 0, 0), (0, 0, 0b1010, 0, 0))
# the place of each lead key, then of the two H keys, in a coefficient map
_SLOTS = {key: i for i, key in enumerate((*_LEAD_KEYS.values(), *_H_KEYS))}
_LEAD_NAMES = tuple(_LEAD_KEYS)


def _coefficients(terms: dict, count: int) -> list:
    """For each beta power i < count, the basis coefficients read off the
    beta^i terms of a term map: at ``_LEAD_KEYS``, in their order, then H2
    and H3 from the two ``_H_KEYS``.  A combination of the basis has no
    other coefficients: ``expand_in_basis`` and ``_span_residual`` check
    that."""
    rows = [{} for _ in range(count)]
    hs = {}
    for slot, i, c in sorted((_SLOTS[key], i, c) for (t, u, m, i, h), c in terms.items()
                             if i < count and (key := (t, u, m, 0, h)) in _SLOTS):
        if slot < len(_LEAD_NAMES):
            rows[i][_LEAD_NAMES[slot]] = c
        else:
            hs.setdefault(i, [S_ZERO, S_ZERO])[slot - len(_LEAD_NAMES)] = c
    for i, (u, v) in hs.items():
        if h2 := (u + v) * Fraction(1, 2):
            rows[i]["H2"] = h2
        if h3 := (u - v) * Fraction(1, 2):
            rows[i]["H3"] = h3
    return rows


def _span_residual(value: Symbol, basis, rows) -> dict:
    """value - sum_i beta^i sum_n rows[i][n] basis[n] on int alpha-power
    layers over one denominator, as {power: {key: nonzero int}}.

    ``value``, the coefficients and the basis must lie in Q[alpha], as
    the bases and structure tables here do.
    """
    layers, d, den = value.layers()
    parts = [(i, c, basis[name].layers()) for i, row in enumerate(rows) for name, c in row.items()]
    if den is not None or any(c.ad is not POLY_ONE or bden is not None for _, c, (_, _, bden) in parts):
        raise ValueError("span residual needs coefficients in Q[alpha]")
    lcd = int_lcm(d, *(c.an.d * bd for _, c, (_, bd, _) in parts))
    out = {e: {key: v * (lcd // d) for key, v in layer.items()} for e, layer in layers.items()}
    for i, c, (blayers, bd, _) in parts:
        f = lcd // (c.an.d * bd)
        for e1, v1 in c.an.c.items():
            for e2, blayer in blayers.items():
                layer = out.setdefault(e1 + e2, {})
                for (t, u, m, _, h), v2 in blayer.items():
                    key = (t, u, m, i, h)
                    if nv := layer.get(key, 0) - f * v1 * v2:
                        layer[key] = nv
                    else:
                        del layer[key]
    return {e: layer for e, layer in out.items() if layer}


def _tagged_residuals(bracket, lefts: dict, rights, basis, rows_of):
    """Check, for every name x of ``lefts``, that the bracket of lefts[x]
    with each rights[i] is sum_n rows[i][n] basis[n], for the rows
    ``rows_of(x, value)`` gives, with one bracket and one residual per x.

    No term of ``lefts`` or ``rights`` carries beta, and beta is central
    and never differentiated, so value = bracket(lefts[x], sum_i beta^i
    rights[i]) has [lefts[x], rights[i]] as its beta^i slice: the lemma
    of ``cohomology._brackets`` (``cohomology`` module docstring).  The
    slices are independent, so the residual
    value - sum_i beta^i sum_n rows[i][n] basis[n] (``_span_residual``)
    is zero exactly when every pair's is.  Yields (x, rows, i) per x, in
    order, i the lowest beta power of a residual term, or None when the
    residual is zero.
    """
    tagged = Symbol({(t, u, m, i, h): c for i, sym in enumerate(rights)
                     for (t, u, m, _, h), c in sym.terms.items()})
    for x, left in lefts.items():
        value = bracket(left, tagged)
        rows = rows_of(x, value)
        residual = _span_residual(value, basis, rows)
        yield x, rows, min((key[3] for layer in residual.values() for key in layer), default=None)


def expand_in_basis(value: Symbol, basis=None) -> dict:
    """Write a symbol as a combination of the 17 basis elements.

    Raises ValueError when the symbol is outside their span.
    """
    basis = basis or embedded_basis()
    coeffs = _coefficients(value.terms, 1)[0]
    check = value
    for name, c in coeffs.items():
        check = check - basis[name] * c
    if check:
        raise ValueError("symbol outside the basis span, residual %s" % (check,))
    return coeffs


@lru_cache(maxsize=None)
def structure_table():
    """Poisson structure constants of the named basis, computed once.

    table[(x, y)] maps names to Q(alpha) coefficients of {x, y}, keyed
    in ``BASIS_NAMES`` order, each map in ``_LEAD_KEYS`` order and then
    H2, H3, as ``expand_in_basis`` gives them.  One bracket per name x:
    x against the beta-tagged sum of the basis, whose beta^i slice is
    {x, y_i} since beta is central and no basis term carries it (the
    lemma of ``cohomology._brackets``, in the ``cohomology`` module
    docstring).  Each pair's coefficients are read off its slice, and one
    exact residual per x checks that every slice lies in the span
    (``_tagged_residuals``).  When one does not, ``expand_in_basis`` of
    its lowest-tagged pair raises the ValueError.
    """
    return _structure_table(embedded_basis())


def _structure_table(basis) -> dict:
    """``structure_table`` for a ``basis`` with the names ``BASIS_NAMES``."""
    table = {}
    for x, rows, i in _tagged_residuals(Symbol.poisson, {x: basis[x] for x in BASIS_NAMES},
                                        [basis[y] for y in BASIS_NAMES], basis,
                                        lambda x, value: _coefficients(value.terms, len(BASIS_NAMES))):
        if i is not None:
            y = BASIS_NAMES[i]
            expand_in_basis(basis[x].poisson(basis[y]), basis)
            raise AssertionError("residual at (%s, %s) but the pair is in the span" % (x, y))
        table.update(((x, y), row) for y, row in zip(BASIS_NAMES, rows))
    return table


def derived_even_dim(alpha_value) -> int:
    """Dimension of span{[odd, odd]} inside the even part at a given alpha."""
    from .linalg import clear_denominators, poly_rank

    table = structure_table()
    rows = []
    for i, x in enumerate(ODD_NAMES):
        for y in ODD_NAMES[i:]:
            # zeros of the specialization are dropped by the rank
            rows.append({EVEN_NAMES.index(n): c.specialize(alpha_value)
                         for n, c in table[(x, y)].items()})
    return poly_rank([clear_denominators(r)[0] for r in rows])[0]
