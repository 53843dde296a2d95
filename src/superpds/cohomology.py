"""Weight-zero bigraded blocks of the degree-one Chevalley-Eilenberg complex.

A 1-cochain c of bidegree (k, n) sends each basis element X of the embedded
17-dimensional algebra to a module element with

    k-degree k,   n-degree n(X) + n,   weight w(X),   parity p(X),

so each block is finite dimensional and H^1 decomposes as the direct sum
over blocks.  Coefficients may be the full symbol algebra P, differential-
operator symbols P+, the contact algebra K4 (the k-degree-2 part) or its
derived ideal K4'.

A block is what ``enumerate_c0`` and ``enumerate_c1`` list: the C^0
monomial keys and the C^1 slots (basis name, monomial key) of its gradings
inside the target, with the engine's h conventions and no beta.  Validation
(``Engine.validate_cochain``), block assembly and the scans all read that
list.

Differential conventions (the zero convention is pinned by d1 o d0 = 0):

    (d0 m)(X)    = [X, m]
    (d1 c)(X, Y) = [X, c(Y)] + [c(X), Y] - c([X, Y])

with the bracket of the acting copy taken through the embedding, and
c([X, Y]) expanded through the cached structure-constant table.  Ranks are
computed fraction-free over Q[alpha]; the recorded pivot polynomials are the
only places a specialized alpha can change a dimension.

An engine at a fixed rational alpha is the generic engine mapped through
the substitution of that alpha (``Engine.evaluated``).

Scans first try to certify each block over F_p, p = FP_PRIME = 2^61 - 1.
A block is assembled once, over the engine's own coefficients, and each
entry of the matrices of d1 and d0 is mapped to F_p by ``Scalar.mod_p`` at
alpha = FP_ALPHA.  Evaluation at FP_ALPHA mod p is a ring homomorphism on
the scalars whose denominators do not vanish there, so a minor that is
nonzero mod p is nonzero over Q(alpha): specialization can only lower a
rank.  With r1, r0 the ranks over F_p and N the number of slots,

    H^1 = N - rank d1 - rank d0 <= N - r1 - r0.

When the bound is 0, H^1 = 0.  Since B lies in Z (d1 o d0 = 0), H^1 >= 0
forces rank d1 = r1 and rank d0 = r0, so Z = N - r1 and B = r0 are exact
too, and the report carries the certificate "modp-zero".  Blocks with a
positive bound, or with an entry that has no image over F_p, go on to the
exact elimination with the same matrices, certificate "exact".  A block
with no slots (N = 0) is "empty": its dimensions are 0 by counting, and
the bound certifies nothing there.  ``h1_block`` on its own is always
exact.

Blocks with n != 0 need no assembly.  ad H1 multiplies every monomial
t^a tau^b xi^mask h^j by its n-degree a - b, in both engines (H1 is t*tau,
or t*tau + (alpha+1)/2*h with h central), so it acts on a cochain of block
(k, n) by n.  This is Cartan's homotopy formula L_E = d i_E + i_E d at
E = H1 (Chevalley-Eilenberg, Trans. AMS 63, 1948; Fuks, Cohomology of
Infinite-Dimensional Lie Algebras, 1986, ch. 1): a cocycle c gives, on the
pair (H1, X),

    0 = [H1, c(X)] + [c(H1), X] - c([H1, X]) = n c(X) - [X, c(H1)],

so c = d0(c(H1)/n) and H^1 = 0.  The H1 component of d0(m) is [H1, m] =
n m, so d0 is injective on C^0 and Z = B = |C^0|.  ``h1_scan`` reports these
blocks with the certificate "cartan-zero".  The same lemma for H2 and H3,
whose eigenvalues are the weights, is why only weight-zero blocks are
scanned.  It needs blocks that are subcomplexes, so an engine with an h
depth cap cannot be scanned.

Block assembly builds the matrix of d1 column by column: the engine's
incidence table lists, per basis name, the pairs on which an elementary
cochain at that name is nonzero, so a column adds up a few bracket term maps
[X, m] instead of evaluating d1 on all pairs.  Those brackets form one table
per block: every basis element X against every distinct slot key of the
block, one kernel call per X.  beta is central and never differentiated,
and both kernels add beta exponents; every block key has beta 0, and no
basis term carries beta (``Engine`` refuses one).  So for the slot keys
m_0, m_1, ... of the block,

    [X, sum_i beta^i m_i] = sum_i beta^i [X, m_i],

and each [X, m_i] is read off the beta^i terms of the one bracket, with its
terms in the order a bracket with m_i alone would give them.  The C^0 keys
of a block are the slot keys of H1 (``_monomials`` with the same degrees,
weight and parity), so d0 reads its brackets from d1's table.

The same machinery runs for the h-deformed algebra: an engine bundles the
basis, the bracket, the structure table and the h-grading conventions, so
the star-product analogue reuses every formula with [.,.]_h substituted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import d21, linalg
from .d21 import BASIS_NAMES, PARITY
from .linalg import SpanTracker, clear_denominators, column_rows, poly_rank
from .scalars import POLY_ONE, S_HALF, S_ONE, Scalar
from .symbols import K4PRIME_GAP, SYM_ZERO, TARGETS, Symbol, mask_weight


@dataclass(frozen=True)
class BlockSpec:
    """One bigraded piece of the cochain complex."""

    k: int
    n: int
    target: str

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError("target must be one of %s" % (TARGETS,))
        if self.target in ("K4", "K4'") and self.k != 2:
            raise ValueError("K4-valued blocks require k = 2")

    def to_payload(self):
        return {"k": self.k, "n": self.n, "target": self.target}


class Cochain1:
    """Even 1-cochain: map from basis names to module elements."""

    __slots__ = ("images", "block")

    def __init__(self, images: dict, block: BlockSpec | None = None):
        for name in images:
            if name not in PARITY:
                raise ValueError("unknown basis name %r" % (name,))
        self.images = {name: sym for name, sym in images.items() if sym}
        self.block = block

    def image(self, name: str) -> Symbol:
        return self.images.get(name, SYM_ZERO)

    def __bool__(self):
        return bool(self.images)

    def __eq__(self, other):
        if not isinstance(other, Cochain1):
            return NotImplemented
        return self.images == other.images

    def __add__(self, other: "Cochain1") -> "Cochain1":
        out = dict(self.images)
        for name, sym in other.images.items():
            out[name] = out.get(name, SYM_ZERO) + sym
        return Cochain1(out, self.block or other.block)

    def __sub__(self, other: "Cochain1") -> "Cochain1":
        out = dict(self.images)
        for name, sym in other.images.items():
            out[name] = out.get(name, SYM_ZERO) - sym
        return Cochain1(out, self.block or other.block)

    def scale(self, coeff) -> "Cochain1":
        return Cochain1(
            {name: sym * coeff for name, sym in self.images.items()}, self.block
        )

    def to_payload(self):
        payload = {"images": {n: str(s) for n, s in sorted(self.images.items())}}
        if self.block is not None:
            payload["block"] = self.block.to_payload()
        return payload

    def __repr__(self):
        return "Cochain1(%s)" % ({n: str(s) for n, s in self.images.items()},)


# The prime of the zero-block certificate, and the alpha it evaluates at.
# Any alpha is sound; this one only decides how often a block whose H^1
# vanishes still needs the exact path.
FP_PRIME = 2**61 - 1
FP_ALPHA = 888315200261588941


class Engine:
    """Bracket engine: basis, bracket, structure table, h conventions.

    Coefficients are Scalars: over Q(alpha), or rational constants for an
    engine at a rational alpha (``specialized``, built by ``evaluated``).
    The star engine is the one whose h powers carry k-degree
    (``h_k_weight`` nonzero).  No basis term may carry beta: block assembly
    tags monomials with beta powers (``_brackets``), so the constructor
    raises ValueError on a basis term with a beta exponent.
    """

    def __init__(self, basis, bracket, struct, h_k_weight, h_depth, specialized=False):
        for name, sym in basis.items():
            for key, c in sym.terms.items():
                if key[3]:
                    raise ValueError("basis element %s has a beta term %s" % (name, Symbol({key: c})))
        self.basis = basis
        self.bracket = bracket
        self.struct = struct
        self.h_k_weight = h_k_weight
        self.h_depth = h_depth
        self.specialized = specialized
        self.metadata = d21.basis_metadata()
        names = list(BASIS_NAMES)
        self.pairs = [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i, len(names))
            if i != j or PARITY[names[i]]
        ]
        self.incidence = self._incidence()
        self._slot_sets: dict = {}  # BlockSpec -> set(enumerate_c1(block, self))

    def _incidence(self):
        """Where an elementary cochain c (c(X) = m, zero elsewhere) lives.

        (d1 c)(x, y) = [x, c(y)] + [c(x), y] - c([x, y]) is nonzero only on
        the pairs that contain X or whose bracket has an X component.  For
        each name X this lists, in pair order, (pair index, ((name, sign),
        ...), coefficient): the sum of sign * [name, m] plus coefficient * m,
        coefficient None when [x, y] has no X component.  [c(x), y] is
        rewritten as -(-1)^(p(X) p(y)) [y, c(x)].
        """
        table = {name: [] for name in BASIS_NAMES}
        for pi, (x, y) in enumerate(self.pairs):
            struct = self.struct[(x, y)]
            for name in dict.fromkeys((y, x, *struct)):
                parts = []
                if y == name:
                    parts.append((x, 1))
                if x == name:
                    parts.append((y, 1 if PARITY[name] and PARITY[y] else -1))
                coeff = struct.get(name)
                table[name].append((pi, tuple(parts), -coeff if coeff else None))
        return table

    def evaluated(self, value) -> "Engine":
        """This engine with every coefficient c of its basis and structure
        table replaced by ``value(c)``, zeros dropped.

        ``value`` is a ring homomorphism on the scalars, such as the
        substitution of a rational alpha.  The bracket needs ring
        operations only, so it works on the images unchanged.  The result
        is ``specialized``: ``d1``, ``cup``, ``solve_obstruction`` and the
        coboundary searches refuse a cochain with a coefficient in alpha,
        which it would bracket against a different algebra.
        """

        def image(terms: dict) -> dict:
            return {key: v for key, c in terms.items() if (v := value(c))}

        return Engine({name: Symbol(image(sym.terms)) for name, sym in self.basis.items()},
                      self.bracket,
                      {pair: image(coeffs) for pair, coeffs in self.struct.items()},
                      self.h_k_weight, self.h_depth, specialized=True)

    def check_constants(self, *cochains: Cochain1):
        """On a specialized engine, raise ValueError unless every image
        coefficient of the cochains is a rational constant."""
        if not self.specialized:
            return
        for c in cochains:
            for name, sym in c.images.items():
                for key, coeff in sym.terms.items():
                    if not (coeff.an.is_constant() and coeff.ad is POLY_ONE):
                        raise ValueError("%s image term %s is not a rational constant; an engine "
                                         "at a fixed alpha needs the cochain specialized too"
                                         % (name, Symbol({key: coeff})))

    def validate_cochain(self, c: Cochain1, block: BlockSpec):
        """Raise ValueError unless every image term of c is a slot of the
        block, that is (name, key) is in ``enumerate_c1(block, self)``,
        which runs once per block and engine."""
        slots = self._slot_sets.get(block)
        if slots is None:
            slots = self._slot_sets[block] = set(enumerate_c1(block, self))
        for name, sym in c.images.items():
            for key in sym.terms:
                if (name, key) not in slots:
                    raise ValueError("%s image term %s is not a slot of block (k=%d, n=%d, %s)"
                                     % (name, Symbol({key: S_ONE}), block.k, block.n, block.target))


def poisson_engine(alpha=None) -> Engine:
    return _poisson_engine(alpha)


def quantized_engine(alpha=None, h_depth=None) -> Engine:
    """Engine for the h-deformed algebra of differential-operator symbols.

    One h power carries k-degree 2; the structure constants match the
    Poisson ones (checked by quantize.verify_h_structure_match, exercised in
    the test suite).  h powers in a block are bounded by the operator
    constraint; pass h_depth to cap them harder.
    """
    return _quantized_engine(alpha, h_depth)


# cached on positional arguments, so every way of calling the public
# builders with the same values shares one engine
@lru_cache(maxsize=None)
def _poisson_engine(alpha) -> Engine:
    if alpha is not None:
        return _poisson_engine(None).evaluated(lambda c: c.specialize(alpha))
    return Engine(d21.embedded_basis(), lambda a, b: a.poisson(b), d21.structure_table(),
                  h_k_weight=0, h_depth=0)


@lru_cache(maxsize=None)
def _quantized_engine(alpha, h_depth) -> Engine:
    from . import quantize

    if alpha is not None:
        return _quantized_engine(None, h_depth).evaluated(lambda c: c.specialize(alpha))
    return Engine(quantize.gamma_h_basis(), quantize.h_bracket, d21.structure_table(),
                  h_k_weight=2, h_depth=h_depth)


def _monomials(block: BlockSpec, engine: Engine, want_n, weight, parity):
    """Monomial keys in the target with the requested degrees.

    In the star engine one h power carries k-degree 2, and the operator
    constraint tau_exp >= 0 bounds the h power inside a block, so blocks
    stay finite dimensional and closed under the differentials with no
    artificial depth cutoff (engine.h_depth only lowers the bound further).
    """
    out = []
    for mask in range(16):
        if mask.bit_count() & 1 != parity:
            continue
        if mask_weight(mask) != weight:
            continue
        if engine.h_k_weight:
            hi = (block.k - mask.bit_count() - want_n) // 2
            if engine.h_depth is not None:
                hi = min(hi, engine.h_depth)
        else:
            hi = 0
        for h in range(hi + 1):
            rem = block.k - mask.bit_count() - engine.h_k_weight * h
            if (rem + want_n) & 1:
                continue
            t = (rem + want_n) // 2
            u = (rem - want_n) // 2
            if u < 0 and (block.target == "P+" or engine.h_k_weight):
                continue
            if block.target == "K4'" and (t, u, mask) == K4PRIME_GAP:
                continue
            out.append((t, u, mask, 0, h))
    return out


def enumerate_c0(block: BlockSpec, engine: Engine | None = None):
    """Weight-zero even monomials of the block's (k, n) inside the target."""
    engine = engine or poisson_engine()
    return _monomials(block, engine, want_n=block.n, weight=(0, 0), parity=0)


def enumerate_c1(block: BlockSpec, engine: Engine | None = None):
    """Elementary cochain slots (name, monomial key) spanning the block."""
    engine = engine or poisson_engine()
    out = []
    for name in BASIS_NAMES:
        par, n_deg, w = engine.metadata[name]
        for key in _monomials(block, engine, n_deg + block.n, w, par):
            out.append((name, key))
    return out


def d0(m: Symbol, engine: Engine | None = None, block: BlockSpec | None = None) -> Cochain1:
    engine = engine or poisson_engine()
    return Cochain1(
        {name: engine.bracket(engine.basis[name], m) for name in BASIS_NAMES}, block
    )


def d1(c: Cochain1, engine: Engine | None = None) -> dict:
    """Values of the coboundary on the canonical ordered basis pairs."""
    engine = engine or poisson_engine()
    engine.check_constants(c)
    out = {}
    for (x, y) in engine.pairs:
        val = engine.bracket(engine.basis[x], c.image(y))
        val = val + engine.bracket(c.image(x), engine.basis[y])
        for name, coeff in engine.struct[(x, y)].items():
            img = c.image(name)
            if img:
                val = val - img * coeff
        out[(x, y)] = val
    return out


def cup(phi: Cochain1, phi_prime: Cochain1, engine: Engine | None = None) -> dict:
    """[[phi, phi']](X, Y) = [phi X, phi' Y] + [phi' X, phi Y] per pair."""
    engine = engine or poisson_engine()
    engine.check_constants(phi, phi_prime)
    out = {}
    for (x, y) in engine.pairs:
        val = engine.bracket(phi.image(x), phi_prime.image(y))
        val = val + engine.bracket(phi_prime.image(x), phi.image(y))
        out[(x, y)] = val
    return out


def pairmap_is_zero(pm: dict) -> bool:
    return not any(pm.values())


# ---------------------------------------------------------------------------
# block assembly
# ---------------------------------------------------------------------------


def _brackets(engine: Engine, keys) -> dict:
    """The terms of [X, m], keyed (name, m), for every basis name X and
    every unit monomial key m in ``keys``; empty when ``keys`` is.

    One bracket per name: X against the sum of beta^i m_i over the keys
    m_i, whose beta^i terms are [X, m_i] (module docstring).  Both
    engines' brackets are one int walk on alpha-power layers, and X and
    the tagged sum are each split once (``Symbol.layers``), so each name
    costs one walk and one fold, when its terms are read here.
    """
    if not keys:
        return {}
    tagged = Symbol({(t, u, mask, i, h): S_ONE for i, (t, u, mask, _, h) in enumerate(keys)})
    table = {}
    for name in BASIS_NAMES:
        results = [{} for _ in keys]
        for (t, u, mask, i, h), c in engine.bracket(engine.basis[name], tagged).terms.items():
            results[i][(t, u, mask, 0, h)] = c
        table.update(((name, key), terms) for key, terms in zip(keys, results))
    return table


def _d1_columns(block: BlockSpec, engine: Engine, brackets: dict | None = None):
    """Elementary cochains of the block and their coboundary vectors.

    Returns (slots, columns) where slots = [(name, key)] and columns[i] is a
    dict (pair_index, monomial_key) -> Scalar.  Each column adds up the
    brackets and structure terms listed in ``engine.incidence`` for its
    name, read from the table ``_brackets`` makes over the block's distinct
    slot keys, one kernel call per basis name.  A ``brackets`` dict passed
    in receives that table, for ``_d0_columns`` of the same block.
    """
    slots = enumerate_c1(block, engine)
    table = _brackets(engine, list(dict.fromkeys(key for _, key in slots)))
    if brackets is not None:
        brackets.update(table)
    columns = []
    for (name0, key0) in slots:
        vec: dict = {}
        for pi, parts, coeff in engine.incidence[name0]:
            # keys of one pair index follow each other, in the order a
            # running sum of the parts would hold them
            for name, sign in parts:
                for mk, c in table[(name, key0)].items():
                    _accumulate(vec, (pi, mk), c, sign)
            if coeff is not None:
                _accumulate(vec, (pi, key0), coeff)
        columns.append(vec)
    return slots, columns


def _accumulate(vec: dict, key, c, sign=1):
    """vec[key] += sign * c for sign 1 or -1, dropping the entry when it
    cancels; c is negated only when the key is new."""
    old = vec.get(key)
    if old is None:
        vec[key] = c if sign > 0 else -c
    else:
        new = old + c if sign > 0 else old - c
        if new:
            vec[key] = new
        else:
            del vec[key]


def _d0_columns(block: BlockSpec, engine: Engine, brackets: dict | None = None):
    """C0 monomial keys and their coboundary vectors in (name, key) space.

    The columns read the brackets of every basis name with the C0 keys from
    ``brackets``, the table ``_d1_columns`` of the same block wrote: the C0
    keys are the slot keys of H1, so it holds them all.  With no table
    passed, ``_brackets`` makes one over the C0 keys.
    """
    mon0 = enumerate_c0(block, engine)
    if brackets is None:
        brackets = _brackets(engine, mon0)
    columns = []
    for key in mon0:
        vec = {}
        for name in BASIS_NAMES:
            for mk, c in brackets[(name, key)].items():
                vec[(name, mk)] = c
        columns.append(vec)
    return mon0, columns


@dataclass
class CohomologyReport:
    """Dimensions and witnesses for one block.

    ``certificate`` names what established the dimensions: "exact" for
    elimination over Q(alpha), "modp-zero" for the F_p rank bound of
    ``h1_scan``, "cartan-zero" for the ad H1 argument on a block with
    n != 0 (no representatives, no pivots for either), and "empty" for a
    block of ``h1_scan`` with n = 0 and no slots, where every dimension is
    0 by counting.
    """

    block: BlockSpec
    dim_cocycles: int
    dim_coboundaries: int
    dim_h1: int
    representatives: list
    pivot_polynomials: list
    certificate: str = "exact"

    def to_payload(self):
        return {
            "block": self.block.to_payload(),
            "dim_cocycles": self.dim_cocycles,
            "dim_coboundaries": self.dim_coboundaries,
            "dim_h1": self.dim_h1,
            "representatives": [c.to_payload()["images"] for c in self.representatives],
            "pivot_polynomials": [str(p) for p in self.pivot_polynomials],
        }


def _slots_to_cochain(slots, coeffs: dict, block: BlockSpec) -> Cochain1:
    images: dict = {}
    for j, c in coeffs.items():
        if not c:
            continue
        name, key = slots[j]
        add = Symbol({key: c})
        images[name] = images.get(name, SYM_ZERO) + add
    return Cochain1(images, block)


def h1_block(block: BlockSpec, engine: Engine | None = None,
             representatives: bool = True) -> CohomologyReport:
    """Cocycle, coboundary and H^1 dimensions of one block, by exact
    elimination over the engine's coefficients.

    Representatives, when requested and the block is nontrivial, are kernel
    vectors of d1 certified independent modulo the coboundary span.  One
    span of the d0 columns gives both dim B and that certificate.
    """
    engine = engine or poisson_engine()
    brackets: dict = {}
    slots, columns = _d1_columns(block, engine, brackets)
    if not slots:
        return CohomologyReport(block, 0, 0, 0, [], [])
    bcols = _d0_columns(block, engine, brackets)[1]
    return _h1_exact(block, slots, columns, bcols, representatives)


def _h1_exact(block: BlockSpec, slots, columns, bcols, representatives: bool) -> CohomologyReport:
    """``h1_block`` after assembly: the exact report from the block's slots,
    d1 columns and d0 columns."""
    if representatives:
        # one elimination of d1 gives its rank, pivots and kernel
        kvecs, found = linalg.kernel_basis(columns)
        rank_d1, pivots1 = len(found), linalg.pivot_polynomials(found)
    else:
        rank_d1, pivots1 = poly_rank(column_rows(columns))
    dim_z = len(slots) - rank_d1

    col_index = {slot: i for i, slot in enumerate(slots)}
    span = SpanTracker()
    for vec in bcols:
        missing = vec.keys() - col_index.keys()
        if missing:
            raise AssertionError("coboundary leaves the enumerated block: %s %s" % min(missing))
        row = clear_denominators({col_index[slot]: c for slot, c in vec.items()})[0]
        if row:
            # nothing is expressed in this span: no combination is kept
            span.add(row, {})
    # all columns queued before the first pivot: the core's cost order
    found0 = span.forward()
    dim_h1 = dim_z - len(found0)
    if dim_h1 < 0:
        raise AssertionError("negative H^1 dimension in block %s" % (block,))

    pivot_polys = list({str(p): p for p in pivots1 + linalg.pivot_polynomials(found0)}.values())

    reps = []
    if representatives and dim_h1 > 0:
        # sparsest kernel vectors first, so representatives come out short
        for kv in sorted(kvecs, key=len):
            if len(reps) == dim_h1:
                break
            if span.insert(kv, ("z", len(reps))):
                reps.append(_slots_to_cochain(slots, kv, block))
        if len(reps) != dim_h1:
            raise AssertionError("found %d of %d representatives" % (len(reps), dim_h1))
    return CohomologyReport(block, dim_z, len(found0), dim_h1, reps, pivot_polys)


def _fp_rank(columns):
    """Rank over F_p of the columns' images at alpha = FP_ALPHA, or None
    when an entry has no image there."""
    try:
        images = [{key: c.mod_p(FP_ALPHA, FP_PRIME) for key, c in vec.items()} for vec in columns]
    except (ValueError, ZeroDivisionError):
        # FP_PRIME divides a rational denominator, or FP_ALPHA is a root of one
        return None
    return linalg.rank_mod_p(images, FP_PRIME)


def _scan_block(block: BlockSpec, engine: Engine, representatives: bool) -> CohomologyReport:
    """The report of a block with n = 0, from one assembly.

    A block with no slots is "empty".  The ranks r1, r0 of d1 and d0 over
    F_p are lower bounds for the exact ones, so H^1 <= N - r1 - r0 for N
    slots; when the bound is 0 the block is "modp-zero" (module docstring).
    Otherwise, or when an entry has no image over F_p, the same matrices go
    to the exact elimination.
    """
    brackets: dict = {}
    slots, columns = _d1_columns(block, engine, brackets)
    if not slots:
        return CohomologyReport(block, 0, 0, 0, [], [], "empty")
    rank_d1 = _fp_rank(columns)
    if rank_d1 == len(slots):  # Z = 0, and B inside it is 0 too
        return CohomologyReport(block, 0, 0, 0, [], [], "modp-zero")
    bcols = _d0_columns(block, engine, brackets)[1]
    rank_d0 = None if rank_d1 is None else _fp_rank(bcols)
    if rank_d0 is not None and rank_d1 + rank_d0 == len(slots):
        return CohomologyReport(block, len(slots) - rank_d1, rank_d0, 0, [], [], "modp-zero")
    return _h1_exact(block, slots, columns, bcols, representatives)


def h1_scan(k_range, n_range, target: str, engine: Engine | None = None, representatives: bool = True):
    """Reports for every block in the window (K4 targets pin k = 2).

    Blocks with n != 0 are "cartan-zero" with Z = B = |C^0| (module
    docstring).  A block with n = 0 is assembled once and certified over
    F_p when it can be, else eliminated exactly.  An engine with an h depth
    cap is refused: its blocks are not subcomplexes.
    """
    engine = engine or poisson_engine()
    if engine.h_k_weight and engine.h_depth is not None:
        raise ValueError("h1_scan needs an engine with no h depth cap, got h_depth=%d"
                         % engine.h_depth)
    ks = [2] if target in ("K4", "K4'") else k_range
    reports = []
    for k in ks:
        for n in n_range:
            block = BlockSpec(k, n, target)
            if n:
                m = len(enumerate_c0(block, engine))
                reports.append(CohomologyReport(block, m, m, 0, [], [], "cartan-zero"))
            else:
                reports.append(_scan_block(block, engine, representatives))
    return reports


# ---------------------------------------------------------------------------
# named cocycles
# ---------------------------------------------------------------------------


def _sym(t=0, tau=0, mask=0, h=0, coeff=1):
    return Symbol.monomial(t=t, tau=tau, mask=mask, h=h, coeff=coeff)


@lru_cache(maxsize=None)
def named_cocycle(name: str) -> Cochain1:
    """The distinguished weight-zero cocycles, by their conventional names.

    theta1 spans H^1 with differential-operator coefficients, theta2 joins
    it for the full symbol coefficients, theta spans the K4'-valued block,
    thetabar1 is the h-deformed counterpart of theta1.
    """
    from .scalars import ALPHA

    a = ALPHA
    if name == "theta1":
        return Cochain1(
            {
                "D1": _sym(t=-1, mask=0b0001),
                "D2": _sym(t=-1, mask=0b0010),
                "D3": _sym(t=-1, mask=0b0100),
                "D4": _sym(t=-1, mask=0b1000),
                "F1": _sym(t=-1, tau=1, coeff=2),
                "H1": _sym(),
            },
            BlockSpec(0, 0, "P+"),
        )
    if name == "theta2":
        return Cochain1(
            {
                "T3": _sym(tau=-1, mask=0b0001) - _sym(t=-1, tau=-2, mask=0b1011),
                "T4": _sym(tau=-1, mask=0b0010) + _sym(t=-1, tau=-2, mask=0b0111),
                "D1": _sym(t=-1, mask=0b0001),
                "D2": _sym(t=-1, mask=0b0010),
                "D3": _sym(t=-2, tau=-1, mask=0b1110, coeff=-(S_ONE + a)),
                "D4": _sym(t=-2, tau=-1, mask=0b1101, coeff=S_ONE + a),
                "E1": _sym(t=1, tau=-1)
                - _sym(tau=-2, mask=0b0101)
                - _sym(tau=-2, mask=0b1010)
                - _sym(t=-1, tau=-3, mask=0b1111, coeff=2),
                "E2": _sym(t=-1, tau=-1, mask=0b0011),
                "F1": _sym(t=-1, tau=1)
                + _sym(t=-2, mask=0b0101)
                + _sym(t=-2, mask=0b1010)
                + _sym(t=-3, tau=-1, mask=0b1111, coeff=2 * (S_ONE + a)),
                "F2": _sym(t=-1, tau=-1, mask=0b1100, coeff=-1),
                "H1": _sym(),
            },
            BlockSpec(0, 0, "P"),
        )
    if name == "theta":
        return Cochain1(
            {
                "T1": _sym(tau=-1, mask=0b1110),
                "T2": -_sym(tau=-1, mask=0b1101),
                "T3": _sym(tau=-1, mask=0b1011),
                "T4": -_sym(tau=-1, mask=0b0111),
                "D1": _sym(t=-1, mask=0b1011),
                "D2": -_sym(t=-1, mask=0b0111),
                "D3": _sym(t=-1, mask=0b1110),
                "D4": -_sym(t=-1, mask=0b1101),
                "E1": _sym(tau=-2, mask=0b1111, coeff=2),
                "F1": _sym(t=-2, mask=0b1111, coeff=-2),
            },
            BlockSpec(2, 0, "K4'"),
        )
    if name == "thetabar1":
        return Cochain1(
            {
                "D1": _sym(t=-1, mask=0b0001),
                "D2": _sym(t=-1, mask=0b0010),
                "D3": _sym(t=-1, mask=0b0100),
                "D4": _sym(t=-1, mask=0b1000),
                "F1": _sym(t=-1, tau=1, coeff=2) + _sym(t=-2, h=1, coeff=a - S_ONE),
                "H1": _sym(),
            },
            BlockSpec(0, 0, "P+"),
        )
    raise ValueError("unknown cocycle %r" % (name,))


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def _cochain_vector(c: Cochain1) -> dict:
    """Coordinates (name, monomial key) -> Scalar of a cochain."""
    return {
        (name, mk): coeff for name, img in c.images.items() for mk, coeff in img.terms.items()
    }


def _modulo_coboundaries(c: Cochain1, generators, block: BlockSpec, engine: Engine):
    """(coefficients a, preimage m) with c = sum a_j * generators[j] + d0(m)
    inside the block, or None when there are none."""
    engine.check_constants(c, *generators)
    mon0, bcols = _d0_columns(block, engine)
    tracker = SpanTracker()
    for j, gen in enumerate(generators):
        tracker.insert(_cochain_vector(gen), ("g", j))
    for i, vec in enumerate(bcols):
        tracker.insert(vec, ("m", i))
    expr = tracker.express(_cochain_vector(c))
    if expr is None:
        return None
    coeffs = [Scalar.from_fraction(0)] * len(generators)
    preimage = SYM_ZERO
    for (kind, idx), coeff in expr.items():
        if kind == "g":
            coeffs[idx] = coeff
        else:
            preimage = preimage + Symbol({mon0[idx]: coeff})
    return coeffs, preimage


def is_coboundary(c: Cochain1, engine: Engine | None = None, block: BlockSpec | None = None):
    """A module element m with d0(m) = c, or None.

    The search space is the weight-zero C^0 slice of the cochain's block.
    """
    block = block or c.block
    if block is None:
        raise ValueError("cochain carries no block")
    solved = _modulo_coboundaries(c, [], block, engine or poisson_engine())
    return None if solved is None else solved[1]


def express_modulo_coboundaries(c: Cochain1, generators, block: BlockSpec, engine: Engine | None = None):
    """Write c = sum a_i * generators[i] + d0(m) inside the block.

    Returns (coefficients list, preimage Symbol) or None when impossible.
    """
    return _modulo_coboundaries(c, generators, block, engine or poisson_engine())


def solve_obstruction(rho1: Cochain1, order_block: BlockSpec, engine: Engine | None = None):
    """Solve d1(rho2) = -1/2 [[rho1, rho1]] inside the given block.

    Returns a Cochain1 solution or None when the block contains none.
    """
    engine = engine or poisson_engine()
    rhs_pairs = cup(rho1, rho1, engine)  # refuses alpha in rho1 on a specialized engine
    rhs_vec = {}
    for pi, (x, y) in enumerate(engine.pairs):
        val = rhs_pairs[(x, y)] * (-S_HALF)
        for mk, coeff in val.terms.items():
            rhs_vec[(pi, mk)] = coeff
    slots, columns = _d1_columns(order_block, engine)
    tracker = SpanTracker()
    for j, vec in enumerate(columns):
        tracker.insert(vec, j)
    expr = tracker.express(rhs_vec)
    if expr is None:
        return None
    return _slots_to_cochain(slots, expr, order_block)
