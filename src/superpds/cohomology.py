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
c([X, Y]) expanded through the cached structure-constant table.  Taking
the embedding rho as a 1-cochain, the first two terms are the cup product
[[rho, c]] (Gerstenhaber, Ann. Math. 79, 1964; Nijenhuis and Richardson,
Bull. AMS 72, 1966), and ``d1`` computes (d1 c) = [[rho, c]] - c([X, Y])
through ``cup``.  Ranks are
computed fraction-free over Q[alpha]; the recorded pivot polynomials are the
only places a specialized alpha can change a dimension.

Scans need only some rows of d1.  Let c be a 1-cochain and delta = d1 c.
The algebra acts on the target through the embedding, so d2 o d1 = 0 and
d2 delta = 0: (d2 delta)(a, b, y) is a sum, each term with sign +1 or -1,
of

    [a, delta(b, y)], [b, delta(a, y)], [y, delta(a, b)],
    delta([a, b], y), delta([a, y], b), delta([b, y], a).

Let A be the set of a with delta(a, y) = 0 for every y.  delta is even,
so for homogeneous y the values delta(a_0, y) and delta(a_1, y) of the
even and odd parts of a have different parities, and both vanish when
their sum does: A is graded.  For homogeneous a, b in A every term but
delta([a, b], y) vanishes, so [a, b] lies in A: A is a subalgebra.  When
A holds a generating set S, A is the whole algebra and delta = 0.  So c
is a cocycle as soon as delta vanishes on the pairs with a name in S
(Fuks, Cohomology of Infinite-Dimensional Lie Algebras, 1986, ch. 1: a
derivation is fixed by its values on generators; by super skew-symmetry,
delta(s, y) = 0 for all y is delta = 0 on the canonical pairs that hold
s), and d1 restricted to those rows has the kernel Z of the full d1, and
its rank.  The set S = GENERATORS, four root vectors, touches 59 of the
144 pairs.  ``Engine.generators`` certifies, on the first read, that a
set generates its algebra: the bracket closure of the set over F_p
(``generates``, below, which eliminates with ``linalg.rank_mod_p``) has
rank 17, so some 17 iterated brackets of it have a minor nonzero mod p,
hence nonzero over Q(alpha) or Q.  At
alpha = +-1 the closure of S is 15-dimensional, and S with E2 and E3,
which touches 82 pairs, certifies there instead (``GENERATING_SETS``).
When neither certifies, S is the whole basis, which generates the algebra
by definition and touches every pair.  The lemma holds cochain by
cochain, and the bracket is never truncated, so it holds on an engine
with an h depth cap too: only the block's slots are capped, not d1 c.

Which rows a path uses: every report (``h1_block`` and ``h1_scan``, for
the F_p ranks, the witness's cocycle checks and the exact elimination
both end in) reads d1 on the rows of ``engine.generators`` (the
h-filtration, below, on those of the Poisson engine's), while ``d1``,
``cup`` and ``solve_obstruction``, which must meet a right-hand side on
every pair, use every pair.

Scans first try to certify each block over F_p, p = FP_PRIME = 2^61 - 1.
A block is assembled once, over the engine's own coefficients, and each
entry of the matrices of d1 and d0 is mapped to F_p by ``Scalar.mod_p`` at
alpha = FP_ALPHA.  Evaluation at FP_ALPHA mod p is a ring homomorphism on
the scalars whose denominators do not vanish there, so a minor that is
nonzero mod p is nonzero over Q(alpha): specialization can only lower a
rank.  With r1, r0 the ranks over F_p (r1 on the scan's rows of d1, which
have the rank of the full d1) and N the number of slots,

    H^1 = N - rank d1 - rank d0 <= N - r1 - r0.

When the bound is 0, H^1 = 0.  Since B lies in Z (d1 o d0 = 0), H^1 >= 0
forces rank d1 = r1 and rank d0 = r0, so Z = N - r1 and B = r0 are exact
too, and the report carries the certificate "modp-zero".

A block with a positive bound is settled by a witness checked exactly (a
certifying algorithm: McConnell, Mehlhorn, Naher and Schweitzer, Computer
Science Review 5, 2011), built from the paper's own cocycles
(``_witness_candidates``, ``named_cocycle``): theta1, theta2 and theta on
the Poisson engine; the star engine's tower is settled by the
h-filtration below.  On a view at alpha each candidate is evaluated
through the engine's substitution.  A candidate is kept when its terms are
slots of the block,
it vanishes exactly on every row the scan assembled (``_is_cocycle``), so
it is a cocycle by the lemma above, and it enlarges the exact span of the
d0 columns and of the candidates kept before it.  With b0 the exact rank
of d0 and h = N - r1 - b0, rank d1 >= r1 gives

    H^1 <= N - r1 - b0 = h,

and h kept cocycles, independent modulo B, give H^1 >= h.  So when h are
kept, Z = N - r1, B = b0 and H^1 = h are exact, with the certificate
"cocycle-witness", and the kept cocycles are the representatives when they
are asked for.  d1 is never eliminated over Q[alpha] there, so the report
lists the pivot polynomials of d0 only.  Fewer kept candidates, or an
entry with no image over F_p, send the block to the exact elimination of
d1 on every row the scan assembled, certificate "exact": that report,
representatives included, is ``h1_block``'s, which certifies nothing over
F_p.  A block with no slots (N = 0) is "empty": its dimensions are 0 by
counting, and the bound certifies nothing there.

A scan of the uncapped star engine settles its P+ blocks (k, 0) from the
h-filtration (``_filtration_report``) and assembles no star d1 or d0.

The filtration lemma.  Filter a star block (k, 0) by h power.  Its slots
are the slots of the classical P+ blocks (k - 2j, 0) times h^j, j >= 0
(``_monomials``: one h power carries k-degree 2, under the P+ rule
tau_exp >= 0), and so are its C^0 keys.  h is central, each star basis
element is its classical one plus terms with h
(``quantize.gamma_h_basis``), the h^0 part of [., .]_h is the Poisson
bracket, and the structure tables are the same
(``quantize.verify_h_structure_match``).  So d1 and d0 never lower the h
power, and their pieces from h^j to h^j are the classical P+ d1 and d0 of
block (k - 2j, 0): ordered by h power, each star matrix is
block-triangular with the classical matrices on its diagonal.  Such a
matrix has rank at least the sum of its diagonal blocks' ranks:
nonsingular minors of the diagonal blocks make together a
block-triangular minor, whose determinant is their product.  With r1(k')
the F_p rank of classical d1 on its generating-set rows and r0(k') that
of classical d0, each a lower bound for the exact rank (above), and N the
star block's slots,

    H^1 <= N - sum_j r1(k - 2j) - sum_j r0(k - 2j).

Each classical block is ranked once per scan, on the Poisson engine at
the same alpha (``Engine._classical``), and every star block that meets
it shares the ranks.  A bound of 0 settles the block, with Z and B exact
as for "modp-zero", certificate "h-filtration".

The cocycle.  h^j thetabar1 lies in block (2j, 0).  h is central, so
d1(h^j c) = h^j d1(c) on every pair, and h^j thetabar1 is a cocycle for
every j as soon as thetabar1 is one.  That is checked once per generic
star engine, by ``d1`` on every pair (``Engine.thetabar1_is_cocycle``),
never per block.  On a view at alpha the candidate is evaluated through
the substitution, and d1 of it is the evaluation of a polynomial in alpha
that is zero.

Not a coboundary, for every j.  Suppose h^j thetabar1 = d0(m) in block
(2j, 0), and let h^i m_i be the lowest nonzero h piece of m, m_i in C^0
of the classical block (2j - 2i, 0).  By the lemma the h^i piece of d0(m)
is d0_P+(m_i), and thetabar1 is theta1 plus h times an F1 term, so the
lowest piece of h^j thetabar1 is h^j theta1.

  - i < j: the h^i piece of h^j thetabar1 is 0, so d0_P+(m_i) = 0 in the
    classical block (2j - 2i, 0), whose k is positive; d0 is injective
    there, so m_i = 0, a contradiction.
  - i = j: theta1 = d0_P+(m_j), with m_j in C^0 of the classical block
    (0, 0), the constants, whose d0 is 0; but theta1 is not 0.
  - i > j (m = 0 among them): the h^j piece of d0(m) is 0, not theta1.

Classical d0 is injective on C^0 of block (k', 0) when r0(k') = |C^0(k')|.
C^0 of a P+ block with k' < 0 is empty, and the constant of block (0, 0)
is a kernel vector, so sum_j r0(k - 2j) = |C^0| - 1 for the star block
holds exactly when classical d0 is injective on every piece with k' > 0.
No star d0 is built.  So a bound of 1 at k = 2j >= 0, with that sum and
the check, gives H^1 = 1 with h^j thetabar1 as its representative; since
H^1 equals the bound, Z = N - sum r1 and B = sum r0 are exact, no pivot
polynomial is met, and the certificate is "h-filtration".  Anything else
(an entry with no image over F_p, as at alpha = 1/FP_PRIME, a bound above
1 or a failed condition) sends the star block to ``_assembly`` and the
exact elimination, certificate "exact": ``h1_block``'s report, which
keeps that exact path as the oracle.  Up to k = 80 the bound is 1 at even
k >= 0 and 0 elsewhere.

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
per block, one kernel call per basis element X: on the rows of a
generating set S, a name of S against every distinct slot key of the
block, and any other name against the slot keys of S and of H1 only.
beta is central and never differentiated,
and both kernels add beta exponents; every block key has beta 0, and no
basis term carries beta (``Engine`` refuses one).  So for the keys m_0,
m_1, ... X is bracketed with,

    [X, sum_i beta^i m_i] = sum_i beta^i [X, m_i],

and each [X, m_i] is read off the beta^i terms of the one bracket, with its
terms in the order a bracket with m_i alone would give them.  The C^0 keys
of a block are the slot keys of H1 (``_monomials`` with the same degrees,
weight and parity), so d0 reads its brackets from d1's table.

Only the two generic engines, ``poisson_engine()`` and
``quantized_engine()``, store blocks (``_assembly``), and only P blocks,
keyed (k, n, rows), rows being the names whose pairs give d1's rows:
``engine.generators`` for the reports, BASIS_NAMES for
``solve_obstruction``.  A stored block is its slots, d1 columns, C^0 keys
and d0 columns; no bracket table is kept.  Every other engine is a view: a
copy of the uncapped generic engine of its kind, with an h depth cap, a
rational alpha or both, and no store.  A block request, on any engine,
reads the generic engine's P block with the same k, n and rows, and cuts
it to the request's slots and C^0 keys when its target is not P or its
engine has a cap.  With no such P block stored, the block is assembled on
the requesting engine, whose basis and table are the generic ones, and
stored only when it is that P block, so a lone
P+ scan never pays for P's larger blocks and stores nothing.  On a view at
alpha every entry is then evaluated at alpha, zeros dropped, order kept.
The cut is sound.  A d1 column depends only on its slot, and a d0 column
only on its C^0 key.  The slots and C^0 keys of any block are a
subsequence of those of the uncapped P block with the same (k, n), in its
order: P+ lies in P, K4 is P at k = 2, K4' is K4 less the gap monomial,
and a cap only lowers the bound on h powers (``_monomials``), so it trims
slots, not d1 c.  The evaluation is sound too.  Every
basis and table coefficient of both engines is a polynomial in alpha, and
assembly uses ring operations only, so every entry is one too, and
substituting alpha, a ring homomorphism on Q[alpha], meets no pole: each
evaluated entry is the one an assembly over the basis and table evaluated
at alpha gives, up to the order of a column's entries.  ``generates`` maps
the table through the same substitution.  A view at alpha has the generic
basis and table, so ``d0``, ``cup`` and what calls them refuse it
(``cochain_engine``); a capped view keeps them.  ``is_coboundary`` and
``express_modulo_coboundaries`` cut d0 out of a stored P block with the
same (k, n), or else assemble d0 alone.

The same machinery runs for the h-deformed algebra: an engine bundles the
basis, the bracket, the structure table and the h-grading conventions, so
the star-product analogue reuses every formula with [.,.]_h substituted.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial

from . import d21, linalg
from .d21 import BASIS_NAMES, PARITY
from .linalg import SpanTracker, clear_denominators
# unused here; perfbench/tracer.py patches it in this __dict__ (tests/test_tracer_contract.py)
from .linalg import poly_rank  # noqa: F401
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

# Four root vectors that generate D(2,1;alpha) away from alpha = +-1.  Their
# rows carry rational constants, which the exact elimination of d1
# (``h1_block``) pivots on first; with (E1, E2, D3, D4), whose rows carry
# alpha, ``h1_block`` on the n = 0 star P+ blocks of window 6 took 40 ms,
# not 22.
GENERATORS = ("E1", "F2", "F3", "D1")
# The sets ``Engine.generators`` tries, in order: at alpha = +-1 the
# bracket closure of GENERATORS is 15-dimensional, and E2, E3 complete it.
GENERATING_SETS = (GENERATORS, GENERATORS + ("E2", "E3"))


def generates(engine: "Engine", names) -> bool:
    """Whether the basis elements ``names`` generate the engine's algebra.

    The span of the names is closed under the bracket over F_p, with the
    structure table mapped to F_p at alpha = FP_ALPHA (on a view at a fixed
    alpha, through its substitution first), in rounds.  Each
    round keeps the elements that ``linalg.rank_mod_p`` finds independent
    of the ones kept before, which are taken first and so all stay, and
    brackets each newly kept element with every kept element up to and
    including itself; the rounds stop at 17 elements, or when one keeps
    none.  Every kept element is unreduced, so it is the image of an
    iterated bracket of the names.  When 17 are independent over F_p, the
    17 by 17 minor of those iterated brackets is nonzero mod p, so nonzero
    over Q(alpha) or over Q: they span the algebra.  False when the closure
    is smaller, or when a structure constant has no image in F_p.
    """
    p, table = FP_PRIME, engine.struct
    if engine._source and engine._source[1]:
        table = {pair: _image(coeffs, engine._source[1]) for pair, coeffs in table.items()}
    try:
        struct = {pair: {n: c.mod_p(FP_ALPHA, p) for n, c in coeffs.items()}
                  for pair, coeffs in table.items()}
    except (ValueError, ZeroDivisionError):
        # FP_PRIME divides a rational denominator, or FP_ALPHA is a root of one
        return False
    kept, fresh = [], [{name: 1} for name in names]
    while fresh and len(kept) < len(BASIS_NAMES):
        elements = kept + fresh
        vectors: dict = {}  # the elements transposed: basis name -> {index: entry}
        for i, vec in enumerate(elements):
            for n, v in vec.items():
                vectors.setdefault(n, {})[i] = v
        start = len(kept)
        keys = linalg.rank_mod_p(vectors.values(), p, late=range(start, len(elements)))
        kept, fresh = [elements[i] for i in sorted(keys)], []
        for j, vec in enumerate(kept[start:], start):
            for u in kept[:j + 1]:  # [u, vec], vec itself included
                out: dict = {}
                for a, ua in u.items():
                    for b, vb in vec.items():
                        for n, c in struct[(a, b)].items():
                            out[n] = (out.get(n, 0) + ua * vb * c) % p
                fresh.append(out)
    return len(kept) == len(BASIS_NAMES)


class Engine:
    """Bracket engine: basis, bracket, structure table, h conventions.

    Coefficients are Scalars over Q(alpha).  An engine with an h depth cap
    or at a rational alpha is a view of the uncapped generic engine: it
    shares its tables, has no block store of its own, and reads the
    generic engine's (``_source``, module docstring).
    The star engine is the one whose h powers carry k-degree
    (``h_k_weight`` nonzero).  No basis term may carry beta: block assembly
    tags monomials with beta powers (``_brackets``), so the constructor
    raises ValueError on a basis term with a beta exponent.  On the
    uncapped star engines ``_engine`` builds, ``_classical`` gives the
    Poisson engine at the same alpha, for the h-filtration (module
    docstring); it is None elsewhere.
    """

    def __init__(self, basis, bracket, struct, h_k_weight, h_depth):
        for name, sym in basis.items():
            for key, c in sym.terms.items():
                if key[3]:
                    raise ValueError("basis element %s has a beta term %s" % (name, Symbol({key: c})))
        self.basis = basis
        self.bracket = bracket
        self.struct = struct
        self.h_k_weight = h_k_weight
        self.h_depth = h_depth
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
        self._blocks: dict | None = {}  # (k, n, rows) -> P block (``_assembly``); None on a view
        self._source = None  # on a view: (generic engine, substitution of alpha or None)
        self._classical = None

    @cached_property
    def generators(self):
        """The first of GENERATING_SETS that generates this engine's
        algebra, else BASIS_NAMES, which generates it by definition.

        The certificate is the bracket closure of the set's span over F_p,
        17 iterated brackets of the set independent by ``linalg.rank_mod_p``
        (``generates``); it runs on the first read, not at construction.
        ``h1_block`` and scans assemble d1 on the pairs that touch this set
        (module docstring): every pair for BASIS_NAMES.
        """
        return next((names for names in GENERATING_SETS if generates(self, names)), BASIS_NAMES)

    @cached_property
    def thetabar1_is_cocycle(self) -> bool:
        """Whether ``d1`` of thetabar1 vanishes on every pair (the h-filtration)."""
        return pairmap_is_zero(d1(named_cocycle("thetabar1"), self))

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


def _image(terms: dict, value) -> dict:
    """The terms with each coefficient mapped through ``value``, zeros
    dropped, in their order."""
    return {key: v for key, c in terms.items() if (v := value(c))}


def poisson_engine(alpha=None) -> Engine:
    return _engine(False, _rational(alpha), None)


def quantized_engine(alpha=None, h_depth=None) -> Engine:
    """Engine for the h-deformed algebra of differential-operator symbols.

    One h power carries k-degree 2; the structure constants match the
    Poisson ones (checked by quantize.verify_h_structure_match, exercised in
    the test suite).  h powers in a block are bounded by the operator
    constraint; pass h_depth to cap them harder.  Both public builders call
    the one builder ``_engine`` and take alpha as None, an int or a
    ``Fraction``.  An engine with a cap, at alpha or both is a view
    (``_engine``): it reads the uncapped generic engine's stored blocks,
    cut to its own slots and evaluated at alpha.  h_depth must be None or
    an int >= 0, checked before the cache as alpha is (``_rational``).
    """
    if h_depth is not None and (type(h_depth) is not int or h_depth < 0):
        raise ValueError("h_depth must be None or an int >= 0, got %r" % (h_depth,))
    return _engine(True, _rational(alpha), h_depth)


def _rational(alpha):
    """alpha if None, an int or a ``Fraction``, else ValueError: checked
    before the cache, which a float equal to a cached rational would read."""
    if alpha is None or isinstance(alpha, (int, Fraction)) and not isinstance(alpha, bool):
        return alpha
    raise ValueError("alpha must be an int or a Fraction, got %r" % (alpha,))


# cached on positional arguments, so every way of calling the public
# builders with the same values shares one engine
@lru_cache(maxsize=None)
def _engine(star: bool, alpha, h_depth) -> Engine:
    """The star engine when ``star``, else the Poisson one: generic, or a
    view of the generic engine at a rational ``alpha``, with an h depth cap
    (which only ``quantized_engine`` passes) or both.  A view is a copy of
    the generic engine, sharing basis, bracket, structure table, pairs,
    incidence and metadata, with no store; ``_source`` is the generic
    engine and the substitution of alpha, or None with no alpha.  It has
    its own slot sets under a cap, and its own generating-set certificate.
    """
    if alpha is not None or h_depth is not None:
        generic = _engine(star, None, None)
        engine = copy.copy(generic)
        # the generic generating set need not generate at alpha (+-1)
        vars(engine).pop("generators", None)
        if h_depth is not None:
            engine.h_depth, engine._slot_sets = h_depth, {}
        engine._blocks = None
        engine._source = (generic, None if alpha is None else _substitution(alpha))
        engine._classical = partial(_engine, False, alpha, None) if star and h_depth is None else None
        return engine
    if star:
        from . import quantize

        engine = Engine(quantize.gamma_h_basis(), quantize.h_bracket, d21.structure_table(),
                        h_k_weight=2, h_depth=None)
        engine._classical = partial(_engine, False, None, None)
        return engine
    return Engine(d21.embedded_basis(), lambda a, b: a.poisson(b), d21.structure_table(),
                  h_k_weight=0, h_depth=0)


def _substitution(alpha):
    """c -> ``c.specialize(alpha)`` for the entries of blocks.

    A rational constant is its own value.  Any other value is specialized
    once: the entries in alpha take few distinct values (58 among the
    1,626 of the star P+ blocks at window 8).  A polynomial is keyed by its
    stored coefficients, which is cheaper than hashing the scalar; every
    entry is tested, so the tests are spelled out inline.
    """
    memo: dict = {}

    def value(c: Scalar) -> Scalar:
        if c.ad is POLY_ONE:
            terms = c.an.c
            if not terms or len(terms) == 1 and 0 in terms:
                return c
            key = (c.an.d, *terms.items())
        else:
            key = c
        v = memo.get(key)
        if v is None:
            v = memo[key] = c.specialize(alpha)
        return v

    return value


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


def cochain_engine(engine: Engine | None) -> Engine:
    """``engine``, or the Poisson one when None, for an operation that
    brackets with its basis or table: ``d0``, ``cup`` and their callers.
    ValueError on a view at a fixed alpha, whose basis and table are the
    generic engine's; a capped view is accepted."""
    engine = engine or poisson_engine()
    if engine._source and engine._source[1]:
        raise ValueError("an engine at a fixed alpha only scans (h1_scan, h1_block); cochain "
                         "operations need the generic engine")
    return engine


def d0(m: Symbol, engine: Engine | None = None, block: BlockSpec | None = None) -> Cochain1:
    engine = cochain_engine(engine)
    return Cochain1(
        {name: engine.bracket(engine.basis[name], m) for name in BASIS_NAMES}, block
    )


def d1(c: Cochain1, engine: Engine | None = None) -> dict:
    """Values of the coboundary on the canonical ordered basis pairs:
    [[rho, c]](X, Y) - c([X, Y]), with rho the embedding as a 1-cochain
    (``cup``)."""
    engine = engine or poisson_engine()
    out = cup(Cochain1(engine.basis), c, engine)  # refuses an engine at a fixed alpha
    images = c.images
    for (x, y), val in out.items():
        for name, coeff in engine.struct[(x, y)].items():
            if name in images:
                val = val - images[name] * coeff
        out[(x, y)] = val
    return out


def cup(phi: Cochain1, phi_prime: Cochain1, engine: Engine | None = None) -> dict:
    """[[phi, phi']](X, Y) = [phi X, phi' Y] + [phi' X, phi Y] per pair."""
    engine = cochain_engine(engine)
    a, b = phi.images, phi_prime.images
    out = {}
    for (x, y) in engine.pairs:
        # brackets of the images the cochains have: the others are zero
        val = engine.bracket(a[x], b[y]) if x in a and y in b else SYM_ZERO
        if x in b and y in a:
            val = val + engine.bracket(b[x], a[y])
        out[(x, y)] = val
    return out


def pairmap_is_zero(pm: dict) -> bool:
    return not any(pm.values())


# ---------------------------------------------------------------------------
# block assembly
# ---------------------------------------------------------------------------


def _brackets(engine: Engine, names, keys) -> dict:
    """The terms of [X, m], keyed (X, m), for every basis name X in
    ``names`` and every unit monomial key m in ``keys``.

    One bracket per name: X against the sum of beta^i m_i over the keys
    m_i, whose beta^i terms are [X, m_i] (module docstring).  Both engines'
    brackets are one int walk on alpha-power layers, and X and the tagged
    sum are split once (``Symbol.layers``), so each name costs one walk and
    one fold, when its terms are read here.
    """
    if not (names and keys):
        return {}
    tagged = Symbol({(t, u, mask, i, h): S_ONE for i, (t, u, mask, _, h) in enumerate(keys)})
    table = {}
    for name in names:
        results = [{} for _ in keys]
        for (t, u, mask, i, h), c in engine.bracket(engine.basis[name], tagged).terms.items():
            results[i][(t, u, mask, 0, h)] = c
        table.update(((name, key), terms) for key, terms in zip(keys, results))
    return table


def _d1_columns(block: BlockSpec, engine: Engine, generators=BASIS_NAMES):
    """Elementary cochains of the block, their coboundary vectors on the
    rows of the pairs with a name in ``generators`` (every row for the full
    basis), and the brackets those were read from.

    Returns (slots, columns, table): slots = [(name, key)], and columns[i]
    a dict (pair_index, monomial_key) -> Scalar, the full column's entries
    on those rows, in their order, adding up the brackets and structure
    terms ``engine.incidence`` lists for its name.  ``table`` (``_brackets``)
    holds a name of the set against the block's distinct slot keys, any
    other name only against those of the set's names and of H1 (the C0
    keys): all that the columns and ``_d0_columns`` read.
    """
    slots = enumerate_c1(block, engine)
    keys = list(dict.fromkeys(key for _, key in slots))
    narrow = list(dict.fromkeys(key for name, key in slots
                                if name in generators or name == "H1"))
    table = _brackets(engine, generators, keys)
    table.update(_brackets(engine, [n for n in BASIS_NAMES if n not in generators], narrow))
    touched = {pi for pi, (x, y) in enumerate(engine.pairs) if x in generators or y in generators}
    incidence = {name: [entry for entry in entries if entry[0] in touched]
                 for name, entries in engine.incidence.items()}
    columns = []
    for (name0, key0) in slots:
        vec: dict = {}
        for pi, parts, coeff in incidence[name0]:
            # keys of one pair index follow each other, in the order a
            # running sum of the parts would hold them
            for name, sign in parts:
                for mk, c in table[(name, key0)].items():
                    _accumulate(vec, (pi, mk), c, sign)
            if coeff is not None:
                _accumulate(vec, (pi, key0), coeff)
        columns.append(vec)
    return slots, columns, table


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


def _d0_columns(block: BlockSpec, engine: Engine, table: dict | None = None):
    """C0 monomial keys and their coboundary vectors in (name, key) space.

    The columns read the brackets of every basis name with the C0 keys from
    ``table``, the one ``_d1_columns`` of the same block returns: the C0
    keys are the slot keys of H1, so it holds them all.  With no table
    given, ``_brackets`` makes one over the C0 keys.
    """
    mon0 = enumerate_c0(block, engine)
    if table is None:
        table = _brackets(engine, BASIS_NAMES, mon0)
    columns = []
    for key in mon0:
        vec = {}
        for name in BASIS_NAMES:
            for mk, c in table[(name, key)].items():
                vec[(name, mk)] = c
        columns.append(vec)
    return mon0, columns


def _assembly(block: BlockSpec, engine: Engine, rows):
    """(slots, d1 columns, C0 keys, d0 columns) of the block, d1 on the
    rows of the pairs with a name in ``rows`` (module docstring).

    The generic engine's stored P block of the same k, n and rows is read;
    with none stored, the block is assembled, and stored when it is that P
    block.  A stored block is cut to the engine's own slots and C0 keys
    when its target or h cap differs, and evaluated at alpha on a view
    that has one.  Callers must not mutate what it returns.
    """
    generic, value = engine._source or (engine, None)
    key = (block.k, block.n, rows)
    p_block = block.target == "P" and engine.h_depth == generic.h_depth  # the kind stored
    assembled = generic._blocks.get(key)
    if assembled is None:
        slots, columns, table = _d1_columns(block, engine, rows)
        assembled = (slots, columns, *_d0_columns(block, engine, table))
        if p_block:
            generic._blocks[key] = assembled
    elif not p_block:
        slots, columns, mon0, bcols = assembled
        column, bcolumn = dict(zip(slots, columns)), dict(zip(mon0, bcols))
        slots, mon0 = enumerate_c1(block, engine), enumerate_c0(block, engine)
        assembled = (slots, [column[slot] for slot in slots], mon0, [bcolumn[m] for m in mon0])
    if value is None:
        return assembled
    slots, columns, mon0, bcols = assembled
    return slots, [_image(vec, value) for vec in columns], mon0, [_image(vec, value) for vec in bcols]


def _coboundaries(block: BlockSpec, engine: Engine):
    """C0 keys and d0 columns of the block, cut out of a stored P block of
    the generic engine with the same (k, n), else d0 assembled alone."""
    generic = engine._source[0] if engine._source else engine
    whole = next((b for (k, n, _), b in generic._blocks.items() if (k, n) == (block.k, block.n)),
                 None)
    if whole is None:
        return _d0_columns(block, engine)
    bcolumn, mon0 = dict(zip(whole[2], whole[3])), enumerate_c0(block, engine)
    return mon0, [bcolumn[m] for m in mon0]


@dataclass
class CohomologyReport:
    """Dimensions and witnesses for one block.

    ``certificate`` names what established the dimensions: "exact" for
    elimination over the engine's coefficients of the rows of d1 on the
    pairs that touch the engine's generating set (``Engine.generators``),
    "modp-zero" for the F_p rank bound of ``h1_scan``, "cartan-zero" for
    the ad H1 argument on a block with n != 0 (no representatives, no
    pivots for either), "cocycle-witness" for the F_p rank of d1 with the
    paper's cocycles, checked by a scan on the rows it assembled, those of
    the generating set, and independent modulo the exact span of d0 (the
    pivots of d0 only; the checked cocycles are the representatives),
    "h-filtration" for a star P+ block of a scan, from classical P+ ranks
    and h^(k/2) thetabar1 (its representative; no pivots), and "empty" for
    a block with no slots, where every dimension is 0 by counting.
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
    elimination over the engine's coefficients of d1 on the rows of the
    engine's generating set, which have the kernel of the full d1 (module
    docstring).

    Representatives, when requested and the block is nontrivial, are kernel
    vectors of d1 certified independent modulo the coboundary span.  One
    span of the d0 columns gives both dim B and that certificate.  A block
    with no slots is "empty".  On an engine with an h depth cap, a block
    that d0 leaves is not a subcomplex: ValueError.  The block comes from
    ``_assembly``, cut out of a stored P block when there is one (module
    docstring).
    """
    return _block_report(block, engine or poisson_engine(), representatives)


def _h1_exact(block: BlockSpec, slots, columns, bcols, representatives: bool) -> CohomologyReport:
    """The exact report of an assembled block from its slots, d1 columns and
    d0 columns, d1 eliminated on every row of the columns.  The kernel
    vectors kept, sparsest first, independent modulo the coboundaries, are
    the representatives when asked for.
    """
    kvecs, found1 = linalg.kernel_basis(columns)
    span, found0 = _coboundary_span(slots, bcols)
    dim_z = len(slots) - len(found1)
    dim_h1 = dim_z - len(found0)
    if dim_h1 < 0:  # B lies in Z, which lies in the kernel of any rows of d1
        raise AssertionError("negative H^1 dimension in block %s" % (block,))
    kept = []
    # sparsest kernel vectors first, so representatives come out short
    for kv in sorted(kvecs, key=len):
        if len(kept) == dim_h1:
            break
        if span.insert(kv, ("z", len(kept))):
            kept.append(kv)
    if len(kept) != dim_h1:
        raise AssertionError("found %d of %d representatives" % (len(kept), dim_h1))
    reps = [_slots_to_cochain(slots, kv, block) for kv in kept] if representatives else []
    return CohomologyReport(block, dim_z, len(found0), dim_h1, reps,
                            _pivot_union(linalg.pivot_polynomials(found1), found0))


def _witness_candidates(block: BlockSpec, engine: Engine) -> list:
    """The paper's cocycles that may span H^1 of a Poisson block: theta1,
    theta2 and theta (module docstring; the star tower is the
    h-filtration's).  Each is checked before it is used."""
    return [named_cocycle(name) for name in ("theta1", "theta2", "theta")]


def _witness_report(block: BlockSpec, engine: Engine, slots, columns, bcols, rank_d1: int,
                    representatives: bool) -> CohomologyReport | None:
    """The "cocycle-witness" report of an assembled block whose d1 has F_p
    rank ``rank_d1``, or None unless exactly h = N - rank_d1 - rank d0
    candidates are kept (module docstring).

    A candidate of ``_witness_candidates``, evaluated at the engine's alpha
    on a view, is kept when its terms are slots of the block, it vanishes
    on every row of ``columns`` (``_is_cocycle``), and it enlarges the
    exact span of the d0 columns and of the candidates kept before it.
    """
    value = engine._source[1] if engine._source else None
    index = {slot: j for j, slot in enumerate(slots)}
    span, found0 = _coboundary_span(slots, bcols)
    dim_h1 = len(slots) - rank_d1 - len(found0)
    kept = []
    for c in _witness_candidates(block, engine):
        vec = _cochain_vector(c)
        if not vec.keys() <= index.keys():
            continue
        kv = {index[slot]: coeff for slot, coeff in vec.items()}
        if value is not None:
            kv = _image(kv, value)
        if _is_cocycle(kv, columns) and span.insert(kv, ("z", len(kept))):
            kept.append(kv)
    if len(kept) != dim_h1:
        return None
    reps = [_slots_to_cochain(slots, kv, block) for kv in kept] if representatives else []
    return CohomologyReport(block, len(slots) - rank_d1, len(found0), dim_h1, reps,
                            linalg.pivot_polynomials(found0), "cocycle-witness")


def _coboundary_span(slots, bcols):
    """(span, pivots as found) of the d0 columns, eliminated exactly in
    slot coordinates."""
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
    return span, span.forward()


def _pivot_union(pivots1, found0) -> list:
    """d1's pivot polynomials, then d0's, each rendering once."""
    return list({str(p): p for p in pivots1 + linalg.pivot_polynomials(found0)}.values())


def _is_cocycle(kv: dict, columns) -> bool:
    """sum_j kv[j] * columns[j] == 0 exactly, on every row the columns
    hold."""
    total: dict = {}
    for j, v in kv.items():
        for key, c in columns[j].items():
            _accumulate(total, key, v * c)
    return not total


def _fp_rank(columns):
    """Pivot keys over F_p of the columns' images at alpha = FP_ALPHA
    (``linalg.rank_mod_p``; their number is the rank), or None when an entry
    has no image there."""
    try:
        images = [{key: c.mod_p(FP_ALPHA, FP_PRIME) for key, c in vec.items()} for vec in columns]
    except (ValueError, ZeroDivisionError):
        # FP_PRIME divides a rational denominator, or FP_ALPHA is a root of one
        return None
    return linalg.rank_mod_p(images, FP_PRIME)


def _fp_ranks(columns, bcols):
    """(r1, r0), the F_p ranks of the d1 and d0 columns, or None when an
    entry has no image over F_p."""
    rows1 = _fp_rank(columns)
    rows0 = None if rows1 is None else _fp_rank(bcols)
    return None if rows0 is None else (len(rows1), len(rows0))


def _filtration_report(block: BlockSpec, engine: Engine, ranks: dict,
                       representatives: bool) -> CohomologyReport | None:
    """The "h-filtration" report of a star P+ block (k, 0), or None
    (module docstring).  ``ranks``, the scan's, maps k' to ``_fp_ranks`` of
    the classical P+ block (k', 0); a missing k' is ranked here."""
    slots = enumerate_c1(block, engine)
    if not slots:
        return CohomologyReport(block, 0, 0, 0, [], [], "empty")
    classical = engine._classical()
    r1 = r0 = 0
    for h in {key[4] for _, key in slots}:  # the pieces (k - 2h, 0)
        k = block.k - 2 * h
        if k not in ranks:
            _, columns, _, bcols = _assembly(BlockSpec(k, 0, "P+"), classical, classical.generators)
            ranks[k] = _fp_ranks(columns, bcols)
        if ranks[k] is None:
            return None
        r1, r0 = r1 + ranks[k][0], r0 + ranks[k][1]
    bound, reps = len(slots) - r1 - r0, []
    if bound:
        generic, value = engine._source or (engine, None)
        if (bound > 1 or block.k < 0 or block.k % 2 or r0 != len(enumerate_c0(block, engine)) - 1
                or not generic.thetabar1_is_cocycle):
            return None
        images = named_cocycle("thetabar1").scale(_sym(h=block.k // 2)).images
        if value is not None:
            images = {name: Symbol(_image(sym.terms, value)) for name, sym in images.items()}
        tower = Cochain1(images, block)
        if not _cochain_vector(tower).keys() <= set(slots):
            return None
        reps = [tower] if representatives else []
    return CohomologyReport(block, len(slots) - r1, r0, bound, reps, [], "h-filtration")


def _block_report(block: BlockSpec, engine: Engine, representatives: bool,
                  ranks: dict | None = None) -> CohomologyReport:
    """The report of a block from its assembly (``_assembly``).

    d1 is assembled on the pairs that touch the engine's generating set
    (``Engine.generators``), which have the kernel of the full d1 (module
    docstring).  A block with no slots is "empty".  On an engine with an h
    depth cap, a block that d0 leaves is not a subcomplex: ValueError.
    With ``ranks`` None (``h1_block``), the block is eliminated exactly on
    those rows.

    A scan passes its classical P+ ranks and certifies.  A star P+ block
    goes to ``_filtration_report``, else exact.  On any other block the
    ranks r1, r0 of d1 and d0 over F_p are lower bounds for the exact
    ones, so H^1 <= N - r1 - r0 for N slots; when the bound is 0 the block
    is "modp-zero".  Otherwise ``_witness_report`` settles it as
    "cocycle-witness" with the paper's cocycles, representatives
    included.  When too few candidates pass its checks, or an entry has no
    image over F_p, ``_h1_exact`` runs on every row assembled, so the
    report is ``h1_block``'s.
    """
    certify = ranks is not None
    if certify and engine._classical and block.target == "P+":
        report = _filtration_report(block, engine, ranks, representatives)
        if report is not None:
            return report
        certify = False
    slots, columns, _, bcols = _assembly(block, engine, engine.generators)
    if not slots:
        return CohomologyReport(block, 0, 0, 0, [], [], "empty")
    if engine.h_k_weight and engine.h_depth is not None:
        inside = set(slots)
        if any(not vec.keys() <= inside for vec in bcols):
            raise ValueError("d0 leaves block (k=%d, n=%d, %s) under the h depth cap "
                             "h_depth=%d: the block is not a subcomplex"
                             % (block.k, block.n, block.target, engine.h_depth))
    fp = _fp_ranks(columns, bcols) if certify else None
    if fp is not None:
        rank_d1, rank_d0 = fp
        if rank_d1 + rank_d0 == len(slots):
            return CohomologyReport(block, len(slots) - rank_d1, rank_d0, 0, [], [], "modp-zero")
        report = _witness_report(block, engine, slots, columns, bcols, rank_d1, representatives)
        if report is not None:
            return report
    return _h1_exact(block, slots, columns, bcols, representatives)


def h1_scan(k_range, n_range, target: str, engine: Engine | None = None, representatives: bool = True):
    """Reports for every block in the window (K4 targets pin k = 2).

    Blocks with n != 0 are "cartan-zero" with Z = B = |C^0| (module
    docstring).  On the star engine a P+ block with n = 0 is settled by
    the h-filtration, with no star block assembled.  Any other block with
    n = 0 comes from ``_assembly``, on the rows of the engine's generating
    set, and certified over F_p when it can be, by the F_p bound or by a
    cocycle witness, whose verified cocycles of the paper are its
    representatives.  A block neither path settles is eliminated exactly
    on those rows, as ``h1_block`` does.  An engine with an h depth cap is
    refused: its blocks are not subcomplexes.
    """
    engine = engine or poisson_engine()
    if engine.h_k_weight and engine.h_depth is not None:
        raise ValueError("h1_scan needs an engine with no h depth cap, got h_depth=%d"
                         % engine.h_depth)
    ks = [2] if target in ("K4", "K4'") else k_range
    reports, ranks = [], {}  # ranks: the classical P+ pieces of the h-filtration
    for k in ks:
        for n in n_range:
            block = BlockSpec(k, n, target)
            if n:
                m = len(enumerate_c0(block, engine))
                reports.append(CohomologyReport(block, m, m, 0, [], [], "cartan-zero"))
            else:
                reports.append(_block_report(block, engine, representatives, ranks))
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
    thetabar1 is the h-deformed counterpart of theta1: theta1 with
    (alpha - 1) t^-2 h added to its F1 image.
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
        images = dict(named_cocycle("theta1").images)
        images["F1"] = images["F1"] + _sym(t=-2, h=1, coeff=a - S_ONE)
        return Cochain1(images, BlockSpec(0, 0, "P+"))
    raise ValueError("unknown cocycle %r" % (name,))


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def _cochain_vector(c: Cochain1) -> dict:
    """Coordinates (name, monomial key) -> Scalar of a cochain."""
    return {
        (name, mk): coeff for name, img in c.images.items() for mk, coeff in img.terms.items()
    }


def _modulo_coboundaries(c: Cochain1, generators, block: BlockSpec, engine: Engine | None):
    """(coefficients a, preimage m) with c = sum a_j * generators[j] + d0(m)
    inside the block, or None when there are none."""
    engine = cochain_engine(engine)
    mon0, bcols = _coboundaries(block, engine)
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
    solved = _modulo_coboundaries(c, [], block, engine)
    return None if solved is None else solved[1]


def express_modulo_coboundaries(c: Cochain1, generators, block: BlockSpec, engine: Engine | None = None):
    """Write c = sum a_i * generators[i] + d0(m) inside the block.

    Returns (coefficients list, preimage Symbol) or None when impossible.
    """
    return _modulo_coboundaries(c, generators, block, engine)


def solve_obstruction(rho1: Cochain1, order_block: BlockSpec, engine: Engine | None = None):
    """Solve d1(rho2) = -1/2 [[rho1, rho1]] inside the given block.

    Returns a Cochain1 solution or None when the block contains none.
    """
    engine = engine or poisson_engine()
    rhs_pairs = cup(rho1, rho1, engine)  # refuses an engine at a fixed alpha
    rhs_vec = {}
    for pi, (x, y) in enumerate(engine.pairs):
        val = rhs_pairs[(x, y)] * (-S_HALF)
        for mk, coeff in val.terms.items():
            rhs_vec[(pi, mk)] = coeff
    slots, columns = _assembly(order_block, engine, BASIS_NAMES)[:2]
    tracker = SpanTracker()
    for j, vec in enumerate(columns):
        tracker.insert(vec, j)
    expr = tracker.express(rhs_vec)
    if expr is None:
        return None
    return _slots_to_cochain(slots, expr, order_block)
