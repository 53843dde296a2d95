import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpds import cohomology as coh
from superpds import linalg
from superpds.linalg import (
    SpanTracker,
    clear_denominators,
    column_rows,
    kernel_basis,
    poly_rank,
    rank_mod_p,
)
from superpds.scalars import ALPHA, POLY_ONE, AlphaPoly, S_ONE, Scalar


def P(*coeffs):
    return AlphaPoly.from_rationals({i: Fraction(c) for i, c in enumerate(coeffs) if c})


def test_poly_rank_simple():
    rows = [{0: P(1), 1: P(2)}, {0: P(2), 1: P(4)}, {2: P(0, 1)}]
    rank, pivots = poly_rank(rows)
    assert rank == 2
    assert [str(p) for p in pivots] == ["alpha"]


def test_poly_rank_duplicate_singletons():
    rows = [{0: P(1)}, {0: P(5)}, {0: P(0, 3)}]
    rank, _ = poly_rank(rows)
    assert rank == 1


def test_poly_rank_records_polynomial_pivots():
    # second pivot becomes alpha-dependent after eliminating the first column
    rows = [
        {0: P(1), 1: P(1)},
        {0: P(1), 1: P(1, 1)},
    ]
    rank, pivots = poly_rank(rows)
    assert rank == 2
    assert [str(p) for p in pivots] == ["alpha"]


def test_rank_of_scalar_rows_with_denominators():
    inv = (S_ONE + ALPHA).inv()
    rows = [{0: inv, 1: inv}, {0: S_ONE, 1: S_ONE}]
    assert poly_rank([clear_denominators(r)[0] for r in rows])[0] == 1


def test_span_tracker_express():
    tracker = SpanTracker()
    tracker.insert({0: S_ONE, 1: Scalar.from_fraction(2)}, "a")
    tracker.insert({1: S_ONE}, "b")
    expr = tracker.express({0: Scalar.from_fraction(3), 1: Scalar.from_fraction(7)})
    assert expr is not None
    assert expr["a"] == Scalar.from_fraction(3)
    assert expr["b"] == S_ONE
    assert tracker.express({2: S_ONE}) is None


def test_span_tracker_alpha_coefficients():
    tracker = SpanTracker()
    tracker.insert({0: ALPHA}, "a")
    expr = tracker.express({0: S_ONE})
    assert expr == {"a": ALPHA.inv()}


def test_kernel_basis():
    cols = [
        {0: S_ONE},
        {0: Scalar.from_fraction(2)},
        {1: S_ONE},
        {0: S_ONE, 1: S_ONE},
    ]
    kern, found = kernel_basis(cols)
    assert len(kern) == 2 and len(found) == 2
    for vec in kern:
        acc = {}
        for j, c in vec.items():
            for key, v in cols[j].items():
                acc[key] = acc.get(key, Scalar.from_fraction(0)) + c * v
        assert not any(acc.values())


# -- the elimination core against a dense reference ---------------------------

ZERO = Scalar.from_fraction(0)


def dense_rank(rows, ncols):
    """Reference: dense Gaussian elimination over Q(alpha) with Scalar entries."""
    m = [[row.get(j, ZERO) for j in range(ncols)] for row in rows]
    rank = 0
    for j in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][j].inv()
        for i in range(rank + 1, len(m)):
            if m[i][j]:
                f = m[i][j] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_scalar(rng, kind):
    """A nonzero entry: an integer, a polynomial or a rational function."""
    const = Scalar.from_fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    if kind == "const" or (kind == "mixed" and rng.random() < 0.6):
        return const
    poly = const + ALPHA * rng.choice((-1, 1, 2)) + ALPHA * ALPHA * rng.choice((0, 0, 1))
    if kind == "rational" and rng.random() < 0.5:
        return poly / (ALPHA + rng.choice((1, 2, 3)))
    return poly


def random_matrix(rng, kind):
    """Sparse rows over Q(alpha) spanning a space of random dimension: each
    row combines a few sparse generators with coefficients of ``kind``."""
    nrows, ncols = rng.randint(3, 7), rng.randint(3, 6)
    gens = [
        {j: random_scalar(rng, kind) for j in range(ncols) if rng.random() < 0.5}
        for _ in range(rng.randint(1, min(nrows, ncols)))
    ]
    rows = []
    for _ in range(nrows):
        row = {}
        for gen in rng.sample(gens, rng.randint(1, len(gens))):
            coeff = random_scalar(rng, "mixed")
            for j, c in gen.items():
                row[j] = row.get(j, ZERO) + coeff * c
        rows.append({j: c for j, c in row.items() if c})
    return rows, ncols


def combine(coeffs, vectors):
    acc = {}
    for tag, c in coeffs.items():
        for key, v in vectors[tag].items():
            acc[key] = acc.get(key, ZERO) + c * v
    return {key: v for key, v in acc.items() if v}


CASES = [(seed, kind) for kind in ("const", "poly", "rational") for seed in range(8)]


def test_core_matches_dense_reference():
    poly_pivots = 0
    for seed, kind in CASES:
        rng = random.Random(seed)
        rows, ncols = random_matrix(rng, kind)
        rank = dense_rank(rows, ncols)
        prank, pivots = poly_rank([clear_denominators(r)[0] for r in rows])
        assert prank == rank, (seed, kind)
        poly_pivots += len(pivots)

        columns = [{i: r[j] for i, r in enumerate(rows) if j in r} for j in range(ncols)]
        kern, found = kernel_basis(columns)
        assert len(kern) == ncols - rank, (seed, kind)
        # the forward pass of the kernel is the rank computation's, pivot for pivot
        crank, cpivots = poly_rank(column_rows(columns))
        assert (len(found), [str(q) for q in linalg.pivot_polynomials(found)]) == (
            crank, [str(q) for q in cpivots]), (seed, kind)
        for vec in kern:
            assert combine(vec, columns) == {}, (seed, kind)

        tracker = SpanTracker()
        accepted = [tracker.insert(r, i) for i, r in enumerate(rows)]
        assert sum(accepted) == rank == len(tracker.pivots), (seed, kind)
        coeffs = {i: random_scalar(rng, "mixed") for i in range(len(rows))}
        target = combine(coeffs, dict(enumerate(rows)))
        expr = tracker.express(target)
        assert expr is not None and combine(expr, dict(enumerate(rows))) == target
        probe = {j: random_scalar(rng, kind) for j in range(ncols)}
        outside = dense_rank(rows + [probe], ncols) > rank
        assert (tracker.express(probe) is None) == outside, (seed, kind)
    # the polynomial cases reach pivots that depend on alpha
    assert poly_pivots > 0


def test_clear_denominators():
    inv = (S_ONE + ALPHA).inv()
    row, den = clear_denominators({0: inv, 1: ALPHA, 2: ZERO})
    assert den == AlphaPoly.from_rationals({0: Fraction(1), 1: Fraction(1)})
    assert row == {0: P(1), 1: P(0, 1, 1)}
    row, den = clear_denominators({0: ALPHA})
    assert row == {0: P(0, 1)} and den.is_one()


# -- the elimination core against the reference core -------------------------
#
# The core before fused row updates, kept as the oracle: a row update adds
# the negated multiple as separate polynomials, a constant pivot is scaled
# by a Fraction and the pivot scan visits every row of each column it
# reaches.  Both cores must choose the same pivots and build the same rows.


def ref_add_multiple(target, source, factor, occupancy=None, rid=None):
    f = factor.constant() if factor.is_constant() else None
    for c, p in source.items():
        add = p.scaled(f) if f is not None else p * factor
        old = target.get(c)
        if old is None:
            target[c] = add
            if occupancy is not None:
                occupancy.setdefault(c, set()).add(rid)
            continue
        new = old + add
        if new:
            target[c] = new
        else:
            del target[c]
            if occupancy is not None:
                occupancy[c].discard(rid)


def ref_eliminate(row, comb, col, piv, prow, pcomb, occupancy=None, rid=None):
    neg = -row.pop(col)
    if not piv.is_one():
        for d in (row, comb):
            for c in d:
                d[c] = piv * d[c]
    ref_add_multiple(row, prow, neg, occupancy, rid)
    ref_add_multiple(comb, pcomb, neg)
    return piv


def ref_choose(self):
    work, occupancy = self.work, self.occupancy
    for rid in self.singles:
        ((col, p),) = work[rid][0].items()
        if p.is_constant():
            return rid, col
    best = cost = None
    for col in sorted(occupancy, key=lambda c: len(occupancy[c])):
        k = len(occupancy[col]) - 1
        if cost is not None and cost <= k:
            break
        for rid in occupancy[col]:
            row = work[rid][0]
            c = (len(row) - 1) * k
            if (cost is None or c < cost) and row[col].is_constant():
                best, cost = (rid, col), c
    if best is not None:
        return best

    def key(entry):
        row = work[entry[0]][0]
        return row[entry[1]].degree(), (len(row) - 1) * (len(occupancy[entry[1]]) - 1)

    return min(((rid, col) for col, rids in occupancy.items() for rid in rids), key=key)


def ref_step(self):
    rid, col = self._choose()
    work, occupancy, singles = self.work, self.occupancy, self.singles
    row, comb = work.pop(rid)
    singles.discard(rid)
    found = row.pop(col)
    for c in row:
        occupancy[c].discard(rid)
    touched = occupancy.pop(col)
    touched.discard(rid)
    piv = found
    if found.is_constant():
        piv = POLY_ONE
        inv = 1 / Fraction(found.constant())
        row = {c: p.scaled(inv) for c, p in row.items()}
        comb = {t: p.scaled(inv) for t, p in comb.items()}
    for tid in touched:
        trow, tcomb = work[tid]
        linalg._eliminate(trow, tcomb, col, piv, row, comb, occupancy, tid)
        if len(trow) == 1:
            singles.add(tid)
        else:
            singles.discard(tid)
            if not trow:
                del work[tid]
    self.pivots.append((col, piv, row, comb))
    return found


def core_outputs(columns, vectors, probes):
    """What the core computes from one matrix: the forward pivots (col, piv,
    row, comb) with rows and combinations in stored order, the pivots as
    found, the pivots after back substitution, the kernel basis, and a span
    of ``vectors`` with its pivots and the expression of each probe."""
    def snapshot(pivots):
        return [(col, piv, list(row.items()), list(comb.items()))
                for col, piv, row, comb in pivots]

    elim = linalg._Elimination()
    elim.add_rows(column_rows(columns))
    found = elim.forward()
    forward = snapshot(elim.pivots)
    elim.back_substitute()
    tracker = SpanTracker()
    accepted = [tracker.insert(vec, i) for i, vec in enumerate(vectors)]
    return (forward, found, snapshot(elim.pivots), kernel_basis(columns),
            accepted, snapshot(tracker.pivots), [tracker.express(p) for p in probes])


def assert_matches_reference_core(monkeypatch, columns, vectors, probes):
    new = core_outputs(columns, vectors, probes)
    with monkeypatch.context() as m:
        m.setattr(linalg, "_eliminate", ref_eliminate)
        m.setattr(linalg._Elimination, "_choose", ref_choose)
        m.setattr(linalg._Elimination, "step", ref_step)
        ref = core_outputs(columns, vectors, probes)
    assert new == ref
    return new


def test_core_matches_reference_core_on_cases(monkeypatch):
    expressed = 0
    for seed, kind in CASES:
        rng = random.Random(seed)
        rows, ncols = random_matrix(rng, kind)
        columns = [{i: r[j] for i, r in enumerate(rows) if j in r} for j in range(ncols)]
        coeffs = {i: random_scalar(rng, "mixed") for i in range(len(rows))}
        probes = [combine(coeffs, dict(enumerate(rows))),
                  {j: random_scalar(rng, kind) for j in range(ncols)}]
        out = assert_matches_reference_core(monkeypatch, columns, rows, probes)
        expressed += out[-1][0] is not None
    assert expressed == len(CASES)


@pytest.mark.parametrize("engine_name,k,target", [
    ("poisson", 0, "P"), ("poisson", 0, "P+"), ("poisson", 2, "K4'"),
    ("star", 2, "P+"), ("star", 4, "P+"),
])
def test_core_matches_reference_core_on_blocks(monkeypatch, engine_name, k, target):
    engine = coh.quantized_engine() if engine_name == "star" else coh.poisson_engine()
    block = coh.BlockSpec(k, 0, target)
    _, d1_cols, table = coh._d1_columns(block, engine)
    d0_cols = coh._d0_columns(block, engine, table)[1]
    # a sum of d0 columns lies in their span; a d1 column need not
    inside = combine({0: S_ONE, len(d0_cols) - 1: ALPHA}, dict(enumerate(d0_cols)))
    for columns in (d1_cols, d0_cols):
        out = assert_matches_reference_core(monkeypatch, columns, d0_cols, [inside, d1_cols[0]])
        assert out[-1][0] is not None


# -- the fused row update against polynomial arithmetic ------------------------

coefficients = st.integers(-9, 9).filter(bool)
constant_factors = st.builds(AlphaPoly.const, coefficients)
rational_factors = st.builds(lambda v, d: AlphaPoly.const(Fraction(v, d)),
                             coefficients, st.integers(2, 12))
polynomials = st.builds(
    lambda coeffs, d: AlphaPoly.from_rationals({e: Fraction(v, d) for e, v in coeffs.items()}),
    st.dictionaries(st.integers(0, 3), coefficients, min_size=1, max_size=3),
    st.integers(1, 6),
)
polynomial_factors = polynomials.filter(lambda p: not p.is_constant())
poly_rows = st.dictionaries(st.integers(0, 5), polynomials, max_size=5)


@settings(max_examples=300, deadline=None)
@given(target=poly_rows, source=poly_rows,
       factor=st.one_of(constant_factors, rational_factors, polynomial_factors))
def test_fused_update_matches_polynomial_arithmetic(target, source, factor):
    expected = dict(target)
    for c, p in source.items():
        new = expected.get(c, AlphaPoly({})) - p * factor
        if new:
            expected[c] = new
        else:
            expected.pop(c, None)
    got = dict(target)
    occupancy = {c: {7} for c in target}
    linalg._subtract(got, source, factor, occupancy, 7)
    # same entries in the same order, each stored as the same c / d
    assert [(c, p.c, p.d) for c, p in got.items()] == [
        (c, p.c, p.d) for c, p in expected.items()]
    assert {c for c, rids in occupancy.items() if 7 in rids} == set(got)


# -- the rank mod p against a dense reference --------------------------------

MERSENNE = 2**61 - 1


def dense_rank_mod_p(vectors, keys, p):
    """Reference: dense Gaussian elimination over F_p, first nonzero pivot."""
    m = [[vec.get(key, 0) % p for key in keys] for vec in vectors]
    rank = 0
    for j in range(len(keys)):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][j], -1, p)
        for i in range(rank + 1, len(m)):
            if m[i][j]:
                f = m[i][j] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_int_vectors(rng, p):
    """Sparse int vectors over mixed keys spanning a space of random
    dimension; entries are unreduced, some are multiples of p."""
    keys = [(i, "k%d" % (i % 3)) for i in range(rng.randint(2, 12))]
    gens = [{key: rng.randrange(-3 * p, 3 * p) for key in keys if rng.random() < 0.4}
            for _ in range(rng.randint(1, 6))]
    vectors = []
    for _ in range(rng.randint(1, 10)):
        vec = {}
        for gen in rng.sample(gens, rng.randint(1, len(gens))):
            f = rng.randrange(-p, p)
            for key, v in gen.items():
                vec[key] = vec.get(key, 0) + f * v
        if rng.random() < 0.3:
            vec[rng.choice(keys)] = p * rng.randint(-2, 2)
        vectors.append(vec)
    return vectors, keys


def test_rank_mod_p_matches_dense_reference():
    for p in (2, 7, MERSENNE):
        for seed in range(40):
            rng = random.Random(seed)
            vectors, keys = random_int_vectors(rng, p)
            expected = dense_rank_mod_p(vectors, keys, p)
            assert len(rank_mod_p(vectors, p)) == expected, (p, seed)
            # rank of the transpose, and input left untouched
            columns = [{i: v[key] for i, v in enumerate(vectors) if key in v} for key in keys]
            assert len(rank_mod_p(columns, p)) == expected, (p, seed)
            assert vectors == random_int_vectors(random.Random(seed), p)[0]
    assert rank_mod_p([], 7) == [] and rank_mod_p([{0: 14}, {}], 7) == []


def _assert_pivot_minor(vectors, keys, p, late=()):
    """The keys index a minor of the vectors that is nonsingular mod p, and
    the keys in ``late`` come last."""
    restricted = [{key: vec[key] for key in keys if key in vec} for vec in vectors]
    assert dense_rank_mod_p(restricted, keys, p) == len(keys) == len(set(keys))
    flags = [key in late for key in keys]
    assert flags == sorted(flags)


def test_rank_mod_p_pivot_keys_index_a_nonsingular_minor():
    for p in (2, 7, MERSENNE):
        for seed in range(40):
            rng = random.Random(seed)
            vectors, keys = random_int_vectors(rng, p)
            expected = dense_rank_mod_p(vectors, keys, p)
            late = set(rng.sample(keys, rng.randint(0, len(keys))))
            for order in ((), late):
                found = rank_mod_p(vectors, p, order)
                assert len(found) == expected, (p, seed)
                _assert_pivot_minor(vectors, found, p, order)


@pytest.mark.parametrize("engine_name,k,target", [
    ("poisson", 0, "P"), ("poisson", 2, "P+"), ("poisson", 2, "K4'"), ("star", 2, "P+"),
])
def test_rank_mod_p_on_block_images(engine_name, k, target):
    # the matrices the F_p certificate of a scan ranks
    engine = coh.quantized_engine() if engine_name == "star" else coh.poisson_engine()
    block = coh.BlockSpec(k, 0, target)
    _, d1_cols, table = coh._d1_columns(block, engine)
    for columns in (d1_cols, coh._d0_columns(block, engine, table)[1]):
        images = [{key: c.mod_p(coh.FP_ALPHA, coh.FP_PRIME) for key, c in vec.items()}
                  for vec in columns]
        keys = list(dict.fromkeys(key for vec in images for key in vec))
        expected = dense_rank_mod_p(images, keys, coh.FP_PRIME)
        assert len(rank_mod_p(images, coh.FP_PRIME)) == expected > 0
        # the pivot rows of the witness: constant rows first
        found = coh._fp_rank(columns)
        late = {key for vec in columns for key, c in vec.items() if not c.an.is_constant()
                or not c.ad.is_one()}
        assert len(found) == expected
        _assert_pivot_minor(images, found, coh.FP_PRIME, late)
