"""Exact linear algebra over Q[alpha] for the cochain blocks, and ranks mod p.

One sparse fraction-free elimination serves ranks, kernels, span tests and
solve certificates.  Pivots are chosen by cost (Markowitz, Management
Sci. 3, 1957): constant before polynomial, then lower degree, then lower
(row length - 1) * (column count - 1), with column counts kept up to date.
A lower bound on the row lengths of each column lets the scan skip a
column that cannot beat the best entry so far: it picks as a full scan does.
A constant pivot v / d is scaled to 1 by the integers d and v; polynomial
pivots cross-multiply (Bareiss, Math. Comp. 22, 1968, without his exact
division: these blocks meet few of them), so every entry stays in
Q[alpha].  Each entry is an integer polynomial over one integer
denominator, and a row update forms each new entry of row - e * pivot row
as one integer combination over one denominator, reduced by one integer
gcd.  Content and gcd are removed once per output vector.

The roots of the polynomial pivots are the only alpha values at which a
specialized rank may drop, so the pivot list doubles as the exceptional-
parameter report; which polynomials appear depends on the pivot order.

``rank_mod_p`` is the certificate path: the pivot keys of an elimination
over F_p of int vectors, whose number, the rank over F_p, bounds the rank
over Q(alpha) from below (see ``cohomology``).  It keeps no combinations.
Its callers are the F_p ranks of scanned blocks and the generating-set
certificate (``cohomology.generates``), which finds 17 independent
iterated brackets with it: every F_p elimination of the package is this one.
"""

from __future__ import annotations

from itertools import count
from math import gcd as int_gcd, inf

from .scalars import POLY_ONE, Scalar, _poly, poly_gcd, poly_lcm


def clear_denominators(row: dict):
    """(row times the lcm of its denominators, that lcm) for a row of
    scalars; the product is a polynomial row without zero entries."""
    den = None
    for c in row.values():
        if not c.ad.is_one():
            den = c.ad if den is None else poly_lcm(den, c.ad)
    if den is None:  # every denominator is 1, the common case
        return {j: c.an for j, c in row.items() if c}, POLY_ONE
    return {j: c.an * den.exact_div(c.ad) for j, c in row.items() if c}, den


def column_rows(columns) -> list:
    """Polynomial rows of the matrix whose i-th column is ``columns[i]``
    (a dict key -> Scalar); row entries are indexed by column number."""
    rows: dict = {}
    for j, vec in enumerate(columns):
        for key, c in vec.items():
            rows.setdefault(key, {})[j] = c
    return [clear_denominators(row)[0] for row in rows.values()]


def _subtract(target: dict, source: dict, factor, occupancy=None, rid=None):
    """target -= factor * source, each new entry one integer combination
    over one denominator reduced once by ``_poly``, zeros dropped; ``occupancy``
    (col -> set of row ids) follows the entries of row ``rid``."""
    fc, w = factor.c, factor.d
    for c, p in source.items():
        old = target.get(c)
        # the new numerator over od: old's, plus s * factor's * p's
        d = p.d * w
        oc, od = ({}, d) if old is None else (old.c, old.d)
        if od == d:
            out, s = dict(oc), -1
        else:
            g = int_gcd(od, d)
            out, s = {e: x * (d // g) for e, x in oc.items()}, -(od // g)
            od *= d // g
        for ef, vf in fc.items():
            m = s * vf
            for e, x in p.c.items():
                e += ef
                nx = out.get(e, 0) + m * x
                if nx:
                    out[e] = nx
                else:
                    del out[e]
        if out:
            target[c] = _poly(out, od)
            if old is None and occupancy is not None:
                occupancy.setdefault(c, set()).add(rid)
        else:
            del target[c]
            if occupancy is not None:
                occupancy[c].discard(rid)


def _eliminate(row, comb, col, piv, prow, pcomb, occupancy=None, rid=None):
    """row <- piv * row - row[col] * prow (piv * omitted when it is 1), and
    the same on ``comb``; returns piv, the factor row was multiplied by."""
    factor = row.pop(col)
    if not piv.is_one():
        for d in (row, comb):
            for c in d:
                d[c] = piv * d[c]
    _subtract(row, prow, factor, occupancy, rid)
    if pcomb:
        _subtract(comb, pcomb, factor)
    return piv


class _Elimination:
    """Fraction-free row echelon form, grown one cheapest pivot at a time.

    ``pivots`` holds (col, piv, row, comb) in pivot order, ``piv`` being 1
    for constant pivots, whose rows are scaled by integers, and each row
    free of the earlier pivot columns, so reducing in that order clears
    them all.  ``comb`` (tag -> poly, empty when no tags are kept) is the
    combination of inserted vectors a row equals; each row update is one
    fused ``_subtract``, and none runs for an empty pivot ``comb``.  Rows
    still waiting sit in ``work``, indexed by column in ``occupancy``;
    ``singles`` holds those of length one, and ``short[col]`` is at most
    the length of every waiting row that meets col, so ``_choose`` skips
    columns and still picks what a full scan picks."""

    def __init__(self):
        self.pivots = []
        self.work = {}
        self.occupancy = {}
        self.short = {}
        self.singles = set()
        self._ids = count()

    def add(self, row: dict, comb: dict):
        rid, n, short = next(self._ids), len(row), self.short
        self.work[rid] = (row, comb)
        for col in row:
            self.occupancy.setdefault(col, set()).add(rid)
            if n < short.get(col, inf):
                short[col] = n
        if n == 1:
            self.singles.add(rid)

    def add_rows(self, rows):
        """Queue copies of polynomial rows, without their zero entries."""
        for r in rows:
            row = {c: p for c, p in r.items() if p}
            if row:
                self.add(row, {})

    def _choose(self):
        """(row id, col) minimizing (degree, Markowitz cost) over waiting
        rows: the first such entry with columns taken by count, then age,
        and rows in set order."""
        work, occupancy, short = self.work, self.occupancy, self.short
        for rid in self.singles:
            ((col, p),) = work[rid][0].items()
            if p.is_constant():
                return rid, col
        best, cost = None, inf
        for col in sorted(occupancy, key=lambda c: len(occupancy[c])):
            rids = occupancy[col]
            k = len(rids) - 1
            # no constant single is left, so a constant entry in this column
            # or a later one costs at least k
            if cost <= k:
                break
            # and no row here has fewer than short[col] entries
            if not rids or (short[col] - 1) * k >= cost:
                continue
            lens = [len(work[rid][0]) for rid in rids]
            short[col] = min(lens)
            for rid, n in zip(rids, lens):
                if (n - 1) * k < cost and work[rid][0][col].is_constant():
                    best, cost = (rid, col), (n - 1) * k
        if best is not None:
            return best

        def key(entry):
            row = work[entry[0]][0]
            return row[entry[1]].degree(), (len(row) - 1) * (len(occupancy[entry[1]]) - 1)

        return min(((rid, col) for col, rids in occupancy.items() for rid in rids), key=key)

    def step(self):
        """Pivot on the cheapest entry and clear its column from the other
        waiting rows; returns the pivot as found."""
        rid, col = self._choose()
        work, occupancy, short, singles = self.work, self.occupancy, self.short, self.singles
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
            n, m = found.d, found.c[0]  # 1 / found = n / m
            if m < 0:
                n, m = -n, -m
            if n != 1 or m != 1:
                row, comb = ({c: _poly({e: x * n for e, x in p.c.items()}, p.d * m)
                              for c, p in d.items()} for d in (row, comb))
        for tid in touched:
            trow, tcomb = work[tid]
            _eliminate(trow, tcomb, col, piv, row, comb, occupancy, tid)
            n = len(trow)
            if n == 1:
                singles.add(tid)
            else:
                singles.discard(tid)
                if not trow:
                    del work[tid]
            for c in trow:
                if short[c] > n:
                    short[c] = n
        self.pivots.append((col, piv, row, comb))
        return found

    def forward(self) -> list:
        """Pivot until no row waits; the pivots as found, in order."""
        found = []
        while self.work:
            found.append(self.step())
        return found

    def reduce(self, row: dict, comb, scale=POLY_ONE):
        """Clear every pivot column from ``row`` (and ``comb``) in place;
        returns ``scale`` times the factors row was multiplied by."""
        for col, piv, prow, pcomb in self.pivots:
            if col in row:
                scale = scale * _eliminate(row, comb, col, piv, prow, pcomb)
        return scale

    def back_substitute(self):
        """Clear each pivot column from the pivot rows before it."""
        pivots = self.pivots
        for k in range(len(pivots) - 1, 0, -1):
            col, piv, prow, pcomb = pivots[k]
            for j in range(k):
                jcol, jpiv, jrow, jcomb = pivots[j]
                if col in jrow:
                    jpiv = jpiv * _eliminate(jrow, jcomb, col, piv, prow, pcomb)
                    pivots[j] = (jcol, jpiv, jrow, jcomb)


def pivot_polynomials(found) -> list:
    """The monic non-constant polynomials among pivots as found, duplicates
    removed, order preserved."""
    return list(dict.fromkeys(p.monic() for p in found if p.degree() > 0))


def poly_rank(rows):
    """Rank of sparse rows (dicts col -> AlphaPoly) over Q(alpha), forward
    elimination only.

    Returns (rank, pivots) where pivots are ``pivot_polynomials`` of the
    pivots met.
    """
    elim = _Elimination()
    elim.add_rows(rows)
    found = elim.forward()
    return len(found), pivot_polynomials(found)


def rank_mod_p(vectors, p: int, late=()) -> list:
    """Pivot keys of sparse vectors (dicts key -> int) eliminated over F_p
    (p prime); their number is the rank.

    Each entry is reduced once.  The vectors are eliminated as rows, one
    column (key) at a time: keys not in ``late`` first, and within each
    group sparsest first by the rows that meet it on input; in each column
    the shortest row that meets it pivots and clears the column from the
    others.  No row meets a column already taken, so fill-in only reaches
    columns still to come, and ``occupancy``, grown by fill-in, is filtered
    when its column comes up.  The pivot rows, restricted to the returned
    keys, are triangular with a nonzero diagonal, so those keys and the
    input vectors that pivoted index a minor that is nonsingular mod p.
    The rank is the same in any order.
    """
    rows: dict = {}
    occupancy: dict = {}  # column -> ids of rows that have met it
    for rid, vec in enumerate(vectors):
        row = {}
        for key, v in vec.items():
            v %= p
            if v:
                row[key] = v
                occupancy.setdefault(key, set()).add(rid)
        rows[rid] = row
    keys = []
    for col in sorted(occupancy, key=lambda key: (key in late, len(occupancy[key]))):
        rids = [rid for rid in occupancy.pop(col) if col in rows.get(rid, ())]
        if not rids:
            continue
        keys.append(col)
        pid = min(rids, key=lambda rid: len(rows[rid]))
        prow = rows.pop(pid)
        inv = pow(prow.pop(col), -1, p)
        for tid in rids:
            if tid == pid:
                continue
            trow = rows[tid]
            f = trow.pop(col) * inv % p
            for key, v in prow.items():
                old = trow.get(key)
                if old is None:
                    trow[key] = -f * v % p
                    occupancy[key].add(tid)
                    continue
                new = (old - f * v) % p
                if new:
                    trow[key] = new
                else:
                    del trow[key]
    return keys


class SpanTracker(_Elimination):
    """Incremental span of vectors (dicts key -> Scalar) over Q(alpha).

    An inserted vector is reduced against the pivot rows kept so far and,
    when something is left, pivots by the core's rule.  Rows remember the
    combination of inserted vectors they equal, so ``express`` returns
    exact coefficients when a query lies in the span.
    """

    def insert(self, vec: dict, tag) -> bool:
        """Add a vector; True when it enlarged the span."""
        row, den = clear_denominators(vec)
        comb = {tag: den}
        self.reduce(row, comb)
        if not row:
            return False
        self.add(row, comb)
        self.step()
        return True

    def express(self, vec: dict):
        """Coefficients {tag: Scalar} with vec = sum coeff * inserted[tag],
        or None when the vector is outside the span."""
        row, den = clear_denominators(vec)
        comb: dict = {}
        # row = den * vec + sum comb[t] * inserted[t] throughout
        den = self.reduce(row, comb, den)
        if row:
            return None
        return {t: Scalar.quotient(-p, den) for t, p in comb.items()}


def kernel_basis(columns):
    """Kernel of the linear map sending unit column i to ``columns[i]``.

    ``columns`` is a list of vectors (dicts key -> Scalar).  Returns
    (kernel, found): one polynomial coefficient dict {column_index: Scalar}
    per free column, content removed and the free entry monic, together
    spanning the kernel; and the forward pivots as found, the same as
    ``poly_rank(column_rows(columns))`` meets, so their number is the rank.
    """
    elim = _Elimination()
    for row in column_rows(columns):  # fresh rows: queued without a copy
        if row:
            elim.add(row, {})
    found = elim.forward()
    elim.back_substitute()
    out = []
    for free in sorted(set(range(len(columns))) - {col for col, _, _, _ in elim.pivots}):
        hits = [(col, piv, row[free]) for col, piv, row, _ in elim.pivots if free in row]
        den = POLY_ONE
        for _, piv, _ in hits:
            if not piv.is_one():
                den = poly_lcm(den, piv)
        vec = {free: den}
        for col, piv, h in hits:
            vec[col] = -(h * (den if piv.is_one() else den.exact_div(piv)))
        g = den
        for p in vec.values():
            if g.degree() == 0:
                break
            g = poly_gcd(g, p)
        if g.degree() > 0:
            vec = {c: p.exact_div(g) for c, p in vec.items()}
        f = 1 / vec[free].leading()
        out.append({c: Scalar.from_poly(vec[c].scaled(f)) for c in sorted(vec)})
    return out, found
