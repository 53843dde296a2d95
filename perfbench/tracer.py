"""Per-layer spans and counts, recorded from outside the library.

A ``Tracer`` replaces the public entry points of each layer with wrappers
for the length of one pass and puts the originals back afterwards.  Spans
are aggregated as they close: a layer's self time is the duration of its
spans minus the time covered by the spans opened inside them.  Calls made
inside the term kernel itself bypass ``superpds.kernel`` and are therefore
not counted; only entry calls are.

``cohomology`` binds ``poly_rank`` and ``SpanTracker`` by name at import, so
the wrappers patch ``superpds.cohomology.poly_rank`` (and the ``linalg``
binding) and the ``SpanTracker`` class methods, not only ``linalg``.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

# Layer metrics reported by a traced run: name -> (unit, better).
LAYER_METRICS = {
    "scalars.poly_gcd.calls": ("count", "lower"),
    "scalars.poly_gcd.self_s": ("s", "lower"),
    "scalars.Scalar.mul.calls": ("count", "lower"),
    "scalars.Scalar.add.calls": ("count", "lower"),
    "micro.scalar_mul_generic_ns": ("ns", "lower"),
    "micro.scalar_mul_specialized_ns": ("ns", "lower"),
    "kernel.poisson_terms.calls": ("count", "lower"),
    "kernel.poisson_terms.self_s": ("s", "lower"),
    "kernel.moyal_terms.calls": ("count", "lower"),
    "kernel.moyal_terms.self_s": ("s", "lower"),
    "micro.poisson_monomial_us": ("us", "lower"),
    "micro.star_monomial_us": ("us", "lower"),
    "cohomology.h1_block.calls": ("count", "lower"),
    "cohomology.h1_block.self_s": ("s", "lower"),
    "cohomology.blocks": ("count", "lower"),
    "cohomology.blocks_nonempty": ("count", "lower"),
    "cohomology.blocks_nonzero": ("count", "lower"),
    "cohomology.assemblies_per_block": ("ratio", "lower"),
    "cohomology.solve.calls": ("count", "lower"),
    "cohomology.solve.self_s": ("s", "lower"),
    "linalg.poly_rank.calls": ("count", "lower"),
    "linalg.poly_rank.self_s": ("s", "lower"),
    "linalg.poly_rank.rows": ("count", "lower"),
    "linalg.poly_rank.rank": ("count", "lower"),
    "linalg.poly_rank.poly_pivots": ("count", "lower"),
    "linalg.SpanTracker.insert.calls": ("count", "lower"),
    "linalg.SpanTracker.insert.self_s": ("s", "lower"),
    "linalg.SpanTracker.insert.accept_ratio": ("ratio", "higher"),
    "linalg.SpanTracker.express.calls": ("count", "lower"),
    "linalg.SpanTracker.express.self_s": ("s", "lower"),
    "linalg.kernel_basis.calls": ("count", "lower"),
    "linalg.kernel_basis.self_s": ("s", "lower"),
    "deform.verify_homomorphism.calls": ("count", "lower"),
    "deform.verify_homomorphism.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

SPANS = tuple(name[:-len(".self_s")] for name in LAYER_METRICS if name.endswith(".self_s"))


class Tracer:
    """Patches a freshly imported library; use as a context manager."""

    def __init__(self, lib):
        self.lib = lib
        self.counts: Counter = Counter()
        self.self_s: dict = defaultdict(float)
        self._open: list = []  # child time accumulated per open span
        self._patched: list = []  # (owner, attribute, original)
        self._blocks: dict = {}  # (block, engine id) -> [nonempty, nonzero]

    # -- patching -------------------------------------------------------
    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        lib = self.lib
        scalars, kernel, coh, linalg, deform = (
            lib.scalars, lib.kernel, lib.cohomology, lib.linalg, lib.deform
        )
        self._patch(scalars, "poly_gcd", self._span("scalars.poly_gcd", scalars.poly_gcd))
        for attr, name in (("__mul__", "mul"), ("__rmul__", "mul"),
                           ("__add__", "add"), ("__radd__", "add")):
            fn = scalars.Scalar.__dict__[attr]
            self._patch(scalars.Scalar, attr, self._counter("scalars.Scalar.%s.calls" % name, fn))
        for attr in ("poisson_terms", "moyal_terms"):
            self._patch(kernel, attr, self._span("kernel." + attr, getattr(kernel, attr)))
        rank = self._span("linalg.poly_rank", linalg.poly_rank, self._on_rank)
        self._patch(linalg, "poly_rank", rank)
        self._patch(coh, "poly_rank", rank)
        tracker = linalg.SpanTracker
        self._patch(tracker, "insert",
                    self._span("linalg.SpanTracker.insert", tracker.insert, self._on_insert))
        self._patch(tracker, "express",
                    self._span("linalg.SpanTracker.express", tracker.express))
        self._patch(linalg, "kernel_basis",
                    self._span("linalg.kernel_basis", linalg.kernel_basis))
        self._patch(coh, "h1_block", self._block_span(coh.h1_block))
        for attr in ("is_coboundary", "express_modulo_coboundaries", "solve_obstruction"):
            self._patch(coh, attr, self._span("cohomology.solve", getattr(coh, attr)))
        self._patch(deform, "verify_homomorphism",
                    self._span("deform.verify_homomorphism", deform.verify_homomorphism))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    # -- wrappers ---------------------------------------------------------
    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn, on_result=None):
        counts, self_s, open_spans = self.counts, self.self_s, self._open
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s[name] += duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                counts[calls] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _block_span(self, fn):
        span = self._span("cohomology.h1_block", fn)
        counts, blocks = self.counts, self._blocks

        @functools.wraps(fn)
        def wrapper(block, engine=None, *args, **kwargs):
            ranks_before = counts["linalg.poly_rank.calls"]
            report = span(block, engine, *args, **kwargs)
            seen = blocks.setdefault((block, id(engine)), [False, False])
            seen[0] |= counts["linalg.poly_rank.calls"] > ranks_before
            seen[1] |= report.dim_h1 > 0
            return report

        return wrapper

    def _on_rank(self, args, result):
        rank, pivots = result
        self.counts["linalg.poly_rank.rows"] += sum(1 for row in args[0] if row)
        self.counts["linalg.poly_rank.rank"] += rank
        self.counts["linalg.poly_rank.poly_pivots"] += len(pivots)

    def _on_insert(self, args, accepted):
        if accepted:
            self.counts["linalg.SpanTracker.insert.accepted"] += 1

    # -- results ----------------------------------------------------------
    def exact_counts(self) -> dict:
        """Every counter of the pass; these repeat exactly for equal inputs."""
        out = {name: self.counts[name] for name in LAYER_METRICS if name.endswith(".calls")}
        for name in ("linalg.poly_rank.rows", "linalg.poly_rank.rank",
                     "linalg.poly_rank.poly_pivots"):
            out[name] = self.counts[name]
        out["cohomology.blocks"] = len(self._blocks)
        out["cohomology.blocks_nonempty"] = sum(1 for b in self._blocks.values() if b[0])
        out["cohomology.blocks_nonzero"] = sum(1 for b in self._blocks.values() if b[1])
        out["linalg.SpanTracker.insert.accepted"] = self.counts["linalg.SpanTracker.insert.accepted"]
        return out

    def self_times(self) -> dict:
        return {name + ".self_s": self.self_s[name] for name in SPANS}


def derived_ratios(counts: dict) -> dict:
    """Ratios of exact counters, each 0 when its base is 0."""
    blocks = counts["cohomology.blocks"]
    inserts = counts["linalg.SpanTracker.insert.calls"]
    return {
        "cohomology.assemblies_per_block":
            counts["cohomology.h1_block.calls"] / blocks if blocks else 0.0,
        "linalg.SpanTracker.insert.accept_ratio":
            counts["linalg.SpanTracker.insert.accepted"] / inserts if inserts else 0.0,
    }
