#!/usr/bin/env python3
"""Time the term kernel on randomized term maps.

Runs seeded products, Poisson brackets, star products and h-brackets
through ``superpds.kernel`` and prints the seconds for each, first on
multi-term maps, then on monomial x monomial pairs (``*_mono``), the shape
of the brackets block assembly makes.  The product does one ``Scalar``
product per pair of terms; the Poisson bracket, the star product and the
h-bracket walk int coefficients, one alpha power at a time, and build
``Scalar``s only once per output key.  ``fold`` times that fold alone
(``scalars.fold_layers``) on the alpha-power layers of the seeded star
products, and ``sub_equal`` the subtraction of each star product from a
copy of itself, which ``kernel.sub_terms`` cancels key by key by
equality.  ``star_chain`` times the associativity residual
(a b) c - a (b c) of seeded triples through ``quantize.moyal_mul``, whose
products stay int layers until read, so no fold runs there.
``poisson_chain`` times the super-Jacobi residual
{a, {b, c}} - {{a, b}, c} -+ {b, {a, c}} of seeded triples of homogeneous
symbols through ``Symbol.poisson``, whose brackets stay int layers until
read, so no fold runs there either.
``bracket_unit`` and ``bracket_tagged`` time what block
assembly does: the bracket of every basis element, in both engines, with
the unit monomials of a block (P (0, 0) for the Poisson engine, P+ (4, 0)
for the star engine), once per monomial and then as one beta-tagged map
per basis element (``cohomology._brackets``).  ``kernel_tables`` times
the set-up every import of ``superpds.kernel`` pays, 20 uncached builds of
the five Grassmann tables the walks read (``kernel._tables``), reducing
the 256 words of mask pairs included.  ``struct_table``,
``engine_poisson`` and ``engine_star`` time the set-up every engine user
pays, 20 times each and uncached: the structure table
(``d21.structure_table``, one tagged bracket per basis element) and the
construction of each engine from it.  ``engine_alpha`` times 20 uncached
builds of the Poisson engine at alpha = 3/7 from the cached generic one: a
copy of it that reads its blocks through the substitution of alpha, so no
table is specialized (``cohomology._engine``).  The last three
columns time the coefficient layer alone: products and sums of ``Scalar``
pairs, and ``Scalar`` times a small int.

    PYTHONPATH=src python3 benchmarks/bench_kernel.py
"""

import random
import time
from fractions import Fraction

from superpds import kernel
from superpds.scalars import ALPHA, S_ONE, Scalar, fold_layers, split_layers
from superpds.symbols import Symbol


def random_terms(rng, n=6, tau_nonneg=False, with_alpha=True):
    out = {}
    while len(out) < n:
        key = (
            rng.randrange(-4, 5),
            rng.randrange(0 if tau_nonneg else -4, 5),
            rng.randrange(16),
            0,
            rng.randrange(2),
        )
        c = Scalar.from_fraction(Fraction(rng.randrange(-5, 6) or 1, rng.randrange(1, 4)))
        if with_alpha and rng.random() < 0.5:
            c = c * ALPHA
        out[key] = c
    return out


def build_workloads(seed=11, count=300):
    rng = random.Random(seed)
    pairs = [(random_terms(rng), random_terms(rng)) for _ in range(count)]
    star_pairs = [
        (random_terms(rng, tau_nonneg=True), random_terms(rng, tau_nonneg=True))
        for _ in range(count)
    ]
    return pairs, star_pairs


def build_monomial_workloads(seed=12, count=2000):
    """Monomial pairs from their own generator, so that ``build_workloads``
    draws exactly what it always has."""
    rng = random.Random(seed)
    pairs = [(random_terms(rng, n=1), random_terms(rng, n=1)) for _ in range(count)]
    star_pairs = [
        (random_terms(rng, n=1, tau_nonneg=True), random_terms(rng, n=1, tau_nonneg=True))
        for _ in range(count)
    ]
    return pairs, star_pairs


def build_scalar_workloads(seed=13, count=2000):
    """(scalar pairs, (scalar, small int) pairs) from their own generator,
    so that the generators above draw exactly what they always have."""
    rng = random.Random(seed)
    coeffs = []
    while len(coeffs) < 2 * count:
        coeffs += random_terms(rng).values()
    pairs = list(zip(coeffs[0:2 * count:2], coeffs[1:2 * count:2]))
    int_pairs = [(c, rng.choice((-3, -2, -1, 2, 3, 6))) for c in coeffs[:count]]
    return pairs, int_pairs


def build_chain_workloads(seed=14, count=40):
    """Triples of operator symbols for ``star_chain``, from their own
    generator, so that the generators above draw exactly what they always
    have."""
    rng = random.Random(seed)
    return [tuple(Symbol(random_terms(rng, tau_nonneg=True)) for _ in range(3))
            for _ in range(count)]


def build_poisson_chain_workloads(seed=15, count=200):
    """Triples of homogeneous-parity symbols for ``poisson_chain``, each
    the even or the odd part of a ``random_terms`` map, from their own
    generator, so that the generators above draw exactly what they always
    have."""
    rng = random.Random(seed)
    triples = []
    for _ in range(count):
        parts = (kernel.parity_split(random_terms(rng)) for _ in range(3))
        triples.append(tuple(Symbol(even or odd) for even, odd in parts))
    return triples


def time_poisson_chain(triples):
    """{a, {b, c}} - {{a, b}, c} - (-1)^(p(a)p(b)) {b, {a, c}} through
    ``Symbol.poisson``, whose brackets stay int layers until read: the
    residual is zero, so nothing is folded."""
    t0 = time.perf_counter()
    for a, b, c in triples:
        back = b.poisson(a.poisson(c))
        r = a.poisson(b.poisson(c)) - a.poisson(b).poisson(c)
        if r + back if a.parity() and b.parity() else r - back:
            raise AssertionError("Poisson bracket fails super-Jacobi")
    return {"poisson_chain": time.perf_counter() - t0}


def time_star_chain(triples):
    """(a b) c - a (b c) through ``quantize.moyal_mul``, whose products stay
    int layers until read: the residual is zero, so nothing is folded."""
    from superpds.quantize import moyal_mul

    t0 = time.perf_counter()
    for a, b, c in triples:
        if moyal_mul(moyal_mul(a, b), c) - moyal_mul(a, moyal_mul(b, c)):
            raise AssertionError("star product not associative")
    return {"star_chain": time.perf_counter() - t0}


def build_bracket_workloads():
    """(engine, unit monomial keys) for the Poisson engine with the slot
    keys of block P (0, 0) and the star engine with those of P+ (4, 0);
    nothing is drawn."""
    from superpds import cohomology as coh

    cases = []
    for engine, block in ((coh.poisson_engine(), coh.BlockSpec(0, 0, "P")),
                          (coh.quantized_engine(), coh.BlockSpec(4, 0, "P+"))):
        cases.append((engine, list(dict.fromkeys(key for _, key in coh.enumerate_c1(block, engine)))))
    return cases


def time_brackets(cases):
    from superpds.cohomology import _brackets

    timings = {}
    t0 = time.perf_counter()
    for engine, keys in cases:
        for x in engine.basis.values():
            for key in keys:
                engine.bracket(x, Symbol({key: S_ONE}))
    timings["bracket_unit"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for engine, keys in cases:
        _brackets(engine, engine.basis, keys)
    timings["bracket_tagged"] = time.perf_counter() - t0
    return timings


def time_setup(repeat=20):
    """``repeat`` uncached builds of the kernel's Grassmann tables, of the
    structure table and of each engine; the engines read the cached table
    and bases, and the engine at alpha the cached generic engine."""
    from superpds import cohomology as coh, d21

    timings = {}
    for op, build in (("kernel_tables", kernel._tables),
                      ("struct_table", d21.structure_table.__wrapped__),
                      ("engine_poisson", lambda: coh._engine.__wrapped__(False, None, None)),
                      ("engine_star", lambda: coh._engine.__wrapped__(True, None, None)),
                      ("engine_alpha", lambda: coh._engine.__wrapped__(False, Fraction(3, 7), None))):
        t0 = time.perf_counter()
        for _ in range(repeat):
            build()
        timings[op] = time.perf_counter() - t0
    return timings


def run(pairs, star_pairs, mono_pairs, mono_star_pairs, scalar_pairs, int_pairs):
    timings = {}
    t0 = time.perf_counter()
    for a, b in pairs:
        kernel.mul_terms(a, b)
    timings["product"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for a, b in pairs:
        kernel.poisson_terms(a, b)
    timings["poisson"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for a, b in star_pairs:
        kernel.moyal_terms(a, b)
    timings["star"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for a, b in star_pairs:
        kernel.h_bracket_terms(a, b)
    timings["hbracket"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for a, b in mono_pairs:
        kernel.poisson_terms(a, b)
    timings["poisson_mono"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for a, b in mono_star_pairs:
        kernel.moyal_terms(a, b)
    timings["star_mono"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for a, b in mono_star_pairs:
        kernel.h_bracket_terms(a, b)
    timings["hbracket_mono"] = time.perf_counter() - t0
    # fold_layers consumes its layers, so each is split outside the timer
    products = [kernel.moyal_terms(a, b) for a, b in star_pairs]
    splits = [split_layers(m) for m in products]
    t0 = time.perf_counter()
    for layers, d, den in splits:
        fold_layers(layers, d, den)
    timings["fold"] = time.perf_counter() - t0
    copies = [(m, dict(m)) for m in products]
    t0 = time.perf_counter()
    for m, same in copies:
        kernel.sub_terms(m, same)
    timings["sub_equal"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for x, y in scalar_pairs:
        x * y
    timings["scalar_mul"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for x, k in int_pairs:
        x * k
    timings["scalar_mul_int"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for x, y in scalar_pairs:
        x + y
    timings["scalar_add"] = time.perf_counter() - t0
    return timings


def main():
    timing = run(*build_workloads(), *build_monomial_workloads(), *build_scalar_workloads())
    timing.update(time_brackets(build_bracket_workloads()))
    timing.update(time_setup())
    timing.update(time_star_chain(build_chain_workloads()))
    timing.update(time_poisson_chain(build_poisson_chain_workloads()))
    ops = ["product", "poisson", "star", "hbracket", "poisson_mono", "star_mono",
           "hbracket_mono", "fold", "sub_equal", "star_chain", "poisson_chain",
           "bracket_unit", "bracket_tagged", "kernel_tables", "struct_table", "engine_poisson", "engine_star", "engine_alpha",
           "scalar_mul", "scalar_mul_int", "scalar_add"]
    print("".join("%15s" % op for op in ops))
    print("".join("%14.3fs" % timing[op] for op in ops))


if __name__ == "__main__":
    main()
