"""Kernel micro-timings for the traced run.

Inputs come from the seeded ``random_terms`` generator of
``benchmarks/bench_kernel.py``; the timed calls go through
``superpds.kernel``, so they measure whichever kernel implementation is
selected.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

PAIRS = 400
REPEATS = 7


def _per_call(fn, pairs, scale):
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for a, b in pairs:
            fn(a, b)
        times.append((perf_counter() - start) / len(pairs) * scale)
    return median(times)


def _coefficient_pairs(bench_kernel, rng, with_alpha):
    coeffs = []
    while len(coeffs) < 2 * PAIRS:
        coeffs += bench_kernel.random_terms(rng, with_alpha=with_alpha).values()
    return list(zip(coeffs[0::2], coeffs[1::2]))


def _monomial_pairs(bench_kernel, rng, tau_nonneg):
    return [(bench_kernel.random_terms(rng, n=1, tau_nonneg=tau_nonneg),
             bench_kernel.random_terms(rng, n=1, tau_nonneg=tau_nonneg))
            for _ in range(PAIRS)]


def micro_metrics(lib, bench_kernel, rng):
    """Median time per call of scalar products and monomial kernel calls."""
    kernel = lib.kernel

    def mul(a, b):
        return a * b

    return {
        "micro.scalar_mul_generic_ns":
            _per_call(mul, _coefficient_pairs(bench_kernel, rng, True), 1e9),
        "micro.scalar_mul_specialized_ns":
            _per_call(mul, _coefficient_pairs(bench_kernel, rng, False), 1e9),
        "micro.poisson_monomial_us":
            _per_call(kernel.poisson_terms, _monomial_pairs(bench_kernel, rng, False), 1e6),
        "micro.star_monomial_us":
            _per_call(kernel.moyal_terms, _monomial_pairs(bench_kernel, rng, True), 1e6),
    }
