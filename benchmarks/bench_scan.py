#!/usr/bin/env python3
"""Time ``h1_scan`` in process over wide windows.

Each case scans the n = 0 blocks of one target for k in -w..w, without
representatives, three times.  Before each run ``cohomology._engine`` is
cleared, so the run builds its engine afresh; the timer holds the scan
alone.  A Poisson scan assembles every block.  A star P+ scan assembles
no star block: it settles each from the h-filtration, with the classical
P+ blocks it meets assembled and ranked once on the Poisson engine, which
the run builds too.  Printed per case: the median seconds of the three
runs, the total dim H^1 and the number of blocks per certificate.  The
cases are star P+ at windows 6, 20, 40 and 80 (the star h-tower, one
nonzero block (k, 0) per even k >= 0) and P and P+ at window 20.

    PYTHONPATH=src python3 benchmarks/bench_scan.py

Pointing PYTHONPATH at another checkout's ``src`` times that checkout
with the same cases.
"""

import statistics
import time
from collections import Counter

from superpds import cohomology as coh

CASES = (  # (label, star, target, window)
    ("star P+", True, "P+", 6),
    ("star P+", True, "P+", 20),
    ("star P+", True, "P+", 40),
    ("star P+", True, "P+", 80),
    ("P", False, "P", 20),
    ("P+", False, "P+", 20),
)
RUNS = 3


def run_case(star, target, window):
    """(seconds per run, reports of the last run)."""
    ks = range(-window, window + 1)
    seconds = []
    for _ in range(RUNS):
        coh._engine.cache_clear()
        engine = coh.quantized_engine() if star else coh.poisson_engine()
        start = time.perf_counter()
        reports = coh.h1_scan(ks, [0], target, engine, representatives=False)
        seconds.append(time.perf_counter() - start)
    return seconds, reports


def main():
    for label, star, target, window in CASES:
        seconds, reports = run_case(star, target, window)
        certificates = Counter(r.certificate for r in reports)
        print("%-8s window %2d  %8.3f s  H^1 %3d  %s" % (
            label, window, statistics.median(seconds), sum(r.dim_h1 for r in reports),
            ", ".join("%s %d" % kv for kv in sorted(certificates.items()))))


if __name__ == "__main__":
    main()
