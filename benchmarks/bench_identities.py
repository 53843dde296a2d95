#!/usr/bin/env python3
"""Time each section of perfbench's identities pass in process.

A run does what one pass of ``perfbench/run.py --workload identities``
does before its timer starts: it imports superpds afresh, builds both
engines and draws the workload's inputs from the seed
(``identities_inputs`` in ``perfbench/workloads.py``, with
``bench_kernel`` loaded again against the fresh import).  It then times
the sections of the pass one by one, in the order of ``identities_run``:
the two Jacobi checks, the isomorphism, Virasoro, the contraction of the
basis, the three homomorphisms, thm43's order relations and the three
seeded batches.  Printed per section: the median seconds over the runs,
then the median of the runs' totals and the number of failed checks of the
last run (``identities_check``).

    PYTHONPATH=src python3 benchmarks/bench_identities.py [RUNS [SEED]]

RUNS defaults to 11 and SEED to 7.  Pointing PYTHONPATH at another
checkout's ``src`` times that checkout with the same sections; the
workload definitions are read from the checkout that holds this script.
"""

import importlib
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import workloads  # noqa: E402

MODULES = ("scalars", "kernel", "symbols", "linalg", "d21", "cohomology", "deform", "quantize")

SECTIONS = (  # (name, fn(lib, inputs)), as in workloads.identities_run
    ("jacobi.abstract", lambda lib, inp: [
        lib.d21.jacobi_check_abstract(lib.d21.abstract_algebra(*lib.d21.standard_sigma()))]),
    ("jacobi.embedded", lambda lib, inp: [lib.d21.jacobi_check_embedded()]),
    ("iso", lambda lib, inp: [lib.d21.verify_iso()]),
    ("virasoro", lambda lib, inp: workloads._virasoro_residuals(lib)),
    ("contraction.basis", lambda lib, inp: [
        None if lib.quantize.check_contraction(gb[x], gb[y]) else (x, y)
        for gb in [lib.quantize.gamma_h_basis()]
        for x in lib.d21.BASIS_NAMES for y in lib.d21.BASIS_NAMES]),
    ("homomorphism", lambda lib, inp: [
        lib.deform.verify_homomorphism(lib.deform.cor42_map()),
        lib.deform.verify_homomorphism(lib.deform.thm43_map()),
        lib.deform.verify_thm45()]),
    ("thm43.order_relations", lambda lib, inp: [
        lib.deform.verify_order_relations(lib.deform.thm43_map(), 4)]),
    ("batch.super_jacobi", lambda lib, inp: [
        workloads._super_jacobi_residual(a, b, c) for a, b, c in inp["jacobi"]]),
    ("batch.star_assoc", lambda lib, inp: [
        lib.quantize.moyal_mul(lib.quantize.moyal_mul(a, b), c)
        - lib.quantize.moyal_mul(a, lib.quantize.moyal_mul(b, c)) for a, b, c in inp["assoc"]]),
    ("batch.contraction", lambda lib, inp: [
        lib.quantize.contract(lib.quantize.h_bracket(a, b))
        - lib.quantize.contract(a).poisson(lib.quantize.contract(b)) for a, b in inp["contraction"]]),
)


def fresh_library():
    """superpds imported afresh with both engines built, and bench_kernel
    bound to that import."""
    for name in [m for m in sys.modules if m == "superpds" or m.startswith("superpds.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module("superpds." + m) for m in MODULES})
    lib.cohomology.poisson_engine()
    lib.cohomology.quantized_engine()
    spec = importlib.util.spec_from_file_location("bench_kernel", HERE / "bench_kernel.py")
    bench_kernel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_kernel)
    return lib, bench_kernel


def run_once(seed):
    """({section: seconds}, failed checks) of one pass."""
    lib, bench_kernel = fresh_library()
    inp = workloads.identities_inputs(lib, bench_kernel, random.Random(seed))
    seconds, result = {}, {}
    for name, fn in SECTIONS:
        start = time.perf_counter()
        result[name] = fn(lib, inp)
        seconds[name] = time.perf_counter() - start
    failed = sum(not ok for _, ok in workloads.identities_check(lib, inp, result))
    return seconds, failed


def main(argv):
    runs = int(argv[1]) if len(argv) > 1 else 11
    seed = int(argv[2]) if len(argv) > 2 else 7
    passes = [run_once(seed) for _ in range(runs)]
    for name, _ in SECTIONS:
        print("%-22s %9.5f s" % (name, statistics.median(s[name] for s, _ in passes)))
    print("%-22s %9.5f s" % ("total", statistics.median(sum(s.values()) for s, _ in passes)))
    print("failed checks %d" % passes[-1][1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
