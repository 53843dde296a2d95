#!/usr/bin/env python3
"""Benchmark of the superpds exact-algebra engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one caller in a closed loop: the run repeats a
*pass* until ``--seconds`` have gone by.  A pass imports the library afresh
and builds both engines (``setup_s``), makes the workload's inputs from the
seed, times the workload's library calls (``wall_s``) and then checks every
answer (``oracle``).  A fresh import per pass means no library cache
outlives a pass, just as none outlives a command-line call.  ``setup_s`` and
``wall_s`` are adjusted for the host's speed by a ``probe.SpeedProbe``
sampled while they run; the raw seconds are printed beside them.

With ``--trace 1`` every second pass runs under the ``Tracer`` and the run
reports the per-layer metrics instead: exact counters of a traced pass,
median self times, kernel micro-timings and the tracing overhead (median
raw traced ``wall_s`` over median raw untraced ``wall_s``).  Traced passes
run without the probe, so self times are raw seconds.

Lines before the last one describe the run (configuration, host noise,
every pass, the error rate); the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import itertools
import json
import os
import platform
import random
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

from micro import micro_metrics
from probe import SpeedProbe
from tracer import LAYER_METRICS, Tracer, derived_ratios
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCH_KERNEL = ROOT / "benchmarks" / "bench_kernel.py"
MODULES = ("scalars", "kernel", "symbols", "linalg", "d21", "cohomology", "deform", "quantize")
SPIN_LOOP = 2_000_000


def load_library():
    """Import superpds afresh and build both engines; returns (lib, seconds)."""
    for name in [m for m in sys.modules if m == "superpds" or m.startswith("superpds.")]:
        del sys.modules[name]
    start = perf_counter()
    lib = SimpleNamespace(**{m: importlib.import_module("superpds." + m) for m in MODULES})
    lib.cohomology.poisson_engine()
    lib.cohomology.quantized_engine()
    return lib, perf_counter() - start


def probed(fn, *args):
    """``fn(*args)`` under a ``SpeedProbe``; returns (result, probe)."""
    with SpeedProbe() as probe:
        result = fn(*args)
    return result, probe


def load_bench_kernel():
    """``benchmarks/bench_kernel.py``, bound to the current library import."""
    spec = importlib.util.spec_from_file_location("bench_kernel", BENCH_KERNEL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git_rev():
    """HEAD of the checkout's own ``.git``; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_noise():
    """A fixed spin loop's time (median of 3) and the load average."""
    times = []
    for _ in range(3):
        start = perf_counter()
        x = 0
        for i in range(SPIN_LOOP):
            x += i
        times.append(perf_counter() - start)
    return {"spin_s": median(times), "loadavg": list(os.getloadavg())}


def timed(run, lib, inputs, tracer):
    """``run(lib, inputs)``; returns (result, seconds), result None if it raised."""
    start = perf_counter()
    try:
        if tracer is not None:
            with tracer:
                result = run(lib, inputs)
        else:
            result = run(lib, inputs)
    except Exception:  # an exception is a failed answer, not a crash of the run
        traceback.print_exc()
        result = None
    return result, perf_counter() - start


def run_pass(workload, seed, traced):
    """One pass; returns ({metric: (adjusted, raw)}, checks, tracer or None).

    The raw seconds leave out the probe's own time.  A traced pass runs
    without the probe, so its ``wall_s`` is raw in both places.
    """
    make_inputs, run, check = workload
    (lib, setup_raw), probe = probed(load_library)
    times = {"setup_s": (probe.adjust(setup_raw), setup_raw - probe.inside_s)}
    inputs = make_inputs(lib, load_bench_kernel(), random.Random(seed))
    tracer = Tracer(lib) if traced else None
    gc.collect()
    if traced:
        result, wall_raw = timed(run, lib, inputs, tracer)
        times["wall_s"] = (wall_raw, wall_raw)
    else:
        (result, wall_raw), probe = probed(timed, run, lib, inputs, None)
        times["wall_s"] = (probe.adjust(wall_raw), wall_raw - probe.inside_s)
    if result is None:
        return times, [("run", False)], tracer
    try:
        checks = check(lib, inputs, result)
    except Exception:
        traceback.print_exc()
        checks = [("check", False)]
    return times, checks, tracer


def layer_metrics(traced, untraced_wall, traced_wall, micro):
    """Per-layer metrics: counters of the last traced pass, median self times."""
    counts = traced[-1].exact_counts()
    values = {name: counts[name] for name in LAYER_METRICS if name in counts}
    values.update(derived_ratios(counts))
    for name in traced[-1].self_times():
        values[name] = median(t.self_times()[name] for t in traced)
    values.update(micro)
    values["trace.overhead"] = median(traced_wall) / median(untraced_wall)
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in LAYER_METRICS.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "superpds" / "__init__.py").is_file() or not BENCH_KERNEL.is_file():
        print("run.py: superpds sources not found under %s" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    host_before = host_noise()

    passes, traced_wall, tracers = [], [], []
    attempted = failed = 0
    start = perf_counter()
    for number in itertools.count(1):
        traced = bool(args.trace) and number % 2 == 0
        times, checks, tracer = run_pass(workload, args.seed, traced)
        if tracer is not None:
            tracers.append(tracer)
            traced_wall.append(times["wall_s"][1])
        else:
            passes.append(times)
        bad = [name for name, ok in checks if not ok]
        attempted += len(checks)
        failed += len(bad)
        print("pass %d%s: %s, %d checks, failed: %s"
              % (number, " (traced)" if traced else "",
                 ", ".join("%s %.4f (raw %.4f)" % (name, *t) for name, t in times.items()),
                 len(checks), ", ".join(bad) or "none"))
        if perf_counter() - start >= args.seconds and (not args.trace or tracers):
            break

    def med(name, raw):
        return median(p[name][raw] for p in passes)

    lib, _ = load_library()
    config = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernel_implementation": lib.kernel.IMPLEMENTATION,
        "SUPERPDS_KERNEL": os.environ.get("SUPERPDS_KERNEL"), "git_rev": git_rev(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "passes": number,
    }
    print(json.dumps({"config": config}))
    print(json.dumps({"host": {"before": host_before, "after": host_noise()}}))
    print(json.dumps({"raw_median_s": {name: med(name, 1) for name in passes[0]}}))
    print("error_rate %.6f (%d of %d checks failed)"
          % (failed / attempted if attempted else 1.0, failed, attempted))

    if args.trace:
        if any(t.exact_counts() != tracers[-1].exact_counts() for t in tracers):
            print("warning: exact counters differ between traced passes")
        micro = micro_metrics(lib, load_bench_kernel(), random.Random(args.seed))
        metrics = layer_metrics(tracers, [p["wall_s"][1] for p in passes], traced_wall, micro)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": med("wall_s", 0), "unit": "s"},
            "setup_s": {"value": med("setup_s", 0), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
