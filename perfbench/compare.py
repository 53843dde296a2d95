#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py --base a1.txt a2.txt ... --change b1.txt b2.txt ...

Each file is the captured standard output of one ``run.py`` call.  Runs are
comparable only when they share the workload, the trace mode and the kernel
implementation (the compiled kernel is picked up whenever it is installed),
so the comparison refuses anything else.  For each metric it prints each
side's median and quartiles and the ratio of the medians.
"""

from __future__ import annotations

import argparse
import json
import sys
from statistics import median, quantiles

PINNED = ("workload", "trace", "kernel_implementation")


def read_run(path):
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    config = next(json.loads(line)["config"] for line in lines if line.startswith('{"config"'))
    return config, json.loads(lines[-1])


def summary(values):
    q = quantiles(values, n=4) if len(values) > 1 else values * 3
    return median(values), q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = [read_run(p) for p in args.base]
    change = [read_run(p) for p in args.change]
    pinned = {tuple(config[k] for k in PINNED) for config, _ in base + change}
    if len(pinned) != 1:
        print("compare.py: runs differ in %s: %s" % (", ".join(PINNED), sorted(pinned)),
              file=sys.stderr)
        return 2
    failed = sum(result["failed"] for _, result in base + change)
    print("%-42s %28s %28s %8s" % ("metric", "base median [q1, q3]", "change median [q1, q3]",
                                   "ratio"))
    for name, first in base[0][1]["metrics"].items():
        b = summary([r["metrics"][name]["value"] for _, r in base])
        c = summary([r["metrics"][name]["value"] for _, r in change])
        ratio = "%8.3f" % (c[0] / b[0]) if b[0] else "%8s" % "-"
        print("%-42s %28s %28s %s %s" % (name, "%.4g [%.4g, %.4g]" % b, "%.4g [%.4g, %.4g]" % c,
                                         ratio, first["unit"]))
    print("failed checks across all runs: %d" % failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
