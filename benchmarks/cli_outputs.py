#!/usr/bin/env python3
"""Record the CLI's outputs for a fixed list of commands.

Runs each command with the ``src`` of the checkout that holds this script
and writes ``<n>.out``, ``<n>.err`` and ``<n>.code`` (stdout, stderr, exit
code) to OUTDIR, n being the command's number in ``COMMANDS``; ``commands``
lists them.  Two checkouts give the same outputs when

    python3 benchmarks/cli_outputs.py OLD_DIR    # in one checkout
    python3 benchmarks/cli_outputs.py NEW_DIR    # in the other
    diff -r OLD_DIR NEW_DIR

prints nothing.  ``SUPERPDS_WINDOW`` is removed from the environment, so
every ``h1`` scan runs its default window unless the command names one.
The input files of the commands that read one (``FIXTURES``) are written to
OUTDIR, and every command runs with OUTDIR as its working directory and
names its files relative to it, so no output depends on where OUTDIR is.

``tests/test_cli_golden.py`` runs the same ``COMMANDS`` and ``FIXTURES``
in one process through ``cli.main`` and compares them with the outputs
recorded in ``tests/cli_golden.json``; this script stays the reference for
what depends on start-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

THETA1 = {
    "D1": "t^-1*xi1",
    "D2": "t^-1*xi2",
    "D3": "t^-1*eta1",
    "D4": "t^-1*eta2",
    "F1": "2*t^-1*tau",
    "H1": "1",
}

FIXTURES = {
    "theta1.json": {"block": {"k": 0, "n": 0, "target": "P+"}, "images": THETA1},
    # closed, but h lies in no slot of a Poisson block
    "h_theta1.json": {
        "block": {"k": 0, "n": 0, "target": "P+"},
        "images": {name: "h*(%s)" % text for name, text in THETA1.items()},
    },
    "rho2.json": {"block": {"k": -2, "n": 0, "target": "P+"}, "images": {"F1": "t^-2"}},
    "deformation.json": {"engine": "poisson", "orders": ["theta1.json", "rho2.json"]},
    # a tau < 0 image term, which the star engine refuses
    "tau_neg.json": {"images": {"T3": "tau^-1*xi1"}},
    "star_deformation.json": {"engine": "star", "orders": ["tau_neg.json"]},
}

H1_BLOCKS = [("0", "0"), ("4", "-2"), ("4", "0"), ("2", "-6")]

BRACKETS = [
    ("tau", "tau^2"),
    ("alpha*t^2*tau + 1/3*xi1*eta1", "t*tau^2 - alpha^2*eta1*eta2 + 5/2*xi2"),
    ("1/(alpha - 2)*t^-1*tau^3 + xi1*xi2*eta1", "(alpha + 1)/(alpha^2 + 3)*t^2*eta1 + 2/5*eta2*tau"),
    ("beta*t*tau^2 + h*xi1*eta2 - alpha/7*t^3", "t^3*tau + alpha*beta^2*eta2 + h^2*xi2*tau"),
]

COMMANDS = (
    [["h1", "--target", t, "--json"] for t in ("P", "P+", "K4", "K4'")]
    + [
        ["h1", "--target", "P", "--specialize", "1", "--json"],
        ["h1", "--target", "P+", "--specialize", "-1", "--json"],
        ["h1", "--target", "P+", "--quantized", "--json"],
        ["h1", "--target", "P+", "--quantized", "--specialize", "1", "--window", "4", "--json"],
    ]
    + [["h1", "--target", "P+", "--quantized", "--k", k, "--n", n, "--json"] for k, n in H1_BLOCKS]
    + [
        ["h1", "--target", "P", "--k", "0", "--n", "0"],
        ["h1", "--target", "P+", "--quantized", "--window", "4"],
    ]
    + [["verify", c, "--json"] for c in ("embedding", "iso", "jacobi", "virasoro", "contraction")]
    + [["deform", "verify", c, "--json"] for c in ("cor42", "thm43", "thm45")]
    + [
        ["basis", "--quantized", "--json"],
        ["basis", "--alpha", "3/2", "--json"],
        ["cocycle", "thetabar1"],
        ["cocycle", "theta2", "--json"],
        ["cocycle", "--file", "theta1.json"],
        ["cocycle", "--file", "h_theta1.json"],
        ["cup", "theta1.json", "theta1.json", "--json"],
        ["solve-obstruction", "theta1.json", "--k", "-2", "--json"],
        ["deform", "verify", "--file", "deformation.json", "--json"],
        # refused: the star engine keeps no tau < 0 monomial
        ["solve-obstruction", "theta1.json", "--k", "-2", "--target", "P", "--quantized"],
        # the largest eliminations: windows wider than the default of 6
        ["h1", "--target", "P+", "--quantized", "--window", "10", "--json"],
        ["h1", "--target", "P", "--window", "8", "--json"],
        ["h1", "--target", "P+", "--quantized", "--specialize", "1", "--window", "8", "--json"],
    ]
    # brackets of rational, alpha-polynomial and polynomial-denominator
    # coefficients, mixed parities and beta/h powers; tau tau^2 is zero
    + [["bracket", a, b, *flags] for a, b in BRACKETS for flags in ([], ["--quantized"])]
    + [["bracket", BRACKETS[1][0], BRACKETS[1][1], "--json"]]
    # a cocycle witness with representatives on a specialized star engine
    + [["h1", "--target", "P+", "--quantized", "--specialize=-1/2", "--window", "4", "--json"]]
    # engines at alpha = +-1, whose four generators do not certify: scans on
    # the rows of the six-element generating set
    + [["h1", "--target", "K4'", "--specialize", "1", "--json"],
       ["h1", "--target", "P", "--specialize", "-1", "--window", "8", "--json"]]
    # single blocks through h1_block: star, at alpha = 1, and K4'
    + [["h1", "--target", "P+", "--quantized", "--k", "6", "--n", "0", "--json"],
       ["h1", "--target", "P", "--k", "0", "--n", "0", "--specialize", "1", "--json"],
       ["h1", "--target", "K4'", "--k", "2", "--n", "0", "--json"]]
    # alpha = 1/p: no structure constant has an F_p image, so no generating
    # set certifies and scans eliminate d1 on the rows of the full basis
    + [["h1", "--target", "P", "--specialize", "1/2305843009213693951", "--window", "2",
        "--json"]]
    # refused: a tau < 0 image term on the star engine, and a window in
    # block mode
    + [["cocycle", "theta2", "--quantized"],
       ["cup", "tau_neg.json", "tau_neg.json", "--quantized"],
       ["solve-obstruction", "tau_neg.json", "--k", "-2", "--quantized"],
       ["deform", "verify", "--file", "star_deformation.json"],
       ["h1", "--target", "P", "--k", "0", "--n", "0", "--window", "2"]]
    # refused: a tau < 0 operand of the star product, in either place
    + [["bracket", "--quantized", "tau^-1", "t"],
       ["bracket", "--quantized", "t", "t + tau^-1"]]
)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: cli_outputs.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, doc in FIXTURES.items():
        (out / name).write_text(json.dumps(doc, indent=2) + "\n")
    env = dict(os.environ)
    env.pop("SUPERPDS_WINDOW", None)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    listing = []
    for i, args in enumerate(COMMANDS):
        run = subprocess.run([sys.executable, "-m", "superpds.cli", *args],
                             capture_output=True, env=env, cwd=out)
        (out / ("%d.out" % i)).write_bytes(run.stdout)
        (out / ("%d.err" % i)).write_bytes(run.stderr)
        (out / ("%d.code" % i)).write_text("%d\n" % run.returncode)
        listing.append("%d superpds %s\n" % (i, " ".join(args)))
    (out / "commands").write_text("".join(listing))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
