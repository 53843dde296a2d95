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
"""

import os
import subprocess
import sys
from pathlib import Path

H1_BLOCKS = [("0", "0"), ("4", "-2"), ("4", "0"), ("2", "-6")]

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
    ]
)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: cli_outputs.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.pop("SUPERPDS_WINDOW", None)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    listing = []
    for i, args in enumerate(COMMANDS):
        run = subprocess.run([sys.executable, "-m", "superpds.cli", *args],
                             capture_output=True, env=env)
        (out / ("%d.out" % i)).write_bytes(run.stdout)
        (out / ("%d.err" % i)).write_bytes(run.stderr)
        (out / ("%d.code" % i)).write_text("%d\n" % run.returncode)
        listing.append("%d superpds %s\n" % (i, " ".join(args)))
    (out / "commands").write_text("".join(listing))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
