"""The CLI's outputs, byte for byte, against the recorded ones.

Every command of ``benchmarks/cli_outputs.py`` (``COMMANDS``, with its input
files ``FIXTURES``) runs through ``cli.main`` in this process, in a fresh
temporary working directory that holds the fixtures, with
``SUPERPDS_WINDOW`` unset and the program name a ``python -m superpds.cli``
run has.  Its stdout, stderr and exit code must equal those recorded in
``cli_golden.json``.  An output changed on purpose is recorded again with

    PYTHONPATH=src python3 tests/test_cli_golden.py

and the change to the file is part of the same commit.  The subprocess
script stays the reference for what depends on start-up.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from superpds import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")
REGENERATE = "PYTHONPATH=src python3 tests/test_cli_golden.py"


def _script():
    """``benchmarks/cli_outputs.py``, for its ``COMMANDS`` and ``FIXTURES``."""
    spec = importlib.util.spec_from_file_location("cli_outputs", ROOT / "benchmarks" / "cli_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outputs():
    """Write the fixtures to the working directory, then run every command
    there: [{"args", "stdout", "stderr", "code"}], in ``COMMANDS`` order."""
    script = _script()
    for name, doc in script.FIXTURES.items():
        Path(name).write_text(json.dumps(doc, indent=2) + "\n")
    out = []
    for args in script.COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
        out.append({"args": list(args), "stdout": stdout.getvalue(),
                    "stderr": stderr.getvalue(), "code": code})
    return out


def test_cli_outputs_match_the_recorded_ones(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SUPERPDS_WINDOW", raising=False)
    monkeypatch.setattr(sys, "argv", [cli.__file__])  # argparse names sys.argv[0]
    expected = json.loads(GOLDEN.read_text())
    actual = _outputs()
    assert [e["args"] for e in actual] == [e["args"] for e in expected], \
        "COMMANDS changed; record the outputs again: " + REGENERATE
    for i, (want, got) in enumerate(zip(expected, actual)):
        differ = [field for field in ("stdout", "stderr", "code") if got[field] != want[field]]
        if differ:
            pytest.fail("command %d (superpds %s) differs from %s in %s; if the change is "
                        "intended, record the outputs again: %s"
                        % (i, " ".join(want["args"]), GOLDEN.name, " and ".join(differ), REGENERATE))


if __name__ == "__main__":
    os.environ.pop("SUPERPDS_WINDOW", None)
    sys.argv = [cli.__file__]
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        outputs = _outputs()
    # one command a line, so that a changed output is one changed line
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in outputs) + "\n]\n")
