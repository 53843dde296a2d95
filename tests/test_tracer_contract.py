"""The patching contract between the library and ``perfbench/tracer.py``.

The benchmark's tracer swaps library entry points for counting wrappers
through the ``__dict__`` of the owning module or class (``scalars.poly_gcd``,
``Scalar.__add__``, ``SpanTracker.insert`` and more) and puts the originals
back when it exits.  Renaming such an entry point, or leaving it to be
inherited, breaks only a traced benchmark run; this test breaks instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ("scalars", "kernel", "cohomology", "linalg", "deform")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("superpds_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_library(name):
    return name == "superpds" or name.startswith("superpds.")


def test_tracer_restores_every_patched_attribute():
    saved = {name: m for name, m in sys.modules.items() if _is_library(name)}
    try:
        for name in saved:
            del sys.modules[name]
        lib = SimpleNamespace(**{m: importlib.import_module("superpds." + m) for m in MODULES})
        assert all(getattr(lib, m) is not saved.get("superpds." + m) for m in MODULES)
        with _load_tracer().Tracer(lib) as tracer:
            patched = list(tracer._patched)
            assert patched
            for owner, attr, original in patched:
                assert owner.__dict__[attr] is not original, (owner, attr)
                assert owner.__dict__[attr].__wrapped__ is original, (owner, attr)
        assert not tracer._patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is original, (owner, attr)
    finally:
        for name in [n for n in sys.modules if _is_library(n)]:
            del sys.modules[name]
        sys.modules.update(saved)
