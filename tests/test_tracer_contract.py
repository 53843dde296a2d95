"""The contract between the library and the benchmark's code.

The benchmark's tracer (``perfbench/tracer.py``) swaps library entry points
for counting wrappers through the ``__dict__`` of the owning module or
class (``scalars.poly_gcd``, ``Scalar.__add__``, ``SpanTracker.insert`` and
more) and puts the originals back when it exits.  Renaming such an entry
point, or leaving it to be inherited, breaks only a traced benchmark run;
this test breaks instead.

The kernel timings (``perfbench/micro.py``, ``benchmarks/bench_kernel.py``)
call the four pair kernels of ``superpds.kernel`` on two term maps, the
workloads split inputs with ``kernel.parity_split``, and every run records
``kernel.IMPLEMENTATION``; the library itself calls the kernels on layers.
"""

import importlib
import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
BENCH_KERNEL = ROOT / "benchmarks" / "bench_kernel.py"
MODULES = ("scalars", "kernel", "cohomology", "linalg", "deform")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
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
        with _load("superpds_tracer", TRACER).Tracer(lib) as tracer:
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


def _stored(terms):
    return [(key, (c.an.c, c.an.d, c.ad.c, c.ad.d)) for key, c in terms.items()]


def test_kernels_take_term_maps():
    from superpds import kernel
    from superpds.scalars import ALPHA, POLY_ONE, Scalar, fold_layers, split_layers

    assert callable(kernel.parity_split) and kernel.IMPLEMENTATION == "python"
    random_terms = _load("superpds_bench_kernel", BENCH_KERNEL).random_terms
    rng = random.Random(21)
    poles = {(1, 2, 0b0101, 0, 0): (ALPHA - 2).inv(), (0, 1, 0b0010, 1, 1): ALPHA / (ALPHA * ALPHA + 3)}
    for name in ("mul_terms", "poisson_terms", "moyal_terms", "h_bracket_terms"):
        fn = getattr(kernel, name)
        pairs = [(random_terms(rng, tau_nonneg=True), random_terms(rng, tau_nonneg=True))
                 for _ in range(20)]
        pairs.append((poles, random_terms(rng, tau_nonneg=True)))
        for a, b in pairs:
            out = fn(a, b)
            assert isinstance(out, dict), name
            # canonical: nonzero Scalars that reduce to themselves
            for c in out.values():
                reduced = Scalar.quotient(c.an, c.ad)
                assert c.__class__ is Scalar and c and (c.an, c.ad) == (reduced.an, reduced.ad)
                assert c.ad is POLY_ONE or not c.ad.is_one()
            # the layer path, folded: the same keys, order and stored forms
            assert _stored(out) == _stored(fold_layers(*fn(split_layers(a), split_layers(b)))), name
