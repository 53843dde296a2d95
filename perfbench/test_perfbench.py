"""Self-tests of the benchmark: tracer hygiene, the oracle and exact counters.

    python3 -m pytest perfbench/test_perfbench.py

They are not part of the library's test suite (``tests/``); the counter test
starts eight short benchmark runs and takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _bench(workload, env_extra, cwd=run.ROOT, script=HERE / "run.py"):
    env = dict(os.environ, **env_extra)
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def test_wrappers_restore_originals():
    lib, _ = run.load_library()
    with Tracer(lib) as tracer:
        patched = list(tracer._patched)
        assert len(patched) >= 15
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
    assert not tracer._patched


def test_probe_restores_timer_and_handler():
    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGALRM, handler)
    try:
        with probe.SpeedProbe() as sp:
            start = perf_counter()
            while perf_counter() - start < 0.1:
                pass
        assert signal.getsignal(signal.SIGALRM) is handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    # entry and exit samples plus several timer samples
    assert len(sp.samples) >= 5 and 0 < sp.inside_s < 0.1
    assert sp.adjust(1.0) == pytest.approx(
        (1.0 - sp.inside_s) * probe.PROBE_REF_S / sp.mean_s())


def test_tracer_counts_calls_and_blocks():
    lib, _ = run.load_library()
    coh = lib.cohomology
    with Tracer(lib) as tracer:
        coh.h1_scan([0, 1], [0], "P+", coh.poisson_engine())
    counts = tracer.exact_counts()
    # (0,0) is nonzero, so h1_scan assembles it twice; (1,0) is empty.
    assert counts["cohomology.h1_block.calls"] == 3
    assert counts["cohomology.blocks"] == 2
    assert counts["cohomology.blocks_nonempty"] == 1
    assert counts["cohomology.blocks_nonzero"] == 1
    assert counts["linalg.kernel_basis.calls"] == 1
    assert counts["kernel.poisson_terms.calls"] > 0
    assert all(t >= 0 for t in tracer.self_times().values())


def _pplus_report():
    lib, _ = run.load_library()
    coh = lib.cohomology
    engine = coh.poisson_engine()
    return lib, engine, coh.h1_block(coh.BlockSpec(0, 0, "P+"), engine)


def test_oracle_accepts_true_report():
    lib, engine, rpt = _pplus_report()
    expected = oracle.classical_reference("P+", [0], [0])
    checks = oracle.check_dims("P+", [rpt], expected) + oracle.check_representatives(lib, rpt, engine)
    assert checks and all(ok for _, ok in checks)


def test_oracle_rejects_wrong_dim():
    lib, engine, rpt = _pplus_report()
    rpt.dim_h1 = 2
    expected = oracle.classical_reference("P+", [0], [0])
    assert not all(ok for _, ok in oracle.check_dims("P+", [rpt], expected))


def test_oracle_rejects_non_cocycle_representative():
    lib, engine, rpt = _pplus_report()
    coh, Symbol = lib.cohomology, lib.symbols.Symbol
    for name, key in coh.enumerate_c1(rpt.block, engine):
        slot = coh.Cochain1({name: Symbol({key: lib.scalars.S_ONE})}, rpt.block)
        if not coh.pairmap_is_zero(coh.d1(slot, engine)):
            break
    rpt.representatives = [rpt.representatives[0] + slot]
    checks = dict(oracle.check_representatives(lib, rpt, engine))
    assert checks["reps(0,0,P+).cocycle"] is False


def _exact(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if LAYER_METRICS[name][0] in ("count", "ratio") and name != "trace.overhead"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counters_repeat_across_runs_and_hash_seeds(workload):
    results = []
    for hash_seed in ("0", "1"):
        out = _bench(workload, {"PYTHONHASHSEED": hash_seed})
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and set(result["metrics"]) == set(LAYER_METRICS)
        results.append(_exact(result["metrics"]))
    assert results[0] == results[1]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("identities", {}, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
