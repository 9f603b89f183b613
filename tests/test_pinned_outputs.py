"""Committed output pins: the default run's files and the benchmark digests.

The default experiment must write a ``series.csv`` with a fixed sha256 and
a ``summary.json`` equal to ``tests/data/default_summary.json`` (wall and
phase times left out).  The benchmark's per-workload digests for seeds
1-5, which ``perfbench/run.py`` computes over each workload's fixed
instance list, must equal those committed in ``perfbench/baseline.json``;
here they are recomputed the same way, through ``perfbench/workloads.py``,
untimed.

The pins were recorded under numpy 2.4.6 on an AVX-512 CPU, and their bits
can move with numpy's build and CPU dispatch (ROADMAP items 14 and 23), so
each failure message names the numpy version and SIMD features in use.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import taskalloc
from taskalloc import cli, harness

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SERIES_SHA256 = "875b019e893cea34f4552b2de9999613823ad8dc6fa3865192f44613ac613d00"


def _numpy_build() -> str:
    """numpy's version and the SIMD features it runs with: its baseline and
    the dispatched ones this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy before 2.0
        from numpy.core import _multiarray_umath as umath
    found = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__[name]]
    return (f"numpy {np.__version__}; SIMD baseline {' '.join(umath.__cpu_baseline__)}; "
            f"dispatched {' '.join(found)}")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_default_run_writes_the_pinned_outputs(tmp_path, capsys):
    assert cli.main(["run", "--config", str(ROOT / "configs" / "default.yaml"),
                     "--seed", "42", "--output-dir", str(tmp_path)]) == cli.EXIT_OK
    series = (tmp_path / "series.csv").read_bytes()
    assert hashlib.sha256(series).hexdigest() == DEFAULT_SERIES_SHA256, \
        f"series.csv under {_numpy_build()}"
    got = json.loads((tmp_path / "summary.json").read_text())
    for agg in got["aggregates"].values():
        del agg["mean_wall_time_s"], agg["mean_phase_times_s"]
    assert got == json.loads((ROOT / "tests" / "data" / "default_summary.json").read_text()), \
        f"summary.json under {_numpy_build()}"


# Seeds 1-5 of each workload.  satellite-mc seed 4's op 17 has a target
# with three holders.
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("workload", ["static-dense", "satellite-mc", "bound-suite"])
def test_benchmark_digest_equals_the_baseline(workload, seed, tmp_path, monkeypatch):
    workloads = _workloads()
    # The capture rebinds dgba_run in both namespaces; pytest restores them.
    monkeypatch.setattr(taskalloc, "dgba_run", taskalloc.dgba_run)
    monkeypatch.setattr(harness, "dgba_run", harness.dgba_run)
    capture = workloads.DgbaCapture()
    capture.install()
    wl = workloads.WORKLOADS[workload](seed, str(tmp_path))
    digests = []
    for k in range(wl.quality_ops):
        inputs = wl.prepare(k)
        try:
            output = wl.run(inputs)
            failures, quality = wl.check(k, inputs, output, capture.take())
        finally:
            wl.cleanup(inputs)
        assert failures == [], f"{workload} seed {seed} op {k} under {_numpy_build()}"
        digests.append(quality["digest"])
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert digest == baseline["digests"][workload][str(seed)], \
        f"{workload} seed {seed} digest under {_numpy_build()}"
