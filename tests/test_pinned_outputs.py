"""Committed output pins: the default run's files and the benchmark digests.

The default experiment must write a ``series.csv`` with a fixed sha256 and
a ``summary.json`` equal to ``tests/data/default_summary.json`` (wall and
phase times left out).  The benchmark's per-workload digests for seeds
1-5, which ``perfbench/run.py`` computes over each workload's fixed
instance list, must equal those committed in ``perfbench/baseline.json``;
here they are recomputed the same way, through ``perfbench/workloads.py``,
untimed.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import taskalloc
from taskalloc import cli, harness

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SERIES_SHA256 = "875b019e893cea34f4552b2de9999613823ad8dc6fa3865192f44613ac613d00"


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
    assert hashlib.sha256(series).hexdigest() == DEFAULT_SERIES_SHA256
    got = json.loads((tmp_path / "summary.json").read_text())
    for agg in got["aggregates"].values():
        del agg["mean_wall_time_s"], agg["mean_phase_times_s"]
    assert got == json.loads((ROOT / "tests" / "data" / "default_summary.json").read_text())


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
        assert failures == [], f"{workload} seed {seed} op {k}"
        digests.append(quality["digest"])
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert digest == baseline["digests"][workload][str(seed)]
