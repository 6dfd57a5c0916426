"""The CI perf gate's comparison (``benchmarks/perf_gate.py``), held
against its committed baseline without running the workload."""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
GATE = REPO_ROOT / "benchmarks" / "perf_gate.py"


def _gate():
    spec = importlib.util.spec_from_file_location("perf_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _measurement(gate, **changes):
    baseline = json.loads(gate.DEFAULT_BASELINE.read_text())
    return baseline, {"master_overlap_seconds": 0.02, **baseline, **changes}


def test_a_streamed_run_at_baseline_passes():
    gate = _gate()
    baseline, current = _measurement(gate)
    assert gate.compare(current, baseline) == []


def test_a_drained_master_fails_the_gate():
    """``-spworkers 0`` (or a barrier back between the master and the
    slice phase) reads exactly 0.0."""
    gate = _gate()
    baseline, current = _measurement(gate, master_overlap_seconds=0.0)
    failures = gate.compare(current, baseline)
    assert len(failures) == 1
    assert "master_overlap_seconds" in failures[0]


def test_results_landed_before_the_master_end_are_the_hosts():
    gate = _gate()
    baseline, current = _measurement(gate)
    current["counters"] = {**current["counters"],
                           gate.LANDED_BEFORE_MASTER_END: 0}
    assert gate.compare(current, baseline) == []
