"""Observability of real SuperPin runs: phase spans, parallel tracks,
cross-process metric merging, and the report's summary views."""

import json

import pytest

from repro.machine import Kernel
from repro.obs import chrome_trace_dict
from repro.superpin import run_superpin, SuperPinConfig
from repro.superpin.runtime import SuperPinReport
from repro.tools import ICount2
from tests.conftest import virtual_counters

PHASES = ("control_phase", "signature_phase", "slice_phase",
          "merge_phase", "timing_phase")


def _run(multislice_program, **config_kwargs):
    config = SuperPinConfig(spmsec=500, clock_hz=10_000, **config_kwargs)
    return run_superpin(multislice_program, ICount2(), config,
                        kernel=Kernel(seed=42))


class TestRunTrace:
    def test_every_phase_has_one_root_span(self, multislice_program):
        report = _run(multislice_program)
        spans = {r.name: r for r in report.trace.records
                 if r.cat == "phase"}
        assert set(spans) == set(PHASES)
        assert all(r.parent_id == 0 for r in spans.values())
        names = [r.name for r in report.trace.records
                 if r.cat == "phase"]
        assert names == list(PHASES)  # close order == pipeline order

    def test_per_slice_spans_cover_every_slice(self, multislice_program):
        report = _run(multislice_program)
        for name in ("slice", "slice.run", "slice.merge"):
            indexed = [r.args["slice"] for r in report.trace.records
                       if r.name == name]
            assert sorted(indexed) == list(range(report.num_slices))

    def test_phase_seconds_come_from_the_trace(self, multislice_program):
        report = _run(multislice_program)
        tracer = report.trace
        # The master's two figures are busy time — the totals of its
        # steps — inside the wall extent of their phase spans.
        assert report.control_phase_seconds \
            == pytest.approx(tracer.total("control.step"))
        assert report.signature_phase_seconds \
            == pytest.approx(tracer.total("signature"))
        assert 0.0 < report.signature_phase_seconds \
            < tracer.total("signature_phase") \
            < tracer.total("control_phase")
        assert report.slice_phase_seconds == tracer.total("slice_phase")
        assert report.slice_phase_seconds > 0.0

    def test_parallel_run_lands_slices_on_worker_tracks(
            self, multislice_program):
        report = _run(multislice_program, spworkers=2)
        slice_tracks = {r.track for r in report.trace.records
                        if r.name == "slice"}
        assert slice_tracks  # at least one lane
        assert 0 not in slice_tracks  # never the main track
        for track in slice_tracks:
            assert report.trace.track_names[track] \
                == f"slice lane {track}"

    def test_trace_exports_to_chrome_json(self, multislice_program):
        report = _run(multislice_program, spworkers=2)
        doc = json.loads(json.dumps(
            chrome_trace_dict(report.trace, report.metrics)))
        phase_events = [e for e in doc["traceEvents"]
                        if e.get("ph") == "X"
                        and e["name"] in PHASES]
        assert len(phase_events) == len(PHASES)


class TestCrossProcessMetrics:
    def test_parallel_counters_match_sequential(self,
                                                multislice_program):
        """Worker snapshots must merge to the sequential totals: the
        same slices run either way, so every deterministic counter —
        instructions, syscall replays, JIT compiles — is identical."""
        sequential = _run(multislice_program, spmetrics=True)
        parallel = _run(multislice_program, spworkers=2, spmetrics=True)
        assert virtual_counters(sequential.metrics) \
            == virtual_counters(parallel.metrics)
        assert sequential.metrics.counter(
            "superpin.slices.completed") == sequential.num_slices
        assert sequential.metrics.counter(
            "superpin.slices.instructions") \
            == sequential.total_slice_instructions
        seq_hist = sequential.metrics.histogram(
            "superpin.slice.instructions")
        par_hist = parallel.metrics.histogram(
            "superpin.slice.instructions")
        assert seq_hist.as_dict() == par_hist.as_dict()

    def test_metrics_off_by_default(self, multislice_program):
        report = _run(multislice_program)
        assert not report.metrics.enabled
        assert report.metrics.counters == {}


class TestReportSummaries:
    def test_wallclock_summary_all_zero_without_timings(self):
        """A fully-degraded run has no slice timings; the summary must
        report zeros, not divide by the empty list."""
        report = SuperPinReport(
            config=SuperPinConfig(), timeline=None, slices=[],
            signatures=[], tool=None, timing=None, exit_code=0)
        wall = report.wallclock_summary()
        assert set(wall) >= {"slice_phase_seconds",
                             "mean_slice_run_seconds",
                             "measured_parallelism"}
        assert all(value == 0.0 for value in wall.values())

    def test_wallclock_summary_reports_mean(self, multislice_program):
        report = _run(multislice_program)
        wall = report.wallclock_summary()
        assert wall["mean_slice_run_seconds"] * report.num_slices \
            == pytest.approx(wall["slice_run_seconds"])

    def test_trace_summary_renders_spans_and_counters(
            self, multislice_program):
        report = _run(multislice_program, spmetrics=True)
        text = report.trace_summary()
        assert "trace spans:" in text
        assert "slice_phase" in text
        assert "counters:" in text
        assert "superpin.slices.completed" in text

    def test_trace_summary_without_trace(self):
        report = SuperPinReport(
            config=SuperPinConfig(), timeline=None, slices=[],
            signatures=[], tool=None, timing=None, exit_code=0)
        assert report.trace_summary() == "  (no trace recorded)"
