"""Selective instrumentation, loop summaries and sampling under SuperPin.

The parity contract: ``-spfilter`` and loop summaries change *how much*
instrumentation runs, never *what the tool reports* — filtered SuperPin
must match filtered serial Pin bit for bit, and a run with summaries
must match one with no loop form (which fires none), analysis calls
included.  ``-spsample`` is the one switch allowed to change tool
results (a declared approximation), and the audit must treat it so.
"""

import pytest

from repro.machine import Kernel
from repro.pin import parse_filter, run_with_pin
from repro.superpin import run_superpin, SuperPinConfig
from repro.tools import ICount1, ICount2
from tests.conftest import all_generated, without_loop_forms

#: The JIT's own choice of lowering, and every trace generated
#: (``conftest.all_generated``).
BACKENDS = ["closure", "source"]
WORKERS = [0, 2]

BASE = dict(spmsec=500, clock_hz=10_000)


def serial_total(program, tool_cls, filter_spec=None):
    """Serial-Pin ground truth with the same selective settings."""
    tool = tool_cls()
    if filter_spec is not None:
        tool.instrument_filter = parse_filter(filter_spec, program)
    run_with_pin(program, tool, Kernel(seed=42))
    return tool.total


def unsummarized(monkeypatch, run):
    """``run()`` with no loop form, so with no summary fired."""
    with monkeypatch.context() as reference:
        without_loop_forms(reference)
        return run()


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestFilteredParity:
    def test_filtered_superpin_matches_filtered_serial(
            self, multislice_program, workers, backend, monkeypatch):
        if backend == "source":
            all_generated(monkeypatch)
        expected = serial_total(multislice_program, ICount2,
                                filter_spec="routine:work")
        tool = ICount2()
        report = run_superpin(
            multislice_program, tool,
            SuperPinConfig(spfilter="routine:work", spworkers=workers,
                           **BASE),
            kernel=Kernel(seed=42))
        assert tool.total == expected
        assert report.all_exact
        instr = report.instrumentation_summary()
        assert instr["skipped_callbacks"] > 0
        assert instr["fastpath_traces"] > 0
        # Filtering strictly reduces the analysis-call volume.
        full = ICount2()
        full_report = run_superpin(
            multislice_program, full,
            SuperPinConfig(spworkers=workers, **BASE),
            kernel=Kernel(seed=42))
        full_instr = full_report.instrumentation_summary()
        assert 0 < instr["analysis_calls"] < full_instr["analysis_calls"]
        assert tool.total < full.total

    def test_filtered_audit_clean(self, multislice_program, workers,
                                  backend, monkeypatch):
        """The audit's serial baseline inherits the filter, so the
        tool.results comparison stays live and passes."""
        if backend == "source":
            all_generated(monkeypatch)
        tool = ICount2()
        report = run_superpin(
            multislice_program, tool,
            SuperPinConfig(spfilter="routine:work", spworkers=workers,
                           spaudit=True, **BASE),
            kernel=Kernel(seed=42))
        assert report.audit is not None
        assert report.audit.ok, report.audit.summary()
        assert (report.audit.merged_tool_report
                == report.audit.serial_tool_report)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestSuppressedParity:
    @pytest.mark.parametrize("tool_cls", [ICount1, ICount2])
    def test_suppressed_superpin_matches_full(self, multislice_program,
                                              workers, backend, tool_cls,
                                              monkeypatch):
        if backend == "source":
            all_generated(monkeypatch)

        def run():
            tool = tool_cls()
            report = run_superpin(
                multislice_program, tool,
                SuperPinConfig(spworkers=workers, spmetrics=True, **BASE),
                kernel=Kernel(seed=42))
            return tool, report
        full, full_report = unsummarized(monkeypatch, run)
        tool, report = run()
        assert tool.total == full.total
        assert report.all_exact
        assert (report.instrumentation_summary()
                == full_report.instrumentation_summary())
        counter = report.metrics.counter
        assert not full_report.metrics.counter(
            "pin.suppress.summarized_loops")
        if backend == "source":
            assert counter("pin.suppress.summarized_loops") > 0
            assert counter("pin.suppress.suppressed_calls") > 0

    def test_suppressed_audit_clean(self, multislice_program, workers,
                                    backend, monkeypatch):
        if backend == "source":
            all_generated(monkeypatch)

        def run():
            return run_superpin(
                multislice_program, ICount2(),
                SuperPinConfig(spworkers=workers, spaudit=True, **BASE),
                kernel=Kernel(seed=42))
        reference = unsummarized(monkeypatch, run)
        report = run()
        assert report.audit is not None
        assert report.audit.ok, report.audit.summary()
        assert (report.audit.merged_tool_report
                == reference.audit.merged_tool_report)
        assert (report.instrumentation_summary()["analysis_calls"]
                == reference.instrumentation_summary()["analysis_calls"])


class TestCombined:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_filter_plus_suppress_audit_clean(self, multislice_program,
                                              backend, monkeypatch):
        if backend == "source":
            all_generated(monkeypatch)

        def run():
            return run_superpin(
                multislice_program, ICount2(),
                SuperPinConfig(spfilter="routine:work", spaudit=True,
                               **BASE),
                kernel=Kernel(seed=42))
        reference = unsummarized(monkeypatch, run)
        report = run()
        assert report.audit is not None
        assert report.audit.ok, report.audit.summary()
        assert report.tool.total == serial_total(
            multislice_program, ICount2, filter_spec="routine:work")
        assert (report.instrumentation_summary()
                == reference.instrumentation_summary())

    def test_all_three_with_audit(self, multislice_program):
        """-spfilter + -spsample + -spaudit together: the
        audit waives only the tool-results check (sampling is a declared
        approximation) and everything architectural stays clean."""
        tool = ICount2()
        report = run_superpin(
            multislice_program, tool,
            SuperPinConfig(spfilter="routine:work", spsample=2,
                           spaudit=True, **BASE),
            kernel=Kernel(seed=42))
        assert report.audit is not None
        assert report.audit.ok, report.audit.summary()
        samp = report.sampling_summary()
        assert samp["sampled_slices"] + samp["skipped_slices"] \
            == report.num_slices


class TestSampling:
    def test_sampling_skips_tool_on_off_slices(self, multislice_program):
        tool = ICount2()
        report = run_superpin(multislice_program, tool,
                              SuperPinConfig(spsample=2, spmetrics=True,
                                             **BASE),
                              kernel=Kernel(seed=42))
        assert report.num_slices > 1
        samp = report.sampling_summary()
        assert samp["period"] == 2
        # Every even slice carries the tool, every odd one is tool-free.
        for s in report.slices:
            assert s.instrumented == (s.index % 2 == 0)
        assert samp["skipped_slices"] > 0
        assert (report.metrics.counters["superpin.sample.skipped_slices"]
                == samp["skipped_slices"])
        # Architectural execution is untouched — only tool results shrink.
        assert report.all_exact
        full = ICount2()
        run_superpin(multislice_program, full, SuperPinConfig(**BASE),
                     kernel=Kernel(seed=42))
        assert 0 < tool.total < full.total

    def test_sample_of_one_is_full_instrumentation(self,
                                                   multislice_program):
        tool = ICount2()
        report = run_superpin(multislice_program, tool,
                              SuperPinConfig(spsample=1, **BASE),
                              kernel=Kernel(seed=42))
        assert all(s.instrumented for s in report.slices)
        full = ICount2()
        run_superpin(multislice_program, full, SuperPinConfig(**BASE),
                     kernel=Kernel(seed=42))
        assert tool.total == full.total

    def test_sampling_audit_waives_only_tool_results(self,
                                                     multislice_program):
        tool = ICount2()
        report = run_superpin(multislice_program, tool,
                              SuperPinConfig(spsample=2, spaudit=True,
                                             **BASE),
                              kernel=Kernel(seed=42))
        audit = report.audit
        assert audit is not None
        assert audit.ok, audit.summary()
        # The merged result genuinely differs from the serial baseline;
        # had the check run, it would have filed a tool.results
        # divergence.
        assert audit.merged_tool_report != audit.serial_tool_report

