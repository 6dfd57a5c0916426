"""Selective instrumentation, suppression and sampling under SuperPin.

The parity contract: ``-spfilter`` and ``-spsuppress`` change *how much*
instrumentation runs, never *what the tool reports* — filtered SuperPin
must match filtered serial Pin bit for bit, and suppressed must match
unsuppressed.  ``-spsample`` is the one switch allowed to change tool
results (a declared approximation), and the audit must treat it so.
"""

import pytest

from repro.machine import Kernel
from repro.pin import parse_filter, run_with_pin
from repro.superpin import run_superpin, SuperPinConfig
from repro.tools import ICount1, ICount2

BACKENDS = ["closure", "source"]
WORKERS = [0, 2]

BASE = dict(spmsec=500, clock_hz=10_000)


def serial_total(program, tool_cls, backend, filter_spec=None,
                 suppress=False):
    """Serial-Pin ground truth with the same selective settings."""
    tool = tool_cls()
    if filter_spec is not None:
        tool.instrument_filter = parse_filter(filter_spec, program)
    run_with_pin(program, tool, Kernel(seed=42), jit_backend=backend,
                 suppress_loops=suppress)
    return tool.total


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestFilteredParity:
    def test_filtered_superpin_matches_filtered_serial(
            self, multislice_program, workers, backend):
        expected = serial_total(multislice_program, ICount2, backend,
                                filter_spec="routine:work")
        tool = ICount2()
        report = run_superpin(
            multislice_program, tool,
            SuperPinConfig(spfilter="routine:work", spworkers=workers,
                           jit_backend=backend, **BASE),
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
            SuperPinConfig(spworkers=workers, jit_backend=backend,
                           **BASE),
            kernel=Kernel(seed=42))
        full_instr = full_report.instrumentation_summary()
        assert 0 < instr["analysis_calls"] < full_instr["analysis_calls"]
        assert tool.total < full.total

    def test_filtered_audit_clean(self, multislice_program, workers,
                                  backend):
        """The audit's serial baseline inherits the filter, so the
        tool.results comparison stays live and passes."""
        tool = ICount2()
        report = run_superpin(
            multislice_program, tool,
            SuperPinConfig(spfilter="routine:work", spworkers=workers,
                           jit_backend=backend, spaudit=True, **BASE),
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
                                              workers, backend, tool_cls):
        full = tool_cls()
        run_superpin(multislice_program, full,
                     SuperPinConfig(spworkers=workers,
                                    jit_backend=backend, **BASE),
                     kernel=Kernel(seed=42))
        tool = tool_cls()
        report = run_superpin(
            multislice_program, tool,
            SuperPinConfig(spsuppress=True, spworkers=workers,
                           jit_backend=backend, **BASE),
            kernel=Kernel(seed=42))
        assert tool.total == full.total
        assert report.all_exact
        instr = report.instrumentation_summary()
        assert instr["summarized_loops"] > 0
        assert instr["suppressed_calls"] > 0

    def test_suppressed_audit_clean(self, multislice_program, workers,
                                    backend):
        tool = ICount2()
        report = run_superpin(
            multislice_program, tool,
            SuperPinConfig(spsuppress=True, spworkers=workers,
                           jit_backend=backend, spaudit=True, **BASE),
            kernel=Kernel(seed=42))
        assert report.audit is not None
        assert report.audit.ok, report.audit.summary()


class TestCombined:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_filter_plus_suppress_audit_clean(self, multislice_program,
                                              backend):
        tool = ICount2()
        report = run_superpin(
            multislice_program, tool,
            SuperPinConfig(spfilter="routine:work", spsuppress=True,
                           jit_backend=backend, spaudit=True, **BASE),
            kernel=Kernel(seed=42))
        assert report.audit is not None
        assert report.audit.ok, report.audit.summary()
        assert tool.total == serial_total(multislice_program, ICount2,
                                          backend,
                                          filter_spec="routine:work")

    def test_all_three_with_audit(self, multislice_program):
        """-spfilter + -spsuppress + -spsample + -spaudit together: the
        audit waives only the tool-results check (sampling is a declared
        approximation) and everything architectural stays clean."""
        tool = ICount2()
        report = run_superpin(
            multislice_program, tool,
            SuperPinConfig(spfilter="routine:work", spsuppress=True,
                           spsample=2, spaudit=True, **BASE),
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

