"""§8 future-work extensions: adaptive timeslices, shared code cache."""

from types import SimpleNamespace

import pytest

from repro.machine import Kernel
from repro.superpin import (charge_slices_in_order, parse_switches,
                            run_superpin, SuperPinConfig)
from repro.tools import ICount2
from repro.workloads import build


@pytest.fixture(scope="module")
def gcc_program():
    return build("gcc", scale=0.15).program


def _run(program, **config_kwargs):
    tool = ICount2()
    config = SuperPinConfig(**config_kwargs)
    report = run_superpin(program, tool, config, kernel=Kernel(seed=42))
    return tool, report


class TestAdaptiveTimeslice:
    def test_shrinks_pipeline_delay(self, gcc_program):
        t_fixed, fixed = _run(gcc_program, spmsec=2000)
        t_adapt, adaptive = _run(gcc_program, spmsec=2000,
                                 spadaptive=True,
                                 expected_duration_msec=15_000)
        # Same answer...
        assert t_fixed.total == t_adapt.total
        assert adaptive.all_exact
        # ...with a much shorter drain after master exit.
        assert adaptive.timing.pipeline_cycles \
            < 0.5 * fixed.timing.pipeline_cycles

    def test_final_slices_get_smaller(self):
        # swim has no syscall-forced boundaries, so slice sizes are set
        # purely by the (throttled) timer.
        program = build("swim", scale=0.15).program
        _, report = _run(program, spmsec=2000, spadaptive=True,
                         expected_duration_msec=int(140 * 0.15 * 1000))
        sizes = [s.expected_instructions for s in report.slices]
        # The last slices are much smaller than the first full ones.
        assert min(sizes[-3:]) < max(sizes[:2]) / 3

    def test_wrong_estimate_degrades_gracefully(self, gcc_program):
        # Expected duration far too small: after it elapses the control
        # process falls back to the standard interval; results exact.
        tool, report = _run(gcc_program, spmsec=2000, spadaptive=True,
                            expected_duration_msec=500)
        assert report.all_exact
        t_ref, _ = _run(gcc_program, spmsec=2000)
        assert tool.total == t_ref.total

    def test_disabled_without_expectation(self, gcc_program):
        _, a = _run(gcc_program, spmsec=2000, spadaptive=True)
        _, b = _run(gcc_program, spmsec=2000)
        assert a.num_slices == b.num_slices

    def test_switch_parsing(self):
        config = parse_switches(["-spadaptive", "1", "-spexpected",
                                 "30000"])
        assert config.spadaptive and config.expected_duration_msec == 30000


class TestSharedCodeCache:
    def test_compile_charges_drop(self, gcc_program):
        _, base = _run(gcc_program, spmsec=1000)
        _, shared = _run(gcc_program, spmsec=1000, spsharedcache=True)
        base_ins = sum(s.compiled_ins for s in base.slices)
        shared_ins = sum(s.compiled_ins for s in shared.slices)
        # gcc recompiles its footprint per slice; sharing collapses that.
        assert shared_ins < base_ins / 3
        assert sum(s.shared_cache_reuses for s in shared.slices) > 0

    def test_results_unchanged(self, gcc_program):
        t_base, base = _run(gcc_program, spmsec=1000)
        t_shared, shared = _run(gcc_program, spmsec=1000,
                                spsharedcache=True)
        assert t_base.total == t_shared.total
        assert shared.all_exact

    def test_runtime_improves(self, gcc_program):
        _, base = _run(gcc_program, spmsec=1000)
        _, shared = _run(gcc_program, spmsec=1000, spsharedcache=True)
        assert shared.timing.total_cycles < base.timing.total_cycles

    def test_first_slice_pays(self, gcc_program):
        _, shared = _run(gcc_program, spmsec=1000, spsharedcache=True)
        first, rest = shared.slices[0], shared.slices[1:]
        assert first.compiled_ins > 0
        assert any(s.shared_cache_reuses > 0 for s in rest)

    def test_switch_parsing(self):
        assert parse_switches(["-spsharedcache", "1"]).spsharedcache


def _charged(*compile_logs):
    """Stub slice results (in reverse index order) after attribution."""
    results = [SimpleNamespace(index=k, compile_log=tuple(log))
               for k, log in enumerate(compile_logs)]
    charge_slices_in_order(reversed(results))
    return results


class TestDirectory:
    """§8 attribution as a view over the slices' compile logs."""

    def test_charge_first_then_reuse(self):
        first, second = _charged([(0x1000, 10)],
                                 [(0x1000, 10), (0x2000, 3)])
        # The lowest-indexed slice to compile a trace pays for it, in
        # whatever order the results arrive ...
        assert (first.compiles, first.compiled_ins) == (1, 10)
        assert first.shared_cache_reuses == 0
        # ... and every later compilation is a reuse.
        assert (second.compiles, second.compiled_ins) == (1, 3)
        assert second.shared_cache_reuses == 1

    def test_keyed_by_address_and_length(self):
        """Detection-split traces (same start, different length) do not
        alias with the full-length trace compiled by other slices."""
        first, second = _charged([(0x1000, 10)], [(0x1000, 4)])
        assert (first.compiles, second.compiles) == (1, 1)
        assert (first.compiled_ins, second.compiled_ins) == (10, 4)
        assert second.shared_cache_reuses == 0
