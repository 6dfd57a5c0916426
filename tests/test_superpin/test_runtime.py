"""End-to-end SuperPin runtime invariants.

The headline correctness property: for deterministic workloads,
``native == Pin == SuperPin-merged`` for every tool result, while the
master's side effects (stdout, exit code) happen exactly once.
"""

import pytest

from repro.errors import ConfigError
from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter
from repro.pin import Pintool, run_with_pin
from repro.superpin import (run_superpin, SliceEnd, SuperPinConfig)
from repro.tools import ICount1, ICount2, ITrace
from tests.conftest import random_program


def native_count(program, seed=42):
    kernel = Kernel(seed=seed)
    process = load_program(program, kernel)
    interp = Interpreter(process)
    interp.run(max_instructions=50_000_000)
    return interp.total_instructions, process.exit_code, kernel


class TestCountEquivalence:
    @pytest.mark.parametrize("tool_cls", [ICount1, ICount2])
    def test_three_way_equality(self, multislice_program, tool_cls):
        native, exit_code, _ = native_count(multislice_program)

        pin_tool = tool_cls()
        pin_result, _, _ = run_with_pin(multislice_program, pin_tool,
                                        Kernel(seed=42))
        sp_tool = tool_cls()
        report = run_superpin(multislice_program, sp_tool,
                              SuperPinConfig(spmsec=500, clock_hz=10_000),
                              kernel=Kernel(seed=42))
        assert pin_tool.total == native
        assert sp_tool.total == native
        assert report.exit_code == exit_code
        assert report.all_exact

    @pytest.mark.parametrize("seed", range(6))
    def test_random_programs_exact(self, seed):
        """Hypothesis-style sweep: arbitrary structured programs slice
        and merge exactly."""
        program = assemble(random_program(seed, blocks=4, block_len=10,
                                          loop_iters=40))
        native, exit_code, _ = native_count(program, seed=seed)
        tool = ICount2()
        config = SuperPinConfig(spmsec=200, clock_hz=10_000)
        report = run_superpin(program, tool, config, kernel=Kernel(seed=seed))
        assert tool.total == native
        assert report.exit_code == exit_code

    def test_slice_instruction_sums_match_master(self, multislice_program):
        report = run_superpin(multislice_program, ICount2(),
                              SuperPinConfig(spmsec=500, clock_hz=10_000),
                              kernel=Kernel(seed=42))
        assert report.total_slice_instructions \
            == report.timeline.total_instructions


class TestSideEffectTransparency:
    def test_stdout_emitted_exactly_once(self, multislice_program):
        _, _, native_kernel = native_count(multislice_program)
        report = run_superpin(multislice_program, ICount2(),
                              SuperPinConfig(spmsec=500, clock_hz=10_000),
                              kernel=Kernel(seed=42))
        assert report.stdout == native_kernel.stdout_text() == "done"

    def test_itrace_streams_identical(self, multislice_program):
        pin_tool = ITrace()
        run_with_pin(multislice_program, pin_tool, Kernel(seed=42))
        sp_tool = ITrace()
        run_superpin(multislice_program, sp_tool,
                     SuperPinConfig(spmsec=500, clock_hz=10_000),
                     kernel=Kernel(seed=42))
        assert pin_tool.trace == sp_tool.trace


class TestSliceStructure:
    def test_all_but_last_end_by_detection(self, multislice_program):
        report = run_superpin(multislice_program, ICount2(),
                              SuperPinConfig(spmsec=500, clock_hz=10_000),
                              kernel=Kernel(seed=42))
        assert report.num_slices >= 3
        for result in report.slices[:-1]:
            assert result.reason is SliceEnd.MATCHED
        assert report.slices[-1].reason is SliceEnd.EXIT

    def test_each_slice_compiles_cold(self, multislice_program):
        """Every slice starts with an empty code cache (paper §6.3:
        compilation slowdown comes from per-slice cold caches)."""
        report = run_superpin(multislice_program, ICount2(),
                              SuperPinConfig(spmsec=500, clock_hz=10_000),
                              kernel=Kernel(seed=42))
        for result in report.slices:
            assert result.compiles > 0

    def test_signatures_one_per_interior_boundary(self, multislice_program):
        report = run_superpin(multislice_program, ICount2(),
                              SuperPinConfig(spmsec=500, clock_hz=10_000),
                              kernel=Kernel(seed=42))
        assert len(report.signatures) == report.num_slices - 1

    def test_timing_attached(self, multislice_program):
        report = run_superpin(multislice_program, ICount2(),
                              SuperPinConfig(spmsec=500, clock_hz=10_000),
                              kernel=Kernel(seed=42))
        timing = report.timing
        assert timing is not None
        assert timing.total_cycles > timing.native_cycles > 0
        parts = timing.breakdown()
        assert sum(parts.values()) == pytest.approx(timing.total_cycles)


class TestConfigEnforcement:
    def test_tool_without_sp_init_rejected(self, hello_program):
        class NoInitTool(Pintool):
            def instrument_trace(self, trace, vm):
                pass
        with pytest.raises(ConfigError, match="SP_Init"):
            run_superpin(hello_program, NoInitTool(), SuperPinConfig())

    def test_sp_disabled_runs_serial_pin(self, multislice_program):
        """``sp=0`` is serial Pin behind the same front door: a report
        with no slices, the engine as its master and the classic-Pin
        virtual account."""
        tool = ICount2()
        report = run_superpin(multislice_program, tool,
                              SuperPinConfig(sp=False),
                              kernel=Kernel(seed=42))
        baseline = ICount2()
        result, vm, kernel = run_with_pin(multislice_program, baseline,
                                          Kernel(seed=42))
        assert tool.report() == baseline.report()
        assert (report.exit_code, report.stdout) \
            == (result.exit_code, kernel.stdout_text())
        assert report.slices == [] and report.signatures == []
        assert report.timeline.total_instructions == result.instructions
        assert report.timeline.master.compiled_traces \
            == vm.cache.stats.compiles
        assert report.timing.native_cycles < report.timing.total_cycles
        assert report.timing.master_finish_cycles \
            == report.timing.total_cycles
        assert [r.name for r in report.trace.records] == ["pin_phase"]
        assert report.instrumentation_summary()["analysis_calls"] \
            == result.analysis_calls
        assert report.wallclock_summary()["slice_phase_seconds"] == 0.0


class TestSysrecsZero:
    def test_recording_disabled_still_exact(self, multislice_program):
        """-spsysrecs 0: every replayable call forces a slice, counts
        still merge exactly (just with many more slices)."""
        native, _, _ = native_count(multislice_program)
        tool = ICount2()
        config = SuperPinConfig(spmsec=5000, clock_hz=10_000, spsysrecs=0)
        report = run_superpin(multislice_program, tool, config,
                              kernel=Kernel(seed=42))
        assert tool.total == native
        assert report.num_slices > 40  # forced at every time/getrandom


class TestSingleSliceDegenerate:
    def test_short_program_single_slice(self, hello_program):
        native, exit_code, _ = native_count(hello_program)
        tool = ICount2()
        report = run_superpin(hello_program, tool, SuperPinConfig(),
                              kernel=Kernel(seed=42))
        assert report.num_slices == 1
        assert tool.total == native
        assert report.exit_code == exit_code
        assert report.slices[0].detection is None
