"""itrace, opcodemix, branchprofile, memtrace, sampler."""

import pytest

from repro.isa import assemble
from repro.machine import Kernel
from repro.pin import run_with_pin
from repro.superpin import (replay_recording, run_superpin, SliceEnd,
                            SuperPinConfig)
from repro.tools import (BranchProfile, ITrace, MemTrace, OpcodeMix,
                         SampledProfiler)
from tests.conftest import MULTISLICE, run_native

CFG = dict(spmsec=400, clock_hz=10_000)


class TestITrace:
    def test_trace_is_execution_order(self, fact_program):
        tool = ITrace()
        result, _, _ = run_with_pin(fact_program, tool, Kernel())
        assert len(tool.trace) == result.instructions
        assert tool.trace[0] == fact_program.entry

    def test_superpin_concat_equals_serial(self, multislice_program):
        serial = ITrace()
        run_with_pin(multislice_program, serial, Kernel(seed=42))
        parallel = ITrace()
        run_superpin(multislice_program, parallel,
                     SuperPinConfig(**CFG), kernel=Kernel(seed=42))
        assert serial.trace == parallel.trace

    def test_max_entries_truncates(self, fact_program):
        tool = ITrace(max_entries=10)
        run_with_pin(fact_program, tool, Kernel())
        assert len(tool.trace) == 10
        assert tool.dropped > 0


class TestOpcodeMix:
    def test_total_matches_native(self, multislice_program):
        _, interp, _ = run_native(multislice_program)
        tool = OpcodeMix()
        run_superpin(multislice_program, tool, SuperPinConfig(**CFG),
                     kernel=Kernel(seed=42))
        assert tool.total == interp.total_instructions

    def test_mix_names_resolve(self, multislice_program):
        tool = OpcodeMix()
        run_with_pin(multislice_program, tool, Kernel(seed=42))
        mix = tool.mix()
        assert mix["add"] > 0
        assert mix["st"] == mix["ld"]  # the work loop pairs them

    def test_automerge_path_used(self, multislice_program):
        """OpcodeMix merges through AutoMerge.ADD with no tool merge
        function; the vectors must still sum exactly."""
        serial = OpcodeMix()
        run_with_pin(multislice_program, serial, Kernel(seed=42))
        parallel = OpcodeMix()
        run_superpin(multislice_program, parallel, SuperPinConfig(**CFG),
                     kernel=Kernel(seed=42))
        assert serial.vector() == parallel.vector()


class TestBranchProfile:
    def test_taken_counts(self, loop_program):
        tool = BranchProfile()
        run_with_pin(loop_program, tool, Kernel())
        profile = tool.profile()
        assert len(profile) == 1
        (executed, taken), = profile.values()
        assert executed == 100 and taken == 99
        (site,) = profile.keys()
        assert tool.bias(site) == pytest.approx(0.99)

    def test_superpin_equals_serial(self, multislice_program):
        serial = BranchProfile()
        run_with_pin(multislice_program, serial, Kernel(seed=42))
        parallel = BranchProfile()
        run_superpin(multislice_program, parallel, SuperPinConfig(**CFG),
                     kernel=Kernel(seed=42))
        assert serial.profile() == parallel.profile()


class TestMemTrace:
    def test_footprint_and_stream(self, multislice_program):
        serial = MemTrace()
        run_with_pin(multislice_program, serial, Kernel(seed=42))
        parallel = MemTrace()
        run_superpin(multislice_program, parallel, SuperPinConfig(**CFG),
                     kernel=Kernel(seed=42))
        assert serial.report() == parallel.report()
        assert serial.stream == parallel.stream
        assert serial.report()["footprint_words"] > 100


def first_slice_volume(program, tool_cls) -> int:
    """How many entries slice 0 of an uncapped run buffers."""
    volumes = []

    class Measured(tool_cls):
        def merge(self, slice_num, value):
            volumes.append(len(self.buffer if tool_cls is ITrace
                               else self.accesses))
            super().merge(slice_num, value)
    run_superpin(program, Measured(), SuperPinConfig(**CFG),
                 kernel=Kernel(seed=42))
    return volumes[0]


class TestCappedTraces:
    """A cap is the merged trace's, as it is serial Pin's: every executor
    keeps serial Pin's first ``max_entries`` entries and counts the rest
    as dropped — below, at and above what one slice buffers."""

    @pytest.mark.parametrize("tool_cls", [ITrace, MemTrace])
    def test_every_executor_keeps_serial_pins_first_entries(
            self, tool_cls, multislice_program, tmp_path):
        volume = first_slice_volume(multislice_program, tool_cls)

        def outcome(tool):
            stream = tool.trace if tool_cls is ITrace else tool.stream
            return stream, tool.report()
        recording = str(tmp_path / "run.sprec")
        for cap in (volume // 3, volume, 2 * volume + 7):
            serial = tool_cls(max_entries=cap)
            run_with_pin(multislice_program, serial, Kernel(seed=42))
            want = outcome(serial)
            assert len(want[0]) == cap
            runs = {}
            for workers in (0, 2):
                tool = tool_cls(max_entries=cap)
                report = run_superpin(
                    multislice_program, tool,
                    SuperPinConfig(**CFG, spworkers=workers,
                                   sprecord=recording),
                    kernel=Kernel(seed=42))
                assert report.num_slices > 2
                runs[f"w{workers}"] = outcome(tool)
            tool = tool_cls(max_entries=cap)
            replay_recording(recording, tool, SuperPinConfig(**CFG))
            runs["replay"] = outcome(tool)
            assert runs == {name: want for name in runs}, cap


class TestSampler:
    def test_slices_end_by_tool(self, multislice_program):
        tool = SampledProfiler(sample_instructions=300)
        report = run_superpin(multislice_program, tool,
                              SuperPinConfig(**CFG), kernel=Kernel(seed=42))
        # Every slice long enough gets cut short by SP_EndSlice.
        reasons = {r.reason for r in report.slices}
        assert SliceEnd.TOOL_END in reasons
        assert tool.total_samples \
            <= 300 * report.num_slices

    def test_sampling_reduces_work(self, multislice_program):
        sampled = SampledProfiler(sample_instructions=200)
        report = run_superpin(multislice_program, sampled,
                              SuperPinConfig(**CFG), kernel=Kernel(seed=42))
        total = report.timeline.total_instructions
        executed = sum(r.instructions for r in report.slices)
        assert executed < total / 2  # the whole point of Shadow Profiling

    def test_profile_attributes_to_functions(self, multislice_program):
        tool = SampledProfiler(sample_instructions=500)
        run_superpin(multislice_program, tool, SuperPinConfig(**CFG),
                     kernel=Kernel(seed=42))
        program = assemble(MULTISLICE)
        work = program.symbols["work"]
        profile = tool.profile
        assert work in profile  # samples land in the work function

    def test_plain_pin_full_profile(self, multislice_program):
        tool = SampledProfiler(sample_instructions=100)
        result, _, _ = run_with_pin(multislice_program, tool,
                                    Kernel(seed=42))
        # Without SuperPin there is no slicing: everything is "sampled".
        assert tool.total_samples == result.instructions
