"""Slice execution details, the SP API handle, and merge ordering."""

import pytest

from repro.errors import (InstrumentationError, RunawaySliceError,
                          SliceExecutionError)
from repro.isa import abi, assemble
from repro.machine import Kernel
from repro.pin import Pintool
from repro.superpin import (AutoMerge, run_superpin, SPControl,
                            SuperPinConfig)
from repro.tools import ICount2


class MergeOrderTool(Pintool):
    """Records the order in which slice-end functions fire."""

    name = "mergeorder"

    def __init__(self):
        self.order = None
        self.begin_order = None
        self.icount = 0

    def reset(self, slice_num):
        self.icount = 0

    def on_begin(self, slice_num, value):
        self.begin_order.data.append(slice_num)

    def on_end(self, slice_num, value):
        self.order.data.append(slice_num)

    def setup(self, sp):
        sp.SP_Init(self.reset)
        self.order = sp.SP_CreateSharedArea([], 0, 0)
        self.order.data = []
        self.begin_order = sp.SP_CreateSharedArea([], 0, 0)
        self.begin_order.data = []
        sp.SP_AddSliceBeginFunction(self.on_begin, None)
        sp.SP_AddSliceEndFunction(self.on_end, None)

    def instrument_trace(self, trace, vm):
        pass


class TestLifecycleOrdering:
    def test_merge_called_in_slice_order(self, multislice_program):
        # In-process only: slice-*begin* functions fire slice-side, and
        # slice-side writes to a non-auto-merged area never cross the
        # worker boundary (slice-*end* functions fire at merge in the
        # parent, so ``order`` would survive either way).
        tool = MergeOrderTool()
        report = run_superpin(multislice_program, tool,
                              SuperPinConfig(spmsec=500, clock_hz=10_000,
                                             spworkers=0,
                                             spfaults="failfast"),
                              kernel=Kernel(seed=42))
        expected = list(range(report.num_slices))
        assert tool.order.data == expected
        assert tool.begin_order.data == expected


class TestSPControl:
    def test_endslice_outside_slice_rejected(self):
        sp = SPControl(SuperPinConfig())
        with pytest.raises(InstrumentationError, match="inside"):
            sp.SP_EndSlice()

    def test_create_area_size_inference(self):
        sp = SPControl(SuperPinConfig())
        area = sp.SP_CreateSharedArea([1, 2, 3], 0, AutoMerge.ADD)
        assert area.size == 3

    def test_merge_mode_coercion(self):
        sp = SPControl(SuperPinConfig())
        assert sp.SP_CreateSharedArea([0], 1, 1).auto_merge \
            is AutoMerge.ADD
        assert sp.SP_CreateSharedArea([0], 1, None).auto_merge \
            is AutoMerge.NONE
        assert sp.SP_CreateSharedArea(
            [0], 1, AutoMerge.MAX).auto_merge is AutoMerge.MAX

    def test_automerge_needs_iterable_local(self):
        sp = SPControl(SuperPinConfig())
        with pytest.raises(InstrumentationError, match="iterable"):
            sp.SP_CreateSharedArea(42, 1, AutoMerge.ADD)

    def test_deepcopy_shares_handle(self):
        import copy
        sp = SPControl(SuperPinConfig())
        assert copy.deepcopy(sp) is sp


class TestToolIsolation:
    def test_slice_tool_state_does_not_leak_to_master(self,
                                                      multislice_program):
        tool = ICount2()
        run_superpin(multislice_program, tool,
                     SuperPinConfig(spmsec=500, clock_hz=10_000),
                     kernel=Kernel(seed=42))
        # Master tool's local count was never touched by slices; fini
        # with merges present leaves it at 0.
        assert tool.icount == 0
        assert tool.total > 0  # merged into the shared area instead


class TestRunaway:
    """A never-matching signature must fail loudly, never loop forever.

    Depending on what the slice meets first, the SliceExecutionError's
    cause is either a DivergenceError (an un-recorded syscall) or a
    RunawaySliceError (instruction budget exhausted).  Both paths are
    covered.
    """

    @staticmethod
    def _sabotage(parallel_mod):
        from repro.superpin.signature import Signature
        original = parallel_mod.record_boundary_signature

        def sabotaged(boundary, **kwargs):
            signature = original(boundary, **kwargs)
            bad_regs = list(signature.regs)
            bad_regs[8] ^= 0xDEAD  # corrupt t0's recorded value
            return Signature(pc=signature.pc, regs=tuple(bad_regs),
                             stack_base=signature.stack_base,
                             stack=signature.stack,
                             quick_regs=signature.quick_regs)
        return original, sabotaged

    def test_divergence_on_unrecorded_syscall(self, multislice_program):
        from repro.errors import DivergenceError
        from repro.superpin import parallel as parallel_mod
        original, sabotaged = self._sabotage(parallel_mod)
        parallel_mod.record_boundary_signature = sabotaged
        try:
            with pytest.raises(SliceExecutionError) as info:
                run_superpin(multislice_program, ICount2(),
                             SuperPinConfig(spmsec=500, clock_hz=10_000,
                                            spfaults="failfast"),
                             kernel=Kernel(seed=42))
            assert isinstance(info.value.__cause__, DivergenceError)
        finally:
            parallel_mod.record_boundary_signature = original

    def test_runaway_on_syscall_free_program(self):
        source = """
.entry main
main:
    li   t0, 0
    li   t1, 50000
lp: addi t0, t0, 1
    blt  t0, t1, lp
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
"""
        program = assemble(source)
        from repro.superpin import parallel as parallel_mod
        original, sabotaged = self._sabotage(parallel_mod)
        parallel_mod.record_boundary_signature = sabotaged
        try:
            with pytest.raises(SliceExecutionError,
                               match="without detecting") as info:
                run_superpin(program, ICount2(),
                             SuperPinConfig(spmsec=1000, clock_hz=10_000,
                                            spfaults="failfast"),
                             kernel=Kernel(seed=42))
            assert isinstance(info.value.__cause__, RunawaySliceError)
        finally:
            parallel_mod.record_boundary_signature = original


class TestBubble:
    def test_slice_cache_allocates_inside_bubble(self, multislice_program):
        report = run_superpin(multislice_program, ICount2(),
                              SuperPinConfig(spmsec=500, clock_hz=10_000),
                              kernel=Kernel(seed=42))
        for result in report.slices:
            assert 0 < result.cache_allocated_words < abi.BUBBLE_WORDS
