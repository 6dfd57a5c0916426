"""Sampled profiler in the style of Shadow Profiling [Moseley et al.].

The paper cites the Shadow Profiler as the flagship ``SP_EndSlice`` user
(§5): it profiles only a prefix of every timeslice and then terminates
the slice, trading coverage for overhead.  This tool samples the first
``sample_instructions`` of each slice, attributing them to the function
(call target) currently executing, then calls ``SP_EndSlice``.

Under plain Pin it degenerates to a full (unsampled) flat profile.
"""

from __future__ import annotations

from ..pin.args import (IARG_BRANCH_TARGET, IARG_END, IPOINT_BEFORE,
                        IPOINT_TAKEN_BRANCH)
from ..pin.pintool import Pintool


class SampledProfiler(Pintool):
    """Flat function profile from slice-prefix samples (SP_EndSlice)."""

    name = "sampler"
    pure_instrumentation = True

    def __init__(self, sample_instructions: int = 1000):
        self.sample_instructions = sample_instructions
        #: function entry address -> sampled instruction count.
        self.samples: dict[int, int] = {}
        self.current_function = 0
        self.sampled = 0
        self.shared = None
        self.slices_sampled = 0
        self._sp = None

    # -- analysis -------------------------------------------------------------

    def on_ins(self) -> None:
        self.samples[self.current_function] = \
            self.samples.get(self.current_function, 0) + 1
        self.sampled += 1
        if self._sp is not None and self.sampled >= self.sample_instructions:
            self._sp.SP_EndSlice()

    def on_call(self, target: int) -> None:
        self.current_function = target

    # -- SuperPin -------------------------------------------------------------

    def tool_reset(self, slice_num: int) -> None:
        self.samples = {}
        self.sampled = 0
        self.current_function = 0

    def merge(self, slice_num: int, value) -> None:
        totals = self.shared[0]
        for function, count in self.samples.items():
            totals[function] = totals.get(function, 0) + count
        self.shared[1] += self.sampled
        self.slices_sampled += 1

    def setup(self, sp) -> None:
        in_superpin = sp.SP_Init(self.tool_reset)
        self._sp = sp if in_superpin else None
        area = sp.SP_CreateSharedArea([None, 0], 2, 0)
        if hasattr(area, "merge_from"):
            area[0] = {}
            area[1] = 0
            self.shared = area
        else:
            self.shared = [{}, 0]
        sp.SP_AddSliceEndFunction(self.merge, 0)

    def instrument_trace(self, trace, vm) -> None:
        for ins in trace.instructions:
            ins.insert_call(IPOINT_BEFORE, self.on_ins, IARG_END)
            if ins.is_call:
                ins.insert_call(IPOINT_TAKEN_BRANCH, self.on_call,
                                IARG_BRANCH_TARGET, IARG_END)

    def fini(self) -> None:
        if self.slices_sampled == 0:
            self.merge(-1, None)
            self.samples = {}
            self.sampled = 0

    # -- results --------------------------------------------------------------

    @property
    def profile(self) -> dict[int, int]:
        return dict(self.shared[0])

    @property
    def total_samples(self) -> int:
        return self.shared[1]

    def hottest(self, n: int = 5) -> list[tuple[int, int]]:
        return sorted(self.profile.items(), key=lambda kv: -kv[1])[:n]

    def report(self) -> dict:
        return {"total_samples": self.total_samples,
                "functions": len(self.profile),
                "hottest": self.hottest()}
