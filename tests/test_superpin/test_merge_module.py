"""Merge coordinator: ordering and mixed auto/manual merging."""

import random

from repro.isa import assemble
from repro.machine import Kernel
from repro.superpin import (AutoMerge, ControlProcess, merge_slices,
                            record_signatures, SliceEnd, SliceToolContext,
                            SPControl, SuperPinConfig, supervise_slices)
from repro.superpin.slices import SliceResult
from repro.tools import ICount2
from tests.conftest import MULTISLICE


def _result(index: int, ctx: SliceToolContext) -> SliceResult:
    return SliceResult(
        index=index, reason=SliceEnd.MATCHED, instructions=10,
        expected_instructions=10, traces_executed=1, analysis_calls=0,
        inline_checks=0, compiles=1, compiled_ins=5, cache_hit_rate=0.5,
        cache_allocated_words=36, replayed_syscalls=0,
        emulated_syscalls=0, cow_faults=0, detection=None, tool_ctx=ctx)


class TestMergeOrdering:
    def test_out_of_order_results_merge_in_slice_order(self):
        sp = SPControl(SuperPinConfig())
        order = []

        def end_fn(slice_num, value):
            order.append(slice_num)

        contexts = [SliceToolContext(tool=None, reset_fun=None,
                                     end_functions=[(end_fn, None)])
                    for _ in range(4)]
        results = [_result(i, contexts[i]) for i in (2, 0, 3, 1)]
        merge_slices(sp, results)
        assert order == [0, 1, 2, 3]

    def test_automerge_applied_per_slice_local(self):
        sp = SPControl(SuperPinConfig())
        area = sp.SP_CreateSharedArea([0, 0], 2, AutoMerge.ADD)
        contexts = []
        for k in range(3):
            ctx = SliceToolContext(tool=None, reset_fun=None,
                                   area_locals=[[k + 1, 10 * (k + 1)]])
            contexts.append(ctx)
        results = [_result(k, contexts[k]) for k in range(3)]
        merge_slices(sp, results)
        assert area.data == [6, 60]

    def test_merge_returns_per_slice_seconds(self):
        sp = SPControl(SuperPinConfig())
        contexts = [SliceToolContext(tool=None, reset_fun=None)
                    for _ in range(3)]
        seconds = merge_slices(sp, [_result(k, contexts[k])
                                    for k in range(3)])
        assert sorted(seconds) == [0, 1, 2]
        assert all(value >= 0.0 for value in seconds.values())

    def test_shuffled_results_merge_identically(self):
        """End to end: completion order (here, a shuffle) must not leak
        into merged areas, slice-end call order, or any figure."""
        def pipeline(shuffle):
            program = assemble(MULTISLICE)
            # spworkers pinned: the local-lambda end function below
            # cannot cross a process boundary.
            config = SuperPinConfig(spmsec=500, clock_hz=10_000,
                                    spworkers=0)
            sp = SPControl(config)
            tool = ICount2()
            tool.setup(sp)
            order = []
            sp.SP_AddSliceEndFunction(
                lambda slice_num, value: order.append(slice_num), None)
            template = SliceToolContext.from_control(tool, sp)
            timeline = ControlProcess(program, config,
                                      kernel=Kernel(seed=42)).run()
            signatures = record_signatures(timeline, config)
            results = supervise_slices(timeline, signatures, template,
                                       sp, config).results
            if shuffle:
                random.Random(7).shuffle(results)
            merge_slices(sp, results)
            tool.fini()
            figures = [(r.index, r.instructions, r.exact, r.compiles,
                        r.cow_faults) for r in sorted(results,
                                                      key=lambda r: r.index)]
            areas = [list(area.data) for area in sp.areas]
            return tool.total, order, areas, figures

        in_order = pipeline(shuffle=False)
        shuffled = pipeline(shuffle=True)
        assert shuffled == in_order
        total, order, _, _ = shuffled
        assert order == list(range(len(order))) and len(order) >= 3
        assert total > 0

    def test_mixed_auto_and_manual(self):
        sp = SPControl(SuperPinConfig())
        auto = sp.SP_CreateSharedArea([0], 1, AutoMerge.MAX)
        manual = sp.SP_CreateSharedArea([None], 1, 0)
        manual[0] = []

        def end_fn(slice_num, value):
            manual[0].append(slice_num * 100)

        contexts = [SliceToolContext(tool=None, reset_fun=None,
                                     end_functions=[(end_fn, None)],
                                     area_locals=[[k * 7], None])
                    for k in range(3)]
        results = [_result(k, contexts[k]) for k in range(3)]
        merge_slices(sp, results)
        assert auto.value == 14
        assert manual[0] == [0, 100, 200]


class TestMergeMismatch:
    """Regression: _merge_one silently zip-truncated when a slice's
    area_locals count diverged from the registered areas, dropping
    tool results without a trace."""

    def test_short_area_locals_raise_with_slice_index(self):
        import pytest
        from repro.errors import MergeMismatchError
        sp = SPControl(SuperPinConfig())
        sp.SP_CreateSharedArea([0], 1, AutoMerge.ADD)
        sp.SP_CreateSharedArea([0], 1, AutoMerge.ADD)
        ctx = SliceToolContext(tool=None, reset_fun=None,
                               area_locals=[[5]])  # one local, two areas
        with pytest.raises(MergeMismatchError) as exc_info:
            merge_slices(sp, [_result(3, ctx)])
        assert exc_info.value.slice_index == 3

    def test_excess_area_locals_raise(self):
        import pytest
        from repro.errors import MergeMismatchError
        sp = SPControl(SuperPinConfig())
        area = sp.SP_CreateSharedArea([0], 1, AutoMerge.ADD)
        ctx = SliceToolContext(tool=None, reset_fun=None,
                               area_locals=[[5], [7]])
        with pytest.raises(MergeMismatchError):
            merge_slices(sp, [_result(0, ctx)])
        # Nothing was folded before the mismatch fired.
        assert area.data == [0]

    def test_matching_counts_still_merge(self):
        sp = SPControl(SuperPinConfig())
        area = sp.SP_CreateSharedArea([0], 1, AutoMerge.ADD)
        ctx = SliceToolContext(tool=None, reset_fun=None,
                               area_locals=[[5]])
        merge_slices(sp, [_result(0, ctx)])
        assert area.data == [5]
