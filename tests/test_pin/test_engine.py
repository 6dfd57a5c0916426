"""Pin VM: dispatch, code cache behavior, instrumentation, stops."""

import pytest

from repro.errors import (CodeCacheOverflowError, InstrumentationError,
                          MemoryFault)
from repro.isa import abi, assemble
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter
from repro.pin import (CodeCache, IARG_END, IARG_INST_PTR, IARG_REG_VALUE,
                       IARG_UINT64, IPOINT_AFTER, IPOINT_BEFORE,
                       IPOINT_TAKEN_BRANCH, PinVM, RunState, StopRun)
from tests.conftest import LOOP_SUM, MULTISLICE, promote_at, run_native


def make_vm(source: str, seed: int = 42, **kwargs):
    program = assemble(source)
    kernel = Kernel(seed=seed)
    process = load_program(program, kernel)
    return PinVM(process, **kwargs), program, kernel


class TestExecution:
    def test_matches_native_state(self):
        program = assemble(LOOP_SUM)
        native_proc, native_interp, _ = run_native(program)
        vm, _, _ = make_vm(LOOP_SUM)
        result = vm.run()
        assert result.state is RunState.EXIT
        assert result.exit_code == native_proc.exit_code
        assert result.instructions == native_interp.total_instructions

    def test_code_cache_reuse(self):
        # With linking off, the loop re-dispatches through the cache.
        vm, _, _ = make_vm(LOOP_SUM, link_traces=False)
        vm.run()
        stats = vm.cache.stats
        assert stats.compiles >= 1
        assert stats.hits > stats.compiles  # the loop re-dispatches
        assert stats.hit_rate > 0.9
        assert stats.linked_dispatches == 0

    def test_linking_bypasses_dispatcher(self):
        # Default linking: once patched, the loop's back-edge never
        # touches the dispatcher dict again.
        vm, _, _ = make_vm(LOOP_SUM)
        result = vm.run()
        stats = vm.cache.stats
        assert stats.linked_dispatches > stats.lookups
        assert result.linked_dispatches == stats.linked_dispatches
        # linked + dict dispatches cover every trace transition but the
        # first (the initial dispatch has no predecessor to chain from).
        assert (stats.lookups + stats.linked_dispatches
                == result.traces_executed)

    def test_budget_guard(self):
        vm, _, _ = make_vm(LOOP_SUM)
        result = vm.run(max_instructions=10)
        assert result.state is RunState.BUDGET
        assert result.instructions < 100

    def test_stdout_matches_native(self):
        vm, _, kernel = make_vm(MULTISLICE)
        vm.run()
        assert kernel.stdout_text() == "done"


#: Retires 104 instructions, then jumps where nothing is mapped: under
#: strict memory the fault is raised by the *fetch* — in ``PinVM`` out of
#: a compile, outside every trace.
JUMPS_OFF_THE_MAP = """
.entry main
main:
    li   t0, 0
    li   t1, 50
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    li   t3, 0x700000
    jr   t3
"""


class TestFaultOutOfACompile:
    @pytest.mark.parametrize("promote", [0, 16])
    @pytest.mark.parametrize("backend", ["closure", "source"])
    def test_totals_count_what_retired_before_it(self, backend, promote,
                                                 monkeypatch):
        """The engine's totals after the fault are those of a run that
        the budget stopped just before the compile that raised it —
        also when the loop before it was promoted in mid-run."""
        program = assemble(JUMPS_OFF_THE_MAP)
        if promote:
            promote_at(monkeypatch, promote)

        def engine():
            vm = PinVM(load_program(program, Kernel(seed=42),
                                    strict_memory=True),
                       jit_backend=backend)
            if promote:
                vm.jit.pool = {}
            return vm

        interp = Interpreter(load_program(program, Kernel(seed=42),
                                          strict_memory=True))
        with pytest.raises(MemoryFault):
            interp.run()
        assert interp.total_instructions == 104

        stopped = engine()
        assert stopped.run(max_instructions=104).state is RunState.BUDGET
        faulted = engine()
        with pytest.raises(MemoryFault):
            faulted.run()
        assert faulted.cpu.pc == stopped.cpu.pc == 0x700000
        totals = [(vm.total_instructions, vm.total_traces_executed,
                   vm.cache.stats.linked_dispatches, list(vm.cpu.regs))
                  for vm in (faulted, stopped)]
        assert totals[0] == totals[1]
        assert totals[0][0] == 104 and totals[0][2] > 0
        assert (faulted.jit_stats.promotions > 0) == bool(
            promote and backend == "closure")


class TestInstrumentation:
    def test_before_call_counts(self):
        vm, _, _ = make_vm(LOOP_SUM)
        hits = []

        def instrument(trace, value):
            for ins in trace.instructions:
                ins.insert_call(IPOINT_BEFORE, lambda: hits.append(1),
                                IARG_END)
        vm.add_trace_callback(instrument)
        result = vm.run()
        assert len(hits) == result.instructions
        assert result.analysis_calls == result.instructions

    def test_static_args_folded(self):
        vm, program, _ = make_vm(LOOP_SUM)
        seen = []

        def instrument(trace, value):
            ins = trace.instructions[0]
            ins.insert_call(IPOINT_BEFORE,
                            lambda c, a: seen.append((c, a)),
                            IARG_UINT64, 7, IARG_INST_PTR, IARG_END)
        vm.add_trace_callback(instrument)
        vm.run()
        starts = {addr for _, addr in seen}
        assert all(c == 7 for c, _ in seen)
        assert program.entry in starts

    def test_reg_value_arg_is_live(self):
        vm, _, _ = make_vm(LOOP_SUM)
        values = []

        def instrument(trace, value):
            for ins in trace.instructions:
                if ins.mnemonic == "add":
                    ins.insert_call(IPOINT_BEFORE, values.append,
                                    IARG_REG_VALUE, 8, IARG_END)  # t0
        vm.add_trace_callback(instrument)
        vm.run()
        assert values == list(range(100))

    def test_after_call_on_control_rejected(self):
        vm, _, _ = make_vm(LOOP_SUM)

        def instrument(trace, value):
            for ins in trace.instructions:
                if ins.is_branch:
                    ins.insert_call(IPOINT_AFTER, lambda: None, IARG_END)
        vm.add_trace_callback(instrument)
        with pytest.raises(InstrumentationError, match="IPOINT_AFTER"):
            vm.run()

    def test_taken_branch_fires_only_when_taken(self):
        vm, _, _ = make_vm(LOOP_SUM)
        taken = []

        def instrument(trace, value):
            for ins in trace.instructions:
                if ins.is_cond_branch:
                    ins.insert_call(IPOINT_TAKEN_BRANCH,
                                    lambda: taken.append(1), IARG_END)
        vm.add_trace_callback(instrument)
        vm.run()
        assert len(taken) == 99  # loop back-edge taken 99 of 100 times

    def test_if_then_gating(self):
        vm, _, _ = make_vm(LOOP_SUM)
        then_args = []

        def instrument(trace, value):
            for ins in trace.instructions:
                if ins.mnemonic == "add":
                    # then-call fires only when t0 is even
                    ins.insert_if_call(
                        IPOINT_BEFORE, lambda v: (v & 1) == 0,
                        IARG_REG_VALUE, 8, IARG_END)
                    ins.insert_then_call(
                        IPOINT_BEFORE, then_args.append,
                        IARG_REG_VALUE, 8, IARG_END)
        vm.add_trace_callback(instrument)
        result = vm.run()
        assert then_args == list(range(0, 100, 2))
        assert result.inline_checks == 100
        assert result.analysis_calls == 50

    def test_late_callback_flushes_cache(self):
        vm, _, _ = make_vm(LOOP_SUM)
        vm.run(max_instructions=20)
        before = vm.cache.stats.flushes
        vm.add_trace_callback(lambda trace, value: None)
        assert vm.cache.stats.flushes == before + 1


class TestStopRun:
    def test_stop_at_instruction_boundary(self):
        vm, program, _ = make_vm(LOOP_SUM)
        token = object()

        def instrument(trace, value):
            for ins in trace.instructions:
                if ins.mnemonic == "add":
                    def check(v):
                        if v == 5:
                            raise StopRun(token)
                    ins.insert_call(IPOINT_BEFORE, check,
                                    IARG_REG_VALUE, 8, IARG_END)
        vm.add_trace_callback(instrument)
        result = vm.run()
        assert result.state is RunState.STOPPED
        assert result.stop_token is token
        # The add at t0==5 did NOT execute: pc points at it, and the
        # register state is from before it.
        assert vm.cpu.regs[8] == 5
        assert vm.cpu.regs[10] == sum(range(5))  # t2

    def test_resume_after_stop(self):
        vm, _, _ = make_vm(LOOP_SUM)
        flag = []

        def instrument(trace, value):
            for ins in trace.instructions:
                if ins.mnemonic == "add":
                    def check(v):
                        if v == 5 and not flag:
                            flag.append(1)
                            raise StopRun("pause")
                    ins.insert_call(IPOINT_BEFORE, check,
                                    IARG_REG_VALUE, 8, IARG_END)
        vm.add_trace_callback(instrument)
        first = vm.run()
        second = vm.run()
        assert first.state is RunState.STOPPED
        assert second.state is RunState.EXIT
        assert first.instructions + second.instructions \
            == 3 + 100 * 3 + 3


class TestSyscalls:
    def test_syscall_observer(self):
        vm, _, _ = make_vm(MULTISLICE)
        numbers = []
        vm.add_syscall_observer(lambda outcome: numbers.append(
            outcome.record.number))
        vm.run()
        assert numbers.count(abi.SYS_TIME) == 40
        assert numbers.count(abi.SYS_GETRANDOM) == 40
        assert numbers[-1] == abi.SYS_EXIT


class TestCodeCache:
    def test_bubble_exhaustion_flushes(self):
        cache = CodeCache(bubble_base=0, bubble_words=200)
        cache.insert(1, object(), num_ins=30)   # 16 + 120 words
        assert cache.stats.flushes == 0
        cache.insert(2, object(), num_ins=30)   # would exceed 200
        assert cache.stats.flushes == 1
        assert 1 not in cache

    def test_lookup_stats(self):
        cache = CodeCache()
        assert cache.lookup(5) is None
        cache.insert(5, "trace", num_ins=1)
        assert cache.lookup(5) == "trace"
        assert cache.stats.lookups == 2
        assert cache.stats.hits == 1

    def test_oversized_trace_rejected(self):
        # A trace bigger than the whole bubble can never fit; before the
        # explicit guard, insert flushed and then let _cursor overrun
        # the bubble silently.
        cache = CodeCache(bubble_base=0, bubble_words=100)
        assert not cache.can_fit(30)
        with pytest.raises(CodeCacheOverflowError, match="136 cache"):
            cache.insert(0x40, object(), num_ins=30)  # 16 + 120 words
        # Nothing was charged or stored by the failed insert.
        assert cache.stats.compiles == 0
        assert cache.stats.allocated_words == 0
        assert cache.stats.flushes == 0
        assert len(cache) == 0

    def test_can_fit_tracks_cursor(self):
        cache = CodeCache(bubble_base=0, bubble_words=200)
        assert cache.can_fit(30)
        cache.insert(1, object(), num_ins=30)   # 16 + 120 words
        assert not cache.can_fit(30)            # 64 words left
