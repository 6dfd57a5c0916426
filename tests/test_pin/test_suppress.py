"""Loop summaries: summarized loops must be invisible to tools.

A loop form whose calls all declare a summary counts trips instead of
calling, and fires each summary once on every way it leaves
(``repro.pin.pyjit``); it counts a summary as the calls it stands for.
There is no switch: the reference is the same run with no loop form
(``conftest.without_loop_forms``), which summarizes nothing, and
everything must be equal, the analysis-call count included.  Each test
runs at two lowerings: ``closure``, threaded code promoted in mid-run
at a trace's second execution, and ``source``, generated code from the
first compile — so the loops summarize whatever ``--jit-hot-threshold``
says.
"""

import pytest

from repro.errors import ArithmeticFault, GuestFault, IllegalInstruction
from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.pin import jit, PinVM, Pintool, RunState, run_with_pin, StopRun
from repro.pin.args import IARG_END, IARG_REG_VALUE, IPOINT_BEFORE
from repro.pin.pintool import NullSuperPin
from repro.tools import ICount1, ICount2, OpcodeMix
from tests.conftest import promote_at, without_loop_forms
from tests.test_pin.test_looped import faults_on, memory_image

BACKENDS = ["closure", "source"]

#: A hot single-BBL counted loop: the canonical summary target.
HOT_LOOP = """
.entry main
main:
    li   t0, 0
    li   t1, 20000
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    li   a0, SYS_EXIT
    mov  a1, t0
    syscall
"""

#: An unconditional loop that only the engine's budget stops (``j``
#: never falls through).
SPIN_LOOP = """
.entry main
main:
    li   t0, 0
spin:
    addi t0, t0, 1
    j    spin
"""


#: A loop over two basic blocks, each closing on the head: ``icount2``
#: counts the blocks with different trip counts.
TWO_BBLS = """
.entry main
main:
    li   t0, 0
    li   t1, 3001
loop:
    addi t0, t0, 1
    andi t3, t0, 1
    beqz t3, loop
    addi t2, t2, 3
    bne  t0, t1, loop
    li   a0, SYS_EXIT
    mov  a1, t2
    syscall
"""

#: A loop that divides on every trip.
DIVIDES = """
.entry main
main:
    li   t0, 0
    li   t1, 2500
loop:
    addi t0, t0, 1
    div  t3, t1, t0
    mod  t4, t1, t0
    add  t2, t2, t3
    add  t2, t2, t4
    bne  t0, t1, loop
    li   a0, SYS_EXIT
    mov  a1, t2
    syscall
"""

#: An inner loop whose trace leaves through a ``syscall`` (``getpid``)
#: on each of six visits: the loop form's direct return.
SYSCALL_EXITS = """
.entry main
main:
    li   s0, 0
    li   s1, 6
outer:
    li   t0, 0
    li   t1, 300
inner:
    addi t0, t0, 1
    add  t2, t2, t0
    bne  t0, t1, inner
    li   a0, SYS_GETPID
    syscall
    inc  s0
    blt  s0, s1, outer
    li   a0, SYS_EXIT
    mov  a1, t2
    syscall
"""


def lowered(monkeypatch, backend: str) -> str:
    """The ``jit_backend`` to run ``backend`` at (module docstring)."""
    if backend == "closure":
        promote_at(monkeypatch, 2)
    return backend


def both(monkeypatch, source, tool_cls=ICount1, backend="closure",
         observer=None, **run_kwargs):
    """Run ``source`` under ``tool_cls`` without loop forms and as
    shipped on a pooled engine; each run's ``(image, vm)``.  The image
    is everything the run leaves, with how the run ended in it;
    ``observer(vm)`` gives a syscall observer to register."""
    backend = lowered(monkeypatch, backend)

    def run():
        vm = PinVM(load_program(assemble(source), Kernel(seed=7)),
                   jit_backend=backend)
        tool = tool_cls()
        tool.setup(NullSuperPin())
        tool.activate(vm)
        if observer is not None:
            vm.add_syscall_observer(observer(vm))
        try:
            result = vm.run(**run_kwargs)
            outcome = result.state
            steps = (result.traces_executed, result.linked_dispatches)
        except GuestFault as fault:
            outcome, steps = type(fault).__name__, None
        tool.fini()
        return ({"outcome": outcome, "steps": steps, "pc": vm.cpu.pc,
                 "regs": list(vm.cpu.regs),
                 "memory": memory_image(vm.mem),
                 "instructions": vm.total_instructions,
                 "syscalls": vm.total_syscalls,
                 "analysis_calls": vm.counters[0],
                 "inline_checks": vm.counters[1],
                 "report": tool.report()}, vm)
    with monkeypatch.context() as reference:
        without_loop_forms(reference)
        runs = [run()]
    return runs + [run()]


def calls_made(vm) -> int:
    """The analysis routines ``vm`` actually called: what it counts,
    less the per-trip calls its summaries stood for."""
    return vm.counters[0] - vm.jit_stats.suppressed_calls


def assert_summarized(runs) -> None:
    """Equal images, analysis calls included, and the summarizing run
    called the tool's routines fewer times."""
    (plain, plain_vm), (summarized, vm) = runs
    assert summarized == plain
    assert plain_vm.jit_stats.loop_entries == 0
    assert vm.jit_stats.loop_entries > 0
    assert calls_made(vm) < calls_made(plain_vm) == plain_vm.counters[0]


def stop_at_syscall(n: int):
    """An observer that stops the engine at the ``n``-th syscall."""
    def observer(vm):
        def observe(outcome):
            if vm.total_syscalls == n:
                raise StopRun("stop")
        return observe
    return observer


def run_pair(monkeypatch, program_text, tool_cls, backend, **kwargs):
    """Run a tool without loop forms and as shipped; both (tool, vm)."""
    program = assemble(program_text)
    backend = lowered(monkeypatch, backend)
    runs = []
    for reference in (True, False):
        with monkeypatch.context() as patch:
            if reference:
                without_loop_forms(patch)
            tool = tool_cls()
            _, vm, _ = run_with_pin(program, tool, Kernel(seed=42),
                                    jit_backend=backend, **kwargs)
            runs += [tool, vm]
    return runs


class TestSuppressionParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("tool_cls", [ICount1, ICount2])
    def test_icount_bit_identical(self, backend, tool_cls, monkeypatch):
        plain, plain_vm, sup, sup_vm = run_pair(monkeypatch, HOT_LOOP,
                                                tool_cls, backend)
        assert sup.total == plain.total
        assert sup_vm.counters[0] == plain_vm.counters[0]
        assert sup_vm.jit_stats.summarized_loops >= 1
        assert sup_vm.jit_stats.suppressed_calls > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_opcodemix_bit_identical(self, backend, monkeypatch):
        plain, plain_vm, sup, sup_vm = run_pair(monkeypatch, HOT_LOOP,
                                                OpcodeMix, backend)
        assert sup.report() == plain.report()
        assert sup_vm.counters[0] == plain_vm.counters[0]
        assert sup_vm.jit_stats.summarized_loops >= 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_analysis_calls_drop_at_least_5x(self, backend, monkeypatch):
        """The routines called drop at least five-fold; the analysis
        calls counted do not move."""
        _, plain_vm, _, sup_vm = run_pair(monkeypatch, HOT_LOOP, ICount2,
                                          backend)
        plain_calls = plain_vm.counters[0]
        assert sup_vm.counters[0] == plain_calls
        assert calls_made(sup_vm) * 5 <= plain_calls

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_random_programs_unchanged(self, backend, monkeypatch):
        from tests.conftest import random_program
        for seed in range(3):
            program = random_program(seed, blocks=3, block_len=8,
                                     loop_iters=30)
            plain, plain_vm, sup, sup_vm = run_pair(
                monkeypatch, program, ICount2, backend)
            assert sup.total == plain.total
            assert sup_vm.counters[0] == plain_vm.counters[0]


class TestExactBudget:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("budget", [1, 2, 3, 999, 12289])
    def test_uncond_loop_lands_on_the_budget(self, backend, budget,
                                             monkeypatch):
        """A ``j``-closed loop that never exits lands exactly on an
        exact budget, with every retired instruction counted."""
        (plain, _), (summarized, vm) = both(
            monkeypatch, SPIN_LOOP, backend=backend,
            max_instructions=budget, exact_budget=True)
        assert summarized == plain
        assert plain["outcome"] is RunState.BUDGET
        assert plain["instructions"] == plain["report"]["icount"] == budget
        if budget > 100:
            assert vm.jit_stats.summarized_loops >= 1
            assert vm.jit_stats.loop_entries >= 1


class TestLegalityBailouts:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_plain_insert_call_blocks_suppression(self, backend,
                                                  monkeypatch):
        """A callback with no summary form must never be summarized."""
        calls = []

        class NoSummary(Pintool):
            def instrument_trace(self, trace, vm):
                for ins in trace.instructions:
                    ins.insert_call(IPOINT_BEFORE,
                                    lambda: calls.append(1), IARG_END)

        program = assemble(HOT_LOOP)
        _, vm, _ = run_with_pin(program, NoSummary(), Kernel(seed=42),
                                jit_backend=lowered(monkeypatch, backend))
        assert vm.jit_stats.loop_builds >= 1
        assert vm.jit_stats.summarized_loops == 0
        assert len(calls) == vm.counters[0] == 40005

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dynamic_args_block_suppression(self, backend, monkeypatch):
        """A per-iteration register argument is not summarizable."""
        seen = []

        class RegWatcher(Pintool):
            def instrument_trace(self, trace, vm):
                for ins in trace.instructions:
                    ins.insert_summarized_call(
                        IPOINT_BEFORE, seen.append,
                        lambda iters, v: seen.append(v),
                        IARG_REG_VALUE, 8, IARG_END)

        program = assemble(HOT_LOOP)
        _, vm, _ = run_with_pin(program, RegWatcher(), Kernel(seed=42),
                                jit_backend=lowered(monkeypatch, backend))
        assert vm.jit_stats.summarized_loops == 0
        # Every iteration observed its own register value.
        assert len(seen) == vm.counters[0] == 40005

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_if_then_at_head_blocks_suppression(self, backend,
                                                monkeypatch):
        """A detector-style if/then at the loop head (SuperPin's
        signature check) must observe every trip, so the loop's calls
        are not summarized either.  Like the detector, it instruments
        the loop pc wherever it sits: inside the entry trace on the
        first trip, at the head of the loop's own trace on the rest."""
        checks = []

        def quick_check(value):
            checks.append(value)
            return 0

        def detector(trace, value):
            offset = loop_pc - trace.address
            if 0 <= offset < trace.num_ins:
                ins = trace.instructions[offset]
                ins.insert_if_call(IPOINT_BEFORE, quick_check,
                                   IARG_REG_VALUE, 8, IARG_END)
                ins.insert_then_call(IPOINT_BEFORE, lambda: None,
                                     IARG_END)

        program = assemble(HOT_LOOP)
        loop_pc = program.symbols["loop"]
        # (No signature check of the engine's own: one at the pc would
        # keep the loop from being summarized by itself.)
        vm = PinVM(load_program(program, Kernel(seed=42)),
                   jit_backend=lowered(monkeypatch, backend))
        tool = ICount2()
        tool.setup(NullSuperPin())
        tool.activate(vm)
        vm.add_trace_callback(detector)
        vm.run()
        tool.fini()
        assert vm.jit_stats.summarized_loops == 0
        assert vm.jit_stats.loop_entries == 0
        assert tool.total == 40005
        assert len(checks) == 20000

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_suppression_off_by_default(self, backend, monkeypatch):
        """Nothing is summarized where no loop form runs: threaded code
        left unpromoted (the ``--jit-hot-threshold inf`` hook) calls
        per trip, and counts what the summarizing run counts."""
        program = assemble(HOT_LOOP)
        runs = []
        for threshold in (float("inf"), None):
            with monkeypatch.context() as patch:
                if threshold is not None:
                    patch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE",
                                  threshold)
                tool = ICount2()
                _, vm, _ = run_with_pin(
                    program, tool, Kernel(seed=42),
                    jit_backend=("closure" if threshold is not None
                                 else lowered(patch, backend)))
                runs.append((tool.total, vm.counters[0],
                             vm.jit_stats.summarized_loops))
        (total, calls, summarized), shipped = runs
        assert summarized == 0 < shipped[2]
        assert (total, calls) == shipped[:2]


class TestNewlyLegalShapes:
    """One or more basic blocks, ``div``, faults, stops and a
    ``syscall`` exit: bit-identical with and without loop forms."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("tool_cls", [ICount1, ICount2, OpcodeMix])
    def test_two_bbl_body(self, backend, tool_cls, monkeypatch):
        assert_summarized(both(monkeypatch, TWO_BBLS, tool_cls, backend))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_div_and_mod(self, backend, monkeypatch):
        assert_summarized(both(monkeypatch, DIVIDES, backend=backend))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("how, fault", [("div", ArithmeticFault),
                                            ("fetch", IllegalInstruction)])
    def test_fault_mid_loop(self, backend, how, fault, monkeypatch):
        """A divide (or the fetch after a side exit, of a word that does
        not decode) that faults on the seventh trip: the trips before it
        are summarized on the way out."""
        runs = both(monkeypatch, faults_on(7, how), backend=backend)
        assert runs[0][0]["outcome"] == fault.__name__
        assert_summarized(runs)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("tool_cls", [ICount1, ICount2])
    def test_exit_through_syscall(self, backend, tool_cls, monkeypatch):
        runs = both(monkeypatch, SYSCALL_EXITS, tool_cls, backend)
        assert_summarized(runs)
        assert runs[1][1].jit_stats.loop_entries == 6

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("at", [1, 3, 6])
    def test_stoprun_mid_loop(self, backend, at, monkeypatch):
        """``StopRun`` out of the syscall a loop form leaves by."""
        runs = both(monkeypatch, SYSCALL_EXITS, backend=backend,
                    observer=stop_at_syscall(at))
        assert runs[0][0]["outcome"] is RunState.STOPPED
        assert_summarized(runs)
