"""The loop form of a generated trace: ``loop(1)`` is ``fn()``, and
``loop(n)`` is ``n`` dispatches of ``fn``.

One reference, the engine that never builds a loop form
(``Jit.loop_form`` patched to decline — there is no switch for it):
whatever a run leaves behind with loop forms live — registers, memory,
pc, every count the dispatch loop keeps, the analysis calls and their
order — must be what that engine leaves, for any allowance, budget,
stop or fault, and so must be what threaded code and the interpreter
leave.
"""

import builtins
import re
from collections import OrderedDict

import pytest

from repro.errors import ArithmeticFault, GuestFault, IllegalInstruction
from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter
from repro.pin import (IARG_BRANCH_TARGET, IARG_CONTEXT, IARG_END,
                       IARG_INST_PTR, IARG_MEMORYREAD_EA, IARG_REG_VALUE,
                       IPOINT_AFTER, IPOINT_BEFORE, IPOINT_TAKEN_BRANCH,
                       PinVM, RunState, run_with_pin, StopRun)
from repro.pin import jit, pyjit
from repro.pin.jit import Jit, NEVER
from repro.pin.pintool import NullSuperPin
from repro.superpin import run_superpin, SuperPinConfig
from repro.superpin.slices import PLACEMENT_COUNTERS, SliceMachine
from repro.tools import ICount2, TOOLS
from repro.workloads import build
from tests.conftest import (loop_one_everywhere, MULTISLICE, promote_at,
                            random_program, virtual_counters,
                            without_loop_forms)
from tests.test_superpin.test_slice_machine import slice_image, SlicePhase

T0, T2 = 8, 10

#: Three visits of: a branch-closed loop with a tail after its back
#: edge (``a``), a loop with two back edges to its head and a side exit
#: in the middle (``b``), and a ``j``-closed loop over memory, ``sp``
#: and ``ra`` (``c``).
LOOPS = """
.entry main
main:
    li   s0, 0
    li   s1, 3
    li   t4, 6
visit:
    li   t0, 0
    li   t1, 9
a:  add  t2, t2, t0
    st   t2, 0x9000(t0)
    addi t0, t0, 1
    bne  t0, t1, a
    li   t0, 0
b:  addi t0, t0, 1
    andi t3, t0, 1
    bnez t3, b
    beq  t0, t4, side
    add  t2, t2, t0
    blt  t0, t1, b
    j    c0
side:
    addi t2, t2, 100
    j    b
c0: li   t0, 0
c:  bge  t0, t1, cdone
    ld   t3, 0x9000(t0)
    add  t2, t2, t3
    push t2
    addi ra, ra, 3
    add  zero, t2, t0
    pop  t5
    add  t5, t5, t5
    addi t0, t0, 1
    j    c
cdone:
    inc  s0
    blt  s0, s1, visit
    li   a0, SYS_EXIT
    mov  a1, t2
    syscall
"""

#: Three visits of one five-trip loop: short enough to stop at every
#: instruction of it.
THREE_VISITS = """
.entry main
main:
    li   s0, 0
    li   s1, 3
visit:
    li   t0, 0
    li   t1, 5
lp: add  t2, t2, t0
    st   t2, 0x9000(t0)
    addi t0, t0, 1
    bne  t0, t1, lp
    inc  s0
    blt  s0, s1, visit
    li   a0, SYS_EXIT
    mov  a1, t2
    syscall
"""

#: ``sp``, ``ra`` and ``zero`` read and written inside a loop, and rows
#: whose fields name one register.
ALIASES = """
.entry main
main:
    li   t0, 0
    li   t1, 6
lp: push t0
    addi ra, ra, 5
    add  zero, ra, sp
    add  t2, zero, ra
    add  t2, t2, t2
    pop  t5
    addi sp, sp, -1
    st   t5, 0(sp)
    addi sp, sp, 1
    addi t0, t0, 1
    bne  t0, t1, lp
    li   a0, SYS_EXIT
    mov  a1, t2
    syscall
"""

#: A loop whose trace ends in a syscall: the handler reads its
#: arguments from, and writes its result to, the register file itself.
SYSCALL_LOOP = """
.entry main
main:
    li   t0, 0
    li   t1, 4
    li   s0, 0
lp: addi t0, t0, 1
    add  a1, t0, t0
    bne  t0, t1, lp
    li   a0, SYS_GETPID
    syscall
    add  t2, t2, rv
    li   t0, 0
    inc  s0
    slti t3, s0, 3
    bnez t3, lp
    li   a0, SYS_EXIT
    mov  a1, t2
    syscall
"""

#: A loop that spans two traces (the ``j`` ends the first), so its back
#: edge is never a trace's own.
DIAMOND = """
.entry main
main:
    li   t0, 0
    li   t1, 200
lp: addi t0, t0, 1
    andi t3, t0, 1
    j    on
on: add  t2, t2, t3
    bne  t0, t1, lp
    li   a0, SYS_EXIT
    mov  a1, t2
    syscall
"""


def allow_at_most(monkeypatch, n: int) -> None:
    """Loop forms live, but never more than ``n`` executions a call
    (any allowance below the engine's is correct; 1 is ``fn()``)."""
    build_loop = Jit.loop_form

    def capped(self, trace):
        loop = build_loop(self, trace)
        if loop is not None and n < NEVER:
            def loop(allowance, loop=loop):
                return loop(min(allowance, n))
            trace.loop = loop
        return loop
    monkeypatch.setattr(Jit, "loop_form", capped)


def record_everything(vm, log):
    """A tool that sees every instruction (static arguments), a
    loop-carried register at every ``add``, the address of every load,
    the target of every taken branch and the fall-through of every
    ``addi`` — with the order all of it happened in."""
    def instrument(trace, value):
        for ins in trace.instructions:
            ins.insert_call(IPOINT_BEFORE, lambda pc: log.append(("i", pc)),
                            IARG_INST_PTR, IARG_END)
            if ins.mnemonic == "add":
                ins.insert_call(IPOINT_BEFORE,
                                lambda pc, v: log.append(("t0", pc, v)),
                                IARG_INST_PTR, IARG_REG_VALUE, T0, IARG_END)
            if ins.is_memory_read:
                ins.insert_call(IPOINT_BEFORE,
                                lambda ea: log.append(("ea", ea)),
                                IARG_MEMORYREAD_EA, IARG_END)
            if ins.is_branch:
                ins.insert_call(IPOINT_TAKEN_BRANCH,
                                lambda to: log.append(("to", to)),
                                IARG_BRANCH_TARGET, IARG_END)
            if ins.mnemonic == "addi":
                ins.insert_call(IPOINT_AFTER,
                                lambda pc: log.append(("after", pc)),
                                IARG_INST_PTR, IARG_END)
    vm.add_trace_callback(instrument)


def memory_image(mem) -> dict:
    return {index: list(page) for index, page in mem._pages.items()
            if any(page)}


def image(vm, log=None) -> dict:
    """Everything a run leaves behind that anyone can read."""
    stats = vm.cache.stats
    return {"pc": vm.cpu.pc, "regs": list(vm.cpu.regs),
            "memory": memory_image(vm.mem),
            "exited": (vm.exited, vm.exit_code),
            "instructions": vm.total_instructions,
            "traces_executed": vm.total_traces_executed,
            "linked_dispatches": stats.linked_dispatches,
            "lookups": stats.lookups, "hits": stats.hits,
            "compiles": stats.compiles, "counters": list(vm.counters),
            "log": None if log is None else list(log)}


def engine(source, backend="source", instrument=None, **kwargs):
    vm = PinVM(load_program(assemble(source), Kernel(seed=3)),
               jit_backend=backend, **kwargs)
    log = []
    if instrument is not None:
        instrument(vm, log)
    return vm, log


def promoted(monkeypatch, executions: int) -> dict:
    """``engine`` settings: 0, generated code from a trace's first
    compile; n, threaded code, each trace swapped in mid-run for its
    generated form — loop form and all — at its n-th execution."""
    if not executions:
        return {}
    promote_at(monkeypatch, executions)
    return {"backend": "closure"}


def finish(vm, log, **run_kwargs) -> dict:
    """Run; the image, with how the run ended in it."""
    try:
        outcome = vm.run(**run_kwargs).state
    except GuestFault as fault:
        outcome = type(fault).__name__
    return {**image(vm, log), "outcome": outcome}


def by_interpreter(source, **run_kwargs):
    process = load_program(assemble(source), Kernel(seed=3))
    interp = Interpreter(process)
    fault = None
    try:
        interp.run(**run_kwargs)
    except GuestFault as exc:
        fault = type(exc).__name__
    return {"pc": process.cpu.pc, "regs": list(process.cpu.regs),
            "memory": memory_image(process.mem),
            "instructions": interp.total_instructions}, fault


def same_state(got: dict, want: dict) -> bool:
    return all(got[field] == want[field] for field in want)


class TestLoopNIsNDispatches:
    @pytest.mark.parametrize("promote", [0, 4])
    @pytest.mark.parametrize("allowance", [1, 2, 3, 8, NEVER])
    def test_same_run_by_fn_alone_and_by_loop(self, allowance, promote,
                                              monkeypatch):
        settings = promoted(monkeypatch, promote)
        with monkeypatch.context() as reference:
            without_loop_forms(reference)
            want = finish(*engine(LOOPS, instrument=record_everything,
                                  **settings))
        allow_at_most(monkeypatch, allowance)
        vm, log = engine(LOOPS, instrument=record_everything, **settings)
        assert finish(vm, log) == want
        assert vm.jit_stats.loop_builds >= 3
        assert vm.jit_stats.loop_trips > 0
        # (Promoted at the same executions, or the counts above would
        # already differ.)
        assert (vm.jit_stats.promotions > 0) == bool(promote)

    def test_and_by_threaded_code_and_the_interpreter(self):
        looped = finish(*engine(LOOPS, instrument=record_everything))
        assert looped == finish(*engine(LOOPS, "closure",
                                        instrument=record_everything))
        want, _ = by_interpreter(LOOPS)
        assert same_state(looped, want)
        assert looped["outcome"] is RunState.EXIT

    def test_every_shape_of_loop_got_a_loop_form(self):
        vm, _ = engine(LOOPS)
        vm.run()
        program = assemble(LOOPS)
        for label in "abc":
            assert vm.cache.get(program.symbol(label)).loop is not None, label
        # ... and only a trace with a direct exit to its own head has.
        side = vm.cache.get(program.symbol("side"))
        assert side.is_source and side.origin is None and side.loop is None

    def test_never_without_links(self):
        vm, _ = engine(LOOPS, link_traces=False)
        assert vm.run().linked_dispatches == 0
        assert (vm.jit_stats.loop_builds, vm.jit_stats.loop_trips) == (0, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_fn_replaced_by_loop_1_everywhere(self, seed, monkeypatch):
        """The plain function is kept for speed, not for correctness:
        with every generated trace's ``fn`` replaced by ``loop(1)`` of
        its loop form — every trace, loop or not — nothing moves."""
        source = random_program(seed)
        want = finish(*engine(source, instrument=record_everything))
        assert want == finish(*engine(source, "closure",
                                      instrument=record_everything))
        without_loop_forms(monkeypatch)
        loop_one_everywhere(monkeypatch)
        assert finish(*engine(source, instrument=record_everything)) == want


class TestBudgets:
    def test_exact_budget_lands_where_the_interpreter_does(self):
        total = by_interpreter(THREE_VISITS)[0]["instructions"]
        for n in range(total + 2):
            want, _ = by_interpreter(THREE_VISITS, max_instructions=n)
            vm, log = engine(THREE_VISITS)
            got = finish(vm, log, max_instructions=n, exact_budget=True)
            assert same_state(got, want), n
            assert got["outcome"] is (RunState.BUDGET if n < total
                                      else RunState.EXIT), n

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("promote", [0, 2])
    def test_every_budget_stops_where_dispatched_code_stops(
            self, exact, promote, monkeypatch):
        """Both modes, every n, every count and the order of every
        call — and a second run from there to the end."""
        total = by_interpreter(THREE_VISITS)[0]["instructions"]
        settings = promoted(monkeypatch, promote)

        def runs():
            out = []
            for n in range(total + 2):
                vm, log = engine(THREE_VISITS, **settings,
                                 instrument=record_everything)
                first = finish(vm, log, max_instructions=n,
                               exact_budget=exact)
                out.append((first, finish(vm, log)))
            return out
        with monkeypatch.context() as reference:
            without_loop_forms(reference)
            want = runs()
        assert runs() == want


def stop_before(value):
    """``StopRun`` from a before-call that is handed a register: at the
    loop's ``add``, the first time ``t0`` is ``value``."""
    def instrument(vm, log):
        def check(v):
            log.append(v)
            if v == value and "stop" not in log:
                log.append("stop")
                raise StopRun("stop")

        def callback(trace, _):
            for ins in trace.instructions:
                if ins.mnemonic == "add":
                    ins.insert_call(IPOINT_BEFORE, check,
                                    IARG_REG_VALUE, T0, IARG_END)
        vm.add_trace_callback(callback)
    return instrument


def stop_if_then(value):
    """... from the ``then`` half of an if/then pair, as the signature
    detector's: the if half is handed its register, the then half reads
    the register file itself."""
    def instrument(vm, log):
        regs = vm.cpu.regs

        def then():
            if not log:
                log.append(list(regs))
                raise StopRun("stop")

        def callback(trace, _):
            for ins in trace.instructions:
                if ins.mnemonic == "st":
                    ins.insert_if_call(IPOINT_BEFORE,
                                       lambda t0: t0 == value,
                                       IARG_REG_VALUE, T0, IARG_END)
                    ins.insert_then_call(IPOINT_BEFORE, then, IARG_END)
        vm.add_trace_callback(callback)
    return instrument


def stop_on_taken(value):
    """... from a taken-branch call on the back edge itself, the
    ``value``-th time it is taken (static arguments: nothing has stored
    a register back when it raises)."""
    def instrument(vm, log):
        def taken():
            log.append("taken")
            if len(log) == value:
                raise StopRun("stop")

        def callback(trace, _):
            for ins in trace.instructions:
                if ins.mnemonic == "bne":
                    ins.insert_call(IPOINT_TAKEN_BRANCH, taken, IARG_END)
        vm.add_trace_callback(callback)
    return instrument


#: A loop that faults on trip ``k`` (``t0 == k - 1``), two ways: its
#: first instruction divides by ``k - 1 - t0``; and it leaves by a side
#: exit for code that jumps onto a word that does not decode, so the
#: fetch after the exit faults out of a compile.
FAULTS = """
.entry main
main:
    li   t0, 0
    li   t1, 12
    li   t4, {div_at}
    li   t6, {leave_at}
    mov  s2, t4
lp: div  t5, t1, s2
    ld   t7, ptrs(t0)
    ld   t3, 0(t7)
    add  t2, t2, t3
    beq  t0, t6, off
    addi t0, t0, 1
    sub  s2, t4, t0
    bne  t0, t1, lp
    li   a0, SYS_EXIT
    mov  a1, t2
    syscall
off:
    li   t7, bad
    jr   t7
bad:
    .word 0xff
.data
cell: .word 7
ptrs: .word {ptrs}
"""


def faults_on(trip: int, how: str) -> str:
    return FAULTS.format(div_at=trip - 1 if how == "div" else 99,
                         leave_at=trip - 1 if how == "fetch" else 99,
                         ptrs=", ".join(["cell"] * 12))


class TestUnwinding:
    @pytest.mark.parametrize("at", [1, 2, 3, 4])
    @pytest.mark.parametrize("stop", [stop_before, stop_if_then,
                                      stop_on_taken])
    def test_stoprun_on_trip_k(self, stop, at, monkeypatch):
        def runs():
            vm, log = engine(THREE_VISITS, instrument=stop(at))
            stopped = finish(vm, log)
            assert stopped["outcome"] is RunState.STOPPED
            return stopped, finish(vm, log)
        with monkeypatch.context() as reference:
            without_loop_forms(reference)
            want = runs()
        for allowance in (2, NEVER):
            with monkeypatch.context() as capped:
                allow_at_most(capped, allowance)
                assert runs() == want, allowance

    @pytest.mark.parametrize("trip", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("how, fault", [("div", ArithmeticFault),
                                            ("fetch", IllegalInstruction)])
    def test_fault_on_trip_k(self, how, fault, trip, monkeypatch):
        source = faults_on(trip, how)

        def faulted():
            vm, log = engine(source, instrument=record_everything)
            out = finish(vm, log)
            assert out["outcome"] == fault.__name__
            return vm, out
        with monkeypatch.context() as reference:
            without_loop_forms(reference)
            _, want = faulted()
        vm, got = faulted()
        assert got == want
        # (Trip 1 runs in ``main``'s trace, trip 2 is the loop trace's
        # first execution: from trip 3 on the fault is a loop form's.)
        assert (vm.jit_stats.loop_trips > 0) == (trip >= 3)
        state, raised = by_interpreter(source)
        assert raised == fault.__name__ and same_state(got, state)

    @pytest.mark.parametrize("trip", [4, 5, 8])
    @pytest.mark.parametrize("promote", [0, 4])
    def test_totals_after_a_fault_are_a_budget_stopped_runs(self, trip,
                                                            promote,
                                                            monkeypatch):
        """``TestFaultOutOfACompile``'s property, for a fault inside a
        loop form (or, promoted late, before the trace has one): the
        division is the trace's first instruction, so
        the fault falls on a trace boundary, and a run the budget stops
        there has executed the same traces through the same links —
        less the one execution the fault interrupted, which the
        dispatch loop had counted as started.  (From trip 4: trip 3 is
        reached by the dispatcher's lookup, which the stopped run never
        makes.)"""
        source = faults_on(trip, "div")
        settings = promoted(monkeypatch, promote)

        def fault():
            vm, _ = engine(source, **settings)
            with pytest.raises(ArithmeticFault):
                vm.run()
            return vm
        faulted = fault()
        # (Trip k is the loop trace's execution k - 1: promoted at its
        # ``promote``-th execution, that one runs ``fn``, the next ones
        # its loop form.)
        assert (faulted.jit_stats.promotions > 0) == (0 < promote < trip)
        assert (faulted.jit_stats.loop_trips > 0) == (trip > promote + 1)
        stopped, _ = engine(source, **settings)
        assert stopped.run(
            max_instructions=faulted.total_instructions).state \
            is RunState.BUDGET
        assert image(faulted) == {
            **image(stopped),
            "traces_executed": stopped.total_traces_executed + 1}


def watch_registers(vm, log):
    """A loop-carried register by value, and one through an address."""
    def callback(trace, _):
        for ins in trace.instructions:
            if ins.mnemonic == "pop":
                ins.insert_call(IPOINT_BEFORE,
                                lambda v, ea: log.append((v, ea)),
                                IARG_REG_VALUE, T2, IARG_MEMORYREAD_EA,
                                IARG_END)
    vm.add_trace_callback(callback)


def rewrite_through_context(vm, log):
    """A routine that is handed the context and writes a register: the
    next instruction must read what it wrote."""
    def bump(cpu):
        log.append(cpu.regs[T2])
        cpu.regs[T2] = (cpu.regs[T2] + 1000) & ((1 << 64) - 1)

    def callback(trace, _):
        for ins in trace.instructions:
            if ins.mnemonic == "pop":
                ins.insert_call(IPOINT_BEFORE, bump, IARG_CONTEXT, IARG_END)
    vm.add_trace_callback(callback)


def context_then_stop(vm, log):
    """... and one that writes, then stops the run: what it wrote
    stays written."""
    def bump(cpu):
        cpu.regs[T2] = 4242
        if cpu.regs[T0] == 3 and not log:
            log.append("stop")
            raise StopRun("stop")

    def callback(trace, _):
        for ins in trace.instructions:
            if ins.mnemonic == "pop":
                ins.insert_call(IPOINT_BEFORE, bump, IARG_CONTEXT, IARG_END)
    vm.add_trace_callback(callback)


#: name -> (guest, what observes its registers).
OBSERVERS = {
    "nobody": (ALIASES, None),
    "a value and an address": (ALIASES, watch_registers),
    "a write through the context": (ALIASES, rewrite_through_context),
    "a write through the context, then a stop": (ALIASES,
                                                 context_then_stop),
    "an if/then pair": (THREE_VISITS, stop_if_then(3)),
    "a stop from a call handed a register": (THREE_VISITS, stop_before(4)),
    "a stop from a call handed nothing": (THREE_VISITS, stop_on_taken(3)),
    "a syscall": (SYSCALL_LOOP, None),
}


def observed(name: str) -> tuple[dict, dict]:
    """The run ``name`` observes, and a second from wherever it stopped."""
    source, watch = OBSERVERS[name]
    vm, log = engine(source, instrument=watch)
    return finish(vm, log), finish(vm, log)


_EXPOSED = pyjit._LoopEmitter._exposed
_SOURCE_TEXT = pyjit._LoopEmitter.source_text


def edited(pattern: str, replacement: str):
    """A ``source_text`` whose every loop form has ``pattern`` edited."""
    def source_text(emitter, address):
        text, edits = re.subn(pattern, replacement,
                              _SOURCE_TEXT(emitter, address))
        assert edits, pattern
        return text
    return source_text


#: Each rule of the loop form's register discipline, removed, and who
#: must notice: the rule is not redundant and the tests are not blind.
#: (A routine sees guest registers through its arguments, which read
#: the locals: only a routine that reads the register file itself — a
#: then half, one handed the context — needs a store-back.)
MUTANTS = {
    "no store-back ahead of a call that can read a register": (
        "_exposed", lambda emitter, stmts, *rest: stmts,
        ["a write through the context", "an if/then pair"]),
    "arguments formatted over `regs[...]` instead of the locals inside a "
    "loop form": (
        "_format", pyjit._Emitter._format,
        ["a value and an address"]),
    "no reload after a call that was handed the context": (
        "_exposed", lambda emitter, *args: [
            stmt for stmt in _EXPOSED(emitter, *args)
            if stmt != pyjit._RELOAD],
        ["a write through the context"]),
    "no store-back in the unwind handler": (
        "source_text", edited(r"(except BaseException:\n +)(if _own: )?regs"
                              r"\[[^\n]*", r"\1pass"),
        ["a stop from a call handed nothing"]),
    "a store-back in the unwind handler over what a callee wrote": (
        "source_text", edited(r"if _own: regs", "regs"),
        ["a write through the context, then a stop"]),
    "no store-back ahead of a syscall": (
        "source_text", edited(r"regs\[[^\n]*(\n +_own = False\n +cpu\.pc)",
                              r"pass\1"),
        ["a syscall"]),
}


class TestRegistersInLocals:
    @pytest.mark.parametrize("name", OBSERVERS)
    def test_every_observer_sees_what_dispatched_code_shows_it(
            self, name, monkeypatch):
        with monkeypatch.context() as reference:
            without_loop_forms(reference)
            want = observed(name)
        assert observed(name) == want
        source, watch = OBSERVERS[name]
        assert finish(*engine(source, "closure", instrument=watch)) \
            == want[0]
        state, _ = by_interpreter(source)
        if "context" not in name:
            assert same_state(want[1], state)

    @pytest.mark.parametrize("rule", MUTANTS)
    def test_each_rule_is_needed(self, rule, monkeypatch):
        method, mutant, noticed_by = MUTANTS[rule]
        for name in noticed_by:
            with monkeypatch.context() as reference:
                without_loop_forms(reference)
                want = observed(name)
            with monkeypatch.context() as broken:
                broken.setattr(pyjit._LoopEmitter, method, mutant)
                assert observed(name) != want, name

    def test_stop_after_syscall_leaves_the_loop(self):
        vm, _ = engine(SYSCALL_LOOP)
        process = load_program(assemble(SYSCALL_LOOP), Kernel(seed=3))
        interp = Interpreter(process, stop_after_syscall=True)
        while not vm.exited:
            result = vm.run(stop_after_syscall=True)
            interp.run()
            assert result.state in (RunState.SYSCALL, RunState.EXIT)
            assert (vm.cpu.pc, list(vm.cpu.regs), vm.total_instructions) \
                == (process.cpu.pc, list(process.cpu.regs),
                    interp.total_instructions)
        assert vm.jit_stats.loop_trips > 0


class CompileCount:
    """How often ``builtins.compile`` built a trace's or a loop's code,
    from an empty code pool (``jit._INTERN``: the process's pool would
    serve what earlier tests compiled)."""

    def __init__(self, monkeypatch):
        self.loops = self.traces = 0
        monkeypatch.setattr(jit, "_INTERN", OrderedDict())
        real = builtins.compile

        def counted(source, filename, *args, **kwargs):
            if str(filename).startswith("<superpin-trace-"):
                if source.startswith("def __trace__(_n)"):
                    self.loops += 1
                else:
                    self.traces += 1
            return real(source, filename, *args, **kwargs)
        monkeypatch.setattr(builtins, "compile", counted)


class TestLazyAndPaidOnce:
    def test_a_trace_that_never_loops_pays_nothing(self, monkeypatch):
        count = CompileCount(monkeypatch)
        vm, _ = engine(DIAMOND)
        vm.run()
        assert count.traces == vm.cache.stats.compiles and not count.loops
        assert all(trace.loop is None for trace in vm.cache.live_traces())
        assert (vm.jit_stats.loop_builds, vm.jit_stats.loop_trips) == (0, 0)
        # A loop does — once, at its first back edge.
        vm, _ = engine(THREE_VISITS)
        vm.run()
        assert count.loops == vm.jit_stats.loop_builds == 1

    @pytest.mark.parametrize("tool", ["icount2", "memtrace"])
    def test_the_second_round_on_a_machine_builds_nothing(
            self, tool, monkeypatch):
        """Kept beside ``fn`` where the tool's code is kept, pooled by
        its text for every other compile."""
        monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", 1)
        fresh = SlicePhase(MULTISLICE, TOOLS[tool]()).run_all()
        machine = SliceMachine()
        count = CompileCount(monkeypatch)
        built = []
        for turn in range(2):
            phase = SlicePhase(MULTISLICE, TOOLS[tool](), spmetrics=True)
            before = count.loops       # (the phase's master made some)
            assert phase.run_all(machine_for=lambda k: machine) == fresh
            assert phase.counters["pin.jit.loop_trips"] > 0
            built.append((count.loops - before,
                          phase.counters["pin.jit.loop_builds"]))
        assert built[0][0] > 0 == built[1][0], built
        assert built[0][1] >= built[0][0]

    def test_the_third_job_on_a_resident_builds_nothing(self, monkeypatch):
        monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", 1)
        program = assemble(MULTISLICE)
        config = SuperPinConfig(spmsec=500, clock_hz=10_000, spmetrics=True)
        resident = SliceMachine()
        count = CompileCount(monkeypatch)
        jobs = []
        for _ in range(3):
            before = count.loops
            tool = ICount2()
            report = run_superpin(program, tool, config,
                                  kernel=Kernel(seed=5), resident=resident)
            jobs.append((tool.total, virtual_counters(report.metrics),
                         count.loops - before))
            assert report.metrics.counters["pin.jit.loop_trips"] > 0
        assert jobs[0][:2] == jobs[1][:2] == jobs[2][:2]
        assert jobs[0][2] > 0 == jobs[2][2], jobs
        # (A resident master is hot from its second job's first trip.)
        assert report.timeline.master.loop_trips > 0


class Unsummarized(ICount2):
    """``icount2`` with no summary declared: no loop form summarizes
    its calls."""

    def instrument_trace(self, trace, vm) -> None:
        super().instrument_trace(trace, vm)
        for ins in trace.instructions:
            for call in ins.before_calls:
                call.summary = None


def guest(name):
    if name == "multislice":
        return assemble(MULTISLICE), dict(spmsec=500, clock_hz=10_000)
    scale = {"gzip": 0.1, "gcc": 0.02, "mcf": 0.06}[name]
    return build(name, scale=scale).program, {}


class TestThroughThePipeline:
    """Every ``SliceResult`` field, every counter outside
    ``PLACEMENT_COUNTERS`` and the tool's report: equal with loop forms
    live and without — with every repeated trace generated, or with
    each promoted in mid-run at its first or sixteenth execution, with
    and without workers; the master, serial Pin's engine, the same.
    The loop form is where summaries are fired, so the reference fires
    none; ``icount1`` (a summary per instruction) runs too."""

    @pytest.mark.parametrize("name, promote, workers, extra", [
        *[(name, promote, 0, {}) for promote in (0, 1, 16)
          for name in ("multislice", "gzip", "gcc", "mcf")],
        *[(name, 16, 2, {}) for name in ("multislice", "gzip", "gcc",
                                         "mcf")],
        ("multislice", 16, 0, {"tool": "icount1"}),
        ("gzip", 16, 0, {"tool": "icount1"}),
    ])
    def test_same_slices_with_and_without(self, name, promote, workers,
                                          extra, monkeypatch):
        if promote:
            promote_at(monkeypatch, promote)
        else:
            monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", 1)
        program, timing = guest(name)

        def run():
            tool = TOOLS[extra.get("tool") or (
                "memtrace" if name == "mcf" else "icount2")]()
            report = run_superpin(
                program, tool, SuperPinConfig(
                    spworkers=workers, spmetrics=True, **timing),
                kernel=Kernel(seed=11))
            return ([slice_image(result) for result in report.slices],
                    virtual_counters(report.metrics), tool.report(),
                    report.metrics.counters)
        with monkeypatch.context() as reference:
            without_loop_forms(reference)
            want = run()
        got = run()
        assert got[:3] == want[:3]
        assert len(got[0]) > 1
        assert not set(PLACEMENT_COUNTERS) & set(got[1])
        for counter in ("pin.jit.loop_trips",
                        "superpin.control.master.loop_trips"):
            assert not want[3].get(counter), counter
        assert got[3]["superpin.control.master.loop_trips"] > 0
        assert got[3]["pin.jit.loop_trips"] > 0
        assert not want[3].get("pin.suppress.loop_entries")
        if name != "mcf":
            assert got[3]["pin.suppress.loop_entries"] > 0
        if promote:
            assert got[3]["pin.jit.promotions"] > 0

    @pytest.mark.parametrize("summarized", [False, True])
    def test_serial_pin_with_and_without(self, summarized, monkeypatch):
        """With a tool that declares summaries and one that does not."""
        # (The shipped rule, whatever --jit-hot-threshold says: the
        # loop is promoted in mid-run.)
        monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", 150)
        program = assemble(MULTISLICE)

        def run():
            process = load_program(program, Kernel(seed=4))
            vm = PinVM(process)
            tool = ICount2() if summarized else Unsummarized()
            tool.setup(NullSuperPin())
            tool.activate(vm)
            result = vm.run()
            tool.fini()
            return (result, image(vm), tool.report(),
                    vm.jit_stats.loop_trips, vm.jit_stats.loop_entries)
        with monkeypatch.context() as reference:
            without_loop_forms(reference)
            want = run()
        got = run()
        assert got[:3] == want[:3]
        assert want[3] == 0 < got[3]
        assert want[4] == 0 and (got[4] > 0) == summarized

    def test_run_with_pin_counts_its_loop_trips(self, monkeypatch):
        monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", 150)
        built = build("gzip", scale=0.2)
        result, vm, _ = run_with_pin(built.program, ICount2(),
                                     Kernel(seed=1))
        assert vm.jit_stats.loop_builds >= 4
        assert 2 * vm.jit_stats.loop_trips > result.traces_executed
