"""One statement of what an instruction does, two instantiations.

Threaded code and generated code format the same rows of
``repro.pin.jit.SEMANTICS`` and the same woven call statements
(``jit.weave``); ``tests/test_machine/test_golden_model.py`` holds the
rows against the interpreter opcode by opcode.  Here: the forms on which
the two hand-written copies this table replaced disagreed with the
interpreter — as whole guests, and in a loop whose trace changes
lowering in the middle of a run, which needs a *pooled* engine
(``run_with_pin``; a bare ``PinVM`` never promotes) — then the calls
woven around an instruction, shape by shape, and two engines sharing the
step factories.
"""

import itertools
import sys
import threading

import pytest

from repro.errors import GuestFault
from repro.isa import assemble
from repro.isa.instructions import Op
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter
from repro.pin import (IARG_END, IARG_REG_VALUE, IArg, IPOINT_AFTER,
                       IPOINT_BEFORE, IPOINT_TAKEN_BRANCH, jit, NullSuperPin,
                       PinVM, run_with_pin, RunState, StopRun)
from repro.tools import ICount1, ICount2, MemTrace
from tests.conftest import FACT, MULTISLICE


@pytest.fixture
def hot(monkeypatch):
    """Every pooled engine promotes a cached trace on its third
    execution."""
    monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", 1)


def image(process, retired, fault=None):
    return {"regs": list(process.cpu.regs), "pc": process.cpu.pc,
            "exit_code": process.exit_code, "retired": retired,
            "fault": fault,
            "memory": {index: page for index, page
                       in process.mem._pages.items() if any(page)}}


def run_everywhere(source):
    """``source`` under the interpreter, each lowering and serial Pin's
    pooled engine: ``{engine: image}`` and the pooled engine."""
    program = assemble(source)
    images, pooled = {}, None
    for engine in ("interp", "closure", "source", "pooled"):
        process = load_program(program, Kernel(seed=3))
        fault = None
        try:
            if engine == "interp":
                interp = Interpreter(process)
                interp.run()
                retired = interp.total_instructions
            elif engine == "pooled":
                tool = ICount1()
                result, pooled, _ = run_with_pin(program, tool,
                                                 kernel=Kernel(seed=3))
                process, retired = pooled.process, result.instructions
                assert tool.report()["icount"] == retired
            else:
                vm = PinVM(process, jit_backend=engine)
                retired = vm.run().instructions
        except GuestFault as exc:
            fault = type(exc).__name__
            retired = (interp if engine == "interp" else vm
                       ).total_instructions
        images[engine] = image(process, retired, fault)
    return images, pooled


# --- the forms the two copies got wrong ----------------------------------------

POP_SP = """
.entry main
main:
    li   s0, 0
    li   s1, {trips}
loop:
    li   t0, 1000
    push t0
    pop  sp              # the loaded value, then sp = address + 1: sp again
    inc  s0
    blt  s0, s1, loop
    li   a0, SYS_EXIT
    andi a1, sp, 0xff
    syscall
"""

CALLR_RA = """
.entry main
main:
    li   s0, 0
    li   s1, {trips}
    li   s2, 0
loop:
    la   ra, other
    callr ra             # writes ra, then jumps to it: the next instruction
back:
    inc  s0
    blt  s0, s1, loop
    li   a0, SYS_EXIT
    mov  a1, s2
    syscall
other:
    inc  s2
    j    back
"""


@pytest.mark.parametrize("source", [POP_SP, CALLR_RA],
                         ids=["pop-sp", "callr-ra"])
@pytest.mark.parametrize("trips", [1, 40], ids=["one-trace", "promoted"])
def test_aliased_stack_and_link_forms_follow_the_interpreter(
        hot, source, trips):
    """``pop sp`` and ``callr ra``: once, and in a loop that is promoted
    from threaded to generated code at its third trip."""
    images, pooled = run_everywhere(source.format(trips=trips))
    assert bool(pooled.jit_stats.promotions) == (trips > 1)
    for engine in ("closure", "source", "pooled"):
        assert images[engine] == images["interp"], engine


# --- the calls woven around an instruction -------------------------------------

SHAPES_GUEST = """
.entry main
main:
    li   t0, 0
    li   t1, 6
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
"""
ADDI, BNE = 0x1002, 0x1003

#: What can be attached where: after-calls on the fall-through
#: instruction, taken-calls on the branch.
KINDS = {ADDI: ("if", "before", "after"), BNE: ("if", "before", "taken")}
SHAPES = [(address, kinds, copies)
          for address, available in KINDS.items()
          for size in range(1, 4)
          for kinds in itertools.combinations(available, size)
          for copies in ((1, 2) if size == 3 else (1,))]


def shape_id(shape):
    address, kinds, copies = shape
    return f"{'addi' if address == ADDI else 'bne'}-{'+'.join(kinds)}-x{copies}"


def attach(vm, address, kinds, copies, log, stop_at=None):
    """Attach ``copies`` of each of ``kinds`` to the instruction at
    ``address``; every routine logs its name and ``t0``, and the one
    that makes the log ``stop_at`` long raises ``StopRun``."""
    def routine(name, result=None):
        def fn(t0):
            log.append((name, t0))
            if len(log) == stop_at:
                raise StopRun(name)
            return result
        return fn

    def instrument(trace, _value):
        for ins in trace.instructions:
            if ins.address != address:
                continue
            for copy in range(copies):
                args = (IARG_REG_VALUE, 8, IARG_END)
                for kind in kinds:
                    name = f"{kind}{copy}"
                    if kind == "if":
                        # The then-half runs on odd values of t0 only.
                        ins.insert_if_call(
                            IPOINT_BEFORE,
                            lambda t0, fn=routine(name): fn(t0) or t0 & 1,
                            *args)
                        ins.insert_then_call(IPOINT_BEFORE,
                                             routine(f"then{copy}"), *args)
                    else:
                        ipoint = {"before": IPOINT_BEFORE,
                                  "after": IPOINT_AFTER,
                                  "taken": IPOINT_TAKEN_BRANCH}[kind]
                        ins.insert_call(ipoint, routine(name), *args)

    vm.add_trace_callback(instrument)


def run_shape(lowering, address, kinds, copies, stop_at=None):
    process = load_program(assemble(SHAPES_GUEST), Kernel(seed=3))
    vm = PinVM(process, jit_backend=("source" if lowering == "source"
                                     else "closure"))
    log = []
    attach(vm, address, kinds, copies, log, stop_at)
    result = vm.run()
    if lowering == "promoted" and stop_at is None:
        assert vm.jit_stats.promotions >= 1
    return {"log": log, "state": result.state, "token": result.stop_token,
            "instructions": result.instructions, "pc": process.cpu.pc,
            "regs": list(process.cpu.regs),
            "analysis_calls": result.analysis_calls,
            "inline_checks": result.inline_checks}


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_every_call_shape_fires_alike_under_both_lowerings(hot, shape):
    address, kinds, copies = shape
    threaded = run_shape("closure", address, kinds, copies)
    assert threaded["state"] is RunState.EXIT
    assert run_shape("source", address, kinds, copies) == threaded
    assert run_shape("promoted", address, kinds, copies) == threaded
    # One trip, spelled out: if/then pairs, then before-calls, the
    # instruction (addi makes t0 1, bne is taken), then after / taken.
    expected = [(f"{kind}{copy}", 0 if address == ADDI else 1)
                for kind in ("if", "before") if kind in kinds
                for copy in range(copies)]
    if address == BNE and "if" in kinds:
        expected = [event for copy in range(copies)
                    for event in ((f"if{copy}", 1), (f"then{copy}", 1))
                    ] + expected[copies:]
    expected += [(f"{kind}{copy}", 1) for kind in ("after", "taken")
                 if kind in kinds for copy in range(copies)]
    assert threaded["log"][:len(expected)] == expected
    # Counted as fired: one inline check per if, one call per
    # everything else that ran.
    checks = sum(1 for name, _ in threaded["log"] if name.startswith("if"))
    assert threaded["inline_checks"] == checks
    assert threaded["analysis_calls"] == len(threaded["log"]) - checks


@pytest.mark.parametrize("shape", [shape for shape in SHAPES
                                   if len(shape[1]) == 3], ids=shape_id)
def test_stoprun_from_every_position_unwinds_alike(hot, shape):
    """Stop at every event of the first four trips — every position of
    the shape, before and after the promotion."""
    address, kinds, copies = shape
    events = len(run_shape("closure", address, kinds, copies)["log"])
    for stop_at in range(1, events * 4 // 6 + 1):
        threaded = run_shape("closure", address, kinds, copies, stop_at)
        assert threaded["state"] is RunState.STOPPED
        assert threaded["token"] == threaded["log"][-1][0]
        for lowering in ("source", "promoted"):
            assert run_shape(lowering, address, kinds, copies,
                             stop_at) == threaded, (lowering, stop_at)


# --- factories are shared, state is not ----------------------------------------

def test_two_engines_share_factories_without_sharing_state():
    guests = ((FACT, ICount2), (MULTISLICE, MemTrace))

    def engine(source, tool):
        vm = PinVM(load_program(assemble(source), Kernel(seed=3)))
        tool.setup(NullSuperPin())
        tool.activate(vm)
        return vm

    def outcome(vm, tool):
        tool.fini()
        return (list(vm.cpu.regs), vm.exit_code, vm.total_instructions,
                vm.counters[0], tool.report())

    alone = []
    for source, factory in guests:
        tool = factory()
        vm = engine(source, tool)
        vm.run()
        alone.append(outcome(vm, tool))

    # Interleaved, 500 instructions at a time.
    tools = [factory() for _, factory in guests]
    vms = [engine(source, tool) for (source, _), tool in zip(guests, tools)]
    made = len(jit._FACTORIES)
    live = list(vms)
    while live:
        live = [vm for vm in live
                if vm.run(max_instructions=500).state is RunState.BUDGET]
    assert len(jit._FACTORIES) == made  # nothing new to compile
    assert [outcome(vm, tool) for vm, tool in zip(vms, tools)] == alone

    # One code object per (op, writes rd, call shape), whoever asks;
    # nothing an engine owns in it or in the factory's globals.  (Read
    # off the traces still in threaded code: a hot loop is promoted.)
    steps = [{step.__code__ for trace in vm.cache._traces.values()
              if not trace.is_source for step in trace.steps}
             for vm in vms]
    assert steps[0] & steps[1]
    for make in jit._FACTORIES.values():
        assert make.__closure__ is None
        assert make.__globals__ is jit._FACTORY_GLOBALS
    assert set(jit._FACTORY_GLOBALS) - {"__builtins__"} == set(jit.CONSTANTS)


def test_a_factory_is_keyed_by_what_its_text_depends_on():
    assert jit.step_source(Op.ADD, True) != jit.step_source(Op.ADD, False)
    assert "regs[rd]" not in jit.step_source(Op.POP, False)
    assert "RD(" in jit.step_source(Op.POP, False)
    bare = jit.step_source(Op.BEQ, False)
    reg = (IArg.REG_VALUE,)
    woven = jit.step_source(Op.BEQ, False, (((reg, ()),), (reg,),
                                            ((IArg.BRANCH_TARGET,),), ()))
    assert all(line in woven for line in bare.splitlines()[1:])
    # Every argument is an expression in the step: a register by the
    # number the factory is handed, a target from the row's operands.
    assert "_if0(regs[_if0a0])" in woven and "_tk0(imm)" in woven
    # Its kinds are in the key: an address is the row's own.
    address = jit.step_source(Op.LD, True, ((), ((IArg.MEMORYREAD_EA,),),
                                            (), ()))
    assert f"_bf0({jit.ADDRESS[Op.LD].format(rs='rs', imm='imm')})" \
        in address


def test_factories_compile_from_several_threads(monkeypatch):
    """The daemon runs jobs on a thread pool, so two threads compile
    factories — for different keys, or for the same one — at the same
    moment: each key gets its own text, and nothing is left behind in
    the globals every factory shares."""
    class Shared(dict):
        """Records every name a compile stores in the shared globals —
        the window a second thread would have to hit, made visible."""
        stored = []

        def __setitem__(self, name, value):
            self.stored.append(name)
            super().__setitem__(name, value)

    monkeypatch.setattr(jit, "_FACTORIES", {})
    monkeypatch.setattr(jit, "_FACTORY_GLOBALS", Shared(jit.CONSTANTS))
    interval = sys.getswitchinterval()
    keys = [(op, writes, shape) for op in Op for writes in (False, True)
            for shape in (jit.BARE, ((), ((IArg.UINT64,),), (), ()))]
    made = [{}, {}]
    failures = []

    def compile_all(mine, order):
        try:
            for key in order:
                mine[key] = jit._factory(key)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [threading.Thread(target=compile_all, args=(made[0], keys)),
               threading.Thread(target=compile_all,
                                args=(made[1], keys[1:] + keys[:1]))]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not failures

    def compiled(make):
        # (Code objects nested in ``co_consts`` compare by identity.)
        step = next(const for const in make.__code__.co_consts
                    if hasattr(const, "co_code"))
        return (make.__code__.co_varnames, step.co_code, step.co_consts,
                step.co_names, step.co_freevars)

    for key in keys:
        scope = {}
        exec(jit.step_source(*key), dict(jit.CONSTANTS), scope)
        for make in (made[0][key], made[1][key], jit._FACTORIES[key]):
            assert compiled(make) == compiled(scope["make"]), key
    assert not Shared.stored
    assert set(jit._FACTORY_GLOBALS) - {"__builtins__"} == set(jit.CONSTANTS)
