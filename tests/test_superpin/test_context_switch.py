"""The one context switch (``PinVM.switch``): whatever a resident engine's
last run left behind, switching it onto a new state gives what an engine
built for that state gives.

Three owners keep an engine resident and enter it only through the
switch: a slice machine (``SliceMachine.switch``), a run's resident
master (``ControlProcess(..., master=)``) and the signature lookahead
(``Lookahead.select``).  Each engine's last run before the switch ends
one of five ways — the guest exits, an analysis routine raises
``StopRun``, the guest faults, a store rewrites the code the run is
executing, an exact budget runs out — and then the owner enters it on a
new state as it does in production.  The oracle is the same entry on a
newly built owner: the same ``PinRunResult`` of every run, the same
code-cache statistics, watched code words, counters and totals, and the
same owner-level outcome (timeline, quick registers, tool report).  The
resident engine keeps its JIT's pool and heat, so it may lower what it
runs differently; nothing above may tell.
"""

import dataclasses

import pytest

from repro.errors import GuestFault
from repro.isa import abi, assemble
from repro.machine import Interpreter, Kernel, load_program
from repro.machine.cpu import CpuState
from repro.machine.process import Process
from repro.obs.metrics import MetricsRegistry
from repro.pin import IARG_END, IPOINT_BEFORE, PinVM, RunState, StopRun
from repro.pin.codecache import CodeCache
from repro.pin.pintool import NullSuperPin
from repro.superpin import control, ControlProcess, Lookahead, SuperPinConfig
from repro.superpin.slices import SliceMachine
from repro.tools import ICount2

from ..conftest import MULTISLICE, virtual_counters
from .test_master_engine import timeline_view

CONFIG = SuperPinConfig(spmsec=500, clock_hz=10_000)

#: A store rewrites the very next instruction of the executing trace
#: into ``halt``: the trace stops right after the store, and the run
#: ends on the rewritten word.
REWRITE_TO_HALT = """
.entry main
main:
    la   t3, donor
    ld   t4, 0(t3)
    la   t5, slot
    li   s0, 0
    li   s1, 300
lp: addi s0, s0, 1
    bne  s0, s1, lp
    st   t4, 0(t5)
slot:
    nop
    j    main
donor:
    halt
"""

#: A loop that runs hot, then falls onto a word that does not decode.
FAULTS = """
.entry main
main:
    li   s0, 0
    li   s1, 600
lp: addi s0, s0, 1
    bne  s0, s1, lp
    .word 0xff
"""


def _state(source, seed=42):
    """``(cpu snapshot, memory, handler, thread manager)`` of a freshly
    loaded guest."""
    process = load_program(assemble(source), Kernel(seed=seed))
    return (process.cpu.snapshot(), process.mem, process.syscall_handler,
            process.thread_manager)


def _stop_at(vm, calls: int) -> None:
    """Raise ``StopRun`` from the ``calls``-th block-entry call."""
    seen = [0]

    def count():
        seen[0] += 1
        if seen[0] == calls:
            raise StopRun("prelude")

    def instrument(trace, value):
        for bbl in trace.bbls:
            bbl.head.insert_call(IPOINT_BEFORE, count, IARG_END)
    vm.add_trace_callback(instrument)


def end_by_exit(vm):
    vm.switch(*_state(MULTISLICE))
    assert vm.run().state is RunState.EXIT


def end_by_stop(vm):
    vm.switch(*_state(MULTISLICE))
    _stop_at(vm, 3000)
    assert vm.run().state is RunState.STOPPED


def end_by_fault(vm):
    vm.switch(*_state(FAULTS))
    with pytest.raises(GuestFault):
        vm.run()


def end_by_code_write(vm):
    vm.switch(*_state(REWRITE_TO_HALT))
    assert vm.run().state is RunState.EXIT
    assert vm.cache.stats.invalidations > 0


def end_by_budget(vm):
    vm.switch(*_state(MULTISLICE))
    result = vm.run(max_instructions=12_345, exact_budget=True)
    assert result.state is RunState.BUDGET and result.instructions == 12_345


ENDINGS = {"exit": end_by_exit, "stop": end_by_stop, "fault": end_by_fault,
           "code-write": end_by_code_write, "budget": end_by_budget}


def spied(vm) -> list:
    """Every ``PinRunResult`` ``vm`` returns from here on."""
    results = []
    run = vm.run

    def recorded(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]
    vm.run = recorded
    return results


def engine_image(vm) -> dict:
    """What an engine's last run leaves that anyone can read."""
    return {"cache": dataclasses.astuple(vm.cache.stats),
            "insert_log": list(vm.cache.insert_log),
            "watched": sorted(vm.mem._code_words),
            "counters": list(vm.counters),
            "instr_stats": dataclasses.astuple(vm.instr_stats),
            "totals": (vm.total_instructions, vm.total_traces_executed,
                       vm.total_syscalls),
            "exit": (vm.exited, vm.exit_code, vm.process.exited,
                     vm.process.exit_code),
            "cpu": vm.cpu.snapshot()}


def _ran_state():
    """A state another engine has been running — its memory still
    carries that engine's watched code words — as ``(cpu snapshot,
    memory, handler)``."""
    process = load_program(assemble(MULTISLICE), Kernel(seed=7))
    PinVM(process).run(max_instructions=5_000)
    return process.cpu.snapshot(), process.mem, process.syscall_handler


class SliceOwner:
    """A slice machine: switched onto a state, a tool activated, run to
    the guest's exit.  A newly built owner's engine is built on the
    state itself, with the settings the switch hands ``reset``."""

    def __init__(self):
        self.machine = SliceMachine()

    def engine(self) -> PinVM:
        return self.machine.switch(None, None,
                                   state=_state(MULTISLICE)[:3])

    def enter(self, monkeypatch) -> dict:
        metrics = MetricsRegistry()
        state = _ran_state()
        if self.machine.vm is None:
            cpu_snapshot, mem, handler = state
            process = Process(CpuState(), mem, handler)
            process.cpu.restore(cpu_snapshot)
            vm = PinVM(process, metrics=metrics, code_cache=CodeCache(
                abi.BUBBLE_BASE, abi.BUBBLE_WORDS, metrics=metrics))
        else:
            vm = self.machine.switch(None, None, metrics=metrics,
                                     state=state)
        tool = ICount2()
        tool.setup(NullSuperPin())
        tool.activate(vm)
        results = [vm.run()]
        tool.fini()
        return {"results": results, "engine": engine_image(vm),
                "report": tool.report(),
                "counters": virtual_counters(metrics)}


class MasterOwner:
    """A run's resident master, entered by ``ControlProcess.cuts``."""

    def __init__(self):
        self.master = None

    def engine(self) -> PinVM:
        self.master = SliceMachine().master
        return self.master

    def enter(self, monkeypatch) -> dict:
        built = []
        if self.master is None:
            # A newly built owner: the run builds its own engine.
            def engine(process):
                vm = PinVM(process)
                built.append((vm, spied(vm)))
                return vm
            monkeypatch.setattr(control, "PinVM", engine)
        else:
            built.append((self.master, spied(self.master)))
        metrics = MetricsRegistry()
        timeline = ControlProcess(assemble(MULTISLICE), CONFIG,
                                  kernel=Kernel(seed=7), metrics=metrics,
                                  master=self.master).run()
        (vm, results), = built
        return {"results": results, "engine": engine_image(vm),
                "timeline": timeline_view(timeline),
                "counters": virtual_counters(metrics)}


class LookaheadOwner:
    """The signature lookahead: ``select`` on a state inside a loop."""

    def __init__(self):
        self.lookahead = Lookahead()

    def engine(self) -> PinVM:
        return self.lookahead._vm

    def enter(self, monkeypatch) -> dict:
        process = load_program(assemble(MULTISLICE), Kernel(seed=7))
        Interpreter(process).run(max_instructions=2_000)
        vm = self.lookahead._vm
        results = spied(vm)
        quick = self.lookahead.select(process.cpu.snapshot(),
                                      process.mem.scratch_fork())
        return {"results": results, "engine": engine_image(vm),
                "quick": quick}


OWNERS = {"slice-machine": SliceOwner, "resident-master": MasterOwner,
          "lookahead": LookaheadOwner}


@pytest.mark.parametrize("ending", list(ENDINGS))
@pytest.mark.parametrize("owner", list(OWNERS))
def test_a_switched_engine_is_a_new_one(owner, ending, monkeypatch):
    with monkeypatch.context() as patch:
        want = OWNERS[owner]().enter(patch)
    resident = OWNERS[owner]()
    vm = resident.engine()
    # The last run is not the owner's work: nothing it attaches is the
    # owner's resident object's (``Jit.retain_for``) to keep.
    kept, vm.jit.retain_for = vm.jit.retain_for, None
    ENDINGS[ending](vm)
    vm.jit.retain_for = kept
    got = resident.enter(monkeypatch)
    assert got["results"] and all(
        result.instructions for result in got["results"])
    for key in want:
        assert got[key] == want[key], key
