"""One JIT, two lowerings: which one a trace gets must be invisible.

One table, three pins.  ``HOT_EXECUTIONS_PER_COMPILE`` decides per trace
whether it runs as threaded code or as generated code; forced to 1 it
promotes every cached trace on its third execution and lowers every
repeated compile hot, at infinity nothing is ever generated, and the
shipped value sits between.  Whatever it is, and with every trace
generated (``conftest.all_generated``) too, a run must produce the same slices, the same tool report, the same
per-slice callback counts and the same audit verdict — only host time
and the ``pin.jit.*`` placement counters may tell the runs apart.  The
same holds for code a resident machine *keeps* under a tool's purity
declaration: it is kept per lowering and served in whichever one the
heat asks for.
"""

import collections
import dataclasses
import math

import pytest

from repro.errors import ArithmeticFault
from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter
from repro.pin import (IARG_END, IPOINT_BEFORE, jit, PinVM, Pintool,
                       run_with_pin, RunState, StopRun)
from repro.pin.pintool import declares_pure_instrumentation
from repro.pin.pyjit import SourceCompiledTrace
from repro.superpin import run_superpin, SuperPinConfig
from repro.superpin.slices import SliceMachine
from repro.tools import ICount1, ICount2
from tests.conftest import (all_generated, MULTISLICE, promote_at,
                            virtual_counters, without_loop_forms)
from tests.test_pin import test_jit_pool
from tests.test_superpin.test_slice_machine import (REWRITTEN, slice_image,
                                                    SlicePhase,
                                                    TOOL_FACTORIES)
from tests.test_superpin.test_threads_superpin import THREADED

SHIPPED = jit.HOT_EXECUTIONS_PER_COMPILE
THRESHOLDS = {"1": 1, "shipped": SHIPPED, "inf": math.inf}


@pytest.fixture
def threshold(monkeypatch):
    """Pin the constant for one test (pool workers are forked after
    this, so they inherit it)."""
    def pin(value):
        monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", value)
    return pin


# --- the pipeline table --------------------------------------------------------

def _counting(klass):
    """``klass`` with its trace callback counted on the instance (each
    slice's deep copy then holds that slice's own count), importable by
    name so a pool worker can unpickle it.  An override that declares
    nothing: instrumented on every compile, whatever ``klass``
    promised."""
    def instrument_trace(self, trace, vm):
        self.callbacks_seen += 1
        klass.instrument_trace(self, trace, vm)
    name = "Counting" + klass.__name__
    counted = type(name, (klass,), {
        "callbacks_seen": 0, "instrument_trace": instrument_trace,
        "__module__": __name__})
    globals()[name] = counted
    return counted


COUNTING = {name: _counting(factory)
            for name, factory in TOOL_FACTORIES.items()}

GUESTS = {
    "multislice": (MULTISLICE, dict(spmsec=500)),
    # Every boundary here is forced by the syscall-record cap.
    "sysforced": (MULTISLICE, dict(spmsec=100_000, spsysrecs=3)),
    "threads": (THREADED, dict(spmsec=1000)),
    "rewritten": (REWRITTEN, dict(spmsec=500)),
}


def pipeline_image(guest, tool, counted=True, **overrides):
    source, settings = GUESTS[guest]
    instance = (COUNTING if counted else TOOL_FACTORIES)[tool]()
    report = run_superpin(
        assemble(source), instance,
        SuperPinConfig(clock_hz=10_000, spmetrics=True,
                       **{**settings, **overrides}),
        kernel=Kernel(seed=42))
    slices = []
    for result in report.slices:
        image = {f.name: getattr(result, f.name)
                 for f in dataclasses.fields(result)
                 if f.name != "tool_ctx"}
        if counted:
            image["callbacks_seen"] = result.tool_ctx.tool.callbacks_seen
        slices.append(image)
    audit = report.audit.ok if report.audit is not None else None
    return {"slices": slices, "tool": instance.report(),
            "stdout": report.stdout, "exit_code": report.exit_code,
            "audit": audit, "counters": virtual_counters(report.metrics),
            "jit": {name: report.metrics.counter(f"pin.jit.{name}")
                    for name in ("hot_compiles", "promotions",
                                 "hot_instructions",
                                 "instrumentation_reuses")}}


def without(image, *names):
    """``image`` minus the host-side ``jit`` block and the slice fields
    ``names``."""
    return {**{k: v for k, v in image.items() if k != "jit"},
            "slices": [{k: v for k, v in s.items() if k not in names}
                       for s in image["slices"]]}


def assert_lowering_is_invisible(threshold, guest, tool, **overrides):
    images = {}
    for name, value in THRESHOLDS.items():
        threshold(value)
        images[name] = pipeline_image(guest, tool, **overrides)
    threshold(SHIPPED)
    with pytest.MonkeyPatch.context() as patch:
        all_generated(patch)
        source = pipeline_image(guest, tool, **overrides)
    reference = images["inf"]
    assert len(reference["slices"]) >= 3
    assert reference["jit"] == dict.fromkeys(reference["jit"], 0)
    assert images["1"]["jit"]["hot_instructions"] > 0
    for name in ("1", "shipped"):
        assert without(images[name]) == without(reference), name
    # Closure ≡ source on every slice field, ``warm_starts`` included.
    assert without(source) == without(reference)
    if declares_pure_instrumentation(TOOL_FACTORIES[tool]()):
        # The declaration standing (the tool itself, uncounted): code
        # kept from slice to slice is served in either lowering, and
        # nothing but the callback count can tell.
        uncounted = without(reference, "callbacks_seen")
        for name, value in THRESHOLDS.items():
            threshold(value)
            served = pipeline_image(guest, tool, counted=False, **overrides)
            assert without(served) == uncounted, name
            assert (served["jit"]["instrumentation_reuses"] > 0
                    or guest != "multislice"), name
        threshold(SHIPPED)
    return images


class TestPipelineTable:
    @pytest.mark.parametrize("spfilter", [None, "opcode:mem"])
    @pytest.mark.parametrize("loop_forms", [False, True])
    @pytest.mark.parametrize("tool", list(COUNTING))
    def test_multislice(self, threshold, tool, loop_forms, spfilter,
                        monkeypatch):
        if not loop_forms:
            without_loop_forms(monkeypatch)
        assert_lowering_is_invisible(
            threshold, "multislice", tool, spworkers=0, spfilter=spfilter)

    @pytest.mark.parametrize("tool", ["icount2", "memtrace",
                                      "tracerecords"])
    @pytest.mark.parametrize("guest", ["sysforced", "threads",
                                       "rewritten"])
    def test_other_guests(self, threshold, guest, tool):
        assert_lowering_is_invisible(threshold, guest, tool, spworkers=0)

    @pytest.mark.parametrize("guest", ["multislice", "threads"])
    @pytest.mark.parametrize("tool", ["icount1", "branchprofile",
                                      "tracerecords"])
    def test_two_workers(self, threshold, guest, tool):
        """Each pool worker keeps its own heat; the table still holds,
        and equals the in-process run."""
        images = assert_lowering_is_invisible(
            threshold, guest, tool, spworkers=2, spfilter="opcode:mem")
        threshold(SHIPPED)
        in_process = pipeline_image(guest, tool, spworkers=0,
                                    spfilter="opcode:mem")
        assert without(images["shipped"]) == without(in_process)

    @pytest.mark.parametrize("spworkers", [0, 2])
    @pytest.mark.parametrize("guest", list(GUESTS))
    def test_audit_is_divergence_free(self, threshold, guest, spworkers):
        images = assert_lowering_is_invisible(
            threshold, guest, "icount2", spworkers=spworkers, spaudit=True)
        # (``rewritten`` included: the audit's serial-Pin reference
        # invalidates ``f`` on the guest's write to it, as the master
        # and the slices do, under every lowering.)
        assert all(image["audit"] is True for image in images.values())

    def test_slices_do_run_generated_code_at_the_shipped_threshold(
            self, threshold):
        """MULTISLICE's ``work`` loop runs 150 times a call, 40 calls:
        its trace is re-lowered hot in every slice after the first."""
        threshold(SHIPPED)
        image = pipeline_image("multislice", "icount2", spworkers=0)
        assert image["jit"]["hot_compiles"] > 0
        assert image["jit"]["hot_instructions"] > sum(
            s["instructions"] for s in image["slices"]) // 2


# --- serial Pin: one long run, promoted in the middle -------------------------

LOOP = """
.entry main
main:
    li   s0, 0
    li   s1, {trips}
lp: addi s0, s0, 1
    st   s0, 0x7000(zero)
    ld   t0, 0x7000(zero)
    add  s2, s2, t0
    bne  s0, s1, lp
    li   a0, SYS_EXIT
    mov  a1, s2
    syscall
"""


def pooled_vm(source, **settings):
    return PinVM(load_program(assemble(source), Kernel(seed=42)), **settings)


def rearm(vm, source, **settings):
    """Put ``vm`` back at the program's start: the next run on a
    resident engine."""
    again = load_program(assemble(source), Kernel(seed=42))
    vm.process.syscall_handler = again.syscall_handler
    vm.process.exited = False
    vm.cpu.restore(again.cpu.snapshot())
    vm.mem.adopt(again.mem)
    vm.reset(**settings)


def landing(vm, result):
    return (result.state, result.instructions, result.traces_executed,
            result.analysis_calls, vm.cpu.pc, tuple(vm.cpu.regs),
            dataclasses.astuple(vm.cache.stats), vm.cache.insert_log)


class CallbackCounter(Pintool):
    """Counts virtual compiles (instrument time) and executions."""

    def __init__(self):
        self.compiles = 0
        self.executed = 0

    def count(self):
        self.executed += 1

    def instrument_trace(self, trace, vm):
        self.compiles += 1
        for ins in trace.instructions:
            ins.insert_call(IPOINT_BEFORE, self.count, IARG_END)


class TestSerialPin:
    def test_run_with_pin_promotes_and_nobody_can_tell(self, threshold):
        outcomes = {}
        for name, value in THRESHOLDS.items():
            threshold(value)
            tool = ICount2()
            result, vm, kernel = run_with_pin(
                assemble(MULTISLICE), tool, Kernel(seed=42))
            outcomes[name] = (landing(vm, result), tool.report(),
                              bytes(kernel.stdout))
            promoted = vm.jit_stats.promotions
            assert (promoted > 0) == (name != "inf"), name
            assert (vm.jit_stats.hot_instructions > 0) == (name != "inf")
        assert outcomes["1"] == outcomes["shipped"] == outcomes["inf"]

    @pytest.mark.parametrize("promote", [0, 4])
    def test_exact_budget_lands_inside_a_promoted_trace(self, threshold,
                                                        promote,
                                                        monkeypatch):
        # (0: promoted at the 60th execution, by the shipped factor.)
        source = MULTISLICE
        if promote:
            promote_at(monkeypatch, promote)
        else:
            threshold(20)
        for budget in (1600, 1601, 1603, 2300, 3070, 5001):
            process = load_program(assemble(source), Kernel(seed=42))
            reference = Interpreter(process).run(max_instructions=budget)
            vm = pooled_vm(source)
            tool = CallbackCounter()
            tool.activate(vm)
            result = vm.run(max_instructions=budget, exact_budget=True)
            assert vm.jit_stats.promotions > 0
            assert result.state is RunState.BUDGET
            assert result.instructions == reference.instructions == budget
            assert tool.executed == budget
            assert (vm.cpu.pc, tuple(vm.cpu.regs)) == (
                process.cpu.pc, tuple(process.cpu.regs))

    def test_stoprun_from_an_analysis_call_in_a_promoted_trace(
            self, threshold):
        class Stopper(CallbackCounter):
            def count(self):
                self.executed += 1
                if self.executed == 3456:
                    raise StopRun("enough")

        stops = {}
        for name, value in THRESHOLDS.items():
            threshold(value)
            vm = pooled_vm(LOOP.format(trips=800))
            tool = Stopper()
            tool.activate(vm)
            result = vm.run()
            assert result.state is RunState.STOPPED
            assert result.stop_token == "enough"
            stops[name] = (landing(vm, result), tool.compiles)
            hot = any(isinstance(trace, SourceCompiledTrace)
                      for trace in vm.cache.live_traces())
            assert hot == (name != "inf")
        assert stops["1"] == stops["shipped"] == stops["inf"]
        # The raising call's instruction did not retire.
        assert stops["inf"][0][1] == 3455

    def test_guest_fault_pc_in_a_promoted_trace(self, threshold):
        source = """
.entry main
main:
    li   s0, 600
lp: addi s0, s0, -1
    div  t0, s1, s0
    add  s2, s2, t0
    j    lp
"""
        faults = {}
        for name, value in THRESHOLDS.items():
            threshold(value)
            vm = pooled_vm(source)
            with pytest.raises(ArithmeticFault) as info:
                vm.run()
            faults[name] = (info.value.pc, vm.cpu.pc, tuple(vm.cpu.regs),
                            vm.total_instructions)
            assert (vm.jit_stats.promotions > 0) == (name != "inf")
        assert faults["1"] == faults["shipped"] == faults["inf"]
        assert faults["inf"][0] == faults["inf"][1]

    def test_late_callback_flushes_promoted_code_too(self, threshold):
        """A callback added after promotion invalidates the generated
        trace with everything else; recompiles instrument once each."""
        finals = {}
        for name, value in THRESHOLDS.items():
            threshold(value)
            vm = pooled_vm(LOOP.format(trips=800))
            first = CallbackCounter()
            first.activate(vm)
            vm.run(max_instructions=3000)
            assert (vm.jit_stats.promotions > 0) == (name != "inf")
            late = CallbackCounter()
            late.activate(vm)
            assert len(vm.cache) == 0
            result = vm.run()
            finals[name] = (landing(vm, result), first.compiles,
                            first.executed, late.compiles, late.executed)
        assert finals["1"] == finals["shipped"] == finals["inf"]
        assert finals["inf"][3] > 0

    def test_trace_callbacks_fire_once_per_virtual_compile(self, threshold):
        threshold(1)
        vm = pooled_vm(LOOP.format(trips=50))
        tool = CallbackCounter()
        tool.activate(vm)
        vm.run()
        assert vm.jit_stats.promotions > 0
        assert tool.compiles == vm.cache.stats.compiles


# --- the rule -----------------------------------------------------------------

class TestHeat:
    def run_loop(self, vm, trips, **settings):
        rearm(vm, LOOP.format(trips=trips), **settings)
        result = vm.run()
        assert result.state is RunState.EXIT
        return vm.jit_stats

    def test_the_rule_is_per_compile_not_lifetime(self, threshold):
        """14 executions in each of 12 runs pass 150 in total and must
        never qualify; 320 in each of 2 must, at the second compile —
        and not before: a trace caught in mid-run needs three times
        the evidence."""
        assert (SHIPPED, jit.PROMOTE_FACTOR) == (150, 3)
        threshold(SHIPPED)
        # (The first trip belongs to ``main``'s trace.)
        cold = pooled_vm(LOOP.format(trips=15))
        head = None
        for _ in range(12):
            stats = self.run_loop(cold, 15)
            assert stats.hot_compiles == stats.promotions == 0
            head = max(cold.jit.heat, key=lambda pc: cold.jit.heat[pc][0])
        assert cold.jit.heat[head] == [14 * 12, 12]

        hot = pooled_vm(LOOP.format(trips=321))
        first = self.run_loop(hot, 321)
        assert (first.hot_compiles, first.promotions) == (0, 0)
        second = self.run_loop(hot, 321)
        assert (second.hot_compiles, second.promotions) == (1, 0)
        assert hot.jit.heat[head] == [640, 2]
        assert second.hot_instructions > first.hot_instructions == 0

        caught = pooled_vm(LOOP.format(trips=501))
        once = self.run_loop(caught, 501)
        assert (once.hot_compiles, once.promotions) == (0, 1)
        # 449 executions as threaded code; the 450th and the 50 after
        # it generated, the last falling through into the exit code.
        assert once.hot_instructions == 51 * 5 + 3

    @pytest.mark.parametrize("promote", [0, 4])
    def test_heat_counts_every_execution_once(self, promote, monkeypatch):
        """Executions are exact whether the dispatch loop or a loop
        form ran the trace, before or after its promotion, so the cells
        add up to the engine's own ``traces_executed``."""
        if promote:
            promote_at(monkeypatch, promote)
        vm = pooled_vm(MULTISLICE)
        ICount2().activate(vm)
        result = vm.run()
        if promote:
            assert vm.jit_stats.promotions > 0
        cells = vm.jit.heat.values()
        assert sum(cell[0] for cell in cells) == result.traces_executed
        assert sum(cell[1] for cell in cells) == vm.cache.stats.compiles
        assert sorted(vm.jit.heat) == sorted(
            {address for address, _ in vm.cache.insert_log})

    def test_heat_survives_reset_and_is_monotone(self):
        vm = pooled_vm(LOOP.format(trips=30))
        before = {}
        for _ in range(3):
            self.run_loop(vm, 30)
            for pc, (executions, compiles) in vm.jit.heat.items():
                was = before.get(pc, (0, 0))
                assert executions > was[0] and compiles == was[1] + 1
            before = {pc: tuple(cell) for pc, cell in vm.jit.heat.items()}


# --- kept code meets heat ---------------------------------------------------

class Tallied(ICount2):
    """``ICount2`` declaring for itself, its callbacks tallied per trace
    on the class — where a slice's copy of the tool does not reach."""

    pure_instrumentation = True
    seen = collections.Counter()

    def instrument_trace(self, trace, vm):
        self.seen[trace.address] += 1
        ICount2.instrument_trace(self, trace, vm)


def test_kept_code_turns_hot_without_a_callback(threshold):
    """Three slices verify and keep threaded code; then the traces are
    wanted hot — at a compile, and in mid-run — and are lowered from
    the ``TraceObj`` that was kept with them, uninstrumented anew."""
    fresh = SlicePhase(MULTISLICE, Tallied()).run_all()[0]
    Tallied.seen.clear()
    machine = SliceMachine()
    phase = SlicePhase(MULTISLICE, Tallied())
    assert phase.n >= 5

    def run(k):
        result = phase.run(k, machine)
        assert slice_image(result) == fresh[k]
        cache = machine.vm.cache
        return {pc: cache.get(pc) for pc, _ in result.compile_log}

    threshold(math.inf)
    for k in range(3):
        run(k)
    assert machine.vm.jit_stats.instrumentation_reuses > 0
    assert machine.vm.jit_stats.hot_compiles == 0
    before = dict(Tallied.seen)

    threshold(1)
    compiled = run(3)
    stats = machine.vm.jit_stats
    assert stats.hot_compiles > 0 and stats.instrumentation_reuses > 0
    quiet = [pc for pc, trace in compiled.items()
             if trace.is_source and Tallied.seen[pc] == before.get(pc) == 2]
    assert quiet

    threshold(math.inf)
    compiled = run(4)
    threaded = [trace for pc, trace in compiled.items()
                if not trace.is_source
                and Tallied.seen[pc] == before.get(pc)]
    assert threaded
    before = dict(Tallied.seen)
    for trace in threaded:
        promoted = machine.vm.jit.promote(trace)
        assert promoted.is_source and promoted.start == trace.start
    assert Tallied.seen == before


# --- pool validity on the hot path -------------------------------------------

class TestHotPathSkeletonValidity(test_jit_pool.TestSkeletonValidity):
    """Every ``Jit._refusal`` and ``Jit._blocks`` mutation test again,
    with the trace lowered to generated code: the hot lowering decodes
    through the same skeleton, so the same checks guard it."""

    backend = "source"

    def test_unchanged_trace_is_reused(self):
        first = self.vm.jit.compile(self.entry)
        self.vm.reset()
        second = self.vm.jit.compile(self.entry)
        assert self.vm.jit_stats.skeleton_reuses == 1
        assert self.vm.jit_stats.hot_compiles == 1
        # Pooled text, pooled code object, new namespace.
        assert second.source == first.source
        assert second.fn.__code__ is first.fn.__code__
        assert second.fn.__globals__ is not first.fn.__globals__

    def test_pooled_text_is_what_a_fresh_emitter_writes(self):
        """The semantics text a later compile takes from the pool is
        the text an unpooled engine emits, under any instrumentation."""
        program = assemble(MULTISLICE)
        vm = PinVM(load_program(program, Kernel(seed=1)),
                   jit_backend="source")
        for tool in (None, ICount1(), ICount2(), None):
            vm.reset()
            fresh = PinVM(load_program(program, Kernel(seed=1)),
                          jit_backend="source")
            for engine in (vm, fresh):
                if tool is not None:
                    tool.activate(engine)
            for address in range(program.entry, program.entry + 30):
                assert (vm.jit.compile(address).source
                        == fresh.jit.compile(address).source)
        assert vm.jit_stats.skeleton_reuses == 30
