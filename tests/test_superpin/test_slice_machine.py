"""A slice is a context switch onto a resident machine.

One oracle, the fresh machine: whatever runs on a ``SliceMachine`` that
ran other slices before — in any order, of any program, to any end —
must produce the ``SliceResult`` a newly built machine produces, field
by field, and the merged tool results with it.  Only host-side counters
(``PLACEMENT_COUNTERS``) may tell the two apart — and, for a tool that
declares its instrumentation pure, how often its trace callback ran.
"""

import collections
import dataclasses
import pickle
import threading

import pytest

from repro.errors import (DivergenceError, InstrumentationError,
                          RunawaySliceError, SliceExecutionError)
from repro.isa import assemble
from repro.machine import Kernel
from repro.pin import (IARG_END, IARG_PTR, IARG_UINT64, IPOINT_BEFORE,
                       jit, Pintool, run_with_pin)
from repro.pin.filter import parse_filter
from repro.pin.pintool import declares_pure_instrumentation
from repro.pin.pyjit import _Emitter
from repro.superpin import (ControlProcess, FaultPlan, merge_slices,
                            record_signatures, run_superpin, SliceEnd,
                            SliceToolContext, SPControl, SuperPinConfig)
from repro.superpin import slices as slices_mod, supervisor
from repro.superpin.control import Boundary
from repro.superpin.parallel import run_slice_job, slice_job
from repro.superpin.sharedmem import AutoMerge, SharedArea
from repro.superpin.slices import (PLACEMENT_COUNTERS, run_slice,
                                   SliceMachine)
from repro.tools import ICount2, TOOLS
from tests.conftest import (all_generated, MULTISLICE, promote_at,
                            unlinked, virtual_counters)
from tests.test_superpin.test_threads_superpin import THREADED

#: The JIT's own choice of lowering, and every trace generated
#: (``conftest.all_generated``).
BACKENDS = ["closure", "source"]
CONFIG = dict(spmsec=500, clock_hz=10_000)
#: A ``-spfilter`` that selects every instruction: a filter-aware tool
#: attaches under it what it attaches unfiltered, under another digest.
EVERY_INSTRUCTION = "opcode:mem,opcode:control,opcode:alu"
#: The shipped lowering threshold, whatever ``--jit-hot-threshold`` says.
SHIPPED = jit.HOT_EXECUTIONS_PER_COMPILE


class TraceRecords(Pintool):
    """A tool that keeps instrument-time state: every compile makes a
    record, the record travels to the analysis routine by ``IARG_PTR``,
    and the report depends on how often each trace was *compiled* — the
    kind of tool a pool that skipped trace callbacks would silently
    break."""

    name = "tracerecords"

    def __init__(self):
        self.records = []
        self.shared = None

    def reset(self, slice_num):
        self.records.clear()

    def setup(self, sp):
        sp.SP_Init(self.reset)
        self.shared = sp.SP_CreateSharedArea([], 0, 0)
        self.shared.data = {}
        sp.SP_AddSliceEndFunction(self.merge, None)

    def instrument_trace(self, trace, vm):
        record = [trace.address, trace.num_ins, 0]
        self.records.append(record)
        trace.bbls[0].head.insert_call(IPOINT_BEFORE, self.entered,
                                       IARG_PTR, record, IARG_END)

    @staticmethod
    def entered(record):
        record[2] += 1

    def merge(self, slice_num, value):
        totals = self.shared.data
        for address, num_ins, entries in self.records:
            compiled, entered = totals.get((address, num_ins), (0, 0))
            totals[(address, num_ins)] = (compiled + 1, entered + entries)

    def report(self):
        return dict(self.shared.data)


def counting(tool):
    """``tool`` with its trace callback counted on the instance — the
    instance is deep-copied into each slice, so every slice's copy ends
    up holding that slice's own count.  The subclass overrides
    ``instrument_trace`` and declares nothing, so whatever its base
    promised it is instrumented on every compile."""
    klass = type(tool)
    tool.__class__ = type(klass.__name__, (klass,), {
        "callbacks_seen": 0,
        "instrument_trace": lambda self, trace, vm: (
            setattr(self, "callbacks_seen", self.callbacks_seen + 1),
            klass.instrument_trace(self, trace, vm))[1]})
    return tool


TOOL_FACTORIES = {**{name: TOOLS[name] for name in
                     ("icount1", "icount2", "memtrace", "branchprofile")},
                  "tracerecords": TraceRecords}


def forwards(n):
    return range(n)


def backwards(n):
    return range(n - 1, -1, -1)


class SlicePhase:
    """The slice phase driven by hand, one :func:`run_slice_job` per
    slice, so a test chooses the order and the machine of each.  A
    boundary executes once, so every instance runs its own master."""

    def __init__(self, source, tool, **overrides):
        self.config = config = SuperPinConfig(**{**CONFIG, **overrides})
        program = assemble(source)
        if config.spfilter is not None:
            tool.instrument_filter = parse_filter(config.spfilter, program)
        self.tool = tool
        self.sp = SPControl(config)
        tool.setup(self.sp)
        self.template = SliceToolContext.from_control(tool, self.sp)
        self.timeline = ControlProcess(program, config,
                                       kernel=Kernel(seed=42)).run()
        self.signatures = record_signatures(self.timeline, config)
        self.n = len(self.timeline.intervals)
        #: Every slice's counters (empty without ``spmetrics``): one
        #: dict a slice in run order, and their sum.
        self.slice_counters = []
        self.counters = collections.Counter()

    def run(self, k, machine=None, metrics_out=None):
        job = slice_job(self.timeline, self.signatures, self.template,
                        self.sp, self.config, k)
        result, _, _, snapshot = run_slice_job(job, machine)
        if snapshot is not None:
            self.slice_counters.append(snapshot["counters"])
            self.counters.update(snapshot["counters"])
        if metrics_out is not None:
            metrics_out.append(snapshot)
        return result

    def run_all(self, order=forwards, machine_for=lambda k: None):
        """Every slice once; returns what the rest of the pipeline would
        see: per-slice fields, per-slice callback counts, and the merged
        tool report."""
        images = {}
        results = {}
        for k in order(self.n):
            result = results[k] = self.run(k, machine_for(k))
            images[k] = slice_image(result)
        ordered = [results[k] for k in range(self.n)]
        merge_slices(self.sp, ordered)
        self.tool.fini()
        return ([images[k] for k in range(self.n)], self.tool.report())


def slice_image(result):
    """Every ``SliceResult`` field, with the tool context reduced to the
    slice's own trace-callback count (of a :func:`counting` tool)."""
    image = {f.name: getattr(result, f.name)
             for f in dataclasses.fields(result) if f.name != "tool_ctx"}
    if hasattr(result.tool_ctx.tool, "callbacks_seen"):
        image["callbacks_seen"] = result.tool_ctx.tool.callbacks_seen
    return image


def assert_resident_equals_fresh(source, make_tool, served=True,
                                 **overrides):
    """The fresh-machine oracle, twice: with the tool's trace callback
    counted (an undeclared subclass — every compile instruments, and
    the count is part of the image), and, where the tool declares its
    instrumentation pure, with the declaration standing — the same
    image but for the count, from compiles that were ``served`` (None:
    either way)."""
    fresh = SlicePhase(source, counting(make_tool()), **overrides).run_all()
    assert len(fresh[0]) >= 3
    for order in (forwards, backwards):
        machine = SliceMachine()
        phase = SlicePhase(source, counting(make_tool()), spmetrics=True,
                           **overrides)
        assert phase.run_all(order, lambda k: machine) == fresh, \
            order.__name__
        assert machine.vm.jit.pool
        assert phase.counters["pin.jit.instrumentation_reuses"] == 0
    if not declares_pure_instrumentation(make_tool()):
        return
    uncounted = ([{name: value for name, value in image.items()
                   if name != "callbacks_seen"} for image in fresh[0]],
                 fresh[1])
    for order in (forwards, backwards):
        machine = SliceMachine()
        phase = SlicePhase(source, make_tool(), spmetrics=True, **overrides)
        assert phase.run_all(order, lambda k: machine) == uncounted, \
            order.__name__
        reuses = phase.counters["pin.jit.instrumentation_reuses"]
        assert served is None or (reuses > 0) == served


class TestParityWithAFreshMachine:
    @pytest.mark.parametrize("spfilter", [None, "opcode:mem"])
    @pytest.mark.parametrize("spsuppress", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("tool", list(TOOL_FACTORIES))
    def test_matrix(self, tool, backend, spsuppress, spfilter, monkeypatch):
        if backend == "source":
            all_generated(monkeypatch)
        assert_resident_equals_fresh(
            MULTISLICE, TOOL_FACTORIES[tool], spsuppress=spsuppress,
            spfilter=spfilter)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sampled_slices(self, backend, monkeypatch):
        """``-spsample 2``: tool-free and instrumented slices alternate
        on one machine, so every reuse changes instrumentation — and
        nothing a tool-free slice compiled may be served to the next."""
        if backend == "source":
            all_generated(monkeypatch)
        assert_resident_equals_fresh(MULTISLICE, TOOLS["icount1"],
                                     served=False, spsample=2)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cooperative_threads(self, backend, monkeypatch):
        """Slices fork mid-thread and context-switch *inside* the guest:
        the scheduler rewrites the resident register list in place."""
        if backend == "source":
            all_generated(monkeypatch)
        assert_resident_equals_fresh(THREADED, TOOLS["icount2"],
                                     spmsec=1000)

    def test_no_link(self, monkeypatch):
        unlinked(monkeypatch)
        assert_resident_equals_fresh(MULTISLICE, TOOLS["icount2"])

    def test_reuse_is_observed_and_host_side_only(self):
        phase = SlicePhase(MULTISLICE, TOOLS["icount2"](), spmetrics=True)
        machine = SliceMachine()
        snapshots = []
        for k in range(phase.n):
            phase.run(k, machine, snapshots)
        reuses = [s["counters"]["pin.jit.skeleton_reuses"]
                  for s in snapshots]
        assert reuses[0] == 0 and sum(reuses) > 0
        assert all(set(PLACEMENT_COUNTERS) <= set(s["counters"])
                   for s in snapshots)
        assert (snapshots[1]["histograms"]["pin.jit.compile_seconds"]
                ["count"]) == snapshots[1]["counters"]["pin.cache.compiles"]


#: ``f`` runs in phase A, is rewritten, and runs again in phase C.  The
#: master and serial Pin cache ``f`` in phase A, so the store evicts it
#: (``repro.pin.engine``); the filler B is longer than a timeslice, so
#: the slice that performs the rewrite starts inside it and has never
#: cached ``f`` itself — and a pool that trusted its old decode of ``f``
#: from an earlier slice would run the old ``f`` in phase C.  Every
#: engine agrees with the interpreter on this guest
#: (``test_self_modifying.py`` holds them to it).
REWRITTEN = """
.entry main
main:
    li   s0, 0
    li   s1, 500
a_loop:
    call f
    inc  s0
    bne  s0, s1, a_loop
    li   t0, 0
    li   t1, 9000
b_loop:
    inc  t0
    bne  t0, t1, b_loop
    la   t3, donor
    ld   t4, 0(t3)
    la   t3, patch
    st   t4, 0(t3)
    li   s0, 0
c_loop:
    call f
    inc  s0
    bne  s0, s1, c_loop
    li   a0, SYS_EXIT
    mov  a1, s2
    syscall
f:
patch:
    addi s2, s2, 1
    ret
donor:
    addi s2, s2, 5
"""

#: Another program whose text lands on the same addresses as MULTISLICE.
OTHER = """
.entry main
main:
    li   s0, 0
    li   s1, 9000
top:
    addi s0, s0, 1
    xor  t0, s0, s1
    st   t0, 0x7000(zero)
    bne  s0, s1, top
    li   a0, SYS_TIME
    syscall
    li   a0, SYS_EXIT
    li   a1, 7
    syscall
"""


#: Two loops in two functions: no trace of ``xl``'s covers ``yl``, and
#: the master cuts slices inside either.
TWO_LOOPS = """
.entry main
main:
    li   s0, 0
    li   s1, 40
outer:
    call fx
    call fy
    inc  s0
    blt  s0, s1, outer
    li   a0, SYS_EXIT
    mov  a1, s0
    syscall
fx:
    li   t0, 0
    li   t1, 300
xl:
    add  s2, s2, t0
    xor  s3, s2, t1
    addi t0, t0, 1
    blt  t0, t1, xl
    ret
fy:
    li   t0, 0
    li   t1, 60
yl:
    add  s4, s4, t0
    xor  s5, s4, t1
    addi t0, t0, 1
    blt  t0, t1, yl
    ret
"""


class TestPoolValidity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_master_rewrote_an_instruction_between_boundaries(
            self, backend, monkeypatch):
        if backend == "source":
            all_generated(monkeypatch)
        # (Every trace a second slice of this guest revisits starts at
        # that slice's signature pc: none is ever served.)
        assert_resident_equals_fresh(REWRITTEN, TOOLS["icount1"],
                                     served=None)
        phase = SlicePhase(REWRITTEN, TOOLS["icount1"](), spmetrics=True)
        assert phase.timeline.exit_code == 500 * (1 + 5)
        if backend == "closure":
            machine, snapshots = SliceMachine(), []
            for k in range(phase.n):
                phase.run(k, machine, snapshots)
            assert sum(s["counters"]["pin.jit.skeleton_rejects.words"]
                       for s in snapshots) > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_programs_back_to_back(self, backend, monkeypatch):
        if backend == "source":
            all_generated(monkeypatch)
        machine = SliceMachine()
        for source in (MULTISLICE, OTHER, MULTISLICE):
            fresh = SlicePhase(source, TOOLS["icount2"]()).run_all()
            resident = SlicePhase(source, TOOLS["icount2"]()).run_all(
                machine_for=lambda k: machine)
            assert resident == fresh

    def test_backends_alternating_on_one_machine(self, monkeypatch):
        """One engine whose lowering is pinned and unpinned between
        runs: what it kept under one lowering serves the other."""
        machine = SliceMachine()
        for backend in ("closure", "source", "closure"):
            with monkeypatch.context() as patch:
                if backend == "source":
                    all_generated(patch)
                fresh = SlicePhase(MULTISLICE, TOOLS["icount2"]()).run_all()
                assert SlicePhase(MULTISLICE, TOOLS["icount2"]()).run_all(
                    machine_for=lambda k: machine) == fresh

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_shape_per_head(self, backend, monkeypatch):
        """Every slice on one machine decodes its traces where serial
        Pin does, whatever its signature pc: the pool holds one skeleton
        a head, and every compile at a head the pool knew reuses it,
        unless the words under it changed."""
        if backend == "source":
            all_generated(monkeypatch)
        machine = SliceMachine()
        for turn in range(2):
            phase = SlicePhase(MULTISLICE, TOOLS["icount2"](),
                               spmetrics=True)
            for k in range(phase.n):
                phase.run(k, machine)
            pool = machine.vm.jit.pool
            assert pool and all(type(skeleton) is jit._Skeleton
                                for skeleton in pool.values())
            counters = phase.counters
            # (The first time round, each head's first compile decodes.)
            assert counters["pin.jit.skeleton_reuses"] == (
                counters["pin.jit.compiles"]
                - counters["pin.jit.skeleton_rejects.words"]
                - (0 if turn else len(pool))) > 0

    def test_a_kept_trace_is_instrumented_again_around_the_pc(self):
        """Two slices that end elsewhere verify the trace of loop ``yl``
        for the resident tool; the next slice on the machine has its
        signature pc strictly inside that trace.  What was kept is the
        trace's uncut code, so the JIT instruments the trace again under
        the slice's cut — served the uncut code, the slice would run
        past its signature to the end of its budget — and keeps that
        beside it."""
        phase = SlicePhase(TWO_LOOPS, TOOLS["icount2"](), spmetrics=True)
        yl = assemble(TWO_LOOPS).symbol("yl")
        pcs = [signature.pc for signature in phase.signatures]
        k = min(k for k, pc in enumerate(pcs) if yl < pc < yl + 4)
        assert not any(yl <= pc < yl + 5 for pc in pcs[k + 1:k + 3])
        want = slice_image(SlicePhase(TWO_LOOPS, TOOLS["icount2"]()).run(k))
        machine = SliceMachine()
        for j in (k + 1, k + 2):
            phase.run(j, machine)
        assert machine.vm.jit.pool[yl].kept[None].verified
        result = phase.run(k, machine)
        assert result.reason is SliceEnd.MATCHED
        assert slice_image(result) == want
        counters = phase.slice_counters[-1]
        assert counters["pin.jit.instrumentation_declined"] == 0
        assert counters["pin.jit.cut_reuses"] == 0
        assert len(machine.vm.jit.pool[yl].kept) == 2

    @pytest.mark.parametrize("lowering", ["threaded", "generated",
                                          "promoted"])
    def test_alternating_cuts_are_each_served_their_own_code(
            self, lowering, monkeypatch):
        """A run whose signature pcs cut the hot loop at alternating
        offsets (4123, 4122, 4123, 4122, 4121, ...: the pattern of
        gzip's boundaries), its slices in order on one machine.  Each is
        the slice a fresh machine runs and ends at its pc, and a (trace,
        pc) is served from its third visit.  Where the lowering never
        changes, it is lowered on its first visit only — the comparing
        second visit takes that lowering over — so no step, generated
        function or loop form is made for it again; where served
        threaded code is promoted in mid-run, the promotion is lowered
        from the calls of the cut served, not of the cut compiled
        last."""
        if lowering == "generated":
            all_generated(monkeypatch)
        if lowering == "promoted":
            promote_at(monkeypatch, 1)
        else:
            monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE",
                                float("inf"))
        overrides = dict(spmsec=200)
        fresh = SlicePhase(MULTISLICE, TOOLS["icount2"](), **overrides)
        pcs = [signature.pc for signature in fresh.signatures]
        loop = assemble(MULTISLICE).symbol("wl")
        assert len(pcs) == fresh.n - 1
        assert all(loop <= pc < loop + 5 for pc in pcs)
        assert pcs[:4] == [pcs[0], pcs[1]] * 2 and pcs[0] != pcs[1]
        want = [slice_image(fresh.run(k)) for k in range(fresh.n)]
        # What each compile and each loop-form request of the slice did:
        # ``(compile?, head, instructions, lowered anything, served)``.
        seen = []
        lowered = [0]
        step, function = jit.Jit._step, jit.Jit._function
        monkeypatch.setattr(jit.Jit, "_step", lambda self, *args: (
            lowered.append(1), step(self, *args))[1])
        monkeypatch.setattr(jit.Jit, "_function", lambda self, *args: (
            lowered.append(1), function(self, *args))[1])

        def watched(method, compiles):
            def call(self, arg):
                stats = self._engine.jit_stats
                mark, reuses = len(lowered), stats.instrumentation_reuses
                out = method(self, arg)
                trace = out if compiles else arg
                seen.append((compiles, trace.start, trace.num_ins,
                             len(lowered) > mark,
                             stats.instrumentation_reuses > reuses))
                return out
            return call
        monkeypatch.setattr(jit.Jit, "compile",
                            watched(jit.Jit.compile, True))
        monkeypatch.setattr(jit.Jit, "loop_form",
                            watched(jit.Jit.loop_form, False))
        machine = SliceMachine()
        phase = SlicePhase(MULTISLICE, TOOLS["icount2"](), spmetrics=True,
                           **overrides)
        compiled, looped = collections.Counter(), set()
        for k in range(phase.n - 1):
            del seen[:]                # (the phase's master made some)
            result = phase.run(k, machine)
            assert result.reason is SliceEnd.MATCHED
            assert result.end_pc == pcs[k]
            assert slice_image(result) == want[k]
            counters = phase.slice_counters[-1]
            assert counters["pin.jit.instrumentation_declined"] == 0
            cut_served = False
            for compiles, head, size, made, served in seen:
                pair = (head, pcs[k] if head <= pcs[k] < head + size
                        else None)
                if not compiles:
                    assert (lowering == "promoted" or not made
                            or pair not in looped), (k, pair)
                    looped.add(pair)
                    continue
                assert (lowering == "promoted" or not made
                        or not compiled[pair]), (k, pair)
                assert served == (compiled[pair] >= 2), (k, pair)
                cut_served |= served and pair[1] is not None
                compiled[pair] += 1
            assert (counters["pin.jit.cut_reuses"] > 0) == cut_served, k
            # What a promotion or a loop form is lowered from: the calls
            # of the cut served, put back on the instructions.
            skeleton = machine.vm.jit.pool[loop]
            assert jit._calls(skeleton.instructions) \
                == skeleton.attached.calls, k
        assert max(count for (_, pc), count in compiled.items()
                   if pc is not None) >= 3
        assert len(machine.vm.jit.pool[loop].kept) == len(set(pcs))

    def test_a_trace_keeps_a_bounded_number_of_cuts(self, monkeypatch):
        """Past ``KEPT_CUTS`` the oldest cut's code is dropped, and the
        trace is instrumented again when a slice cuts it there."""
        monkeypatch.setattr(jit, "KEPT_CUTS", 2)
        fresh = SlicePhase(MULTISLICE, TOOLS["icount2"](),
                           spmsec=200).run_all()
        machine = SliceMachine()
        phase = SlicePhase(MULTISLICE, TOOLS["icount2"](), spmsec=200,
                           spmetrics=True)
        assert phase.run_all(machine_for=lambda k: machine) == fresh
        loop = assemble(MULTISLICE).symbol("wl")
        assert len({signature.pc for signature in phase.signatures}) > 2
        assert len(machine.vm.jit.pool[loop].kept) == 2
        assert phase.counters["pin.jit.cut_reuses"] > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_slices_that_cut_a_hot_trace_keep_each_others_shapes(
            self, backend, monkeypatch):
        """Two slices whose signature pcs fall at two places inside the
        hot loop's trace, run in turn on one machine, decode it once:
        the second time round nothing is decoded (or ``compile()``d),
        and both are the slices a fresh machine runs, compile logs
        included."""
        if backend == "source":
            all_generated(monkeypatch)
        fresh = SlicePhase(MULTISLICE, TOOLS["icount2"]())
        pcs = [signature.pc for signature in fresh.signatures[1:3]]
        loop = assemble(MULTISLICE).symbol("wl")
        assert pcs[0] != pcs[1] and all(loop < pc < loop + 5 for pc in pcs)
        want = {k: slice_image(fresh.run(k)) for k in (1, 2)}
        assert all(any(address == loop for address, _ in
                       want[k]["compile_log"]) for k in (1, 2))
        machine = SliceMachine()
        decoded = []
        cold_compiles = []
        finish = _Emitter.finish
        monkeypatch.setattr(_Emitter, "finish", lambda *args: (
            cold_compiles.append(args[2]), finish(*args))[1])
        for turn in range(2):
            phase = SlicePhase(MULTISLICE, TOOLS["icount2"](),
                               spmetrics=True)
            del cold_compiles[:]       # (the phase's master made some)
            for k in (1, 2):
                assert slice_image(phase.run(k, machine)) == want[k]
                decoded.append(machine.vm.jit.pool[loop])
            if turn:
                assert phase.counters["pin.jit.skeleton_reuses"] \
                    == phase.counters["pin.jit.compiles"] > 0
                assert not cold_compiles
        assert all(skeleton is decoded[0] for skeleton in decoded)


class Liar(ICount2):
    """Declares its instrumentation pure and attaches another routine on
    every second compile of a trace (the tally is the class's, so it
    lasts as long as the process — what a slice's copy does not)."""

    pure_instrumentation = True
    compiles = collections.Counter()

    def docount_too(self, count):
        self.icount += count

    def instrument_trace(self, trace, vm):
        self.compiles[trace.address] += 1
        routine = (self.docount if self.compiles[trace.address] % 2
                   else self.docount_too)
        for bbl in trace.bbls:
            bbl.head.insert_call(IPOINT_BEFORE, routine, IARG_UINT64,
                                 bbl.num_ins, IARG_END)


class ClosureCount(ICount2):
    """Declares, but its routines are closures over the slice's state:
    nothing a later slice could be served."""

    pure_instrumentation = True

    def instrument_trace(self, trace, vm):
        for bbl in trace.bbls:
            def docount(count, tool=self):
                tool.icount += count
            bbl.head.insert_call(IPOINT_BEFORE, docount, IARG_UINT64,
                                 bbl.num_ins, IARG_END)


class SlottedCount(ICount2):
    """Declares, but keeps state a ``__dict__`` does not hold."""

    __slots__ = ("extra",)
    pure_instrumentation = True

    def instrument_trace(self, trace, vm):
        ICount2.instrument_trace(self, trace, vm)


class TestPureInstrumentation:
    """What a declaration buys, what it costs a tool that lies, and the
    shapes that quietly stay on the instrument-every-compile path."""

    def run_on_one_machine(self, make_tool, **overrides):
        machine = SliceMachine()
        phase = SlicePhase(MULTISLICE, make_tool(), spmetrics=True,
                           **overrides)
        return phase, phase.run_all(machine_for=lambda k: machine)

    def test_the_shipped_tools_declare(self):
        assert all(declares_pure_instrumentation(factory())
                   for factory in TOOLS.values())
        assert not declares_pure_instrumentation(TraceRecords())

    @pytest.mark.parametrize("tool", ["icount2", "branchprofile"])
    def test_an_overriding_subclass_is_not_covered_by_its_base(self, tool):
        """``counting`` overrides ``instrument_trace`` under a base that
        declares: it sees one callback per compile, as on a fresh
        machine."""
        assert not declares_pure_instrumentation(counting(TOOLS[tool]()))
        phase, (images, _) = self.run_on_one_machine(
            lambda: counting(TOOLS[tool]()))
        assert [image["callbacks_seen"] for image in images] \
            == [image["compiles"] for image in images]
        assert phase.counters["pin.jit.skeleton_reuses"] > 0
        assert not any(phase.counters[f"pin.jit.instrumentation_{what}"]
                       for what in ("reuses", "checks", "declined"))

    @pytest.mark.parametrize("tool", ["memtrace", "dcache", "opcodemix"])
    def test_a_finished_slices_tool_context_is_left_alone(self, tool):
        """The resident tool is slice *k*'s copy only until slice
        *k + 1* adopts its own."""
        machine = SliceMachine()
        phase = SlicePhase(MULTISLICE, TOOLS[tool](), spmetrics=True)
        previous = None
        for k in range(phase.n):
            result = phase.run(k, machine)
            if previous is not None:
                assert pickle.dumps(previous.tool_ctx) == before
            previous, before = result, pickle.dumps(result.tool_ctx)
        assert phase.counters["pin.jit.instrumentation_reuses"] > 0

    def test_a_false_declaration_is_loud_and_never_served(self):
        Liar.compiles.clear()
        machine = SliceMachine()
        phase = SlicePhase(MULTISLICE, Liar(), spmetrics=True)
        phase.run(0, machine)
        for k in range(1, phase.n):
            with pytest.raises(InstrumentationError,
                               match="Liar declares pure_instrumentation"):
                phase.run(k, machine)
            assert machine.vm.jit_stats.instrumentation_reuses == 0
        assert phase.counters["pin.jit.instrumentation_reuses"] == 0

    @pytest.mark.parametrize("spworkers", [0, 2])
    def test_a_false_declaration_fails_the_run(self, spworkers):
        Liar.compiles.clear()
        with pytest.raises(SliceExecutionError) as failure:
            run_superpin(assemble(MULTISLICE), Liar(),
                         SuperPinConfig(**CONFIG, spworkers=spworkers),
                         kernel=Kernel(seed=42))
        assert isinstance(failure.value.__cause__, InstrumentationError)

    def test_two_templates_of_one_tool_share_what_verifies(self):
        """Another run's template — here with another ``-spfilter`` — is
        held, trace by trace, against what the last one left attached:
        nothing is served on the old template's word, nothing raises
        (a filter is no lie), and where the calls differ the trace
        starts over."""
        machine = SliceMachine()
        SlicePhase(MULTISLICE, TOOLS["icount1"]()).run_all(
            machine_for=lambda k: machine)
        fresh = SlicePhase(MULTISLICE, TOOLS["icount1"](),
                           spfilter="opcode:mem").run_all()
        filtered = SlicePhase(MULTISLICE, TOOLS["icount1"](),
                              spfilter="opcode:mem", spmetrics=True)
        assert filtered.run_all(machine_for=lambda k: machine) == fresh
        first = filtered.slice_counters[0]
        assert first["pin.jit.skeleton_reuses"] > 0
        assert first["pin.jit.instrumentation_reuses"] == 0
        assert first["pin.jit.instrumentation_checks"] > 0
        assert filtered.counters["pin.jit.instrumentation_reuses"] > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_same_calls_take_over_the_kept_lowering(self, backend,
                                                        monkeypatch):
        """A second template under another digest — a filter that
        selects every instruction — that attaches what the first did:
        its first compile of a trace is the comparing one, and hands
        back the very step list / generated function the first
        template's last compile of it did — the lowering is what is
        skipped."""
        if backend == "source":
            all_generated(monkeypatch)
        fresh = SlicePhase(MULTISLICE, ICount2()).run_all()
        machine = SliceMachine()
        assert SlicePhase(MULTISLICE, ICount2()).run_all(
            machine_for=lambda k: machine) == fresh
        # (Its master runs now, and may lower what it likes.)
        second = SlicePhase(MULTISLICE, ICount2(), spmetrics=True,
                            spfilter=EVERY_INSTRUCTION)
        assert second.template.template_id != SlicePhase(
            MULTISLICE, ICount2()).template.template_id
        jit = machine.vm.jit

        def uncut(skeleton):
            """What is kept, verified, of the trace where no signature pc
            cuts it."""
            kept = (skeleton.kept or {}).get(None)
            return kept if kept is not None and kept.verified else None
        before = {skeleton: uncut(skeleton) for skeleton in jit.pool.values()
                  if uncut(skeleton) is not None}
        handed = []
        compile_trace = jit.compile
        monkeypatch.setattr(jit, "compile", lambda address: (
            handed.append(compile_trace(address)), handed[-1])[1])

        generated = {skeleton.trace_obj.address
                     for skeleton, kept in before.items()
                     if kept.fn is not None}
        finish = _Emitter.finish

        def finish_new_text_only(emitter, source, address):
            assert address not in generated, \
                f"the kept trace at {address:#x} was lowered again"
            return finish(emitter, source, address)
        monkeypatch.setattr(_Emitter, "finish", finish_new_text_only)

        taken_over = []

        def after_the_first_slice(k):
            if k == 1:
                products = {id(getattr(trace, name, None))
                            for trace in handed for name in ("steps", "fn")}
                for skeleton, kept in before.items():
                    again = uncut(skeleton)
                    # (Not compiled by slice 0, or around its signature
                    # pc.)
                    if again is kept or again is None:
                        continue
                    assert again.steps is kept.steps
                    assert again.fn is kept.fn
                    lowering = kept.steps if kept.fn is None else kept.fn
                    assert lowering is not None and id(lowering) in products
                    taken_over.append(skeleton)
            return machine

        assert second.run_all(machine_for=after_the_first_slice) == fresh
        first = second.slice_counters[0]
        assert first["pin.jit.instrumentation_reuses"] == 0
        assert first["pin.jit.instrumentation_checks"] \
            >= len(taken_over) > 0

    @pytest.mark.parametrize("spsuppress", [False, True])
    @pytest.mark.parametrize("klass", [ClosureCount, SlottedCount])
    def test_shapes_that_stay_on_the_old_path(self, klass, spsuppress):
        fresh = SlicePhase(MULTISLICE, klass(),
                           spsuppress=spsuppress).run_all()
        phase, resident = self.run_on_one_machine(klass,
                                                  spsuppress=spsuppress)
        assert resident == fresh
        assert resident[1] == SlicePhase(
            MULTISLICE, ICount2(), spsuppress=spsuppress).run_all()[1]
        assert phase.counters["pin.jit.skeleton_reuses"] > 0
        assert phase.counters["pin.jit.instrumentation_reuses"] == 0
        # A closure is observed (and declined) trace by trace; a tool
        # with slots is never adopted, so nothing is even considered.
        assert (phase.counters["pin.jit.instrumentation_declined"] > 0) \
            == (klass is ClosureCount)

    def test_a_context_built_by_hand_is_served_nothing(self):
        phase = SlicePhase(MULTISLICE, TOOLS["icount2"](), spmetrics=True)
        phase.template = dataclasses.replace(phase.template,
                                             template_id=None)
        machine = SliceMachine()
        assert phase.run_all(machine_for=lambda k: machine) \
            == SlicePhase(MULTISLICE, TOOLS["icount2"]()).run_all()
        assert phase.counters["pin.jit.instrumentation_reuses"] == 0


class Exploding(Pintool):
    """Raises from an analysis routine partway through a slice."""

    name = "exploding"

    def __init__(self):
        self.fuse = 400

    def setup(self, sp):
        sp.SP_Init(lambda slice_num: None)

    def tick(self):
        self.fuse -= 1
        if self.fuse == 0:
            raise RuntimeError("boom")

    def instrument_trace(self, trace, vm):
        for ins in trace.instructions:
            ins.insert_call(IPOINT_BEFORE, self.tick, IARG_END)


class EndsEarly(Exploding):
    """Calls ``SP_EndSlice`` partway through instead (a ``StopRun``)."""

    def setup(self, sp):
        super().setup(sp)
        self.sp = sp

    def tick(self):
        self.fuse -= 1
        if self.fuse == 0:
            self.sp.SP_EndSlice()


class TestAfterASliceThatDidNotEndWell:
    """Whatever state a slice leaves the machine in, the next context
    switch replaces all of it."""

    @pytest.fixture(scope="class")
    def expected(self):
        return SlicePhase(MULTISLICE, TOOLS["icount2"]()).run_all()

    def check_clean_run_on(self, machine, expected):
        assert SlicePhase(MULTISLICE, TOOLS["icount2"]()).run_all(
            machine_for=lambda k: machine) == expected

    def test_after_an_exception_mid_slice(self, expected):
        machine = SliceMachine()
        phase = SlicePhase(MULTISLICE, Exploding())
        with pytest.raises(RuntimeError, match="boom"):
            phase.run(1, machine)
        assert not phase.sp._in_slice
        self.check_clean_run_on(machine, expected)

    def test_after_sp_endslice(self, expected):
        machine = SliceMachine()
        result = SlicePhase(MULTISLICE, EndsEarly()).run(1, machine)
        assert result.reason is SliceEnd.TOOL_END
        assert result.instructions < result.expected_instructions
        self.check_clean_run_on(machine, expected)

    def test_after_a_runaway(self, expected):
        machine = SliceMachine()
        phase = SlicePhase(MULTISLICE, TOOLS["icount2"]())
        # Slice 1 hunting for slice 2's end signature never finds it.
        with pytest.MonkeyPatch.context() as patch, \
                pytest.raises(RunawaySliceError):
            patch.setattr(slices_mod, "RUNAWAY_FACTOR", 0.5)
            patch.setattr(slices_mod, "RUNAWAY_SLACK", 0)
            run_slice(phase.timeline.boundaries[1],
                      phase.timeline.intervals[1], phase.signatures[2],
                      phase.template, phase.sp, phase.config,
                      machine=machine)
        self.check_clean_run_on(machine, expected)

    def test_a_hole_is_refused_before_the_switch(self, expected):
        """A boundary that cannot execute is refused before the context
        switch touches the machine."""
        machine = SliceMachine()
        SlicePhase(MULTISLICE, TOOLS["icount2"]()).run(0, machine)
        before = machine.process.cpu.snapshot()
        phase = SlicePhase(MULTISLICE, TOOLS["icount2"]())
        phase.timeline.boundaries[1] = Boundary.hole(
            1, phase.timeline.boundaries[1].master_instructions)
        with pytest.raises(DivergenceError, match="no boundary snapshot"):
            phase.run(1, machine)
        assert machine.process.cpu.snapshot() == before
        self.check_clean_run_on(machine, expected)


def _report(source=MULTISLICE, tool="icount2", resident=None, **overrides):
    tool = TOOLS[tool]() if isinstance(tool, str) else tool
    report = run_superpin(assemble(source), tool,
                          SuperPinConfig(**{**CONFIG, **overrides}),
                          kernel=Kernel(seed=42), resident=resident)
    return report, _slice_fields(report), tool.report()


def _slice_fields(report):
    return [{f.name: getattr(s, f.name) for f in dataclasses.fields(s)
             if f.name != "tool_ctx"} for s in report.slices]


class TestThroughThePipeline:
    @pytest.fixture(scope="class")
    def clean(self):
        return _report(spworkers=0, spmetrics=True)

    @pytest.mark.parametrize("spworkers", [0, 2])
    def test_workers_reuse_too(self, clean, spworkers):
        """Each pool worker keeps its own machine for as long as it
        lives; the counters come home in the workers' snapshots."""
        report, fields, tool_report = _report(spworkers=spworkers,
                                              spmetrics=True)
        assert (fields, tool_report) == clean[1:]
        assert report.metrics.counter("pin.jit.skeleton_reuses") > 0
        assert virtual_counters(report.metrics) \
            == virtual_counters(clean[0].metrics)

    @pytest.fixture(scope="class")
    def clean_fine(self):
        return _report(spworkers=0, spmetrics=True, spmsec=150)

    @pytest.mark.parametrize("spworkers", [0, 2])
    @pytest.mark.parametrize("policy", ["retry", "degrade"])
    def test_retried_slice_lands_on_a_used_machine(self, clean_fine,
                                                   policy, spworkers,
                                                   monkeypatch):
        """Which machine a slice lands on is the scheduler's business:
        every injected crash rebuilds the pool, and a rebuilt pool's
        workers have run nothing.  So the guest is cut into more slices
        than the run can have built machines — then some machine landed
        two, and any two slices of this guest share traces (every
        ordered pair of the 21 was run on one machine: the second reuses
        at least three skeletons)."""
        monkeypatch.setattr(supervisor, "RETRY_BACKOFF", 0.0)
        report, fields, tool_report = _report(
            spworkers=spworkers, spfaults=policy, spmetrics=True, spmsec=150,
            fault_plan=FaultPlan.parse("crash@1,corrupt@2,crash@3:2"))
        # (A crashed worker takes its in-flight neighbours down with it,
        # so the pool transport may recover more than the three named.)
        assert report.supervision_summary()["recovered_slices"] >= 3
        assert not report.degraded_slices
        assert (fields, tool_report) == clean_fine[1:]
        # The supervisor's own machine, and two workers a pool.
        machines = 1 + spworkers * (1 + report.metrics.counter(
            "superpin.supervisor.pool_rebuilds"))
        assert report.num_slices > machines
        assert report.metrics.counter("pin.jit.skeleton_reuses") > 0

    @pytest.mark.parametrize("overrides", [
        dict(spworkers=0), dict(spworkers=2),
        dict(spworkers=0, generated=True, spsuppress=True),
        dict(spworkers=2, spfaults="retry",
             fault_plan=FaultPlan.parse("crash@1")),
    ], ids=["w0", "w2", "w0-source-suppress", "w2-retry"])
    def test_audit_is_clean(self, overrides, monkeypatch):
        overrides = dict(overrides)
        if overrides.pop("generated", False):
            all_generated(monkeypatch)
        report, _, _ = _report(spaudit=True, **overrides)
        assert report.audit.ok, report.audit.summary()

    @pytest.mark.parametrize("spworkers", [0, 2])
    @pytest.mark.parametrize("tool", sorted(set(TOOLS) - {"sampler"}))
    def test_every_shipped_tool_is_served_and_audits_clean(self, tool,
                                                           spworkers):
        report, _, _ = _report(tool=tool, spworkers=spworkers,
                               spaudit=True, spmetrics=True)
        assert report.audit.ok, report.audit.summary()
        assert report.metrics.counter("pin.jit.instrumentation_reuses") > 0

    def test_the_sampler_is_served_too(self):
        """It ends every slice early (``SP_EndSlice``), which the audit
        reports by design; the oracle here is the same tool instrumented
        on every compile."""
        served, *declared = _report(tool="sampler", spworkers=0,
                                    spmetrics=True)
        assert served.metrics.counter("pin.jit.instrumentation_reuses") > 0
        # (In-process: a ``counting`` class cannot be pickled.)
        plain, *undeclared = _report(tool=counting(TOOLS["sampler"]()),
                                     spworkers=0, spmetrics=True)
        assert plain.metrics.counter("pin.jit.instrumentation_reuses") == 0
        assert declared == undeclared

    def test_two_runs_on_two_threads_own_two_machines(self, clean):
        """The in-process path has no module state: concurrent runs in
        one process (two daemon jobs) cannot see each other's slices."""
        outcomes = {}

        def job(name, source, tool):
            outcomes[name] = _report(source, tool, spworkers=0)[1:]

        threads = [
            threading.Thread(target=job,
                             args=("a", MULTISLICE, "icount2")),
            threading.Thread(target=job, args=("b", OTHER, "icount1")),
            threading.Thread(target=job,
                             args=("c", MULTISLICE, "icount2")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert outcomes["a"] == outcomes["c"] == clean[1:]
        assert outcomes["b"] == _report(OTHER, "icount1", spworkers=0)[1:]


class TestOneCodePoolPerProcess:
    """Generated code objects are the process's (``jit._INTERN``), and
    a pool worker is forked from the process."""

    def test_forked_workers_inherit_what_an_earlier_run_compiled(
            self, monkeypatch):
        """An in-process run, then a two-worker run, in one process:
        the workers fork from a parent whose pool holds the first run's
        slice code, so they rebind it instead of compiling — far more
        often than workers forked from an empty pool — and the account
        does not move.  (At the shipped threshold: with nothing lowered
        to generated code there is nothing to intern.)"""
        monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", SHIPPED)
        monkeypatch.setattr(jit, "_INTERN", collections.OrderedDict())
        cold, _, _ = _report(spworkers=2, spmetrics=True)
        monkeypatch.setattr(jit, "_INTERN", collections.OrderedDict())
        alone, alone_fields, _ = _report(spworkers=0, spmetrics=True)
        warm, warm_fields, tool_report = _report(spworkers=2,
                                                 spmetrics=True)
        hits = warm.metrics.counter("pin.jit.intern_hits")
        assert hits > cold.metrics.counter("pin.jit.intern_hits")
        assert warm.jit_summary()["interned"] == hits
        serial = TOOLS["icount2"]()
        run_with_pin(assemble(MULTISLICE), serial, kernel=Kernel(seed=42))
        assert tool_report == serial.report()
        assert [s.compiles for s in warm.slices] \
            == [s.compiles for s in alone.slices]
        assert warm_fields == alone_fields
        assert virtual_counters(warm.metrics) \
            == virtual_counters(alone.metrics)


class Weighted(ICount2):
    """Declares its instrumentation pure — and within one run it is: a
    function of the trace and of a constructor argument."""

    pure_instrumentation = True

    def __init__(self, weight):
        super().__init__()
        self.weight = weight

    def instrument_trace(self, trace, vm):
        for bbl in trace.bbls:
            bbl.head.insert_call(IPOINT_BEFORE, self.docount, IARG_UINT64,
                                 bbl.num_ins * self.weight, IARG_END)


class Fickle(ICount2):
    """Declares its instrumentation pure, but weighs it by a class
    attribute — not its own state — so two runs whose tools digest
    equally may attach different calls."""

    pure_instrumentation = True
    weight = 1

    def instrument_trace(self, trace, vm):
        for bbl in trace.bbls:
            bbl.head.insert_call(IPOINT_BEFORE, self.docount, IARG_UINT64,
                                 bbl.num_ins * Fickle.weight, IARG_END)


class TestAResidentAcrossRuns:
    """A machine its caller keeps between runs (the serve daemon's
    residents): every run on it is the run on machines of its own,
    only sooner."""

    #: ``(source, tool, overrides)``: two programs loaded at the same
    #: base, three tools, a filter, suppression, both lowerings
    #: (``generated``: ``conftest.all_generated``), both transports.
    #: Runs 2, 4, 5, 8 and 9 repeat a program the resident's engine has
    #: run in-process.
    SEQUENCE = [
        (MULTISLICE, "icount2", {}),
        (OTHER, "icount1", {}),
        (MULTISLICE, "icount2", {}),
        (MULTISLICE, "memtrace", dict(spfilter="opcode:mem")),
        (OTHER, "icount1", dict(spsuppress=True)),
        (MULTISLICE, "icount1", dict(generated=True)),
        (MULTISLICE, "icount2", dict(spworkers=2)),
        (OTHER, "memtrace", dict(spworkers=2)),
        (MULTISLICE, "icount2", {}),
        (MULTISLICE, "icount1", {}),
    ]
    REPEATS = (2, 4, 5, 8, 9)

    @staticmethod
    def image(report, tool):
        return (_slice_fields(report), tool.report(), report.stdout,
                report.exit_code, virtual_counters(report.metrics),
                report.timing, report.degraded_slices)

    def run(self, step, resident, monkeypatch):
        source, tool, overrides = step
        overrides = dict(overrides)
        with monkeypatch.context() as patch:
            if overrides.pop("generated", False):
                all_generated(patch)
            # (In-process unless the step says otherwise, whatever
            # SUPERPIN_SPWORKERS makes the default.)
            report, _, _ = _report(source, tool, resident, spmetrics=True,
                                   **{"spworkers": 0, **overrides})
        return report, self.image(report, report.tool)

    def test_every_run_equals_the_run_without_it(self, monkeypatch):
        resident = SliceMachine()
        for number, step in enumerate(self.SEQUENCE):
            _, alone = self.run(step, None, monkeypatch)
            report, image = self.run(step, resident, monkeypatch)
            assert image == alone, number
            counter = report.metrics.counter
            if number in self.REPEATS:
                # Every trace it compiled the resident had met before:
                # reused, unless the other program's words at that
                # address say otherwise.
                assert counter("pin.jit.skeleton_reuses") == (
                    counter("pin.jit.compiles")
                    - counter("pin.jit.skeleton_rejects.words")) > 0
        assert resident.lookahead._vm.jit.pool

    def test_a_one_slice_run_reuses_only_on_a_resident(self):
        """What a daemon job reads to tell warm from cold."""
        resident = SliceMachine()
        reuses = [_report(OTHER, "icount1", machine, spmetrics=True,
                          spmsec=5000, spworkers=0)[0].metrics.counter(
                              "pin.jit.skeleton_reuses")
                  for machine in (None, resident, resident)]
        assert reuses[0] == reuses[1] == 0 < reuses[2]

    def test_kept_instrumentation_does_not_cross_runs_unchecked(self):
        """Three runs of one tool class built with two arguments: what
        the first run's copies were served is what the second's get only
        where a comparison says it is the same — here, never."""
        resident = SliceMachine()
        for weight in (1, 2, 1):
            report, _, tool_report = _report(tool=Weighted(weight),
                                             resident=resident,
                                             spmetrics=True, spworkers=0)
            instructions = sum(s.instructions for s in report.slices)
            assert tool_report["icount"] == weight * instructions
            counter = report.metrics.counter
            assert counter("pin.jit.instrumentation_checks") > 0
            # Served within the run, from what this run itself verified.
            assert counter("pin.jit.instrumentation_reuses") > 0

    def test_a_false_declaration_still_fails_its_own_run(self):
        resident = SliceMachine()
        _report(resident=resident, spworkers=0)
        Liar.compiles.clear()
        with pytest.raises(SliceExecutionError) as failure:
            _report(tool=Liar(), resident=resident, spworkers=0)
        assert isinstance(failure.value.__cause__, InstrumentationError)

    def test_an_equal_digest_is_served_from_its_first_compile(self):
        """Runs of equal tools: once a run has compared what an earlier
        one kept, the next is served every compile — with the result of
        a run that no resident served."""
        resident = SliceMachine()
        alone = _report(spworkers=0)[1:]
        for _ in range(3):
            report, *image = _report(resident=resident, spmetrics=True,
                                     spworkers=0)
            assert tuple(image) == alone
        counter = report.metrics.counter
        assert counter("pin.jit.instrumentation_checks") == 0
        assert counter("pin.jit.instrumentation_reuses") \
            == counter("pin.jit.compiles") > 0

    def test_a_difference_under_an_equal_digest_is_a_lie(self,
                                                         monkeypatch):
        """A one-slice run keeps every first compile unverified; the
        next run under an equal digest compares, and a difference there
        raises as it does within one run."""
        resident = SliceMachine()
        one_slice = dict(spmsec=5000, spworkers=0)
        report, _, _ = _report(OTHER, Fickle(), resident, **one_slice)
        assert report.num_slices == 1
        monkeypatch.setattr(Fickle, "weight", 2)
        with pytest.raises(SliceExecutionError) as failure:
            _report(OTHER, Fickle(), resident, **one_slice)
        assert isinstance(failure.value.__cause__, InstrumentationError)

    def test_a_lie_served_across_runs_fails_the_audit(self, monkeypatch):
        """What two runs verified is served to a third under an equal
        digest without a comparison; where the tool lied across runs,
        ``-spaudit``'s comparison with serial Pin fails the run."""
        resident = SliceMachine()
        for _ in range(2):
            _report(tool=Fickle(), resident=resident, spworkers=0)
        monkeypatch.setattr(Fickle, "weight", 2)
        report, _, _ = _report(tool=Fickle(), resident=resident,
                               spworkers=0, spaudit=True, spmetrics=True)
        assert report.metrics.counter(
            "pin.jit.instrumentation_checks") == 0
        assert not report.audit.ok


class Unpicklable(ICount2):
    """Declares, and holds state that does not pickle."""

    pure_instrumentation = True

    def __init__(self):
        super().__init__()
        self.scale = lambda count: count


def digest(tool, spfilter=None, areas=0):
    """``tool``'s instrumentation digest once it is set up for a run as
    ``run_superpin`` sets it up: filter first, then ``setup`` — after
    ``areas`` other shared areas, so its own are named otherwise."""
    if spfilter is not None:
        tool.instrument_filter = parse_filter(spfilter)
    sp = SPControl(SuperPinConfig(**CONFIG))
    for _ in range(areas):
        sp.SP_CreateSharedArea([0], 1, AutoMerge.ADD)
    tool.setup(sp)
    return SliceToolContext.from_control(tool, sp).template_id


class TestTheInstrumentationDigest:
    """What keys kept code across runs: the tool's class and its state
    when the template is made, shared areas left out."""

    @pytest.mark.parametrize("name", sorted(TOOLS))
    def test_two_default_tools_of_one_class_are_equal(self, name):
        assert digest(TOOLS[name]()) == digest(TOOLS[name]())
        assert digest(TOOLS[name](), "opcode:mem") \
            == digest(TOOLS[name](), "opcode:mem")

    def test_the_class_changes_it(self):
        assert digest(ICount2()) != digest(TOOLS["icount1"]())
        assert digest(ICount2()) != digest(Fickle())

    def test_the_filter_changes_it(self):
        digests = {digest(ICount2(), spfilter)
                   for spfilter in (None, "opcode:mem", "opcode:branch",
                                    EVERY_INSTRUCTION)}
        assert len(digests) == 4

    def test_a_constructor_argument_changes_it(self):
        dcache, itrace = TOOLS["dcache"], TOOLS["itrace"]
        assert digest(dcache(sets=64)) == digest(dcache(sets=64))
        assert digest(dcache(sets=64)) != digest(dcache(sets=128))
        assert digest(itrace(max_entries=10)) \
            != digest(itrace(max_entries=20))
        assert digest(Weighted(1)) != digest(Weighted(2))

    def test_shared_area_handles_do_not_enter_it(self):
        tool = ICount2()
        want = digest(tool)
        assert isinstance(tool.shared_data, SharedArea)
        tool.shared_data.data[0] = 99
        assert SliceToolContext.from_control(tool, SPControl(
            SuperPinConfig())).template_id == want
        other = ICount2()
        assert digest(other, areas=2) == want
        assert other.shared_data.name != tool.shared_data.name

    @pytest.mark.parametrize("make", [Unpicklable,
                                      lambda: counting(ICount2())],
                             ids=["state", "class"])
    def test_what_does_not_pickle_is_its_runs_alone(self, make):
        """A lambda in the state, or a class its import path does not
        name (a class made in a function): a run-unique id."""
        first, second = digest(make()), digest(make())
        assert first != second
        assert len(first) < len(digest(ICount2()))
