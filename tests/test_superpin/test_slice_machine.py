"""A slice is a context switch onto a resident machine.

One oracle, the fresh machine: whatever runs on a ``SliceMachine`` that
ran other slices before — in any order, of any program, to any end —
must produce the ``SliceResult`` a newly built machine produces, field
by field, and the merged tool results with it.  Only host-side counters
(``PLACEMENT_COUNTERS``) may tell the two apart.
"""

import dataclasses
import marshal
import threading

import pytest

from repro.errors import DivergenceError, RunawaySliceError
from repro.isa import assemble
from repro.machine import Kernel
from repro.pin import IARG_END, IARG_PTR, IPOINT_BEFORE, Pintool
from repro.pin.filter import parse_filter
from repro.superpin import (ControlProcess, FaultPlan, merge_slices,
                            record_signatures, run_superpin, SliceEnd,
                            SliceToolContext, SPControl, SuperPinConfig)
from repro.superpin.control import Boundary
from repro.superpin.parallel import run_slice_job, slice_job
from repro.superpin.slices import (PLACEMENT_COUNTERS, run_slice,
                                   SliceMachine)
from repro.superpin.warmstore import WarmStore
from repro.tools import TOOLS
from tests.conftest import MULTISLICE, virtual_counters
from tests.test_superpin.test_threads_superpin import THREADED

BACKENDS = ["closure", "source"]
CONFIG = dict(spmsec=500, clock_hz=10_000)


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
    up holding that slice's own count."""
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
    """Slice order reversed behind the pilot (slice 0 runs first on any
    transport: its exports are the warm payload of all the others)."""
    return [0, *range(n - 1, 0, -1)]


class SlicePhase:
    """The slice phase driven by hand, one :func:`run_slice_job` per
    slice, so a test chooses the order and the machine of each.  A
    boundary executes once, so every instance runs its own master."""

    def __init__(self, source, tool, **overrides):
        self.config = config = SuperPinConfig(**{**CONFIG, **overrides})
        program = assemble(source)
        if config.spfilter is not None:
            tool.instrument_filter = parse_filter(config.spfilter, program)
        self.tool = counting(tool)
        self.sp = SPControl(config)
        tool.setup(self.sp)
        self.template = SliceToolContext.from_control(tool, self.sp)
        self.timeline = ControlProcess(program, config,
                                       kernel=Kernel(seed=42)).run()
        self.signatures = record_signatures(self.timeline, config)
        self.n = len(self.timeline.intervals)
        self.store = WarmStore()
        self.payload = None

    def run(self, k, machine=None, metrics_out=None):
        job = slice_job(self.timeline, self.signatures, self.template,
                        self.sp, self.config, k, warm=self.payload,
                        export_warm=(k == 0))
        result, _, _, snapshot = run_slice_job(job, machine)
        if metrics_out is not None:
            metrics_out.append(snapshot)
        return result

    def run_all(self, order=forwards, machine_for=lambda k: None):
        """Every slice once; returns what the rest of the pipeline would
        see: per-slice fields (exports before the fold strips them),
        per-slice callback counts, and the merged tool report."""
        images = {}
        results = {}
        for k in order(self.n):
            result = results[k] = self.run(k, machine_for(k))
            images[k] = slice_image(result)
            if k == 0:
                self.payload = self.store.fold(result)
        ordered = [results[k] for k in range(self.n)]
        merge_slices(self.sp, ordered)
        self.tool.fini()
        return ([images[k] for k in range(self.n)], self.tool.report())


def slice_image(result):
    """Every ``SliceResult`` field, with the tool context reduced to the
    slice's own trace-callback count."""
    image = {f.name: getattr(result, f.name)
             for f in dataclasses.fields(result) if f.name != "tool_ctx"}
    image["callbacks_seen"] = result.tool_ctx.tool.callbacks_seen
    # ``marshal`` flags objects other things hold a reference to, so the
    # bytes of one code object vary with who else keeps it alive (here:
    # the pool); what they decode to is what ships.
    image["warm_exports"] = tuple(
        dataclasses.replace(entry, code=marshal.loads(entry.code))
        if entry.code is not None else entry
        for entry in result.warm_exports)
    return image


def assert_resident_equals_fresh(source, make_tool, **overrides):
    fresh = SlicePhase(source, make_tool(), **overrides).run_all()
    assert len(fresh[0]) >= 3
    for order in (forwards, backwards):
        machine = SliceMachine()
        resident = SlicePhase(source, make_tool(), **overrides).run_all(
            order, lambda k: machine)
        assert resident == fresh, order.__name__
        assert machine.vm.jit.pool


class TestParityWithAFreshMachine:
    @pytest.mark.parametrize("spfilter", [None, "opcode:mem"])
    @pytest.mark.parametrize("spsuppress", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("tool", list(TOOL_FACTORIES))
    def test_matrix(self, tool, backend, spsuppress, spfilter):
        assert_resident_equals_fresh(
            MULTISLICE, TOOL_FACTORIES[tool], jit_backend=backend,
            spsuppress=spsuppress, spfilter=spfilter)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sampled_slices(self, backend):
        """``-spsample 2``: tool-free and instrumented slices alternate
        on one machine, so every reuse changes instrumentation."""
        assert_resident_equals_fresh(MULTISLICE, TOOLS["icount1"],
                                     jit_backend=backend, spsample=2)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cooperative_threads(self, backend):
        """Slices fork mid-thread and context-switch *inside* the guest:
        the scheduler rewrites the resident register list in place."""
        assert_resident_equals_fresh(THREADED, TOOLS["icount2"],
                                     jit_backend=backend, spmsec=1000)

    def test_no_link_no_tc2_no_warm(self):
        assert_resident_equals_fresh(
            MULTISLICE, TOOLS["icount2"], splinktraces=False,
            spwarmcache=False)

    def test_reuse_is_observed_and_host_side_only(self):
        phase = SlicePhase(MULTISLICE, TOOLS["icount2"](), spmetrics=True)
        machine = SliceMachine()
        snapshots = []
        for k in range(phase.n):
            result = phase.run(k, machine, snapshots)
            if k == 0:
                phase.payload = phase.store.fold(result)
        reuses = [s["counters"]["pin.jit.skeleton_reuses"]
                  for s in snapshots]
        assert reuses[0] == 0 and sum(reuses) > 0
        assert all(set(PLACEMENT_COUNTERS) <= set(s["counters"])
                   for s in snapshots)
        assert (snapshots[1]["histograms"]["pin.jit.compile_seconds"]
                ["count"]) == snapshots[1]["counters"]["pin.cache.compiles"]


#: ``f`` runs in phase A, is rewritten, and runs again in phase C.  No
#: engine here invalidates cached code on a guest write, so the guest
#: keeps every code cache out of it: the filler B is longer than a
#: timeslice (the slice that performs the rewrite starts inside it and
#: has never cached ``f`` itself), and the call loops stay below the
#: master's hot-loop threshold (it interprets them).  Engines agree on
#: this guest; only a pool that trusted its old decode of ``f`` would
#: not.
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


class TestPoolValidity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_master_rewrote_an_instruction_between_boundaries(self,
                                                              backend):
        assert_resident_equals_fresh(REWRITTEN, TOOLS["icount1"],
                                     jit_backend=backend)
        phase = SlicePhase(REWRITTEN, TOOLS["icount1"](),
                           jit_backend=backend, spmetrics=True)
        assert phase.timeline.exit_code == 500 * (1 + 5)
        if backend == "closure":
            machine, snapshots = SliceMachine(), []
            for k in range(phase.n):
                phase.run(k, machine, snapshots)
            assert sum(s["counters"]["pin.jit.skeleton_rejects.words"]
                       for s in snapshots) > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_programs_back_to_back(self, backend):
        machine = SliceMachine()
        for source in (MULTISLICE, OTHER, MULTISLICE):
            fresh = SlicePhase(source, TOOLS["icount2"](),
                               jit_backend=backend).run_all()
            resident = SlicePhase(source, TOOLS["icount2"](),
                                  jit_backend=backend).run_all(
                machine_for=lambda k: machine)
            assert resident == fresh

    def test_backends_alternating_on_one_machine(self):
        machine = SliceMachine()
        for backend in ("closure", "source", "closure"):
            fresh = SlicePhase(MULTISLICE, TOOLS["icount2"](),
                               jit_backend=backend).run_all()
            assert SlicePhase(MULTISLICE, TOOLS["icount2"](),
                              jit_backend=backend).run_all(
                machine_for=lambda k: machine) == fresh

    def test_detection_stays_at_a_trace_head(self):
        """A trace pooled by one slice that spans a later slice's end
        signature is cut again there (``forced_cut`` rejects), and the
        match still stops the slice at exactly its boundary."""
        phase = SlicePhase(MULTISLICE, TOOLS["icount2"](), spmetrics=True)
        machine, snapshots = SliceMachine(), []
        results = [phase.run(k, machine, snapshots)
                   for k in range(phase.n)]
        assert sum(s["counters"]["pin.jit.skeleton_rejects.forced_cut"]
                   for s in snapshots) > 0
        for result, signature in zip(results, phase.signatures):
            assert result.reason is SliceEnd.MATCHED and result.exact
            assert result.end_pc == signature.pc
            assert (signature.pc, ) <= tuple(
                address for address, _ in result.compile_log
                if address == signature.pc)


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
        with pytest.raises(RunawaySliceError):
            run_slice(phase.timeline.boundaries[1],
                      phase.timeline.intervals[1], phase.signatures[2],
                      phase.template, phase.sp, dataclasses.replace(
                          phase.config, slice_runaway_factor=0.5,
                          slice_runaway_slack=0), machine=machine)
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


def _report(source=MULTISLICE, tool="icount2", **overrides):
    tool = TOOLS[tool]()
    report = run_superpin(assemble(source), tool,
                          SuperPinConfig(**{**CONFIG, **overrides}),
                          kernel=Kernel(seed=42))
    fields = [{f.name: getattr(s, f.name) for f in dataclasses.fields(s)
               if f.name != "tool_ctx"} for s in report.slices]
    return report, fields, tool.report()


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

    @pytest.mark.parametrize("spworkers", [0, 2])
    @pytest.mark.parametrize("policy", ["retry", "degrade"])
    def test_retried_slice_lands_on_a_used_machine(self, clean, policy,
                                                   spworkers):
        report, fields, tool_report = _report(
            spworkers=spworkers, spfaults=policy, spmetrics=True,
            slice_retry_backoff=0.0,
            fault_plan=FaultPlan.parse("crash@1,corrupt@2,crash@3:2"))
        # (A crashed worker takes its in-flight neighbours down with it,
        # so the pool transport may recover more than the three named.)
        assert report.supervision_summary()["recovered_slices"] >= 3
        assert not report.degraded_slices
        assert (fields, tool_report) == clean[1:]
        assert report.metrics.counter("pin.jit.skeleton_reuses") > 0

    @pytest.mark.parametrize("overrides", [
        dict(spworkers=0), dict(spworkers=2),
        dict(spworkers=0, jit_backend="source", spsuppress=True),
        dict(spworkers=2, spfaults="retry",
             fault_plan=FaultPlan.parse("crash@1")),
    ], ids=["w0", "w2", "w0-source-suppress", "w2-retry"])
    def test_audit_is_clean(self, overrides):
        report, _, _ = _report(spaudit=True, **overrides)
        assert report.audit.ok, report.audit.summary()

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
