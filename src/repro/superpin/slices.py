"""Slice execution: instrumented re-execution of one timeslice.

A slice is born from a boundary snapshot (COW memory fork + register
snapshot + kernel-layout fork), releases the code-cache bubble, replays
the master's recorded system calls, and runs under full instrumentation
until it detects the next boundary's signature (or program exit, for the
final slice).

**A slice is a context switch.**  Whoever runs slices one after another
— the supervisor's in-process transport, a pool worker for as long as it
lives, a time-travel engine for its landings and scans — owns one
:class:`SliceMachine` (one ``CpuState``, one ``Memory``, one ``PinVM``)
and :func:`run_slice` switches it onto each boundary (``PinVM.switch``):
registers restored in place, the boundary's memory fork adopted, the
engine reset.
Everything a slice is measured by stays per slice — it starts with a
cold code cache in a freshly released bubble and compiles every trace it
runs, so its ``SliceResult`` is bit for bit the one a
newly built machine produces.  That cold cache is a property of the
*virtual* account (the paper's "compilation slowdown", §1); in host time
the machine's JIT keeps the run-independent half of each compile
(:mod:`repro.pin.jit`), so a trace an earlier slice compiled is
re-instrumented, not re-translated — and it remembers how often each
trace ran per compile, so the traces that carry the slices' work are
lowered to generated code, the rest to threaded code.  The slice's own
copy of the tool is a context switch as well: for a tool that declares
its instrumentation pure the machine keeps one resident object of the
tool's class and each slice's copy becomes *its* state
(:meth:`SliceMachine.adopt`), so code compiled against the resident
object's methods stays valid from slice to slice and the JIT serves a
trace's third compile onwards without instrumenting again.  There is no
switch for any of this and no second path: a caller without a machine
gets one made on the spot.
"""

from __future__ import annotations

import copy
import enum
import functools
from dataclasses import dataclass

from ..errors import DivergenceError, RunawaySliceError
from ..isa import abi
from ..machine.cpu import CpuState
from ..machine.memory import Memory
from ..machine.process import Process
from ..obs.metrics import NULL_METRICS
from ..pin.codecache import CodeCache
from ..pin.engine import PinVM, RunState, WarmCache
from ..pin.pintool import declares_pure_instrumentation
from .api import END_SLICE_TOKEN, SliceToolContext, SPControl
from .control import Boundary, Interval
from .signature import (DetectionStats, Lookahead, Signature,
                        SignatureDetector)
from .switches import SuperPinConfig
from .sysrecord import PlaybackHandler

#: The §4.3 runaway guard: a slice may execute ``RUNAWAY_FACTOR`` times
#: its interval's master instructions plus ``RUNAWAY_SLACK`` before it
#: is declared runaway.
RUNAWAY_FACTOR = 4.0
RUNAWAY_SLACK = 10_000

#: Counters of host-side work a slice was spared and of how its code
#: was lowered (``JitStats``), in the order :func:`run_slice` folds
#: them.  Unlike every other slice counter these depend on *placement*
#: — which machine ran which slices before this one, and so what its
#: pool held and its heat had seen; for ``intern_hits``, what the
#: process had compiled before — so they differ between worker counts
#: and must stay out of anything compared across runs.
PLACEMENT_COUNTERS = ("pin.jit.skeleton_reuses",
                      "pin.jit.skeleton_rejects.words",
                      "pin.jit.hot_compiles",
                      "pin.jit.intern_hits",
                      "pin.jit.promotions",
                      "pin.jit.hot_instructions",
                      "pin.jit.loop_builds",
                      "pin.jit.loop_trips",
                      "pin.jit.instrumentation_reuses",
                      "pin.jit.cut_reuses",
                      "pin.jit.instrumentation_checks",
                      "pin.jit.instrumentation_declined",
                      "pin.suppress.summarized_loops",
                      "pin.suppress.loop_entries",
                      "pin.suppress.summarized_calls",
                      "pin.suppress.suppressed_calls")


def placement_counts(jstats) -> tuple[int, ...]:
    """A run's ``JitStats`` in :data:`PLACEMENT_COUNTERS` order."""
    return (jstats.skeleton_reuses, jstats.rejects_words,
            jstats.hot_compiles, jstats.intern_hits,
            jstats.promotions, jstats.hot_instructions, jstats.loop_builds,
            jstats.loop_trips,
            jstats.instrumentation_reuses, jstats.cut_reuses,
            jstats.instrumentation_checks,
            jstats.instrumentation_declined,
            jstats.summarized_loops, jstats.loop_entries,
            jstats.summarized_calls, jstats.suppressed_calls)


def fold_engine_counters(vm, metrics) -> None:
    """Fold what ``vm`` kept off its dispatch loop — ``CacheStats``,
    ``JitStats``, ``InstrumentationStats`` — into ``metrics`` once, at
    the end of its run (a slice's, or serial Pin's)."""
    cache, istats = vm.cache.stats, vm.instr_stats
    metrics.inc("pin.cache.lookups", cache.lookups)
    metrics.inc("pin.cache.hits", cache.hits)
    metrics.inc("pin.cache.linked_dispatches", cache.linked_dispatches)
    # (pin.cache.reinserts is counted live inside CodeCache.insert,
    # like pin.cache.compiles.)
    for name, value in zip(PLACEMENT_COUNTERS,
                           placement_counts(vm.jit_stats)):
        metrics.inc(name, value)
    metrics.inc("pin.filter.fastpath_traces", istats.fastpath_traces)
    metrics.inc("pin.filter.skipped_callbacks", istats.skipped_callbacks)


class SliceEnd(enum.Enum):
    """How a slice terminated."""

    MATCHED = "matched"    # signature detection fired (the normal case)
    EXIT = "exit"          # program exit (normal only for the last slice)
    TOOL_END = "tool_end"  # the tool called SP_EndSlice
    DIVERGED = "diverged"  # reached exit/mismatch where it should not
    RUNAWAY = "runaway"    # never found its signature within budget


@dataclass
class SliceResult:
    """Functional and statistical outcome of one slice."""

    index: int
    reason: SliceEnd
    instructions: int
    expected_instructions: int
    traces_executed: int
    analysis_calls: int
    inline_checks: int
    compiles: int
    compiled_ins: int
    cache_hit_rate: float
    cache_allocated_words: int
    replayed_syscalls: int
    emulated_syscalls: int
    cow_faults: int
    detection: DetectionStats | None
    tool_ctx: SliceToolContext
    exit_code: int = 0
    #: Every trace this slice compiled, as ``(address, num_ins)`` in
    #: compile order: the input of the warm account and of §8's
    #: shared-code-cache attribution.
    compile_log: tuple[tuple[int, int], ...] = ()
    #: Trace transitions that chained through a direct link instead of
    #: the dispatcher dict (informational).
    linked_dispatches: int = 0
    #: Distinct trace heads of ``compile_log`` that slice 0 (or a
    #: trace-store entry) had compiled before: a view over the
    #: run's compile logs, filled in slice order once the slices have
    #: landed (:func:`~repro.superpin.warmstore.count_warm_starts`) —
    #: still counted in ``compiles``, and 0 on a bare ``run_slice``.
    warm_starts: int = 0
    #: Architectural end state, for the differential audit: the pc the
    #: slice stopped at and a fingerprint of its final register file.
    end_pc: int = -1
    end_cpu_hash: str = ""
    #: Digest of the syscall records the slice actually consumed, in
    #: consumption order (see sysrecord.StreamDigest).
    syscall_digest: str = ""
    #: Recorded calls still queued when the slice ended.  Nonzero on a
    #: signature-matched slice means replay records were dropped —
    #: counted as ``superpin.sysrecord.leftover`` and flagged by the
    #: audit.
    leftover_records: int = 0
    #: False when sampling (``-spsample``) skipped this slice's tool
    #: activation: the slice ran the engine fast path and contributed
    #: nothing to the merged tool results.
    instrumented: bool = True
    #: Traces compiled with every tool callback filtered out
    #: (``-spfilter``): the uninstrumented fast path.
    fastpath_traces: int = 0
    #: Tool trace-callback invocations skipped by the filter.
    skipped_callbacks: int = 0
    #: Always 0: read by bench/layers.py's ``engine.tc2_*`` rows only
    #: (the second translation cache was removed).
    tc2_dispatches: int = 0
    tc2_mispredicts: int = 0

    @property
    def exact(self) -> bool:
        """True when the slice covered exactly the master's interval."""
        return (self.instructions == self.expected_instructions
                and self.reason in (SliceEnd.MATCHED, SliceEnd.EXIT))


def boundary_handler(boundary: Boundary,
                     interval: Interval) -> PlaybackHandler:
    """The single-use syscall playback for one execution of ``interval``.

    Kernel layout (with the bubble released so code-cache allocations
    land there, §4.1), thread scheduler and record list are fresh per
    call: :class:`PlaybackHandler`'s cursor contract is single-use, and
    sharing the interval's own list would let a re-execution of the
    same interval (retry, time travel) observe a mutation made through
    the handler's view.
    """
    if boundary.is_hole:
        raise DivergenceError(
            f"slice {interval.index} has no boundary snapshot (degraded-"
            f"slice placeholder) — it cannot be executed, only skipped")
    layout = boundary.layout_fork.fork()
    layout.do_munmap(abi.BUBBLE_BASE, abi.BUBBLE_WORDS)
    manager = (boundary.thread_fork.fork()
               if boundary.thread_fork is not None else None)
    return PlaybackHandler(list(interval.records), layout,
                           interval.index, thread_manager=manager)


class SliceMachine:
    """One resident ``CpuState`` + ``Memory`` + ``PinVM`` that slices
    run on one after another.

    Owned by whoever executes slices sequentially and never shared
    between two of them (two concurrent runs in one process own two
    machines): a supervisor for its in-process attempts, a pool worker
    for as long as it lives, a time-travel engine
    (:class:`~repro.superpin.timetravel.TimeTravelEngine`) for every
    state it lands on or scans from, or — the one owner that outlives a
    run — the serve daemon, which lends it to one job at a time as that
    job's ``resident`` (:class:`repro.serve.server.Residents`).  Its
    identity is what compiled code closes over, so the engine's JIT may
    keep compiled work and execution counts from slice to slice, and
    from run to run (``vm.jit.pool``, ``vm.jit.heat``); its *state*
    belongs to the slice it was last switched onto, and every
    :meth:`switch` replaces all of it — a slice that raised mid-run
    leaves nothing the next one can see.  What crosses a run is what is
    nobody's, or what a check re-earns: every reuse is still decided
    trace by trace (``Jit._refusal``), and kept *instrumented* code
    crosses a run under the tool's instrumentation digest
    (:func:`~repro.superpin.api.instrumentation_digest`), which
    :meth:`adopt` hands the JIT: a later run or daemon job under an
    equal digest is served what an earlier one verified from its first
    compile, and under another digest the first compile of a trace is
    the comparing one.
    """

    def __init__(self):
        self.process = Process(CpuState(), Memory(), None)
        self.vm: PinVM | None = None
        #: The resident tool (see :meth:`adopt`) and the tool class it
        #: serves.
        self._resident = None
        self._serving: type | None = None

    @functools.cached_property
    def lookahead(self) -> Lookahead:
        """The signing half of a run's resident: the machine its master
        stream records boundary signatures on.  Made at first use — a
        pool worker's machine never signs a boundary."""
        return Lookahead()

    @functools.cached_property
    def master(self) -> PinVM:
        """The executing half: the engine a run's master runs on — serial
        Pin's engine with no tool — switched onto each run's freshly
        loaded image (:meth:`ControlProcess.cuts
        <repro.superpin.control.ControlProcess.cuts>`).  What it keeps
        from run to run is what serial Pin's engine keeps, its JIT's
        pool and heat: a loop earns generated code over the engine's
        life, and kept code is reused only trace by trace against the
        words now loaded (``Jit._refusal``) — another program on the
        same engine is slow, never wrong.  Made at first use, like
        :attr:`lookahead`."""
        vm = PinVM(Process(CpuState(), Memory(), None))
        # It attaches nothing, so a trace's second compile verifies
        # trivially and its third is served.
        vm.jit.retain_for = vm
        return vm

    def switch(self, boundary: Boundary, interval: Interval,
               metrics=NULL_METRICS,
               state: tuple | None = None,
               warm: WarmCache | None = None) -> PinVM:
        """Context-switch onto a state and return the engine, reset and
        ready to be instrumented.

        A state is ``(cpu snapshot, memory to adopt, playback
        handler)``.  ``boundary`` and ``interval`` name the one a slice
        starts from — the boundary's registers and memory fork, and
        :func:`boundary_handler`'s single-use playback — and time travel
        resumes a micro-checkpoint by passing ``state`` itself (and None
        for the two).  The memory is adopted — the run is on that fork's
        own pages, charged exactly the COW faults it would be charged
        running on the fork itself — and is spent afterwards, like any
        executed boundary.  The engine starts what every slice-shaped
        run starts from: a cold code cache in the bubble — serial Pin's
        engine, but for the signature check the caller adds — unless
        the caller hands it ``warm``, the cache it keeps from state to
        state (a time-travel session's landings, which have no virtual
        account to charge compiles to)."""
        cpu_snapshot, mem, handler = state or (
            boundary.cpu_snapshot, boundary.mem_fork,
            boundary_handler(boundary, interval))
        vm = self.vm
        if vm is None:
            vm = self.vm = PinVM(self.process)
        if warm is None:
            vm.switch(cpu_snapshot, mem, handler,
                      code_cache=CodeCache(abi.BUBBLE_BASE, abi.BUBBLE_WORDS,
                                           metrics=metrics),
                      metrics=metrics)
        else:
            vm.switch(cpu_snapshot, mem, handler, warm=warm,
                      metrics=metrics)
        vm.jit.retain_for = None
        return vm

    def adopt(self, ctx: SliceToolContext):
        """The tool object to activate for the slice the machine was
        just switched onto: ``ctx.tool``, the slice's own copy — or,
        for a tool that declares its instrumentation pure, the
        machine's resident object of the same class *adopting* that
        copy's state.

        Adoption is ``Memory.adopt`` for tools: ``resident.__dict__``
        becomes ``ctx.tool.__dict__`` itself — one state under two
        names, nothing copied, no indirection on any analysis call — so
        what the slice's routines do through the resident object is
        done to the copy ``SliceResult.tool_ctx`` carries, and the next
        adoption leaves that copy behind for good.  Compiled code binds
        the resident object's methods, which is what lets the JIT keep
        it (``Jit.retain_for``).  One machine serves one tool class at
        a time: anything kept for another is dropped first.  Every
        template names its instrumentation digest to the JIT
        (``Jit.template``): the next run's, or a daemon job's, with an
        equal digest is served what this one verified, and one with
        another — another ``-spfilter``, another constructor argument —
        keeps the resident object, and so the code bound to it, but is
        compared before it reuses.  A context without a template id,
        and a tool class with ``__slots__`` (state a ``__dict__`` does
        not hold), are activated as they are.
        """
        tool = ctx.tool
        klass = type(tool)
        if (ctx.template_id is None
                or not declares_pure_instrumentation(tool)
                or any(vars(base).get("__slots__")
                       for base in klass.__mro__)):
            return tool
        jit = self.vm.jit
        if klass is not self._serving:
            self._serving = klass
            self._resident = object.__new__(klass)
            jit.forget_instrumentation()
        resident = self._resident
        resident.__dict__ = tool.__dict__
        jit.retain_for = resident
        jit.template = ctx.template_id
        return resident


def run_slice(boundary: Boundary, interval: Interval,
              end_signature: Signature | None,
              template: SliceToolContext, sp: SPControl,
              config: SuperPinConfig, metrics=NULL_METRICS,
              machine: SliceMachine | None = None) -> SliceResult:
    """Execute slice ``interval.index`` and return its result.

    ``end_signature`` is the next boundary's signature (None for the
    final slice, which runs to program exit instead).  ``metrics``
    receives the slice's observability counters (JIT compiles live,
    cache hit totals folded at slice end) — a job-local registry whose
    snapshot the control process merges.

    ``machine`` is the caller's resident :class:`SliceMachine`; one who
    runs a single slice may leave it out.
    """
    index = interval.index
    if machine is None:
        machine = SliceMachine()

    # 1-2. Context switch: registers, COW memory and kernel layout of
    #    the boundary; the engine reset, with its own cold code cache in
    #    the bubble.
    vm = machine.switch(boundary, interval, metrics)
    process = vm.process
    handler = process.syscall_handler
    cow_mark = process.mem.cow_faults
    cache = vm.cache

    # 3. Fork the tool context and attach instrumentation.  Sampling
    #    (-spsample N) activates the tool on every Nth slice only; the
    #    other slices run the tool-free fast path (detection and
    #    instruction accounting are unaffected).
    instrumented = config.spsample == 0 or index % config.spsample == 0
    ctx: SliceToolContext = copy.deepcopy(template)
    if instrumented:
        machine.adopt(ctx).activate(vm)
    detector: SignatureDetector | None = None
    if end_signature is not None:
        detector = SignatureDetector(end_signature, vm)
        detector.attach()

    # 4. Slice-begin callbacks (reset local statistics; paper Figure 2).
    if ctx.reset_fun is not None:
        ctx.reset_fun(index)
    for fun, value in ctx.begin_functions:
        fun(index, value)

    # 5. Run.
    budget = int(interval.instructions * RUNAWAY_FACTOR + RUNAWAY_SLACK)
    sp._in_slice = True
    try:
        result = vm.run(max_instructions=budget)
    finally:
        sp._in_slice = False

    # 6. Classify the ending.
    reason = _classify(result, detector, end_signature, index)
    if reason is SliceEnd.RUNAWAY:
        raise RunawaySliceError(
            f"slice {index} executed {result.instructions} instructions "
            f"(master interval was {interval.instructions}) without "
            f"detecting its signature at pc={end_signature.pc:#x}"
            if end_signature else
            f"slice {index} exceeded its budget before program exit")

    result_record = SliceResult(
        index=index,
        reason=reason,
        instructions=result.instructions,
        expected_instructions=interval.instructions,
        traces_executed=result.traces_executed,
        analysis_calls=result.analysis_calls,
        inline_checks=result.inline_checks,
        compiles=cache.stats.compiles,
        compiled_ins=cache.stats.compiled_ins,
        cache_hit_rate=cache.stats.hit_rate,
        cache_allocated_words=cache.stats.allocated_words,
        replayed_syscalls=handler.replayed,
        emulated_syscalls=handler.emulated,
        cow_faults=process.mem.cow_faults - cow_mark,
        detection=detector.finish() if detector else None,
        tool_ctx=ctx,
        exit_code=result.exit_code,
        compile_log=tuple(cache.insert_log),
        linked_dispatches=cache.stats.linked_dispatches,
        end_pc=vm.cpu.pc,
        end_cpu_hash=vm.cpu.fingerprint(),
        syscall_digest=handler.stream_digest,
        leftover_records=handler.remaining,
        instrumented=instrumented,
        fastpath_traces=vm.instr_stats.fastpath_traces,
        skipped_callbacks=vm.instr_stats.skipped_callbacks,
    )
    if metrics.enabled:
        # Hot-path counters are folded once per slice from CacheStats
        # rather than incremented per dispatch.
        metrics.inc("superpin.slices.completed")
        metrics.inc("superpin.slices.instructions",
                    result_record.instructions)
        metrics.inc("superpin.slices.cow_faults", result_record.cow_faults)
        metrics.inc("superpin.slices.replayed_syscalls", handler.replayed)
        metrics.inc("superpin.slices.emulated_syscalls", handler.emulated)
        if result_record.leftover_records:
            metrics.inc("superpin.sysrecord.leftover",
                        result_record.leftover_records)
        fold_engine_counters(vm, metrics)
        if not instrumented:
            metrics.inc("superpin.sample.skipped_slices")
        metrics.observe("superpin.slice.instructions",
                        result_record.instructions)
    return result_record


def _classify(result, detector, end_signature, index: int) -> SliceEnd:
    if result.state is RunState.STOPPED:
        if result.stop_token is detector:
            return SliceEnd.MATCHED
        if result.stop_token == END_SLICE_TOKEN:
            return SliceEnd.TOOL_END
        raise DivergenceError(
            f"slice {index} stopped with unexpected token "
            f"{result.stop_token!r}")
    if result.state is RunState.EXIT:
        return SliceEnd.EXIT if end_signature is None else SliceEnd.DIVERGED
    return SliceEnd.RUNAWAY
