"""The control process: master supervision and slice-boundary policy.

SuperPin runs the original application at full speed under a monitor (the
paper uses ptrace; we use the engine's stop-after-syscall mode).  "Full
speed" here is serial Pin's engine with no tool: a :class:`PinVM` whose
JIT lowers what the run has proved hot exactly as it does for serial Pin
(``Jit.heat``, mid-run promotion, loop forms), run with exact budgets.
The master is Pin running the application uninstrumented, as a slice is
Pin running it instrumented; the interpreter is only the oracle the
audit and the tests hold it against.
After every system call the control process either records the call for
playback or forces a new timeslice; independently, a timer bounds each
timeslice (paper §4.2–§4.3).  At every boundary it captures a slice
snapshot: a copy-on-write fork of the master's address space, the
register file, and a fork of the kernel's layout state.

The control phase is purely *functional*: it produces a
:class:`MasterTimeline` describing what happened and when (in instruction
time).  The discrete-event scheduler later replays this timeline against
a machine model to produce wall-clock figures.

The master is a **generator** (:meth:`ControlProcess.cuts`): it yields
each boundary the moment it is cut and then sleeps until asked for the
next, which is how the runtime overlaps it with the slices in host time
(the paper's Figure 1: a slice is forked while the master keeps
running).  ``ControlProcess.timeline`` is "what has been yielded so
far": after the yield of boundary *k*, ``boundaries[:k + 1]`` and
``intervals[:k]`` are final and never touched again; the totals, the
final architectural state and :class:`MasterStats` are filled when the
generator is exhausted.  :meth:`ControlProcess.run` is the drained form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ReproError
from ..isa import abi
from ..machine.kernel import (EMULATE, FORCE_SLICE, Kernel, MemLayout,
                              REPLAY, SyscallRecord, THREAD)
from ..machine.threads import ThreadManager
from ..machine.memory import Memory
from ..machine.process import load_program, Process
from ..isa.program import Program
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER
from ..pin.engine import PinVM, RunState
from .switches import SuperPinConfig
from .sysrecord import RecordedSyscall, StreamDigest


class BoundaryReason(enum.Enum):
    """Why a slice boundary was created."""

    START = "start"              # program entry (first slice)
    TIMEOUT = "timeout"          # timeslice timer expired (§4.3)
    SYSCALL_FORCE = "syscall"    # unsure-effects syscall forced a slice
    SYSREC_FULL = "sysrec_full"  # -spsysrecs record budget exhausted


@dataclass
class Boundary:
    """A snapshot of the master at a slice boundary."""

    index: int
    reason: BoundaryReason
    cpu_snapshot: tuple[int, tuple[int, ...]]
    mem_fork: Memory
    layout_fork: MemLayout
    #: Forked thread-scheduler state (all thread contexts).
    thread_fork: "ThreadManager | None"
    #: Master instructions retired when this boundary was taken.
    master_instructions: int
    #: Master memory pages resident at fork time (fork-cost model input).
    resident_pages: int

    @classmethod
    def hole(cls, index: int, master_instructions: int) -> "Boundary":
        """The explicit placeholder for an unloadable slice spec.

        A damaged recording section tolerated under ``-spfaults
        degrade`` still needs a timeline entry so slice indexing and
        icount accounting line up; the hole carries the real
        ``master_instructions`` (which lives in the verified meta
        section) but no snapshot state.  Every consumer must check
        :attr:`is_hole` before touching the snapshot — the register
        sentinel deliberately cannot fingerprint (``fingerprint_state``
        rejects a negative pc), so a hole that leaks into checkpoint
        comparison fails loudly instead of masquerading as a real
        boundary.
        """
        return cls(index=index, reason=BoundaryReason.START,
                   cpu_snapshot=(-1, ()), mem_fork=None,
                   layout_fork=None, thread_fork=None,
                   master_instructions=master_instructions,
                   resident_pages=0)

    @property
    def is_hole(self) -> bool:
        """True for a degraded-slice placeholder (no usable snapshot).

        Derived from the absence of the memory fork rather than stored,
        so boundaries unpickled from older recordings classify correctly
        — a real boundary always carries its COW fork.
        """
        return self.mem_fork is None


@dataclass
class Interval:
    """The master's execution between boundary ``index`` and the next.

    Slice ``index`` re-executes exactly this span under instrumentation.
    """

    index: int
    records: list[RecordedSyscall] = field(default_factory=list)
    instructions: int = 0
    syscalls: int = 0
    replay_records: int = 0
    emulate_records: int = 0
    #: COW page copies charged to the master during this interval.
    master_cow_faults: int = 0
    end_reason: BoundaryReason | None = None
    #: True for the final interval (ends at program exit).
    is_last: bool = False
    #: Digest of this interval's records *as they were recorded*
    #: (``-spaudit`` only; empty otherwise).  The audit cross-checks it
    #: against the record list and the reference run, so a record
    #: mutated after recording is distinguishable from one recorded
    #: wrong.
    stream_digest: str = ""


@dataclass
class MasterTimeline:
    """Everything the control process observed about the master run."""

    boundaries: list[Boundary]
    intervals: list[Interval]
    exit_code: int
    total_instructions: int
    total_syscalls: int
    kernel: Kernel
    #: Final architectural state of the master (for recording artifacts,
    #: whose replays must be auditable without re-running the master).
    final_pc: int = -1
    final_cpu_hash: str = ""
    #: What the master's engine did; None on a timeline built from a
    #: recording (no master ran).
    master: "MasterStats | None" = None

    @property
    def num_slices(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class MasterStats:
    """What the master's engine did in one control phase."""

    #: Master instructions retired.
    instructions: int
    #: Of those, retired in generated code (``JitStats.hot_instructions``).
    jit_instructions: int
    #: Traces compiled for the master, and their guest instructions.
    compiled_traces: int
    compiled_ins: int
    #: Trace executions that ran inside a trace's loop form
    #: (``JitStats.loop_trips``).
    loop_trips: int
    #: Cached traces evicted because the guest wrote a word they decoded
    #: (``CacheStats.invalidations``: self-modifying code).
    code_invalidations: int

    @classmethod
    def of(cls, vm: PinVM) -> "MasterStats":
        jit, cache = vm.jit_stats, vm.cache.stats
        return cls(instructions=vm.total_instructions,
                   jit_instructions=jit.hot_instructions,
                   compiled_traces=cache.compiles,
                   compiled_ins=cache.compiled_ins,
                   loop_trips=jit.loop_trips,
                   code_invalidations=cache.invalidations)

    def counters(self) -> dict[str, int]:
        """The ``superpin.control.master.*`` counters / span args."""
        return {"jit_instructions": self.jit_instructions,
                "compiled_ins": self.compiled_ins,
                "loop_trips": self.loop_trips,
                "code_invalidations": self.code_invalidations}

    def summary(self) -> str:
        share = (self.jit_instructions / self.instructions
                 if self.instructions else 0.0)
        return (f"{share:.0%} of {self.instructions:,} instructions in "
                f"generated code; {self.compiled_traces} traces, "
                f"{self.loop_trips:,} trace executions inside loop forms")


#: The shortest timeslice adaptive throttling (``-spexpected``) shrinks
#: to, in virtual milliseconds.
MIN_TIMESLICE_MSEC = 50


class ControlProcess:
    """Supervises the uninstrumented master and cuts it into timeslices."""

    def __init__(self, program: Program, config: SuperPinConfig,
                 kernel: Kernel | None = None,
                 tracer=NULL_TRACER, metrics=NULL_METRICS,
                 master: PinVM | None = None):
        self.program = program
        self.config = config
        self.kernel = kernel if kernel is not None else Kernel()
        #: Observability hooks (repro.obs): timeslice cuts become trace
        #: instants, syscall records and cut reasons become counters.
        self.tracer = tracer
        self.metrics = metrics
        self.process: Process = load_program(self.program, self.kernel)
        #: The caller's resident engine to run the master on (a
        #: :class:`~repro.superpin.slices.SliceMachine`'s ``master``; it
        #: is switched onto the loaded image when :meth:`cuts` starts),
        #: or None: one is made for the run.
        self.master = master
        self._reserve_bubble()
        self._record_counter = 0
        #: Incremental at-record-time stream digest.  Sealed per interval
        #: for the audit's cross-check and for recording artifacts (whose
        #: replays audit against the digests instead of a live master).
        self._digest = (StreamDigest()
                        if (config.spaudit or config.sprecord) else None)
        #: What :meth:`cuts` has yielded so far; final at its exhaustion.
        self.timeline = MasterTimeline(
            boundaries=[], intervals=[], exit_code=0, total_instructions=0,
            total_syscalls=0, kernel=self.kernel)

    def _reserve_bubble(self) -> None:
        """Reserve the code-cache bubble before the application runs (§4.1).

        The reservation keeps application ``mmap`` results identical
        between master and slices even though slices later release the
        bubble for their own code caches.
        """
        base = self.kernel.layout.do_mmap(abi.BUBBLE_BASE, abi.BUBBLE_WORDS)
        if base != abi.BUBBLE_BASE:
            raise ReproError(
                f"bubble reservation landed at {base:#x}, expected "
                f"{abi.BUBBLE_BASE:#x}")

    # -- main loop ------------------------------------------------------------

    def run(self) -> MasterTimeline:
        """Run the master to completion, producing the timeline."""
        for _ in self.cuts():
            pass
        return self.timeline

    def cuts(self):
        """Run the master, yielding each boundary as it is cut.

        The start boundary is taken, not cut: it is on the timeline
        before the first yield.  A consumer that stops asking (closes the
        generator) stops the master where it stands; the timeline then
        holds a prefix of the full run's boundaries and intervals and no
        totals.
        """
        master = self.master
        if master is None:
            master = PinVM(self.process)
        else:
            # Switched onto the loaded image (which is spent).
            image = self.process
            master.switch(image.cpu.snapshot(), image.mem,
                          image.syscall_handler, image.thread_manager)
            self.process = master.process
        process = self.process
        outcomes: list = []
        master.add_syscall_observer(outcomes.append)

        timeline = self.timeline
        boundaries, intervals = timeline.boundaries, timeline.intervals
        boundaries.append(self._take_boundary(0, BoundaryReason.START, 0))
        current = Interval(index=0)
        budget = self._next_budget(0)
        cow_mark = process.mem.cow_faults

        while True:
            result = master.run(budget, exact_budget=True,
                                stop_after_syscall=True)
            outcome = outcomes.pop() if outcomes else None
            current.instructions += result.instructions
            budget -= result.instructions

            if result.state is RunState.EXIT:
                if outcome is not None:
                    # The exit syscall: the final slice replays it to stop.
                    current.syscalls += 1
                    self._append_record(current, outcome.record)
                current.is_last = True
                current.master_cow_faults = (process.mem.cow_faults
                                             - cow_mark)
                self._seal_interval(current)
                intervals.append(current)
                break

            if result.state is RunState.SYSCALL:
                record = outcome.record
                current.syscalls += 1
                boundary_reason = self._record_or_force(current, record)
                if boundary_reason is None:
                    if budget > 0:
                        continue
                    # The recorded syscall retired the last budgeted
                    # instruction: cut the timeslice here rather than
                    # re-entering the engine with a zero budget
                    # (master.run(0) stops instantly with BUDGET/0, so
                    # the timer boundary would be attributed one
                    # iteration late).
                    boundary_reason = BoundaryReason.TIMEOUT
            else:  # BUDGET: the timeslice timer fired
                boundary_reason = BoundaryReason.TIMEOUT

            # Cut a new timeslice at the current master state.
            current.end_reason = boundary_reason
            current.master_cow_faults = process.mem.cow_faults - cow_mark
            cow_mark = process.mem.cow_faults
            self._seal_interval(current)
            intervals.append(current)
            boundaries.append(self._take_boundary(
                len(boundaries), boundary_reason,
                master.total_instructions))
            self.metrics.inc("superpin.control.cuts."
                             + boundary_reason.value)
            if self.tracer.enabled:
                self.tracer.instant(
                    "timeslice.cut", cat="control",
                    args={"boundary": len(boundaries) - 1,
                          "reason": boundary_reason.value,
                          "instructions": master.total_instructions})
            current = Interval(index=len(intervals))
            budget = self._next_budget(master.total_instructions)
            yield boundaries[-1]

        stats = MasterStats.of(master)
        for name, value in stats.counters().items():
            self.metrics.inc("superpin.control.master." + name, value)
        timeline.exit_code = process.exit_code
        timeline.total_instructions = stats.instructions
        timeline.total_syscalls = master.total_syscalls
        timeline.final_pc = process.cpu.pc
        timeline.final_cpu_hash = process.cpu.fingerprint()
        timeline.master = stats

    def _next_budget(self, executed_instructions: int) -> int:
        """Instruction budget for the next timeslice.

        With an expected duration (``-spexpected N``, N > 0: paper §8's
        adaptive throttling, here profile-guided) the timeslice shrinks
        as the application nears its expected end:
        the remaining work is spread over ``spmp + 1`` slices, which
        geometrically shrinks the final slices and with them the
        pipeline delay.  A wrong estimate degrades gracefully: past the
        expected end the standard interval is used again.  Throttling
        only ever shrinks a timeslice: the floor
        (:data:`MIN_TIMESLICE_MSEC`) gives way to a standard interval
        that is shorter still.
        """
        config = self.config
        standard = config.timeslice_cycles
        if not config.expected_duration_msec:
            return standard
        expected_total = (config.expected_duration_msec * config.clock_hz
                          // 1000)
        remaining = expected_total - executed_instructions
        if remaining <= 0:
            return standard
        floor = min(max(1, MIN_TIMESLICE_MSEC * config.clock_hz // 1000),
                    standard)
        throttled = remaining // (config.spmp + 1)
        return max(floor, min(standard, throttled))

    # -- policy ---------------------------------------------------------------

    def _record_or_force(self, interval: Interval,
                         record: SyscallRecord) -> BoundaryReason | None:
        """Apply §4.2's per-syscall policy.

        Returns a boundary reason when the call must end the timeslice,
        or None when the master simply continues.  The boundary-causing
        call is always appended to the interval's records so the covering
        slice can execute through its own final instruction.
        """
        config = self.config
        self.metrics.inc("superpin.control.syscalls")
        if record.klass in (EMULATE, THREAD):
            self._append_record(interval, record)
            interval.emulate_records += 1
            self.metrics.inc("superpin.control.records.emulate")
            return None
        if record.klass == FORCE_SLICE:
            self._append_record(interval, record)
            self.metrics.inc("superpin.control.records.force")
            return BoundaryReason.SYSCALL_FORCE
        # REPLAY class.
        self._append_record(interval, record)
        interval.replay_records += 1
        self.metrics.inc("superpin.control.records.replay")
        if config.spsysrecs == 0:
            return BoundaryReason.SYSCALL_FORCE
        if interval.replay_records >= config.spsysrecs:
            return BoundaryReason.SYSREC_FULL
        return None

    def _append_record(self, interval: Interval,
                       record: SyscallRecord) -> None:
        interval.records.append(
            RecordedSyscall(record=record, global_index=self._record_counter))
        self._record_counter += 1
        if self._digest is not None:
            self._digest.fold(record)

    def _seal_interval(self, interval: Interval) -> None:
        """Freeze the interval's at-record-time digest (audit runs only)."""
        if self._digest is not None:
            interval.stream_digest = self._digest.hexdigest
            self._digest = StreamDigest()

    def _take_boundary(self, index: int, reason: BoundaryReason,
                       master_instructions: int) -> Boundary:
        process = self.process
        manager = process.thread_manager
        return Boundary(
            index=index,
            reason=reason,
            cpu_snapshot=process.cpu.snapshot(),
            mem_fork=process.mem.fork(),
            layout_fork=self.kernel.layout.fork(),
            thread_fork=manager.fork() if manager is not None else None,
            master_instructions=master_instructions,
            resident_pages=process.mem.resident_pages,
        )
