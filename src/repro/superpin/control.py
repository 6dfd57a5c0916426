"""The control process: master supervision and slice-boundary policy.

SuperPin runs the original application at full speed under a monitor (the
paper uses ptrace; we use the engines' stop-after-syscall mode).  "Full
speed" here is :class:`MasterEngine`: the interpreter for cold code,
generated code for loops that have proved hot.
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
from ..machine.interpreter import Interpreter, StepResult, StopReason
from ..machine.kernel import (EMULATE, FORCE_SLICE, Kernel, MemLayout,
                              REPLAY, SyscallRecord, THREAD)
from ..machine.threads import ThreadManager
from ..machine.memory import Memory
from ..machine.process import load_program, Process
from ..isa.program import Program
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER
from ..pin.engine import PinVM, RunState
from ..pin.trace import MAX_TRACE_INS
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
    #: How the master's tiers shared the run; None on a timeline built
    #: from a recording (no master ran).
    master: "MasterStats | None" = None

    @property
    def num_slices(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class MasterStats:
    """How the master's two tiers shared one control phase."""

    #: Master instructions retired, both tiers.
    instructions: int
    #: Loop heads that reached :data:`HOT_HEAD_ARRIVALS`.
    hot_heads: int
    #: Instructions retired in generated code.
    jit_instructions: int
    #: Traces compiled for the master, and their guest instructions.
    compiled_traces: int
    compiled_ins: int
    #: Interpreter -> generated code hand-overs.
    engine_switches: int
    #: Trace executions that ran inside a trace's loop form
    #: (``JitStats.loop_trips``).
    loop_trips: int = 0

    def counters(self) -> dict[str, int]:
        """The ``superpin.control.master.*`` counters / span args."""
        return {"hot_heads": self.hot_heads,
                "jit_instructions": self.jit_instructions,
                "compiled_ins": self.compiled_ins,
                "engine_switches": self.engine_switches,
                "loop_trips": self.loop_trips}

    def summary(self) -> str:
        share = (self.jit_instructions / self.instructions
                 if self.instructions else 0.0)
        return (f"{share:.0%} of {self.instructions:,} instructions in "
                f"generated code; {self.hot_heads} hot heads, "
                f"{self.compiled_traces} traces, "
                f"{self.engine_switches} engine switches, "
                f"{self.loop_trips:,} trace executions inside loop forms")


#: Arrivals at a loop head (the target of a taken backward branch) before
#: the master runs it as generated code, and dispatcher misses on any
#: other exit of generated code before that exit is compiled too.
#: Constants fixed by the sweep in ROADMAP.md ("Recent", PR 14), not
#: switches.  Head: the source backend's ``compile()`` costs 38.5 us per
#: guest instruction and wins back 1/3.16 - 1/8.7 us per instruction it
#: then retires, so a loop breaks even after ~190 trips; 200 is fastest
#: on long runs (gzip-loop's control phase 121 -> 53 ms) but a loop that
#: stops soon after has paid a compile worth 60% of all it ran (the 8k-
#: instruction mcf daemon job: 3.0 -> 4.5 ms); at 1000 that worst case
#: is 12%, short jobs pay nothing, and long runs give back 7 ms.  Exit:
#: with 1, generated code compiles every cold instruction it runs into
#: (gcc-footprint at head threshold 100: 241 traces, 35 -> 88 ms; 73 ms
#: with 8); each further miss costs a hot exit one more bounce through
#: the interpreter (1 -> 8 -> 32: 57 -> 61 -> 63 ms on gzip-loop).
#: Both are counted over the life of the engine, which is one run —
#: unless its caller keeps it (``MasterEngine(resident=True)``): a job
#: of a few thousand instructions never repays a ``compile()``, the
#: daemon that serves it again does, on the second job.
HOT_HEAD_ARRIVALS = 1000
SIDE_EXIT_MISSES = 8

#: The shortest timeslice adaptive throttling (``-spadaptive``) shrinks
#: to, in virtual milliseconds.
MIN_TIMESLICE_MSEC = 50


class MasterEngine:
    """The master's executor: interpret cold code, run hot loops as
    generated code.

    ``run(budget) -> StepResult`` is :meth:`Interpreter.run`'s contract
    (with ``stop_after_syscall``) over the same :class:`Process`, so the
    control process cannot tell which tier retired an instruction.  The
    interpreter runs, counting arrivals at loop heads, until one is hot;
    an uninstrumented source-backend :class:`PinVM` then runs from that
    head until it reaches code its compile gate refuses, a syscall, or
    the last trace that fits the budget; the interpreter takes over
    again, and always lands a budget's tail.  The ``PinVM`` is built on
    the first hot head, so a run without one pays only the head count.

    ``head_threshold=None`` never leaves the interpreter — the reference
    the parity tests compare every other pair of thresholds against.

    ``resident``: the engine outlives the run (a
    :class:`~repro.superpin.slices.SliceMachine`'s ``master``, which the
    serve daemon lends to one job after another) and :meth:`switch`
    puts it onto each run's freshly loaded image.  What it keeps is
    what is nobody's: the arrival and miss counts — so a loop gets hot
    over the engine's life, exactly as ``Jit.heat`` counts, and a later
    run leaves the interpreter on its first trip — and a pooled JIT
    whose kept code a run only gets trace by trace, against the words
    now loaded (``Jit._refusal``): another program on the same engine is
    slow, never wrong.  State, totals and thresholds are per run.
    """

    def __init__(self, process: Process, head_threshold: int | None = None,
                 exit_threshold: int = 0, resident: bool = False):
        self.process = process
        self.head_threshold = head_threshold
        self.exit_threshold = exit_threshold
        self.resident = resident
        self.engine_switches = 0
        self._interp = Interpreter(process, stop_after_syscall=True)
        self._vm: PinVM | None = None
        #: pc -> dispatcher misses on a not-hot exit of generated code.
        self._exit_misses: dict[int, int] = {}
        #: Filled by the PinVM's syscall observer, emptied by ``run``.
        self._outcomes: list = []

    def switch(self, image: Process, head_threshold: int | None,
               exit_threshold: int) -> None:
        """Context-switch this resident engine onto ``image``, a process
        just loaded, and start a run: registers restored in place, the
        image's memory adopted (``image`` is spent), its syscall handler
        and thread manager taken over, the hot tier reset to a cold code
        cache, every total zeroed — what
        :meth:`~repro.superpin.slices.SliceMachine.switch` does for a
        boundary."""
        process = self.process
        process.cpu.restore(image.cpu.snapshot())
        process.mem.adopt(image.mem)
        process.syscall_handler = image.syscall_handler
        process.thread_manager = image.thread_manager
        process.exited = False
        process.exit_code = 0
        self.head_threshold = head_threshold
        self.exit_threshold = exit_threshold
        self.engine_switches = 0
        interp = self._interp
        interp.total_instructions = interp.total_syscalls = 0
        self._outcomes.clear()
        vm = self._vm
        if vm is not None:
            vm.reset(compile_gate=self._admit)
            vm.add_syscall_observer(self._outcomes.append)

    @property
    def total_instructions(self) -> int:
        vm = self._vm
        return self._interp.total_instructions + (
            vm.total_instructions if vm is not None else 0)

    @property
    def total_syscalls(self) -> int:
        vm = self._vm
        return self._interp.total_syscalls + (
            vm.total_syscalls if vm is not None else 0)

    def run(self, max_instructions: int | None = None) -> StepResult:
        interp = self._interp
        outcomes = self._outcomes
        executed = 0
        while True:
            left = (None if max_instructions is None
                    else max_instructions - executed)
            # A trace is only sure to fit a budget of MAX_TRACE_INS or
            # more; below that the interpreter lands the tail uncounted.
            roomy = left is None or left >= MAX_TRACE_INS
            step = interp.run(
                left, hot_threshold=self.head_threshold if roomy else None)
            executed += step.instructions
            if step.reason is not StopReason.HOT:
                return StepResult(step.reason, executed, step.outcome)
            if left is not None:
                left -= step.instructions
                if left < MAX_TRACE_INS:
                    continue
            vm = self._vm
            if vm is None:
                vm = self._vm = PinVM(self.process, jit_backend="source",
                                      compile_gate=self._admit)
                vm.add_syscall_observer(outcomes.append)
                if self.resident:
                    # It attaches nothing, so a trace's second compile
                    # verifies trivially and its third is served.
                    vm.jit.pool = {}
                    vm.jit.retain_for = self
            self.engine_switches += 1
            hot = vm.run(left, exact_budget=True, stop_after_syscall=True)
            executed += hot.instructions
            outcome = outcomes.pop() if outcomes else None
            if hot.state is RunState.EXIT:
                return StepResult(StopReason.EXIT, executed, outcome)
            if hot.state is RunState.SYSCALL:
                return StepResult(StopReason.SYSCALL, executed, outcome)
            if hot.state is RunState.BUDGET:
                return StepResult(StopReason.BUDGET, executed)
            # COLD: the interpreter goes on from here.

    def _admit(self, pc: int) -> bool:
        """The PinVM's compile gate: a hot head compiles at once, any
        other exit of generated code once it has missed often enough."""
        if self._interp.head_arrivals.get(pc, 0) >= self.head_threshold:
            return True
        misses = self._exit_misses[pc] = self._exit_misses.get(pc, 0) + 1
        return misses >= self.exit_threshold

    def stats(self) -> MasterStats:
        vm = self._vm
        jit, traces, ins, loop_trips = (0, 0, 0, 0) if vm is None else (
            vm.total_instructions, vm.cache.stats.compiles,
            vm.cache.stats.compiled_ins, vm.jit_stats.loop_trips)
        # No arrival is ever counted under a None threshold (a resident
        # engine may hold earlier runs' counts, and then shows none).
        threshold = self.head_threshold
        return MasterStats(
            instructions=self.total_instructions,
            hot_heads=0 if threshold is None else sum(
                1 for n in self._interp.head_arrivals.values()
                if n >= threshold),
            jit_instructions=jit, compiled_traces=traces,
            compiled_ins=ins, engine_switches=self.engine_switches,
            loop_trips=loop_trips)


class ControlProcess:
    """Supervises the uninstrumented master and cuts it into timeslices."""

    def __init__(self, program: Program, config: SuperPinConfig,
                 kernel: Kernel | None = None,
                 tracer=NULL_TRACER, metrics=NULL_METRICS,
                 master: "MasterEngine | None" = None):
        self.program = program
        self.config = config
        self.kernel = kernel if kernel is not None else Kernel()
        #: Observability hooks (repro.obs): timeslice cuts become trace
        #: instants, syscall records and cut reasons become counters.
        self.tracer = tracer
        self.metrics = metrics
        self.process: Process = load_program(self.program, self.kernel)
        #: The caller's resident engine to run the master on (it is
        #: switched onto the loaded image when :meth:`cuts` starts), or
        #: None: one is made for the run.
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
            master = MasterEngine(self.process, HOT_HEAD_ARRIVALS,
                                  SIDE_EXIT_MISSES)
        else:
            master.switch(self.process, HOT_HEAD_ARRIVALS, SIDE_EXIT_MISSES)
            self.process = master.process
        process = self.process

        timeline = self.timeline
        boundaries, intervals = timeline.boundaries, timeline.intervals
        boundaries.append(self._take_boundary(0, BoundaryReason.START, 0))
        current = Interval(index=0)
        budget = self._next_budget(0)
        cow_mark = process.mem.cow_faults

        while True:
            result = master.run(max_instructions=budget)
            current.instructions += result.instructions
            budget -= result.instructions

            if result.reason is StopReason.EXIT:
                if result.outcome is not None:
                    # The exit syscall: the final slice replays it to stop.
                    current.syscalls += 1
                    self._append_record(current, result.outcome.record)
                current.is_last = True
                current.master_cow_faults = (process.mem.cow_faults
                                             - cow_mark)
                self._seal_interval(current)
                intervals.append(current)
                break

            if result.reason is StopReason.SYSCALL:
                assert result.outcome is not None
                record = result.outcome.record
                current.syscalls += 1
                boundary_reason = self._record_or_force(current, record)
                if boundary_reason is None:
                    if budget > 0:
                        continue
                    # The recorded syscall retired the last budgeted
                    # instruction: cut the timeslice here rather than
                    # re-entering the interpreter with a zero budget
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

        tiers = master.stats()
        for name, value in tiers.counters().items():
            self.metrics.inc("superpin.control.master." + name, value)
        timeline.exit_code = process.exit_code
        timeline.total_instructions = tiers.instructions
        timeline.total_syscalls = master.total_syscalls
        timeline.final_pc = process.cpu.pc
        timeline.final_cpu_hash = process.cpu.fingerprint()
        timeline.master = tiers

    def _next_budget(self, executed_instructions: int) -> int:
        """Instruction budget for the next timeslice.

        With adaptive throttling (paper §8's future-work proposal, here
        approximated with a profile-guided expected duration) the
        timeslice shrinks as the application nears its expected end:
        the remaining work is spread over ``spmp + 1`` slices, which
        geometrically shrinks the final slices and with them the
        pipeline delay.  A wrong estimate degrades gracefully: past the
        expected end the standard interval is used again.
        """
        config = self.config
        standard = config.timeslice_instructions
        if not (config.spadaptive and config.expected_duration_msec):
            return standard
        expected_total = (config.expected_duration_msec * config.clock_hz
                          // 1000)
        remaining = expected_total - executed_instructions
        if remaining <= 0:
            return standard
        floor = max(1, MIN_TIMESLICE_MSEC * config.clock_hz // 1000)
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
