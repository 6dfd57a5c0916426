"""Differential replay audit: a lockstep divergence oracle (§4.2–§4.5).

SuperPin's correctness claim is *transparency*: a sliced, replayed,
signature-terminated run must be architecturally indistinguishable from
the uninstrumented master.  This module checks that claim instead of
assuming it, the discipline rr-style record/replay systems live by.

Three executions of the same program are compared:

1. the **reference run** (:func:`record_reference`) — the uninstrumented
   interpreter, re-run from a pristine kernel copy, recording an
   architectural checkpoint (pc + register-file fingerprint + icount) at
   every master boundary instruction count and a syscall stream digest
   per interval;
2. the **SuperPin run** under audit — its boundaries, recorded syscall
   streams, per-slice end states and merged tool results;
3. a **serial-Pin run** (:func:`run_serial_baseline`) — classic
   one-process instrumentation, the paper's baseline, providing the
   ground-truth tool report.

:func:`compare_run` then checks, per slice: start/end architectural
state against the reference checkpoints, the replayed syscall stream
against the recorded one (including *unconsumed* leftover records),
the signature-match pc against the master's boundary pc, and the
merged tool results against the serial baseline.  Every mismatch
becomes a :class:`Divergence` with a taxonomy kind (see
``docs/internals.md``); the :class:`AuditReport` lands on
``SuperPinReport.audit`` when ``-spaudit`` is set.

The oracle itself is mutation-tested: ``-spinject tamper@k`` silently
falsifies slice k's result, ``-spinject corrupt@k:*`` with ``-spfaults
degrade`` leaves a hole — both must yield a nonzero divergence count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import abi
from ..isa.program import Program
from ..machine.cpu import fingerprint_state
from ..machine.interpreter import Interpreter, StopReason
from ..machine.kernel import Kernel
from ..machine.process import load_program
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER
from ..pin.engine import RunState
from ..pin.pintool import Pintool, run_with_pin
from .slices import SliceEnd
from .sysrecord import stream_digest, StreamDigest

#: Maximum divergences surfaced as trace instants (the report itself is
#: never truncated).
_MAX_DIVERGENCE_INSTANTS = 20


# -- reference run ------------------------------------------------------------

@dataclass(frozen=True)
class Checkpoint:
    """Architectural state of the reference run at one boundary icount."""

    index: int
    icount: int
    pc: int
    cpu_hash: str


@dataclass
class ReferenceRun:
    """Everything the uninstrumented reference execution observed."""

    #: One checkpoint per master boundary reached (index 0 = entry).
    checkpoints: list[Checkpoint]
    #: Per-interval syscall stream digests / instruction spans / call
    #: counts, aligned with the master's intervals.
    interval_digests: list[str]
    interval_instructions: list[int]
    interval_syscalls: list[int]
    exit_code: int
    total_instructions: int
    total_syscalls: int
    final_pc: int
    final_cpu_hash: str
    stdout: str
    #: True when the runaway guard stopped the reference before exit —
    #: itself a divergence (the reference should mirror the master).
    truncated: bool = False


def record_reference(program: Program, kernel: Kernel,
                     boundary_icounts: list[int],
                     max_instructions: int) -> ReferenceRun:
    """Re-run ``program`` uninstrumented, checkpointing at the master's
    boundary instruction counts.

    ``kernel`` must be a pristine copy of the kernel the master started
    from (same seed, same clock): record/playback removes every other
    source of nondeterminism, so an identical kernel makes the reference
    bit-identical to the master — any difference the audit then finds is
    a pipeline bug, not noise.  The construction mirrors
    :class:`~repro.superpin.control.ControlProcess` exactly, including
    the §4.1 code-cache bubble reservation (which keeps application
    ``mmap`` results aligned across all compared runs).
    """
    process = load_program(program, kernel)
    kernel.layout.do_mmap(abi.BUBBLE_BASE, abi.BUBBLE_WORDS)
    interp = Interpreter(process, stop_after_syscall=True)
    targets = list(boundary_icounts)

    checkpoints = [Checkpoint(index=0, icount=0, pc=process.cpu.pc,
                              cpu_hash=process.cpu.fingerprint())]
    interval_digests: list[str] = []
    interval_instructions: list[int] = []
    interval_syscalls: list[int] = []
    digest = StreamDigest()
    sys_count = 0
    k = 1  # next boundary checkpoint to capture
    truncated = False

    while True:
        if k < len(targets):
            budget = targets[k] - interp.total_instructions
        else:
            budget = max_instructions - interp.total_instructions
            if budget <= 0:
                truncated = True
                break
        result = interp.run(max_instructions=budget)
        if result.outcome is not None:
            digest.fold(result.outcome.record)
            sys_count += 1
        if result.reason is StopReason.EXIT:
            break
        if result.reason is StopReason.BUDGET and k >= len(targets):
            truncated = True
            break
        while k < len(targets) and interp.total_instructions >= targets[k]:
            interval_digests.append(digest.hexdigest)
            digest = StreamDigest()
            interval_instructions.append(targets[k] - targets[k - 1])
            interval_syscalls.append(sys_count)
            sys_count = 0
            checkpoints.append(Checkpoint(
                index=k, icount=interp.total_instructions,
                pc=process.cpu.pc, cpu_hash=process.cpu.fingerprint()))
            k += 1

    # The final (or truncated) interval.
    interval_digests.append(digest.hexdigest)
    interval_instructions.append(interp.total_instructions
                                 - checkpoints[-1].icount)
    interval_syscalls.append(sys_count)

    return ReferenceRun(
        checkpoints=checkpoints,
        interval_digests=interval_digests,
        interval_instructions=interval_instructions,
        interval_syscalls=interval_syscalls,
        exit_code=process.exit_code,
        total_instructions=interp.total_instructions,
        total_syscalls=interp.total_syscalls,
        final_pc=process.cpu.pc,
        final_cpu_hash=process.cpu.fingerprint(),
        stdout=kernel.stdout_text(),
        truncated=truncated,
    )


def reference_from_recording(meta: dict) -> ReferenceRun:
    """Rebuild a :class:`ReferenceRun` from a recording artifact's meta.

    A recording captures the reference data — boundary checkpoints,
    interval stream digests, final architectural state — at record time,
    so ``-spaudit`` on a replay (``superpin replay``) costs nothing: the
    oracle compares against the artifact instead of re-running the
    master.  The digests compared are the *recorded* ones, so a slice
    section mutated inside the artifact (but passing its section digest,
    i.e. re-signed tampering) still surfaces as a divergence.
    """
    return ReferenceRun(
        checkpoints=[
            Checkpoint(index=i, icount=icount, pc=pc, cpu_hash=cpu_hash)
            for i, (icount, pc, cpu_hash)
            in enumerate(meta["checkpoints"])],
        interval_digests=list(meta["interval_digests"]),
        interval_instructions=list(meta["interval_instructions"]),
        interval_syscalls=list(meta["interval_syscalls"]),
        exit_code=meta["exit_code"],
        total_instructions=meta["total_instructions"],
        total_syscalls=meta["total_syscalls"],
        final_pc=meta["final_pc"],
        final_cpu_hash=meta["final_cpu_hash"],
        stdout=meta["stdout"],
        truncated=False,
    )


# -- serial-Pin baseline ------------------------------------------------------

@dataclass
class SerialBaseline:
    """Classic serial-Pin execution of the same program + tool."""

    exit_code: int
    instructions: int
    stdout: str
    tool_report: object
    #: False when the guard budget stopped the run before exit.
    completed: bool = True


def run_serial_baseline(program: Program, tool: Pintool, kernel: Kernel,
                        max_instructions: int) -> SerialBaseline:
    """Run the paper's baseline mode on pristine copies of tool + kernel.

    :func:`repro.pin.pintool.run_with_pin` on a kernel whose §4.1 bubble
    is reserved first, as the control process reserves it, so guest
    ``mmap`` placement — and hence every address the program computes —
    is identical across the master, the reference and this baseline.
    (The reservation is a fixed-address ``mmap``: it does not depend on
    the ``brk`` the load sets.)
    """
    kernel.layout.do_mmap(abi.BUBBLE_BASE, abi.BUBBLE_WORDS)
    result, _, _ = run_with_pin(program, tool, kernel,
                                max_instructions=max_instructions)
    completed = result.state is RunState.EXIT
    return SerialBaseline(
        exit_code=result.exit_code,
        instructions=result.instructions,
        stdout=kernel.stdout_text(),
        tool_report=tool.report(),
        completed=completed,
    )


# -- the oracle ---------------------------------------------------------------

@dataclass(frozen=True)
class Divergence:
    """One detected mismatch between compared executions."""

    #: Taxonomy kind (see docs/internals.md), e.g. ``slice.end_state``.
    kind: str
    #: Slice/interval index the mismatch is anchored to, or None for
    #: run-global checks.
    slice_index: int | None
    detail: str

    def __str__(self) -> str:
        where = (f"slice {self.slice_index}: "
                 if self.slice_index is not None else "")
        return f"[{self.kind}] {where}{self.detail}"


@dataclass
class AuditReport:
    """Outcome of one differential audit."""

    checks: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    slices_checked: int = 0
    reference_instructions: int = 0
    reference_exit_code: int = 0
    serial_tool_report: object = None
    merged_tool_report: object = None

    @property
    def ok(self) -> bool:
        return not self.divergences

    def by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for divergence in self.divergences:
            counts[divergence.kind] = counts.get(divergence.kind, 0) + 1
        return counts

    def summary(self) -> str:
        if self.ok:
            return (f"audit: OK — {self.checks} checks across "
                    f"{self.slices_checked} slices, 0 divergences")
        kinds = ", ".join(f"{kind} x{count}" for kind, count
                          in sorted(self.by_kind().items()))
        return (f"audit: FAILED — {len(self.divergences)} divergences in "
                f"{self.checks} checks ({kinds})")

    def to_json(self) -> dict:
        """JSON-serializable form (the CI artifact format)."""
        return {
            "ok": self.ok,
            "checks": self.checks,
            "slices_checked": self.slices_checked,
            "reference_instructions": self.reference_instructions,
            "reference_exit_code": self.reference_exit_code,
            "by_kind": self.by_kind(),
            "divergences": [
                {"kind": d.kind, "slice": d.slice_index, "detail": d.detail}
                for d in self.divergences],
        }


class _Comparator:
    """Check bookkeeping: every comparison counts, mismatches file."""

    def __init__(self) -> None:
        self.checks = 0
        self.divergences: list[Divergence] = []

    def check(self, ok: bool, kind: str, slice_index: int | None,
              detail: str) -> bool:
        self.checks += 1
        if not ok:
            self.divergences.append(
                Divergence(kind=kind, slice_index=slice_index,
                           detail=detail))
        return ok


def compare_run(report, reference: ReferenceRun,
                serial: SerialBaseline | None = None) -> AuditReport:
    """Compare one SuperPin run against its reference (and baseline).

    ``report`` is the :class:`~repro.superpin.runtime.SuperPinReport`
    under audit (only ``timeline``/``signatures``/``slices``/
    ``degraded_slices``/``tool`` — plus ``config`` when present, to
    detect sampling — are read, so hand-built report objects work too).
    Returns the full :class:`AuditReport`; it never raises on
    divergence — detection is the caller's signal.
    """
    cmp = _Comparator()
    timeline = report.timeline
    boundaries = timeline.boundaries
    intervals = timeline.intervals
    n_slices = len(intervals)
    by_index = {s.index: s for s in report.slices}
    degraded = set(report.degraded_slices)

    # -- reference shape ----------------------------------------------------
    cmp.check(not reference.truncated, "reference.truncated", None,
              f"reference run hit its {reference.total_instructions}"
              f"-instruction guard before exiting")
    cmp.check(len(reference.checkpoints) == len(boundaries),
              "reference.shape", None,
              f"reference reached {len(reference.checkpoints)} of the "
              f"master's {len(boundaries)} boundaries — instruction "
              f"streams already disagree")

    # -- boundaries vs checkpoints ------------------------------------------
    for boundary, checkpoint in zip(boundaries, reference.checkpoints):
        i = boundary.index
        if boundary.is_hole:
            # A degraded-slice placeholder carries no snapshot: its pc
            # sentinel cannot fingerprint, so comparing it would crash
            # (or, with a benign sentinel, masquerade as a divergence in
            # the *reference*).  File it under its own kind instead.
            cmp.check(False, "boundary.hole", i,
                      f"boundary is a degraded-slice placeholder — no "
                      f"snapshot to compare at icount {checkpoint.icount}")
            continue
        pc, regs = boundary.cpu_snapshot
        cmp.check(pc == checkpoint.pc, "boundary.pc", i,
                  f"boundary pc {pc:#x} != reference pc "
                  f"{checkpoint.pc:#x} at icount {checkpoint.icount}")
        cmp.check(fingerprint_state(pc, regs) == checkpoint.cpu_hash,
                  "boundary.cpu", i,
                  f"boundary register file differs from the reference "
                  f"at icount {checkpoint.icount}")

    # -- intervals: recorded streams vs reference streams -------------------
    for interval in intervals:
        i = interval.index
        if i >= len(reference.interval_digests):
            break  # already flagged by reference.shape
        recorded = stream_digest(r.record for r in interval.records)
        cmp.check(recorded == reference.interval_digests[i],
                  "syscall.recorded", i,
                  f"recorded syscall stream ({len(interval.records)} "
                  f"records) differs from the reference stream")
        if interval.stream_digest:
            cmp.check(interval.stream_digest == recorded,
                      "syscall.mutated", i,
                      "interval records no longer match their "
                      "at-record-time digest — mutated after recording")
        cmp.check(interval.syscalls == reference.interval_syscalls[i],
                  "syscall.count", i,
                  f"master saw {interval.syscalls} syscalls, reference "
                  f"saw {reference.interval_syscalls[i]}")
        cmp.check(
            interval.instructions == reference.interval_instructions[i],
            "interval.icount", i,
            f"master interval ran {interval.instructions} instructions, "
            f"reference ran {reference.interval_instructions[i]}")

    # -- slices vs checkpoints / signatures / streams -----------------------
    for k in range(n_slices):
        result = by_index.get(k)
        if result is None:
            how = ("degrade policy gave it up" if k in degraded
                   else "not even recorded as degraded")
            cmp.check(False, "slice.missing", k,
                      f"slice produced no result — hole in the merge "
                      f"({how})")
            continue
        interval = intervals[k]
        is_last = k == n_slices - 1
        expected_reason = SliceEnd.EXIT if is_last else SliceEnd.MATCHED
        cmp.check(result.reason is expected_reason, "slice.reason", k,
                  f"ended {result.reason.value!r}, expected "
                  f"{expected_reason.value!r}")
        cmp.check(result.instructions == interval.instructions,
                  "slice.icount", k,
                  f"slice ran {result.instructions} instructions, master "
                  f"interval was {interval.instructions}")
        cmp.check(result.leftover_records == 0, "syscall.leftover", k,
                  f"{result.leftover_records} recorded calls left "
                  f"unconsumed at slice end (PlaybackHandler would have "
                  f"dropped them silently)")
        if k < len(reference.interval_digests):
            cmp.check(result.syscall_digest
                      == reference.interval_digests[k],
                      "syscall.stream", k,
                      "replayed syscall stream differs from the "
                      "reference stream for this interval")

        if not is_last:
            if k < len(report.signatures):
                cmp.check(result.end_pc == report.signatures[k].pc,
                          "signature.pc", k,
                          f"stopped at pc {result.end_pc:#x}, signature "
                          f"pc is {report.signatures[k].pc:#x}")
            boundary_pc = boundaries[k + 1].cpu_snapshot[0]
            cmp.check(result.end_pc == boundary_pc, "slice.end_pc", k,
                      f"stopped at pc {result.end_pc:#x}, master "
                      f"boundary pc is {boundary_pc:#x}")
            if k + 1 < len(reference.checkpoints):
                cmp.check(result.end_cpu_hash
                          == reference.checkpoints[k + 1].cpu_hash,
                          "slice.end_state", k,
                          "end register file differs from the reference "
                          "checkpoint at the next boundary")
        else:
            cmp.check(result.end_pc == reference.final_pc,
                      "slice.end_pc", k,
                      f"final slice stopped at pc {result.end_pc:#x}, "
                      f"reference exited at {reference.final_pc:#x}")
            cmp.check(result.end_cpu_hash == reference.final_cpu_hash,
                      "slice.end_state", k,
                      "final slice register file differs from the "
                      "reference exit state")
            cmp.check(result.exit_code == reference.exit_code,
                      "exit_code", k,
                      f"final slice exited {result.exit_code}, reference "
                      f"exited {reference.exit_code}")

    # -- run-global comparisons ---------------------------------------------
    cmp.check(timeline.total_instructions == reference.total_instructions,
              "icount.total", None,
              f"master ran {timeline.total_instructions} instructions, "
              f"reference ran {reference.total_instructions}")
    cmp.check(timeline.exit_code == reference.exit_code, "exit_code", None,
              f"master exited {timeline.exit_code}, reference exited "
              f"{reference.exit_code}")
    cmp.check(timeline.kernel.stdout_text() == reference.stdout,
              "stdout", None,
              "master stdout differs from the reference run's")

    merged_report = report.tool.report()
    audit = AuditReport(
        checks=cmp.checks,
        divergences=cmp.divergences,
        slices_checked=n_slices,
        reference_instructions=reference.total_instructions,
        reference_exit_code=reference.exit_code,
        merged_tool_report=merged_report,
    )
    if serial is not None:
        audit.serial_tool_report = serial.tool_report
        cmp.check(serial.completed, "serial.incomplete", None,
                  "serial-Pin baseline hit its guard before exiting")
        if serial.completed:
            cmp.check(serial.exit_code == reference.exit_code,
                      "exit_code", None,
                      f"serial Pin exited {serial.exit_code}, reference "
                      f"exited {reference.exit_code}")
            cmp.check(serial.instructions
                      == reference.total_instructions,
                      "icount.total", None,
                      f"serial Pin ran {serial.instructions} "
                      f"instructions, reference ran "
                      f"{reference.total_instructions}")
            cmp.check(serial.stdout == reference.stdout, "stdout", None,
                      "serial-Pin stdout differs from the reference "
                      "run's")
            # Sampling (-spsample) deliberately skips the tool on most
            # slices, so the merged results are a declared approximation
            # — comparing them against the fully-instrumented serial
            # baseline would report the approximation itself as a
            # divergence.  Every architectural check above still runs;
            # only the tool-results comparison is waived.
            config = getattr(report, "config", None)
            sampling = (config is not None
                        and getattr(config, "spsample", 0) > 0)
            if not sampling:
                cmp.check(merged_report == serial.tool_report,
                          "tool.results", None,
                          f"merged tool report {merged_report!r} != serial "
                          f"baseline {serial.tool_report!r}")
        audit.checks = cmp.checks
        audit.divergences = cmp.divergences
    return audit


# -- runtime wiring -----------------------------------------------------------

@dataclass
class AuditInputs:
    """Pristine copies captured before the audited run mutates anything.

    The tool copy is taken *before* ``tool.setup`` and the kernel copies
    before the control process touches the kernel, so the reference and
    serial executions start from exactly the state the master did.
    """

    program: Program
    tool: Pintool
    reference_kernel: Kernel
    serial_kernel: Kernel


def perform_audit(inputs: AuditInputs, report, tracer=NULL_TRACER,
                  metrics=NULL_METRICS) -> AuditReport:
    """Run the full differential audit for one completed live run."""
    timeline = report.timeline
    guard = timeline.total_instructions * 2 + 100_000
    with tracer.span("audit.reference", cat="audit"):
        reference = record_reference(
            inputs.program, inputs.reference_kernel,
            [b.master_instructions for b in timeline.boundaries],
            max_instructions=guard)
    with tracer.span("audit.serial", cat="audit"):
        serial = run_serial_baseline(
            inputs.program, inputs.tool, inputs.serial_kernel,
            max_instructions=guard)
    return audit_against(reference, serial, report, tracer, metrics)


def audit_against(reference: ReferenceRun, serial: SerialBaseline | None,
                  report, tracer=NULL_TRACER,
                  metrics=NULL_METRICS) -> AuditReport:
    """Compare a run against its references and publish the outcome.

    The one place audit counters and ``audit.divergence`` instants are
    emitted — for a live run's re-executed references and for a
    replay's recorded ones (``serial`` None) alike.
    """
    with tracer.span("audit.compare", cat="audit"):
        audit = compare_run(report, reference, serial)
    metrics.inc("superpin.audit.checks", audit.checks)
    metrics.inc("superpin.audit.divergences", len(audit.divergences))
    for kind, count in sorted(audit.by_kind().items()):
        metrics.inc(f"superpin.audit.divergence.{kind}", count)
    if tracer.enabled:
        for divergence in audit.divergences[:_MAX_DIVERGENCE_INSTANTS]:
            tracer.instant("audit.divergence", cat="audit",
                           args={"kind": divergence.kind,
                                 "slice": divergence.slice_index,
                                 "detail": divergence.detail})
    return audit
