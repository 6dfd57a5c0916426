"""SuperPin runtime: the top-level orchestrator.

``run_superpin(program, tool, config)`` performs the full pipeline:

1. **Setup** — the tool registers itself through the SP API (§5).
2. **The master stream** — the master runs uninstrumented (serial
   Pin's engine with no tool) under the control process, which
   records syscalls and cuts timeslices (§4.1–§4.3); the
   moment a boundary is cut its signature is recorded from its
   snapshot, with the adaptive quick-register lookahead (§4.4).  One
   generator (:class:`_MasterStream`) does both, a cut at a time;
   ``-sprecord`` saves the artifact as its tail.
3. **Slice phase** — every timeslice re-executes under instrumentation
   from its fork snapshot until it detects the next signature (§3),
   in-process or over ``-spworkers N`` processes with identical results,
   under the :mod:`~repro.superpin.supervisor` fault policy
   (``-spfaults``).  The supervisor *consumes* the master stream: slice
   ``k`` is released the moment signature ``k`` exists, so with workers
   the master, the signatures and the slices overlap in host time — the
   paper's Figure 1.  With no workers the same loop exhausts the master
   before its first slice: the sequential run is the streamed run with
   nothing to overlap, and the parity oracle for it.
4. **Merge phase** — slice results fold into the shared areas in slice
   order; the master tool's ``fini`` runs last (§4.5).
5. **Timing phase** — the discrete-event scheduler replays the run
   against the machine model to produce virtual wall-clock figures (§6).
6. **Audit** (``-spaudit``) — the differential oracle.

Nothing orders the slices among themselves: every slice's inputs — fork
snapshot, recorded syscalls, end signature — are final before it is
released, and each signature reads only its own boundary's snapshot.
That is also what makes a recording replayable: ``replay_recording``
loads those inputs from the artifact instead of producing them, and then
runs the *same* phases 3–6 (:func:`_run_pipeline`, with no stream: the
timeline is already final) — rr's discipline, replay as the recording
run through the same machinery.  Alongside the *modeled* timing figures,
the runtime keeps *measured* host wall-clock figures
(:class:`~repro.superpin.parallel.SliceTimings`, and the pipeline's own:
how long the master was busy, how much of that overlapped slices, when
the first result landed, and the paper's pipeline delay in host seconds)
so the two can be compared.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..isa.program import Program
from ..machine.kernel import Kernel
from ..obs.metrics import metrics_for, MetricsRegistry
from ..obs.tracer import ensure_tracer, MASTER_TRACK, Tracer
from ..pin.pintool import Pintool, run_with_pin
from ..sched.events import simulate
from ..sched.machine_model import MachineModel, PAPER_MACHINE
from ..sched.stats import TimingReport
from ..sched.timing import CostModel, DEFAULT_COST_MODEL
from .api import SliceToolContext, SPControl
from .audit import (audit_against, AuditInputs, AuditReport, perform_audit,
                    reference_from_recording)
from . import parallel
from .control import ControlProcess, MasterStats, MasterTimeline
from .journal import program_digest, run_key, RunJournal
from .merge import merge_slices
from .parallel import SliceTimings
from .recording import load_recording, save_recording
from .signature import Lookahead, Signature
from .slices import fold_engine_counters, SliceResult
from .supervisor import SliceOutcome, supervise_slices
from .switches import refuse_serial, SuperPinConfig


@dataclass
class SuperPinReport:
    """Everything a caller might want to know about one SuperPin run."""

    config: SuperPinConfig
    timeline: MasterTimeline
    slices: list[SliceResult]
    signatures: list[Signature]
    tool: Pintool
    timing: TimingReport | None
    exit_code: int
    #: Measured host wall-clock seconds per slice (pickle/fork/run/merge).
    slice_timings: list[SliceTimings] = field(default_factory=list)
    #: Per-slice supervision records: status, attempt history, deadline.
    slice_outcomes: list[SliceOutcome] = field(default_factory=list)
    #: Indexes of slices the ``degrade`` policy gave up on — holes in
    #: the merge.  Empty on a fully successful run.
    degraded_slices: list[int] = field(default_factory=list)
    #: Measured host seconds the master was busy cutting timeslices, and
    #: recording all boundary signatures: sums over the stream's steps,
    #: not wall extents (0.0 on a replay — no master ran).
    control_phase_seconds: float = 0.0
    signature_phase_seconds: float = 0.0
    #: The part of those that elapsed after the first slice was released
    #: — master work a worker process could overlap (0.0 when drained).
    master_overlap_seconds: float = 0.0
    #: Host seconds from the start of the run to the first slice result.
    first_result_seconds: float = 0.0
    #: The paper's pipeline delay in host seconds: master exhaustion to
    #: the last slice result (the whole slice phase when drained).
    pipeline_delay_seconds: float = 0.0
    #: Measured host seconds for the whole slice phase: first release
    #: to the last result and the pool's shutdown.
    slice_phase_seconds: float = 0.0
    #: CPU seconds the supervising thread spent on the pool transport:
    #: writing jobs, polling the pool, reading and decoding results (0.0
    #: at ``-spworkers 0``); the decode is in ``slice_pickle_seconds``
    #: too.
    transport_seconds: float = 0.0
    #: The run's structured trace (repro.obs): phase spans, per-slice
    #: pickle/fork/run/merge spans, supervision events.  None only for
    #: hand-built reports.
    trace: Tracer | None = None
    #: The run's metrics registry (populated under ``-spmetrics``; the
    #: null registry otherwise).  None only for hand-built reports.
    metrics: MetricsRegistry | None = None
    #: Differential audit outcome (``-spaudit`` only; None otherwise).
    audit: AuditReport | None = None
    #: Path of the recording artifact this run saved (``-sprecord``) or
    #: replayed (:func:`replay_recording`); None for plain live runs.
    recording_path: str | None = None
    #: Content address of that artifact (sha256 over section digests).
    recording_id: str = ""
    #: Serial Pin's (``-sp 0``) :meth:`instrumentation_summary`, which
    #: has no slices to sum; None on a SuperPin run.
    serial_instrumentation: dict[str, int] | None = None

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    @property
    def resumed_slices(self) -> int:
        """Slices adopted from the run journal instead of re-executed."""
        return sum(1 for o in self.slice_outcomes
                   if any(a.where == "journal" for a in o.attempts))

    @property
    def total_slice_instructions(self) -> int:
        return sum(s.instructions for s in self.slices)

    @property
    def all_exact(self) -> bool:
        """True when every slice covered exactly its master interval.

        A degraded run can never be exact: a hole means some interval's
        results are missing from the merge.
        """
        return (not self.degraded_slices
                and all(s.exact for s in self.slices))

    @property
    def stdout(self) -> str:
        return self.timeline.kernel.stdout_text()

    @property
    def measured_parallelism(self) -> float:
        """Aggregate slice-run seconds over elapsed slice-phase seconds.

        Sequentially this hovers just below 1.0 (phase time includes the
        runs plus bookkeeping); with workers on a multi-core host it
        exceeds 1.0 as slice runs overlap.
        """
        if self.slice_phase_seconds <= 0.0:
            return 0.0
        busy = sum(t.run_seconds for t in self.slice_timings)
        return busy / self.slice_phase_seconds

    def shared_cache_timing(self, machine: MachineModel = PAPER_MACHINE,
                            cost: CostModel = DEFAULT_COST_MODEL
                            ) -> TimingReport | None:
        """``timing`` had the slices shared one code cache (paper §8;
        :func:`~repro.sched.timing.shared_cache_charges`).  Pass the
        ``machine`` and ``cost`` the run was given; None when ``timing``
        is."""
        if self.timing is None:
            return None
        return simulate(self.timeline, self.slices, self.config,
                        machine=machine, cost=cost, shared_code_cache=True)

    def detection_summary(self) -> dict[str, float]:
        """Aggregate §4.4 statistics across all detecting slices."""
        quick = sum(s.detection.quick_checks for s in self.slices
                    if s.detection)
        full = sum(s.detection.full_checks for s in self.slices
                   if s.detection)
        stack = sum(s.detection.stack_checks for s in self.slices
                    if s.detection)
        return {
            "quick_checks": quick,
            "full_checks": full,
            "stack_checks": stack,
            "full_check_rate": (full / quick) if quick else 0.0,
        }

    def jit_summary(self) -> dict[str, float] | None:
        """Host-side compile work of the slice phase, or None without
        ``-spmetrics``: every dispatcher miss (each one a ``compile`` in
        the virtual account), how many of them the resident machines
        served from pooled work, how many of those without running a
        trace callback (a tool that declares its instrumentation pure)
        and how many of those in a trace a signature pc cuts, how many
        they lowered to generated code (:mod:`repro.pin.jit`)
        and how many generated lowerings found their code in the
        process's pool instead of calling ``compile()``, the share of
        the slices' instructions that retired in generated code —
        compiled so or promoted in mid-run — the share of their trace
        executions that ran inside a loop form, and the directly
        measured seconds all the compiles took.  None too at ``-sp 0``:
        serial Pin's engine is on the ``master:`` line."""
        if (self.metrics is None or not self.metrics.enabled
                or not self.config.sp):
            return None
        counter = self.metrics.counter
        timed = self.metrics.histogram("pin.jit.compile_seconds")
        instructions = counter("superpin.slices.instructions")
        executions = sum(s.traces_executed for s in self.slices)
        return {
            "compiles": int(counter("pin.cache.compiles")),
            "pooled": int(counter("pin.jit.skeleton_reuses")),
            "served": int(counter("pin.jit.instrumentation_reuses")),
            "served_cut": int(counter("pin.jit.cut_reuses")),
            "hot": int(counter("pin.jit.hot_compiles")),
            "interned": int(counter("pin.jit.intern_hits")),
            "promotions": int(counter("pin.jit.promotions")),
            "hot_share": (counter("pin.jit.hot_instructions") / instructions
                          if instructions else 0.0),
            "loop_builds": int(counter("pin.jit.loop_builds")),
            "loop_share": (counter("pin.jit.loop_trips") / executions
                           if executions else 0.0),
            "seconds": timed.total if timed is not None else 0.0,
        }

    def instrumentation_summary(self) -> dict[str, int]:
        """Selective-instrumentation totals (-spfilter / -spsample)
        aggregated across slices."""
        if self.serial_instrumentation is not None:
            return self.serial_instrumentation
        return {
            "analysis_calls": sum(s.analysis_calls for s in self.slices),
            "fastpath_traces": sum(s.fastpath_traces for s in self.slices),
            "skipped_callbacks": sum(s.skipped_callbacks
                                     for s in self.slices),
        }

    def sampling_summary(self) -> dict[str, int]:
        """Sampling coverage (-spsample): which slices carried the tool."""
        sampled = sum(1 for s in self.slices if s.instrumented)
        return {
            "period": self.config.spsample,
            "sampled_slices": sampled,
            "skipped_slices": len(self.slices) - sampled,
        }

    def supervision_summary(self) -> dict[str, float]:
        """Aggregate fault-handling statistics for the slice phase."""
        return {
            "attempts": sum(o.num_attempts for o in self.slice_outcomes),
            "failed_attempts": sum(
                1 for o in self.slice_outcomes
                for a in o.attempts if not a.ok),
            "recovered_slices": sum(
                1 for o in self.slice_outcomes if o.recovered),
            "degraded_slices": len(self.degraded_slices),
        }

    def wallclock_summary(self) -> dict[str, float]:
        """Measured (host) wall-clock figures for the run's phases.

        With no slice timings at all — a degrade-policy run where every
        slice was given up on, or a hand-built report — every figure is
        0.0 rather than a division error or a misleading mean.
        """
        run_seconds = sum(t.run_seconds for t in self.slice_timings)
        summary = {
            "control_phase_seconds": self.control_phase_seconds,
            "signature_phase_seconds": self.signature_phase_seconds,
            "master_overlap_seconds": self.master_overlap_seconds,
            "first_result_seconds": self.first_result_seconds,
            "pipeline_delay_seconds": self.pipeline_delay_seconds,
            "slice_phase_seconds": self.slice_phase_seconds,
            "slice_run_seconds": run_seconds,
            "slice_pickle_seconds": sum(t.pickle_seconds
                                        for t in self.slice_timings),
            "slice_fork_seconds": sum(t.fork_seconds
                                      for t in self.slice_timings),
            "slice_merge_seconds": sum(t.merge_seconds
                                       for t in self.slice_timings),
            "transport_seconds": self.transport_seconds,
            "mean_slice_run_seconds": run_seconds / max(
                1, len(self.slice_timings)),
            "measured_parallelism": self.measured_parallelism,
        }
        return summary if self.slice_timings else dict.fromkeys(summary, 0.0)

    def trace_summary(self) -> str:
        """Render the run's trace (and counters) as an ASCII table.

        Spans aggregate by name — count, total seconds, mean/max
        milliseconds — ordered by total descending, phases first at
        equal totals; metric counters (when ``-spmetrics`` recorded
        any) follow in a second table.
        """
        from ..harness.report import format_table
        if self.trace is None:
            return "  (no trace recorded)"
        by_name: dict[str, list[float]] = {}
        for record in self.trace.records:
            if record.is_instant:
                continue
            by_name.setdefault(record.name, []).append(record.duration)
        rows = []
        for name, durations in sorted(
                by_name.items(), key=lambda item: -sum(item[1])):
            total = sum(durations)
            rows.append([name, len(durations), f"{total:.4f}",
                         f"{1e3 * total / len(durations):.2f}",
                         f"{1e3 * max(durations):.2f}"])
        out = "trace spans:\n" + format_table(
            ["span", "count", "total (s)", "mean (ms)", "max (ms)"], rows)
        if self.metrics is not None and self.metrics.counters:
            counter_rows = [[name, value] for name, value
                            in sorted(self.metrics.counters.items())]
            out += "\ncounters:\n" + format_table(
                ["counter", "value"], counter_rows)
        return out


def run_superpin(program: Program, tool: Pintool,
                 config: SuperPinConfig | None = None,
                 kernel: Kernel | None = None,
                 machine: MachineModel = PAPER_MACHINE,
                 cost: CostModel = DEFAULT_COST_MODEL,
                 tracer: Tracer | None = None,
                 on_progress=None, resident=None) -> SuperPinReport:
    """Run ``program`` with ``tool`` under SuperPin end to end.

    Every run is traced (repro.obs): phases become top-level spans,
    slices become per-track span chains, and supervision incidents
    become instants.  The trace lands on ``report.trace`` (export it
    with ``-sptrace`` / :func:`repro.obs.write_trace`); counters are
    only collected under ``-spmetrics`` and land on ``report.metrics``.
    Pass ``tracer`` to aggregate several runs onto one timeline.

    ``on_progress(event, payload)``, when given, is invoked in this
    process as the run advances — ``("phase", {"phase": name})`` at
    each phase boundary and ``("slice", {completed, total, final})`` per
    slice result.  ``control`` and ``signature`` are announced when the
    master stream starts; ``slice`` when the first slice is released —
    with workers that is one cut into the master's run, and until the
    master is exhausted ``total`` is the slices cut so far and ``final``
    false; ``merge`` after the last result has landed (from ``slice`` to
    ``merge``, and only then, a worker process may be busy).  The serve
    daemon forwards these to its clients as streaming events; exceptions
    it raises abort the run (that is how job cancellation preempts a
    running job).

    ``resident`` is a :class:`~repro.superpin.slices.SliceMachine` the
    caller keeps between runs and lends to this one *exclusively*: the
    in-process slice attempts run on it, the master runs on its
    ``master`` engine and signs boundaries on its lookahead, instead of
    on machines built for the run — so a trace an earlier run decoded
    is not decoded again, and a loop earlier runs found hot runs as
    generated code from its first trip.  Which machine ran what shows
    only in ``PLACEMENT_COUNTERS`` and ``superpin.control.master.*``;
    None (every caller but the serve daemon) builds all three as before.

    At ``-sp 0`` it runs serial Pin (phase ``pin``): :func:`~repro.pin.
    pintool.run_with_pin` after the same filter, reported with no slices,
    the engine as ``timeline.master``, the classic-Pin virtual account
    as ``timing`` and one ``pin_phase`` span; ``resident`` plays no part
    and the config refuses what it cannot honour (``SERIAL_FIELDS``).
    """
    config = config or SuperPinConfig()
    tracer = ensure_tracer(tracer)
    metrics = metrics_for(config.spmetrics)

    # Selective instrumentation (-spfilter): parse the spec against this
    # program's symbol table and pin it on the tool *before* anything
    # copies the tool — the slice template (whose instrumentation digest
    # it enters), and crucially the audit's pristine baseline below,
    # must inherit the same filter so serial Pin and SuperPin produce
    # bit-identical (filtered) tool results.
    if config.spfilter is not None:
        from ..pin.filter import parse_filter
        tool.instrument_filter = parse_filter(config.spfilter, program)
    if not config.sp:
        _Progress(on_progress, tracer).phase("pin")
        return _run_serial(program, tool, config, kernel, cost, tracer,
                           metrics)

    # The differential audit (-spaudit) re-runs the program from scratch
    # twice — reference + serial baseline, then the lockstep comparison —
    # so it needs pristine copies of everything the audited run is about
    # to mutate: the tool *before* setup registers state on it, and the
    # kernel *before* the master consumes its clock/RNG/files.
    audit = None
    if config.spaudit:
        kernel = kernel if kernel is not None else Kernel()
        audit = functools.partial(perform_audit, AuditInputs(
            program=program,
            tool=copy.deepcopy(tool),
            reference_kernel=copy.deepcopy(kernel),
            serial_kernel=copy.deepcopy(kernel),
        ))

    # 1. Tool setup through the SP API.
    sp = _setup_tool(tool, config)

    # 2. The master, its signatures and (-sprecord) the artifact: one
    #    stream, stepped by the slice phase that consumes it.
    progress = _Progress(on_progress, tracer)
    master = _MasterStream(program, config, kernel, tracer, metrics,
                           progress, resident)

    # 3-6. Slices, merge, timing, audit: the half a replay shares.
    report = _run_pipeline(master.timeline, master.signatures, tool, sp,
                           config, program_digest(program), master=master,
                           audit=audit, machine=machine, cost=cost,
                           tracer=tracer, metrics=metrics,
                           progress=progress, resident=resident)
    if master.recording_manifest is not None:
        report.recording_path = config.sprecord
        report.recording_id = master.recording_manifest["recording_id"]
    return report


def _run_serial(program: Program, tool: Pintool, config: SuperPinConfig,
                kernel, cost: CostModel, tracer: Tracer,
                metrics) -> SuperPinReport:
    """Serial Pin's run and report (:func:`run_superpin` at ``-sp 0``)."""
    began = tracer.now()
    result, vm, kernel = run_with_pin(program, tool, kernel,
                                      metrics=metrics)
    engine = MasterStats.of(vm)
    tracer.add_span("pin_phase", began, tracer.now(), cat="phase",
                    args=engine.counters())
    fold_engine_counters(vm, metrics)
    ins, syscalls = result.instructions, result.syscalls
    pin = cost.pin_cycles(ins, syscalls, result.traces_executed,
                          result.analysis_calls, result.inline_checks,
                          vm.cache.stats.compiles,
                          vm.cache.stats.compiled_ins)
    return SuperPinReport(
        config=config, slices=[], signatures=[], tool=tool,
        timeline=MasterTimeline([], [], result.exit_code, ins, syscalls,
                                kernel, master=engine),
        timing=TimingReport(pin, cost.native_cycles(ins, syscalls), pin,
                            sleep_cycles=0.0, fork_cycles=0.0),
        exit_code=result.exit_code, trace=tracer, metrics=metrics,
        serial_instrumentation=dict(
            analysis_calls=result.analysis_calls,
            fastpath_traces=vm.instr_stats.fastpath_traces,
            skipped_callbacks=vm.instr_stats.skipped_callbacks))


class _Progress:
    """The run's ``on_progress`` relay, which also keeps the instants
    (tracer clock) the report's host-time figures are made of."""

    def __init__(self, on_progress, tracer: Tracer):
        self.on_progress = on_progress
        self.tracer = tracer
        self.origin = tracer.now()
        #: phase name -> when it was announced.
        self.began: dict[str, float] = {}
        self.first_result: float | None = None
        self.last_result: float | None = None

    def __call__(self, event: str, payload: dict) -> None:
        now = self.tracer.now()
        if event == "phase":
            self.began.setdefault(payload["phase"], now)
        elif event == "slice":
            if self.first_result is None:
                self.first_result = now
            self.last_result = now
        if self.on_progress is not None:
            self.on_progress(event, payload)

    def phase(self, name: str) -> None:
        self("phase", {"phase": name})


class _MasterStream:
    """The live master as the slice phase's ``stream``.

    :meth:`steps` is the generator :func:`~repro.superpin.supervisor.
    supervise_slices` advances: each ``next()`` lets the master cut one
    more boundary onto ``timeline`` and appends that boundary's
    signature to ``signatures`` — after the ``k``-th, slices ``< k`` have
    everything they need.  At exhaustion both are final and, under
    ``-sprecord``, the artifact is on disk: the boundaries are still
    pristine there, whatever has run meanwhile — a drained run has
    released nothing yet, and the pool transport pickles a boundary, it
    never adopts its pages.

    The stream times itself: ``control_seconds`` / ``signature_seconds``
    are the sums of its steps (*busy* time — between steps the master
    sleeps, as the paper's does), ``overlap_seconds`` the part that ran
    after the slice phase was announced.  The ``control_phase`` /
    ``signature_phase`` spans are the wall extents of the same work; in
    the trace the busy time is the total of the ``control.step`` /
    ``signature`` spans.  Once a slice has been released the master's
    spans go on their own track, so they nest in a Chrome export
    instead of straddling ``slice_phase``.
    """

    def __init__(self, program: Program, config: SuperPinConfig, kernel,
                 tracer: Tracer, metrics, progress: _Progress,
                 resident=None):
        self.config = config
        self.tracer = tracer
        self.metrics = metrics
        self.progress = progress
        self.control_seconds = 0.0
        self.signature_seconds = 0.0
        self.overlap_seconds = 0.0
        #: When the master exited (tracer clock); None until it has.
        self.done_at: float | None = None
        self.recording_manifest: dict | None = None
        self.began = tracer.now()
        # Loading the program is the master's first step.  The master
        # runs, and every boundary's quick-register lookahead, on the
        # caller's resident's engines, or on ones that go with the run.
        self.control = ControlProcess(
            program, config, kernel=kernel, tracer=tracer, metrics=metrics,
            master=resident.master if resident is not None else None)
        loaded = tracer.now()
        self._step(self.began, loaded, loaded)
        self.timeline = self.control.timeline
        self.signatures: list[Signature] = []
        #: (See repro.superpin.signature.Lookahead.)
        self.lookahead = (resident.lookahead if resident is not None
                          else Lookahead())

    def _track(self) -> int:
        """The master's own lane once a slice has been released."""
        return MASTER_TRACK if "slice" in self.progress.began else 0

    def _step(self, resumed: float, cut: float, now: float,
              args: dict | None = None) -> None:
        """Account one step: the master ran ``[resumed, cut]``, the
        signature recorder ``[cut, now]``."""
        self.control_seconds += cut - resumed
        self.signature_seconds += now - cut
        track = self._track()
        if track == MASTER_TRACK:
            self.overlap_seconds += now - resumed
        self.tracer.add_span("control.step", resumed, cut, cat="control",
                             track=track, args=args)
        if now > cut:
            self.tracer.add_span("signature", cut, now, cat="signature",
                                 track=track, args=args)

    def steps(self):
        tracer, config = self.tracer, self.config
        self.progress.phase("control")
        self.progress.phase("signature")
        cuts = self.control.cuts()
        first_cut = last_signed = None
        try:
            resumed = tracer.now()
            for boundary in cuts:
                cut = tracer.now()
                # Through the module: tests sabotage the recorder there.
                self.signatures.append(parallel.record_boundary_signature(
                    boundary, lookahead=self.lookahead))
                last_signed = tracer.now()
                if first_cut is None:
                    first_cut = cut
                self._step(resumed, cut, last_signed,
                           {"boundary": boundary.index})
                yield
                resumed = tracer.now()
            self.done_at = tracer.now()
            self._step(resumed, self.done_at, self.done_at)
        finally:
            # Also when the consumer stops asking (an aborted run closes
            # the stream): the master stops where it stands.
            cuts.close()
            end = tracer.now()
            track = self._track()
            master = self.timeline.master
            tracer.add_span(
                "control_phase", self.began, end, cat="phase", track=track,
                args=master.counters() if master is not None else None)
            if first_cut is None:  # a run of one slice signs nothing
                first_cut = last_signed = end
            tracer.add_span("signature_phase", first_cut, last_signed,
                            cat="phase", track=track)
            if track == MASTER_TRACK:
                tracer.name_track(MASTER_TRACK, "master")
        if config.sprecord is not None:
            with tracer.span("record_phase", cat="phase"):
                self.recording_manifest = save_recording(
                    config.sprecord, self.timeline, self.signatures,
                    config, metrics=self.metrics)


def _setup_tool(tool: Pintool, config: SuperPinConfig) -> SPControl:
    """Register ``tool`` through the SP API; returns the run's handle."""
    sp = SPControl(config)
    tool.setup(sp)
    if not sp.initialized:
        raise ConfigError(
            f"tool {tool.name!r} did not call SP_Init; SuperPin requires "
            f"tools written against the SP API (paper §5)")
    return sp


def _run_pipeline(timeline: MasterTimeline, signatures: list[Signature],
                  tool: Pintool, sp: SPControl, config: SuperPinConfig,
                  source_digest: str, *, master: _MasterStream | None = None,
                  damaged=None, audit=None,
                  machine: MachineModel, cost: CostModel,
                  tracer: Tracer, metrics, progress: _Progress,
                  resident=None) -> SuperPinReport:
    """Pipeline phases 3-6, shared by live runs and replays.

    Everything downstream of "a timeline and its signatures exist, or
    are being produced": where they come from — ``master``, a live
    stream the slice phase advances, or (None) a verified recording,
    final already — otherwise only shows in ``source_digest`` (program
    digest or recording id, the content half of the journal and
    trace-store keys), ``damaged`` (the slice sections a tolerant
    recording load gave up on) and ``audit`` (``(report, tracer,
    metrics) -> AuditReport``: the oracle to hold the finished run
    against, or None).  ``resident`` is the caller's machine for the
    slice phase's in-process attempts (:func:`run_superpin`).
    """
    # -spjournal / -spresume: open (or resume) the write-ahead run
    # journal keyed by source + tool + result-affecting config.
    journal = None
    preloaded = None
    if config.spjournal is not None:
        key = run_key(source_digest, type(tool).__name__, config)
        if config.spresume:
            journal, preloaded = RunJournal.resume(config.spjournal, key,
                                                   metrics=metrics)
        else:
            journal = RunJournal.create(config.spjournal, key,
                                        metrics=metrics)

    # 3. Slice phase: in-process, or fanned out (-spworkers), under the
    #    -spfaults supervision policy — and, on a live run, the master
    #    it consumes.  The phase begins when the supervisor announces
    #    the first release.
    template = SliceToolContext.from_control(tool, sp)
    try:
        supervised = supervise_slices(
            timeline, signatures, template, sp, config, tracer=tracer,
            metrics=metrics, journal=journal, preloaded=preloaded,
            damaged=damaged, source_digest=source_digest,
            on_progress=progress,
            stream=master.steps() if master is not None else None,
            resident=resident)
    finally:
        if journal is not None:
            journal.close()
        # The phase ran from the first release (zero-length when the
        # run was aborted before one).
        ended = tracer.now()
        released = progress.began.get("slice", ended)
        tracer.add_span("slice_phase", released, ended, cat="phase")
    results, timings = supervised.results, supervised.timings
    degraded = supervised.degraded

    # 4. Merge in slice order, then fini on the master tool.
    progress.phase("merge")
    with tracer.span("merge_phase", cat="phase"):
        merge_seconds = merge_slices(sp, results, tracer=tracer,
                                     metrics=metrics)
    for timing_record in timings:
        timing_record.merge_seconds = merge_seconds.get(
            timing_record.index, 0.0)
    tool.fini()

    # 5. Timing.  A degraded run has holes, and the event simulation
    #    needs every slice's figures — so no timing report for it.
    progress.phase("timing")
    with tracer.span("timing_phase", cat="phase"):
        timing = (simulate(timeline, results, config, machine=machine,
                           cost=cost) if not degraded else None)
    report = SuperPinReport(
        config=config,
        timeline=timeline,
        slices=results,
        signatures=signatures,
        tool=tool,
        timing=timing,
        exit_code=timeline.exit_code,
        slice_timings=timings,
        slice_outcomes=supervised.outcomes,
        degraded_slices=degraded,
        slice_phase_seconds=ended - released,
        transport_seconds=supervised.transport_seconds,
        trace=tracer,
        metrics=metrics,
    )
    # Host-time account of the pipeline.  With no master (a replay) the
    # pipeline delay is the whole slice phase, as on a drained run.
    master_done = released
    if master is not None:
        report.control_phase_seconds = master.control_seconds
        report.signature_phase_seconds = master.signature_seconds
        report.master_overlap_seconds = master.overlap_seconds
        master_done = master.done_at
    if progress.last_result is not None:
        report.first_result_seconds = progress.first_result - progress.origin
        report.pipeline_delay_seconds = progress.last_result - master_done

    # 6. Differential audit (-spaudit).  Detection, not enforcement — a
    #    divergent run still returns its report, with the evidence on it.
    if audit is not None:
        with tracer.span("audit_phase", cat="phase"):
            report.audit = audit(report, tracer, metrics)
    return report


def replay_recording(source, tool, config: SuperPinConfig | None = None,
                     machine: MachineModel = PAPER_MACHINE,
                     cost: CostModel = DEFAULT_COST_MODEL,
                     tracer: Tracer | None = None, on_progress=None):
    """Replay a recording artifact under one tool — or a list of tools.

    The "replay many" half of ``-sprecord``, and the one way to replay
    (``superpin replay``): every run sources its boundaries, signatures
    and recorded syscall streams from the verified artifact at
    ``source``; the master is never re-run (no
    ``control_phase`` or ``signature_phase`` span exists on a replay's
    trace), and from the slice phase on a replay *is* a live run — the
    same pipeline, phase events and report.  Each tool gets a *fresh*
    timeline — slice execution mutates boundary COW forks, so nothing
    loaded is shared between runs.

    Pass a list/tuple of tools to amortize "record once" across many
    analyses: returns a list of reports in tool order.  Under
    ``-spfaults degrade`` a damaged slice section degrades that slice
    (hole in the merge) instead of failing the whole replay; any other
    policy raises :class:`~repro.errors.RecordingCorruptError` on load.
    ``-sp 0``, ``-spfilter`` and ``-sprecord`` raise
    :class:`~repro.errors.ConfigError`: serial Pin runs no slices, the
    artifact carries no symbol table, and is already recorded.
    """
    config = config or SuperPinConfig()
    refuse_serial(config, "a replay")
    single = not isinstance(tool, (list, tuple))
    if config.spfilter is not None:
        raise ConfigError(
            "-spfilter needs the program's symbol table, which a "
            "recording artifact does not carry; apply the filter at "
            "record time instead")
    if config.sprecord is not None:
        raise ConfigError(
            "-sprecord on a replay would only re-serialize the artifact "
            "it was given")
    reports = []
    for one in [tool] if single else tool:
        run_tracer = ensure_tracer(tracer)
        metrics = metrics_for(config.spmetrics)
        # Load and verify the artifact.  Only the degrade policy may
        # adopt a per-slice hole; everything else must reject damage
        # outright.
        with run_tracer.span("replay_load", cat="phase"):
            recording = load_recording(
                source, metrics=metrics,
                tolerate_damaged=config.spfaults == "degrade")
        sp = _setup_tool(one, config)
        # -spaudit on a replay is free: the artifact carries the
        # reference checkpoints and stream digests, so the oracle
        # compares against recorded truth without re-running anything.
        audit = (functools.partial(audit_against,
                                   reference_from_recording(recording.meta),
                                   None) if config.spaudit else None)
        report = _run_pipeline(
            recording.build_timeline(), recording.signatures(), one, sp,
            config, recording.recording_id, damaged=recording.damaged,
            audit=audit, machine=machine, cost=cost, tracer=run_tracer,
            metrics=metrics, progress=_Progress(on_progress, run_tracer))
        report.recording_path = recording.path
        report.recording_id = recording.recording_id
        metrics.inc("superpin.recording.replayed_slices", report.num_slices)
        reports.append(report)
    return reports[0] if single else reports
