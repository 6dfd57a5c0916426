"""Signature recording, slice worker entry point, measured slice timings.

The two units of work the pipeline is made of:

1. **A boundary's signature** (:func:`record_boundary_signature`) — the
   end signature of the slice before it, recorded the moment the
   boundary is cut.  It reads only its own boundary snapshot, which is
   what lets the master run on while earlier slices execute, and
   recording leaves that snapshot's copy-on-write state untouched (the
   quick-register lookahead runs on a throwaway
   :meth:`~repro.machine.memory.Memory.scratch_fork`, never on the
   snapshot itself — forking the snapshot would freeze its pages and
   charge the real slice a phantom COW fault per resident page).
   :func:`record_signatures` is the drained form: the same call over a
   timeline that is already final.
2. **Slice job** (:func:`slice_job` / :func:`run_slice_job`) — a slice's
   contents are fully determined at fork time: record/playback removes
   every kernel dependence, the same determinism property rr exploits
   to re-execute recordings on other cores.  A job is one tuple —
   boundary snapshot, interval records, end signature, tool-context
   template, SP handle, config — and its outcome one
   ``(result, fork_seconds, run_seconds, metrics)`` record.  Which
   process runs the job, and whether either side is ever pickled, is
   the executor's business (:mod:`repro.superpin.supervisor`).

Pickling a job as one tuple keeps shared references (tool ↔ SP handle ↔
areas) coherent on the far side; an outcome record crossing a process
boundary or entering the journal is framed with a length prefix and
checksum (:func:`frame_record`) so damage surfaces as a structured
:class:`~repro.superpin.faults.CorruptResultFault`.

Wall-clock self-timing is structured tracing (:mod:`repro.obs`): each
landed slice is placed on the timeline as ``slice`` / ``slice.fork`` /
``slice.run`` spans (:func:`synthesize_slice_spans`; the merge phase
adds ``slice.merge``).  :class:`SliceTimings` — the measured counterpart
to the virtual-cycle figures, used by
``SuperPinReport.measured_parallelism`` — is a *view* over those spans
(:func:`slice_timings_from_records`), not separate bookkeeping.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

from ..machine.cpu import CpuState
from ..obs.metrics import metrics_for, NULL_METRICS
from ..obs.tracer import NULL_TRACER, TrackAllocator
from .api import SliceToolContext, SPControl
from .control import Boundary, MasterTimeline
from .journal import frame_blob
from .signature import (DEFAULT_QUICK_REGS, Lookahead, record_signature,
                        Signature)
from .slices import run_slice
from .switches import SuperPinConfig


@dataclass
class SliceTimings:
    """Measured (host wall-clock) seconds for one slice's lifecycle.

    A view over the slice phase's trace spans (see
    :func:`slice_timings_from_records`), kept as a stable structure so
    reports and benchmarks don't parse raw span records.
    """

    index: int
    #: Parent-side payload serialization plus result deserialization.
    pickle_seconds: float = 0.0
    #: Worker-side payload materialization — the real fork analogue.
    fork_seconds: float = 0.0
    #: run_slice execution proper (worker-side when parallel).
    run_seconds: float = 0.0
    #: Parent-side merge of this slice's results into the shared areas.
    merge_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (self.pickle_seconds + self.fork_seconds
                + self.run_seconds + self.merge_seconds)


#: Span name -> SliceTimings field: the trace-to-timings projection.
TIMING_SPANS = {
    "slice.pickle": "pickle_seconds",
    "slice.fork": "fork_seconds",
    "slice.run": "run_seconds",
    "slice.merge": "merge_seconds",
}


def slice_timings_from_records(records, n_slices: int,
                               metrics=NULL_METRICS) -> list[SliceTimings]:
    """Project trace span records onto per-slice :class:`SliceTimings`.

    Only spans named in :data:`TIMING_SPANS` and tagged with a ``slice``
    argument contribute; durations for the same (slice, field) pair sum,
    so a payload-pickle span and a result-decode span both land in
    ``pickle_seconds`` exactly like the old hand-rolled counters did.

    The ``slice`` tag must be a genuine int in range.  ``True`` is an
    ``int`` subclass in Python, so an ``isinstance`` guard would let a
    boolean tag silently credit slice 1 with another slice's seconds;
    and an out-of-range index means the span and the interval list
    disagree about the run's shape.  Neither is a valid projection, so
    such spans are dropped and counted under ``superpin.timings.dropped``
    instead of vanishing.
    """
    timings = [SliceTimings(index=k) for k in range(n_slices)]
    dropped = 0
    for record in records:
        field_name = TIMING_SPANS.get(record.name)
        if field_name is None or not record.args:
            continue
        k = record.args.get("slice")
        if type(k) is int and 0 <= k < n_slices:
            timing = timings[k]
            setattr(timing, field_name,
                    getattr(timing, field_name) + record.duration)
        else:
            dropped += 1
    if dropped:
        metrics.inc("superpin.timings.dropped", dropped)
    return timings


# -- signature phase ----------------------------------------------------------

def record_boundary_signature(boundary: Boundary,
                              lookahead: Lookahead | None = None
                              ) -> Signature:
    """Record the signature of one boundary snapshot (recording mode).

    Runs the §4.4 quick-register lookahead on a *throwaway* scratch copy
    of the boundary snapshot, then captures registers and top-of-stack
    words from the snapshot itself.  The scratch must be a
    :meth:`~repro.machine.memory.Memory.scratch_fork`: an ordinary
    ``fork`` would freeze every resident page of ``boundary.mem_fork``,
    and the real slice — which later runs on that same snapshot — would
    be charged a phantom ``cow_fault`` on its first write to each page,
    corrupting the §6 fork-overhead figures.

    ``lookahead`` is the caller's resident lookahead machine — whoever
    records a run of boundaries keeps one, so each lookahead reuses
    what the last one decoded; without it one is made on the spot.
    """
    cpu = CpuState()
    cpu.restore(boundary.cpu_snapshot)
    if lookahead is None:
        lookahead = Lookahead()
    quick = lookahead.select(boundary.cpu_snapshot,
                             boundary.mem_fork.scratch_fork())
    return record_signature(cpu, boundary.mem_fork,
                            quick_regs=quick or DEFAULT_QUICK_REGS,
                            adaptive=quick is not None)


def record_signatures(timeline: MasterTimeline,
                      config: SuperPinConfig | None = None,
                      tracer=NULL_TRACER) -> list[Signature]:
    """Record every interior boundary's signature of a final timeline
    (``config`` is accepted and unused: the frozen benchmark passes it).

    ``signatures[k]`` is the signature of boundary ``k + 1`` — the end
    signature slice ``k`` must detect (the final slice has none; it runs
    to the replayed exit).  A live run records each as its boundary is
    cut (``runtime._MasterStream``); this is the same call drained, for
    callers that drive the phases themselves.  Either way slices may run
    in any order: each signature reads only its own boundary snapshot
    and mutates nothing.
    """
    signatures = []
    lookahead = Lookahead()
    for k, boundary in enumerate(timeline.boundaries[1:]):
        with tracer.span("signature", cat="signature",
                         args={"boundary": k + 1}):
            signatures.append(
                record_boundary_signature(boundary, lookahead))
    return signatures


# -- slice job ----------------------------------------------------------------

def slice_job(timeline: MasterTimeline, signatures: list[Signature],
              template: SliceToolContext, sp: SPControl,
              config: SuperPinConfig, k: int) -> tuple:
    """Everything slice ``k`` needs to run, as one picklable tuple.

    ``signatures[k]`` is the end signature slice ``k`` must detect (the
    final slice has none).
    """
    return (timeline.boundaries[k], timeline.intervals[k],
            signatures[k] if k < len(signatures) else None,
            template, sp, config)


def run_slice_job(work, machine=None) -> tuple:
    """Worker entry point: run one :func:`slice_job`.

    ``machine`` is the resident :class:`~repro.superpin.slices.
    SliceMachine` of whoever is executing jobs one after another (the
    executor's, or a pool worker's own); without one the slice gets a
    machine of its own.

    ``work`` is the job tuple itself or its pickle; materializing a
    pickled job is the real fork analogue and is timed as
    ``fork_seconds`` (None for a live tuple — nothing was forked).
    Returns ``(result, fork_seconds, run_seconds, metrics)`` where
    ``metrics`` is the job-local registry snapshot (None when
    ``-spmetrics`` is off), which the control process merges — so
    counter totals are identical wherever the job ran.
    """
    fork_seconds = None
    if isinstance(work, bytes):
        t0 = time.perf_counter()
        work = pickle.loads(work)
        fork_seconds = time.perf_counter() - t0
    boundary, interval, end_signature, template, sp, config = work
    metrics = metrics_for(config.spmetrics)
    t0 = time.perf_counter()
    result = run_slice(boundary, interval, end_signature, template, sp,
                       config, metrics=metrics, machine=machine)
    return (result, fork_seconds, time.perf_counter() - t0,
            metrics.snapshot())


def frame_record(record: tuple) -> bytes:
    """Pickle and frame a :func:`run_slice_job` outcome record.

    The frame (length prefix + sha256,
    :func:`~repro.superpin.journal.frame_blob`) makes a short read or bit
    flip surface as :class:`~repro.superpin.faults.CorruptResultFault` —
    which the supervisor's retry ladder handles — instead of a raw
    ``UnpicklingError``.
    """
    return frame_blob(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))


def synthesize_slice_spans(tracer, tracks: TrackAllocator, k: int,
                           done_at: float, fork_seconds: float | None,
                           run_seconds: float,
                           args: dict | None = None) -> int:
    """Place a completed slice's spans on the timeline.

    The job reports *durations*; the control process knows the
    completion instant on its own clock.  Anchoring the span chain at
    ``done_at - fork - run`` reconstructs the execution window, and the
    track allocator lanes concurrent windows apart so the trace renders
    the fan-out as parallel tracks.  ``slice.fork`` appears only when a
    pickled job was materialized.  Returns the track used.
    """
    run_start = max(0.0, done_at - run_seconds)
    start = max(0.0, run_start - (fork_seconds or 0.0))
    track = tracks.place(start, done_at)
    slice_args = {"slice": k}
    if args:
        slice_args.update(args)
    parent = tracer.add_span("slice", start, done_at, cat="slice",
                             track=track, args=slice_args)
    if fork_seconds is not None:
        tracer.add_span("slice.fork", start, run_start, cat="slice",
                        track=track, args={"slice": k}, parent_id=parent)
    tracer.add_span("slice.run", run_start, done_at, cat="slice",
                    track=track, args={"slice": k}, parent_id=parent)
    return track
