"""The slice phase's one executor: supervised slices over two transports.

The paper's control process survives misbehaving slices — a slice that
never detects its ending signature is killed by the runaway guard
(§4.3/§4.4) and the run keeps going.  This module gives the
reproduction the same discipline at the host level.  Because
record/playback makes every slice deterministic and re-executable from
its fork snapshot (the property rr-style replay exploits), a slice
whose *execution* fails — worker crash, hang, corrupted result,
runaway — can simply be re-run, in another worker or in-process,
without affecting any other slice.

:func:`supervise_slices` is the whole slice phase: one pending / in
flight / done loop over :func:`~repro.superpin.parallel.run_slice_job`
attempts, whose **transport** is either a call in this process
(``-spworkers 0``) or a submit to a process pool (``-spworkers N``).
Around every attempt, whatever the transport:

* the **attempt ladder** — a failed slice is re-executed on the
  transport up to :data:`RETRIES` times (exponential backoff between),
  then once in-process, and then the **policy** (``-spfaults``)
  decides: ``retry`` raises :class:`~repro.errors.SliceExecutionError`;
  ``degrade`` records the slice as a hole (:class:`SliceOutcome` with
  status ``degraded``), merges the survivors in slice order, and
  completes the run with ``all_exact == False``.  ``failfast`` is the
  same ladder with no rungs: the first failure raises, cancelling
  everything still queued;
* the **journal**: every landed result is appended write-ahead, and a
  resumed run's journaled results are adopted instead of re-executed.

The same loop is the consumer of the **master stream**.  On a live run
the timeline and its signatures are still growing when the phase
starts: ``stream`` is a generator whose every ``next()`` lets the master
cut one more boundary and records its signature, and slice ``k`` is
*ready* once ``signatures[k]`` exists or the master is exhausted — the
paper's sleep condition.  Per-slice tables are appended as slices become
ready; with a pool the loop advances the master one cut per turn,
between a submit and a poll, so the master, the signatures and
the slices overlap in host time and supervision (deadline clocks,
reaping) never waits for the master; with no workers it exhausts the
master before the first in-process attempt — nothing to overlap with —
which is the order a run with ``stream=None`` (a replay, a timeline
already final) has anyway.  Cooperative and single-threaded: no lock,
and nothing a run reports depends on how the turns interleaved.

Each transport runs its attempts on a resident
:class:`~repro.superpin.slices.SliceMachine` — this phase's own (or the
one its caller lends it, ``resident``) for in-process attempts, each
pool worker's own for as long as the worker lives — so a slice is a
context switch and a trace an earlier slice of the same process
compiled is re-instrumented, not re-translated.  The
machine shows in no result: a retried slice lands on a machine that ran
other slices and still produces the clean first attempt's record.

The pool transport is this module's own pool: ``-spworkers`` forked
worker processes, each with one job pipe, one result pipe and its
resident machine, driven by the supervisor's one thread.  No helper
thread runs in this process, so the master never hands the GIL to one:
a submit is one length-prefixed write, and while the master is live a
turn of the loop polls the result pipes and the process sentinels
without waiting.  A worker serves its jobs in order and holds at most
one queued behind the running one, so the parent always knows which
slice each worker is running; it runs at a lower scheduling priority
than the master, whose cuts every slice waits for.  What only separate
processes need:

* a **wall-clock deadline** per slice, derived from its master
  instruction count plus a floor (:func:`slice_deadline`); a worker
  still running a slice past it is killed and replaced, alone, and the
  slice is charged.  An in-process attempt cannot be preempted by a
  single-threaded parent, so there only injected hangs surface as
  :class:`~repro.errors.SliceDeadlineError`;
* a worker that **dies** (its result pipe ends, or its process
  sentinel fires) is replaced, and the slice it was running is charged.

Either way, a job queued behind the failed slice never ran: it is
resubmitted under the same attempt number and charged nothing, and
every other worker goes on with what it holds.

Every attempt is recorded as a :class:`SliceAttempt` on the slice's
:class:`SliceOutcome`, which lands on ``SuperPinReport.slice_outcomes``
— the structured answer to "what happened to slice k and why".

Retries are bit-exact: every retry re-materializes the slice from its
original pickled job, through the same worker entry point, so a
recovered slice's result — counters, cow faults, compile log — is
identical to a clean first-attempt run.

What the slices' compile logs say about each other — ``warm_starts``,
the compiles an earlier slice had paid for — is counted once, in slice
order, when every slice has landed
(:func:`~repro.superpin.warmstore.count_warm_starts`): no slice waits
for another.
"""

from __future__ import annotations

import fcntl
import functools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import select
import struct
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

from ..errors import ReproError, SliceDeadlineError, SliceExecutionError
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import ensure_tracer, TrackAllocator
from .api import SliceToolContext, SPControl
from .control import Interval, MasterTimeline
from .faults import (CORRUPT_BLOB, CorruptResultFault, FaultKind, FaultPlan,
                     maybe_inject, tamper_result, WorkerCrashFault)
from .journal import unframe_blob
from .parallel import (frame_record, run_slice_job, slice_job,
                       slice_timings_from_records, SliceTimings,
                       synthesize_slice_spans)
from .sharedmem import resolve_shared_areas
from .signature import Signature
from .slices import SliceMachine, SliceResult
from .switches import SuperPinConfig
from .warmstore import count_warm_starts


@dataclass
class SliceAttempt:
    """One execution attempt of one slice, successful or not."""

    #: Ordinal execution number for this slice (1-based).
    number: int
    #: Where the result came from: ``"worker"``, ``"inprocess"``, or
    #: ``"journal"`` (adopted on resume, never run).
    where: str
    #: Host wall-clock seconds the attempt was in flight.
    seconds: float = 0.0
    #: ``None`` on success, else a one-line description of the failure.
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SliceOutcome:
    """Structured per-slice supervision record (status + history)."""

    index: int
    #: ``"ok"`` (a result was produced) or ``"degraded"`` (policy
    #: ``degrade`` gave up on the slice and left a hole in the merge).
    status: str = "ok"
    attempts: list[SliceAttempt] = field(default_factory=list)
    #: Wall-clock deadline this slice's worker attempts ran under.
    deadline_seconds: float = 0.0
    #: Final error for a degraded slice (None when status is ``ok``).
    error: str | None = None

    @property
    def num_attempts(self) -> int:
        return len(self.attempts)

    @property
    def recovered(self) -> bool:
        """True when the slice succeeded only after a failed attempt."""
        return self.status == "ok" and any(not a.ok for a in self.attempts)


@dataclass
class SupervisedSlices:
    """What the supervised slice phase hands back to the runtime."""

    #: Surviving results in slice order (degraded slices are absent).
    results: list[SliceResult]
    timings: list[SliceTimings]
    outcomes: list[SliceOutcome]
    #: CPU seconds the supervising thread spent on the pool transport:
    #: writing jobs, polling the pool, reading and decoding results (0.0
    #: in-process).
    transport_seconds: float = 0.0

    @property
    def degraded(self) -> list[int]:
        return [o.index for o in self.outcomes if o.status == "degraded"]


#: Results that landed while the master was still running — what the
#: overlap bought.  Depends on host scheduling (and is zero on a drained
#: run), so like ``PLACEMENT_COUNTERS`` it must stay out of anything
#: compared across runs.
LANDED_BEFORE_MASTER_END = "superpin.stream.landed_before_master_end"


#: Host seconds every slice's deadline starts from: fixed costs
#: (payload materialization, pool scheduling).
DEADLINE_FLOOR = 5.0

#: Host seconds a slice's deadline grows per master instruction of its
#: interval, on top of :data:`DEADLINE_FLOOR`.
DEADLINE_PER_INS = 5e-4

#: Re-executions of a failed slice on its transport before the
#: in-process fallback (policies ``retry`` / ``degrade``).
RETRIES = 2

#: Host seconds before a failed slice's first re-execution; doubles per
#: further failure.
RETRY_BACKOFF = 0.05


def slice_deadline(interval: Interval) -> float:
    """Wall-clock deadline for one slice, in host seconds.

    The floor covers fixed costs; the per-instruction allowance scales
    with the master's instruction count for the interval, mirroring how
    the §4.3 runaway guard scales the virtual budget.
    """
    return DEADLINE_FLOOR + interval.instructions * DEADLINE_PER_INS


def _attempt_slice(work, index: int, attempt: int,
                   plan: FaultPlan | None, where: str,
                   machine: SliceMachine | None) -> tuple:
    """Execute one slice attempt: fault injection, then the real run.

    One code path for both transports — ``work`` is the pickled job, or
    (in-process, when nothing can re-read the bytes) the live job tuple
    — so an in-process result is bit-identical to a worker result.
    ``machine`` is the resident machine of whoever is making the
    attempt.  Returns the
    :func:`~repro.superpin.parallel.run_slice_job` record.
    """
    spec = maybe_inject(plan, index, attempt, where)
    if spec is not None and spec.kind is FaultKind.CORRUPT:
        raise CorruptResultFault(
            f"injected corrupt result: slice {index} attempt {attempt}")
    record = run_slice_job(work, machine)
    if spec is not None and spec.kind is FaultKind.TAMPER:
        # Silent corruption: the attempt looks like a clean success to
        # the supervisor; only the -spaudit oracle can catch it.
        tamper_result(record[0])
    return record


#: A job message's head: slice index and attempt number.  The pickled
#: job follows.
_JOB_HEADER = struct.Struct("<II")

#: A result message's first byte: a framed record follows, or the
#: pickled exception the attempt raised.
_RECORD, _RAISED = b"r", b"e"

#: Bytes a job message may take in its pipe beyond its own length (the
#: connection's length prefix, with room to spare).
_MESSAGE_SLACK = 16

#: How far a worker lowers its own scheduling priority.  The master is
#: the pipeline's critical path — no slice can start before it cuts the
#: slice — and with ``-spworkers`` as large as the cores there are, a
#: live master shares them with the workers.  At this niceness a worker
#: that shares a core with the master gets about a tenth of it, and all
#: of it as soon as the master sleeps or ends.  ``gzip-loop`` at
#: ``-spworkers 2`` on two cores: 9 of 10 pairs faster than at the
#: master's own priority, 0.084 against 0.092 s calibrated.
_WORKER_NICENESS = 10


def _worker_attempt(payload: bytes, index: int, attempt: int,
                    plan: FaultPlan | None, machine: SliceMachine) -> bytes:
    """One attempt in a pool worker, its record framed."""
    try:
        return frame_record(
            _attempt_slice(payload, index, attempt, plan, "worker",
                           machine))
    except CorruptResultFault:
        # A corrupt fault in a worker is garbage on the wire, so the
        # parent's undecodable-blob handling is what gets exercised.
        return CORRUPT_BLOB


class _WorkerTraceback(Exception):
    """Where in a pool worker an attempt's exception was raised: the
    ``__cause__`` the parent gives the exception."""

    def __str__(self) -> str:
        return self.args[0]


def _pickled_error(exc: Exception) -> bytes:
    """``exc`` and its formatted traceback, pickled for the parent; an
    exception that does not make the round trip becomes a plain
    :class:`~repro.errors.ReproError` naming it."""
    trace = traceback.format_exc()
    try:
        data = pickle.dumps((exc, trace), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(
            (ReproError(f"{type(exc).__name__}: {exc}"), trace))


def _raised(data: bytes) -> Exception:
    """The exception a worker's attempt raised, from its pickle."""
    error, trace = pickle.loads(data)
    error.__cause__ = _WorkerTraceback(trace)
    return error


def _serve_jobs(jobs, results, plan: FaultPlan | None, parent_ends) -> None:
    """A pool worker's whole life: run each job its pipe brings on the
    resident machine and write back the outcome, until the parent kills
    it or goes (its job pipe ends, or its result pipe breaks)."""
    for conn in parent_ends:
        # The parent's ends of every worker's pipes, this one's too,
        # inherited through the fork: held here, they would keep a pipe
        # from ending when the process at its other end has gone.
        conn.close()
    try:
        os.nice(_WORKER_NICENESS)
    except OSError:
        pass
    # The worker's resident machine: every slice it runs is a context
    # switch onto it, for as long as the worker lives.
    machine = SliceMachine()
    while True:
        try:
            message = jobs.recv_bytes()
        except EOFError:
            return
        index, attempt = _JOB_HEADER.unpack_from(message)
        try:
            reply = _RECORD + _worker_attempt(
                message[_JOB_HEADER.size:], index, attempt, plan, machine)
        except Exception as exc:
            reply = _RAISED + _pickled_error(exc)
        try:
            results.send_bytes(reply)
        except OSError:
            return


def _pipe_capacity(conn) -> int:
    """Bytes ``conn``'s pipe holds before a write has to wait for the
    reader: what Linux reports, elsewhere the POSIX floor (so no job is
    ever queued that could make a write wait)."""
    try:
        return fcntl.fcntl(conn.fileno(), fcntl.F_GETPIPE_SZ)
    except (AttributeError, OSError):
        return select.PIPE_BUF


def supervise_slices(timeline: MasterTimeline, signatures: list[Signature],
                     template: SliceToolContext, sp: SPControl,
                     config: SuperPinConfig, tracer=None,
                     metrics=NULL_METRICS, journal=None, preloaded=None,
                     damaged=None, source_digest=None, on_progress=None,
                     stream=None, resident=None) -> SupervisedSlices:
    """Run the slice phase under the configured fault policy.

    Returns results ordered by slice index (regardless of completion
    order), per-slice wall-clock timings — a view over the spans this
    call emitted into ``tracer`` (a private tracer when the caller
    passes none) — and one :class:`SliceOutcome` per slice.  Results
    are identical for any worker count, policy and journal setting; the
    parity is enforced by the test suite.  Counters land in ``metrics``.

    Durability hooks:

    * ``journal`` — a :class:`~repro.superpin.journal.RunJournal`;
      every successful slice's framed result blob is appended durably.
    * ``preloaded`` — slice index -> framed blob adopted from a resumed
      journal; adopted slices are not re-executed.
    * ``damaged`` — slice index -> the
      :class:`~repro.errors.RecordingCorruptError` a replayed
      recording's load tolerated for that slice (``-spfaults degrade``
      only); these slices are degraded upfront, never attempted.

    * ``source_digest`` — what is being executed (program digest or
      recording id): the content half of the trace-store key the
      warm account reads and fills.  None (a caller that drove the
      phases itself) counts ``warm_starts`` against slice 0 alone.
    * ``on_progress`` — called in this process as ``on_progress("slice",
      {"completed": n, "total": slices cut so far, "final": bool})``
      after each slice result lands (the hook the serve daemon streams
      to its clients; ``total`` is only the run's slice count once
      ``final``), and as ``("phase", {"phase": "slice"})`` when the
      first slice is released; an exception it raises aborts the phase.
    * ``stream`` — the live master: an iterator whose every ``next()``
      cuts one more boundary onto ``timeline`` and appends its signature
      to ``signatures``, exhausted when both are final.  None means they
      already are (a replay, a caller that drove the phases itself).
      Slice ``k`` is ready once ``signatures[k]`` exists or the master
      is exhausted.  An aborted phase closes the stream.
    * ``resident`` — a :class:`~repro.superpin.slices.SliceMachine` the
      caller owns and lends to this phase alone, to run its in-process
      attempts on (the serve daemon's, which has run other jobs on it).
      None builds one that goes with the phase.  Shows in no result.
    """
    return _Supervisor(timeline, signatures, template, sp, config, tracer,
                       metrics, journal, preloaded, damaged, source_digest,
                       on_progress, stream, resident).run()


@dataclass
class _Flight:
    """Bookkeeping for one attempt written to a worker."""

    index: int
    attempt: int
    #: Bytes its job message may take in the worker's pipe.
    size: int
    #: ``perf_counter()`` when its worker took the attempt up and its
    #: deadline clock started; None while it is queued behind another.
    started: float | None = None

    def elapsed(self, now: float) -> float:
        return 0.0 if self.started is None else now - self.started


class _Worker:
    """One pool process, this process's ends of its two pipes, and the
    attempts written to it, the one it is running first."""

    def __init__(self, process, jobs, results):
        self.process = process
        self.jobs = jobs
        self.results = results
        self.flights: deque[_Flight] = deque()

    def takes(self, size: int, capacity: int) -> bool:
        """Whether a job of ``size`` bytes can be written now without
        the write waiting on this worker: it is idle (and reads the job
        whole), or it holds one job — perhaps still unread in the pipe —
        and both fit the pipe.  So this process never waits on a job
        write while the worker waits on a result write."""
        return not self.flights or (
            len(self.flights) == 1
            and self.flights[0].size + size <= capacity)

    def shut(self) -> int:
        """Kill the process (if it still runs), reap it and close the
        pipes; returns its exit code."""
        self.process.kill()
        self.process.join()
        code = self.process.exitcode
        self.process.close()
        self.jobs.close()
        self.results.close()
        return code


class _Supervisor:
    """One supervised slice phase: jobs, attempts, policy."""

    def __init__(self, timeline: MasterTimeline,
                 signatures: list[Signature], template: SliceToolContext,
                 sp: SPControl, config: SuperPinConfig, tracer, metrics,
                 journal, preloaded, damaged, source_digest, on_progress,
                 stream, resident=None):
        self.sp = sp
        self.config = config
        self.tracer = ensure_tracer(tracer)
        self.metrics = metrics
        self._source_digest = source_digest
        self.on_progress = on_progress
        self._mark = self.tracer.mark()
        self._tracks = TrackAllocator()
        self.journal = journal
        #: Growing while the master is live: ``signatures[k]`` existing
        #: is what makes slice ``k`` ready (its boundary and interval
        #: were final a moment earlier).
        self.timeline = timeline
        self.signatures = signatures
        #: The live master; None once it is exhausted (or never ran
        #: here), which makes every remaining slice ready.
        self._stream = stream
        # Per-slice tables, appended as slices become ready (`_release`).
        self.outcomes: list[SliceOutcome] = []
        self.results: dict[int, SliceResult] = {}
        #: Per-slice execution counter — the attempt numbers the fault
        #: plan sees.  A job queued behind a failed slice is resubmitted
        #: under the *same* attempt number (it never ran).
        self.executions: list[int] = []
        #: Per-slice charged failures, spent against the attempt ladder.
        self.failures: list[int] = []
        #: Pickled jobs of slices that have not landed yet.
        self.payloads: list[bytes | None] = []
        self._preloaded = preloaded or {}
        self._damaged = damaged or {}
        # The attempt ladder: a failed slice re-runs on the transport
        # ``RETRIES`` times, then once in-process, so a fault plan
        # fires on the same attempt numbers for any worker count.
        # ``failfast`` is the same ladder with no rungs.
        failfast = config.spfaults == "failfast"
        self._retries, self._fallbacks = ((0, 0) if failfast
                                          else (RETRIES, 1))
        # The transport: a process pool (launched at the first submit),
        # or (0 workers) this process.
        self._workers = max(0, config.spworkers)
        #: The pool's slots, empty until the first submit; a slot whose
        #: worker was lost is None until a job needs it again.
        self._pool: list[_Worker | None] = []
        #: What a worker's job pipe holds (`_Worker.takes`).
        self._capacity = 0
        self.transport_seconds = 0.0
        #: Where in-process attempts run (the 0-worker transport and the
        #: ladder's last rung): the caller's resident machine, or this
        #: phase's own, gone with it.
        self._machine = resident if resident is not None else SliceMachine()
        # A job is pickled only when something may read the bytes: a
        # pool worker, or a retry — which needs the pristine boundary,
        # because run_slice adopts ``boundary.mem_fork``'s own pages (a
        # ``fork()`` there would charge phantom COW faults).
        self._pickle_jobs = self._workers > 0 or not failfast
        self._job = functools.partial(slice_job, timeline, signatures,
                                      template, sp, config)
        self._pending: deque[int] = deque()

    def _todo(self, k: int) -> bool:
        """True while slice ``k`` still needs an execution attempt."""
        return (k not in self.results
                and self.outcomes[k].status != "degraded")

    def _work(self, k: int):
        """Slice ``k``'s job: its pickle (built once, kept until the
        slice lands) or, when nothing can re-read the bytes, the live
        tuple."""
        if self.payloads[k] is not None:
            return self.payloads[k]
        job = self._job(k)
        if not self._pickle_jobs:
            return job
        with self.tracer.span("slice.pickle", cat="slice",
                              args={"slice": k}):
            self.payloads[k] = pickle.dumps(job, pickle.HIGHEST_PROTOCOL)
        return self.payloads[k]

    def _decode(self, k: int, blob: bytes) -> tuple:
        """Unframe and unpickle a result blob (traced as slice.pickle)."""
        with self.tracer.span("slice.pickle", cat="slice",
                              args={"slice": k, "op": "decode"}):
            data = unframe_blob(blob)
            with resolve_shared_areas(self.sp.areas):
                try:
                    return pickle.loads(data)
                except Exception as exc:
                    raise CorruptResultFault(
                        f"slice {k} returned an undecodable result "
                        f"blob: {exc}") from exc

    def _adopt(self, k: int, blob: bytes) -> None:
        """Adopt a journaled framed result blob for slice ``k``.

        A blob that does not decode leaves the slice to re-execute — a
        journal entry survived its checksum but pickles to garbage,
        which only tampering can produce; re-execution is the safe
        response either way.
        """
        try:
            result, _, _, snapshot = self._decode(k, blob)
        except CorruptResultFault:
            return
        self.metrics.merge(snapshot)
        self.results[k] = result
        self.outcomes[k].attempts.append(
            SliceAttempt(number=0, where="journal", seconds=0.0))
        self.metrics.inc("superpin.journal.resumed_slices")
        self._notify()

    def _notify(self) -> None:
        """Stream slice completion to the caller (serve daemon hook).

        While the master is live the total is the slices cut so far —
        the interval it is running is one too — and not ``final``.
        """
        if self.on_progress is not None:
            live = self._stream is not None
            self.on_progress("slice", {
                "completed": len(self.results),
                "total": len(self.timeline.intervals) + live,
                "final": not live})

    def _advance(self) -> None:
        """Let the master cut one more boundary, or find it exhausted."""
        try:
            next(self._stream)
        except StopIteration:
            self._stream = None
            # Every slice but the last was ready before the master ended
            # (deterministic); how many of them had landed by then is
            # what the overlap bought (zero when drained).
            self.metrics.inc("superpin.stream.ready_before_master_end",
                             len(self.signatures))
            self.metrics.inc(LANDED_BEFORE_MASTER_END, 0)
        else:
            self.metrics.observe(
                "superpin.stream.ready_queue_depth",
                len(self.signatures) - len(self.outcomes)
                + len(self._pending))

    def _release(self) -> None:
        """Queue what has become ready.

        Slice ``k`` is ready once ``signatures[k]`` exists or the master
        is exhausted — the paper's sleep condition.  A ready slice gets
        its row in the per-slice tables; a damaged recording section
        degrades it on the spot (the artifact has no trustworthy spec
        for it, so it is never attempted — the same hole a degraded
        execution leaves) and a journaled result is adopted as-is (a
        blob that fails to decode is simply re-executed).
        """
        live = self._stream is not None
        ready = (len(self.signatures) if live
                 else len(self.timeline.intervals))
        if not self.outcomes and ready and self.on_progress is not None:
            self.on_progress("phase", {"phase": "slice"})
        for k in range(len(self.outcomes), ready):
            self.outcomes.append(SliceOutcome(
                index=k, deadline_seconds=slice_deadline(
                    self.timeline.intervals[k])))
            self.executions.append(0)
            self.failures.append(0)
            self.payloads.append(None)
            if k in self._damaged:
                self._degrade(k, self._damaged[k])
            elif k in self._preloaded:
                self._adopt(k, self._preloaded[k])
            if self._todo(k):
                self._pending.append(k)

    # -- the executor --------------------------------------------------------

    def run(self) -> SupervisedSlices:
        pending = self._pending
        try:
            while True:
                if self._stream is not None:
                    self._advance()
                    if not self._workers:
                        # One process has nothing to overlap the master
                        # with, and an in-process slice adopts its
                        # boundary's pages, which -sprecord (the
                        # stream's tail) must serialize first: drain.
                        continue
                self._release()
                in_flight = self._in_flight()
                if not (pending or in_flight or self._stream is not None):
                    break
                if not self._workers:
                    self._attempt_here(pending.popleft())
                    continue
                # Sliding window: one attempt per worker plus one queued
                # behind them, so a freed worker never idles for a round
                # trip through this process — plus one more while the
                # master is live, because then that round trip waits for
                # a cut to finish.
                live = self._stream is not None
                while (pending and in_flight <= self._workers + live
                       and self._submit_next()):
                    in_flight += 1
                if not in_flight:
                    # Nothing ready yet, or everything left was adopted
                    # or degraded; loop around (to the master, or out)
                    # instead of waiting on an empty pool.
                    continue
                # While the master is live the next turn is its next
                # cut, so only look; after it, block until a result, a
                # death or the nearest deadline.
                self._poll(0.0 if live else self._until_deadline())
                # Every turn, not only an idle one: neighbours that keep
                # landing must not keep a hung worker alive.
                self._reap_expired()
        except BaseException:
            # Abort promptly (a failure under failfast or retry, a
            # cancelling on_progress) instead of draining queued slices,
            # and stop the master where it stands.
            if self._stream is not None:
                self._stream.close()
            self._close_pool()
            raise
        self._close_pool()
        timings = slice_timings_from_records(
            self.tracer.records_since(self._mark), len(self.outcomes),
            metrics=self.metrics)
        for track in range(1, self._tracks.num_tracks + 1):
            self.tracer.name_track(track, f"slice lane {track}")
        results = [self.results[k] for k in sorted(self.results)]
        count_warm_starts(results, self.config, self._source_digest,
                          self.metrics)
        return SupervisedSlices(results=results, timings=timings,
                                outcomes=self.outcomes,
                                transport_seconds=self.transport_seconds)

    def _attempt_here(self, k: int) -> None:
        """In-process transport, and the ladder's last-resort fallback.

        Cannot be preempted by a single-threaded parent, so only
        injected hangs surface as a deadline error here.
        """
        work = self._work(k)
        self.executions[k] += 1
        attempt = self.executions[k]
        t0 = time.perf_counter()
        try:
            # Shared areas in a pickled job resolve to the canonical
            # instances: in the control process's own address space a
            # slice's writes land in the one true region, exactly as the
            # live tuple's ``__deepcopy__`` has it.
            with resolve_shared_areas(self.sp.areas):
                record = _attempt_slice(work, k, attempt,
                                        self.config.fault_plan, "inprocess",
                                        self._machine)
        except Exception as exc:
            self._record_failure(k, attempt, "inprocess",
                                 time.perf_counter() - t0, exc)
            self._after_failure(k, exc)
        else:
            self._land(k, attempt, "inprocess", time.perf_counter() - t0,
                       self.tracer.now(), record)

    def _in_flight(self) -> int:
        return sum(len(w.flights) for w in self._pool if w is not None)

    def _submit_next(self) -> bool:
        """Write the next pending slice's next attempt to a worker that
        takes it; False, with nothing consumed, when none does."""
        k = self._pending[0]
        payload = self._work(k)
        size = _JOB_HEADER.size + len(payload) + _MESSAGE_SLACK
        slot = self._place(size)
        if slot is None:
            return False
        worker = self._pool[slot]
        self._pending.popleft()
        self.executions[k] += 1
        flight = _Flight(index=k, attempt=self.executions[k], size=size)
        cpu = time.thread_time()
        try:
            worker.jobs.send_bytes(
                _JOB_HEADER.pack(k, flight.attempt) + payload)
        except OSError:
            # The worker died since the last poll: the job never left.
            self.executions[k] -= 1
            self._pending.appendleft(k)
            self._lose(slot)
            return False
        finally:
            self.transport_seconds += time.thread_time() - cpu
        if not worker.flights:
            flight.started = time.perf_counter()
        worker.flights.append(flight)
        return True

    def _place(self, size: int) -> int | None:
        """The slot a job of ``size`` bytes goes to: an idle worker; else
        an empty slot, given a worker now; else the busy worker that
        takes it and has run its slice longest.  None when none can."""
        if not self._pool:
            self._launch_pool()
        best, best_key = None, None
        for slot, worker in enumerate(self._pool):
            if worker is None:
                key = (0, 0.0)
            elif not worker.flights:
                return slot
            elif worker.takes(size, self._capacity):
                key = (1, worker.flights[0].started)
            else:
                continue
            if best_key is None or key < best_key:
                best, best_key = slot, key
        if best is not None and self._pool[best] is None:
            self._launch(best)
        return best

    def _poll(self, timeout: float) -> None:
        """Wait up to ``timeout`` for a result or a worker's exit, then
        collect from every worker that has something to say."""
        ready_for = {}
        for slot, worker in enumerate(self._pool):
            if worker is not None:
                ready_for[worker.results] = ready_for[
                    worker.process.sentinel] = slot
        cpu = time.thread_time()
        ready = multiprocessing.connection.wait(list(ready_for), timeout)
        self.transport_seconds += time.thread_time() - cpu
        for slot in sorted({ready_for[r] for r in ready}):
            self._collect(slot)

    def _collect(self, slot: int) -> None:
        """File every result worker ``slot`` has written, in order; lose
        the worker if its pipe has ended or its process has exited."""
        worker = self._pool[slot]
        while worker.flights and worker.results.poll():
            cpu = time.thread_time()
            try:
                message = worker.results.recv_bytes()
            except (EOFError, OSError):
                break  # the pipe ended: the worker has died
            now = time.perf_counter()
            flight = worker.flights.popleft()
            if worker.flights:
                # The job queued behind it is the one running now.
                worker.flights[0].started = now
            k = flight.index
            done_at = self.tracer.now()
            try:
                if message[:1] == _RAISED:
                    raise _raised(message[1:])
                blob = message[1:]
                record = self._decode(k, blob)
            except Exception as exc:
                self.transport_seconds += time.thread_time() - cpu
                self._record_failure(k, flight.attempt, "worker",
                                     flight.elapsed(now), exc)
                self._after_failure(k, exc)
            else:
                self.transport_seconds += time.thread_time() - cpu
                self._land(k, flight.attempt, "worker",
                           flight.elapsed(now), done_at, record, blob)
        else:
            # Nothing (more) to read: lose the worker only if its
            # process has exited.
            if worker.process.is_alive():
                return
        self._lose(slot)

    # -- attempt bookkeeping and the policy ladder ---------------------------

    def _land(self, k: int, attempt: int, where: str, seconds: float,
              done_at: float, record: tuple,
              blob: bytes | None = None) -> None:
        """File a successful attempt's record for slice ``k``."""
        result, fork_seconds, run_seconds, snapshot = record
        self.metrics.merge(snapshot)
        synthesize_slice_spans(self.tracer, self._tracks, k, done_at,
                               fork_seconds, run_seconds,
                               args={"attempt": attempt, "where": where})
        self.results[k] = result
        # Nothing can re-read a landed slice's job: a long run holds
        # in-flight pickles only.
        self.payloads[k] = None
        self.outcomes[k].attempts.append(
            SliceAttempt(number=attempt, where=where, seconds=seconds))
        if self._stream is not None:
            self.metrics.inc(LANDED_BEFORE_MASTER_END)
        self._notify()
        if self.journal is not None:
            # Write-ahead: the framed blob lands durably *before* the
            # run proceeds.  Only here does an in-process record get
            # framed at all.
            self.journal.append(
                k, blob if blob is not None else frame_record(record))

    def _record_failure(self, k: int, attempt: int, where: str,
                        seconds: float, error: BaseException | str) -> None:
        self.outcomes[k].attempts.append(
            SliceAttempt(number=attempt, where=where, seconds=seconds,
                         error=str(error)))
        now = self.tracer.now()
        self.tracer.add_span(
            "slice.attempt", max(0.0, now - seconds), now, cat="attempt",
            track=self._tracks.place(max(0.0, now - seconds), now),
            args={"slice": k, "attempt": attempt, "where": where,
                  "ok": False, "error": str(error)})
        self.failures[k] += 1
        self.metrics.inc("superpin.supervisor.failed_attempts")

    def _after_failure(self, k: int, error: BaseException) -> None:
        """Route a charged failure down the attempt ladder."""
        if self.failures[k] <= self._retries:
            self.metrics.inc("superpin.supervisor.retries")
            self.tracer.instant("slice.retry", cat="supervisor",
                                args={"slice": k,
                                      "failures": self.failures[k]})
            time.sleep(RETRY_BACKOFF * 2 ** max(0, self.failures[k] - 1))
            self._pending.append(k)
        elif self.failures[k] <= self._retries + self._fallbacks:
            self.metrics.inc("superpin.supervisor.inprocess_fallbacks")
            self._attempt_here(k)
        elif self.config.spfaults == "degrade":
            self._degrade(k, error)
        else:
            raise SliceExecutionError(
                f"slice {k} failed after "
                f"{self.outcomes[k].num_attempts} attempt(s) under "
                f"-spfaults {self.config.spfaults}: {error}",
                index=k, attempts=self.outcomes[k].attempts) from error

    def _degrade(self, k: int, error) -> None:
        """Give up on slice ``k``: leave a hole in the merge."""
        self.outcomes[k].status = "degraded"
        self.outcomes[k].error = str(error)
        self.metrics.inc("superpin.supervisor.degraded_slices")
        self.tracer.instant("slice.degraded", cat="supervisor",
                            args={"slice": k, "error": str(error)})

    # -- pool upkeep ---------------------------------------------------------

    def _until_deadline(self) -> float:
        """Host seconds until the nearest running slice's deadline."""
        now = time.perf_counter()
        return max(0.01, min(
            self.outcomes[w.flights[0].index].deadline_seconds
            - w.flights[0].elapsed(now)
            for w in self._pool if w is not None and w.flights))

    def _reap_expired(self) -> None:
        """Kill and replace each worker still running a slice past the
        slice's deadline; that slice alone is charged."""
        now = time.perf_counter()
        for slot, worker in enumerate(self._pool):
            if worker is None or not worker.flights:
                continue
            flight = worker.flights[0]
            deadline = self.outcomes[flight.index].deadline_seconds
            if flight.elapsed(now) <= deadline:
                continue
            if worker.results.poll():
                # Its result arrived while this process was busy (an
                # in-process fallback): it made the deadline.
                self._collect(slot)
                continue
            self.metrics.inc("superpin.supervisor.deadline_hits")
            self.tracer.instant(
                "deadline.reaped", cat="supervisor",
                args={"slice": flight.index, "attempt": flight.attempt,
                      "deadline_seconds": deadline})
            self._lose(slot,
                       f"deadline exceeded ({deadline:.2f}s); worker reaped",
                       SliceDeadlineError(f"slice {flight.index} missed its "
                                          f"{deadline:.2f}s deadline"))

    def _lose(self, slot: int, error: str | None = None,
              cause: BaseException | None = None) -> None:
        """Take worker ``slot`` out of the pool — killed, if it still
        runs — and settle what it held.

        The slice it was running is charged ``error`` (by default, the
        worker's death).  A job queued behind that one never ran: it
        goes back to the front of the queue under the same attempt
        number, uncharged.  The slot gets a fresh worker when a job next
        needs it.
        """
        worker = self._pool[slot]
        self._pool[slot] = None
        code = worker.shut()
        if error is None:
            error = f"worker process died (exit code {code})"
            cause = WorkerCrashFault(error)
        self.metrics.inc("superpin.supervisor.pool_rebuilds")
        self.tracer.instant("worker.lost", cat="supervisor",
                            args={"slot": slot, "error": error})
        if not worker.flights:
            return
        running, *queued = worker.flights
        for flight in reversed(queued):
            self.executions[flight.index] = flight.attempt - 1
            self._pending.appendleft(flight.index)
        self._record_failure(running.index, running.attempt, "worker",
                             running.elapsed(time.perf_counter()), error)
        self._after_failure(running.index, cause)

    def _launch_pool(self) -> None:
        """Fork the pool, every worker at once, at the first submit —
        with a live master one cut into the run, when this process's
        heap is smallest.  Once the master is exhausted the pool is
        sized to no more than the slices there are."""
        size = self._workers
        if self._stream is None:
            size = min(size, len(self.outcomes))
        self._pool = [None] * size
        for slot in range(size):
            self._launch(slot)

    def _launch(self, slot: int) -> None:
        """Fork a worker into ``slot``.

        ``fork``, explicitly: it is the mechanism being reproduced (a
        slice is a fork of the master), and a worker must inherit the
        loaded program rather than re-import it — under ``forkserver``
        (the POSIX default from Python 3.14) every worker of every run
        would pay the import, about one whole small run.
        """
        context = multiprocessing.get_context("fork")
        job_reader, job_writer = context.Pipe(duplex=False)
        result_reader, result_writer = context.Pipe(duplex=False)
        parent_ends = [conn for w in self._pool if w is not None
                       for conn in (w.jobs, w.results)]
        process = context.Process(
            target=_serve_jobs, daemon=True,
            args=(job_reader, result_writer, self.config.fault_plan,
                  parent_ends + [job_writer, result_reader]))
        process.start()
        job_reader.close()
        result_writer.close()
        self._pool[slot] = _Worker(process, job_writer, result_reader)
        if not self._capacity:
            self._capacity = _pipe_capacity(job_writer)

    def _close_pool(self) -> None:
        """Kill and reap every worker: idle ones when the phase is done,
        whatever they run when it is aborted."""
        for worker in self._pool:
            if worker is not None:
                worker.shut()
        self._pool = []
