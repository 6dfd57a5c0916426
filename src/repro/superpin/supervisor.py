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
between a submit and a bounded wait, so the master, the signatures and
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

The pool transport adds what only separate processes need:

* a **wall-clock deadline** per slice, derived from its master
  instruction count plus a configurable floor
  (:func:`slice_deadline`); a worker still running past it is reaped
  (worker processes terminated, pool rebuilt, innocent in-flight
  slices resubmitted without touching their retry budget).  An
  in-process attempt cannot be preempted by a single-threaded parent,
  so there only injected hangs surface as
  :class:`~repro.errors.SliceDeadlineError`;
* **pool reconstruction**: a ``BrokenProcessPool`` (a worker died)
  rebuilds the pool and resubmits every in-flight slice instead of
  aborting the run.

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

import functools
import multiprocessing
import pickle
import time
from collections import deque
from itertools import islice
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..errors import SliceDeadlineError, SliceExecutionError
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import ensure_tracer, TrackAllocator
from .api import SliceToolContext, SPControl
from .control import Interval, MasterTimeline
from .faults import (CORRUPT_BLOB, CorruptResultFault, FaultKind, FaultPlan,
                     maybe_inject, tamper_result)
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
    #: False when the attempt ended through no fault of its own (the
    #: pool was torn down to reap a neighbour) and was resubmitted
    #: without touching the slice's retry budget.
    charged: bool = True

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

    @property
    def degraded(self) -> list[int]:
        return [o.index for o in self.outcomes if o.status == "degraded"]


#: Results that landed while the master was still running — what the
#: overlap bought.  Depends on host scheduling (and is zero on a drained
#: run), so like ``PLACEMENT_COUNTERS`` it must stay out of anything
#: compared across runs.
LANDED_BEFORE_MASTER_END = "superpin.stream.landed_before_master_end"


#: The longest the loop waits for a result between two cuts of a live
#: master.  Polling ``future.done()`` instead read 12% slower in a
#: two-core spell (0.251 against 0.224 s raw on ``gzip-loop``, ROADMAP
#: item 1); 0.5 ms reads the same as this.
MASTER_PAUSE_SECONDS = 0.0002

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


#: The resident machine of *this pool worker*, made by the pool's
#: initializer: every slice a worker runs is a context switch onto it,
#: for as long as the worker lives.  None in every process that is not a
#: pool worker — the in-process transport keeps its machine on the
#: supervisor, so no two runs in one process ever share one.
_worker_machine: SliceMachine | None = None


def _init_worker() -> None:
    """``ProcessPoolExecutor`` initializer (runs once, in the worker)."""
    global _worker_machine
    _worker_machine = SliceMachine()


def _worker_attempt(payload: bytes, index: int, attempt: int,
                    plan: FaultPlan | None) -> bytes:
    """Process-pool entry point: one attempt, its record framed."""
    try:
        return frame_record(
            _attempt_slice(payload, index, attempt, plan, "worker",
                           _worker_machine))
    except CorruptResultFault:
        # A corrupt fault in a worker is garbage on the wire, so the
        # parent's undecodable-blob handling is what gets exercised.
        return CORRUPT_BLOB


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
    """Bookkeeping for one in-flight worker attempt."""

    index: int
    attempt: int
    #: ``perf_counter()`` when a worker (approximately) took the attempt
    #: up and its deadline clock started; None while it is still queued.
    started: float | None = None

    def elapsed(self, now: float) -> float:
        return 0.0 if self.started is None else now - self.started


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
        #: plan sees.  Resubmissions after a neighbour's reap re-run the
        #: *same* attempt number (the original never got to finish).
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
        # The transport: a process pool (built at the first submit), or
        # (0 workers) this process.
        self._workers = max(0, config.spworkers)
        self._executor: ProcessPoolExecutor | None = None
        #: Where in-process attempts run (the 0-worker transport and the
        #: ladder's last rung): the caller's resident machine, or this
        #: phase's own, gone with it.
        self._machine = resident if resident is not None else SliceMachine()
        self._flights: dict = {}
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
        pending, flights = self._pending, self._flights
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
                if not (pending or flights or self._stream is not None):
                    break
                if not self._workers:
                    self._attempt_here(pending.popleft())
                    continue
                # Sliding window: one attempt per worker plus one queued
                # behind them, so a freed worker never idles for a round
                # trip through this process — plus one more while the
                # master is live, because then that round trip waits for
                # a cut to finish (measured, ROADMAP item 1).  The pool
                # serves its queue FIFO, so the front `workers` flights
                # are (approximately) running: their deadline clocks
                # start here, a queued one's only once it moves up —
                # every clock is fair.
                live = self._stream is not None
                while pending and len(flights) <= self._workers + live:
                    self._submit(pending.popleft())
                if not flights:
                    # Nothing ready yet, or everything left was adopted
                    # or degraded; loop around (to the master, or out)
                    # instead of waiting on an empty flight set.
                    continue
                now = time.perf_counter()
                running = list(islice(flights.values(), self._workers))
                for flight in running:
                    if flight.started is None:
                        flight.started = now
                if live:
                    # The next turn of the loop is the master's next
                    # cut: wait just long enough for the pool's own
                    # threads to take the GIL (the master is CPU-bound
                    # Python in this one; without the pause they move a
                    # job to a worker tens of milliseconds late).
                    timeout = MASTER_PAUSE_SECONDS
                else:
                    timeout = max(0.01, min(
                        self.outcomes[f.index].deadline_seconds
                        - f.elapsed(now) for f in running))
                done, _ = wait(set(flights), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                self._process_done(done)
                # Every turn, not only an idle one: neighbours that keep
                # landing must not keep a hung worker alive.
                self._reap_expired()
        except BaseException:
            # Abort promptly (a failure under failfast or retry, a
            # cancelling on_progress) instead of draining queued slices,
            # and stop the master where it stands.
            if self._stream is not None:
                self._stream.close()
            self._teardown(self._executor, flights)
            raise
        if self._executor is not None:
            self._executor.shutdown()
        timings = slice_timings_from_records(
            self.tracer.records_since(self._mark), len(self.outcomes),
            metrics=self.metrics)
        for track in range(1, self._tracks.num_tracks + 1):
            self.tracer.name_track(track, f"slice lane {track}")
        results = [self.results[k] for k in sorted(self.results)]
        count_warm_starts(results, self.config, self._source_digest,
                          self.metrics)
        return SupervisedSlices(results=results, timings=timings,
                                outcomes=self.outcomes)

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

    def _submit(self, k: int, attempt: int | None = None) -> None:
        """Launch one worker attempt (new attempt number unless given)."""
        payload = self._work(k)
        if attempt is None:
            self.executions[k] += 1
            attempt = self.executions[k]
        if self._executor is None:
            self._executor = self._new_pool()
        try:
            future = self._executor.submit(_worker_attempt, payload, k,
                                       attempt, self.config.fault_plan)
        except (BrokenProcessPool, RuntimeError):
            # The pool died between bookkeeping and submit; rebuild and
            # try once more (a second failure propagates).
            self._rebuild_pool()
            future = self._executor.submit(_worker_attempt, payload, k,
                                       attempt, self.config.fault_plan)
        self._flights[future] = _Flight(index=k, attempt=attempt)

    def _process_done(self, done) -> None:
        for future in done:
            flight = self._flights.pop(future, None)
            if flight is None:
                continue
            k, attempt = flight.index, flight.attempt
            seconds = flight.elapsed(time.perf_counter())
            done_at = self.tracer.now()
            try:
                blob = future.result()
                record = self._decode(k, blob)
            except BrokenProcessPool as exc:
                # A worker died; every in-flight future died with it and
                # the culprit is unknowable, so all of them are charged
                # and rescheduled (innocents succeed on their next try).
                casualties = [flight] + list(self._flights.values())
                self._flights.clear()
                self._rebuild_pool()
                now = time.perf_counter()
                for casualty in casualties:
                    self._record_failure(
                        casualty.index, casualty.attempt, "worker",
                        min(seconds, casualty.elapsed(now)),
                        "worker process died (process pool broken)")
                    self._after_failure(casualty.index, exc)
                return
            except Exception as exc:
                self._record_failure(k, attempt, "worker", seconds, exc)
                self._after_failure(k, exc)
            else:
                self._land(k, attempt, "worker", seconds, done_at, record,
                           blob)

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
                        seconds: float, error: BaseException | str,
                        charged: bool = True) -> None:
        self.outcomes[k].attempts.append(
            SliceAttempt(number=attempt, where=where, seconds=seconds,
                         error=str(error), charged=charged))
        now = self.tracer.now()
        self.tracer.add_span(
            "slice.attempt", max(0.0, now - seconds), now, cat="attempt",
            track=self._tracks.place(max(0.0, now - seconds), now),
            args={"slice": k, "attempt": attempt, "where": where,
                  "ok": False, "charged": charged, "error": str(error)})
        if charged:
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

    def _reap_expired(self) -> None:
        """Kill the pool if any in-flight slice blew its deadline.

        A ``ProcessPoolExecutor`` cannot cancel a *running* future, so
        reaping means terminating the worker processes and rebuilding
        the pool.  The expired slice is charged a deadline failure;
        innocent in-flight slices are resubmitted with the same attempt
        number and an untouched retry budget.
        """
        now = time.perf_counter()
        expired, innocent = [], []
        for flight in self._flights.values():
            if (flight.elapsed(now)
                    > self.outcomes[flight.index].deadline_seconds):
                expired.append(flight)
            else:
                innocent.append(flight)
        if not expired:
            return
        for flight in expired:
            self.metrics.inc("superpin.supervisor.deadline_hits")
            self.tracer.instant(
                "deadline.reaped", cat="supervisor",
                args={"slice": flight.index, "attempt": flight.attempt,
                      "deadline_seconds":
                          self.outcomes[flight.index].deadline_seconds})
        self._flights.clear()
        self._rebuild_pool()
        for flight in innocent:
            self._record_failure(
                flight.index, flight.attempt, "worker",
                flight.elapsed(now),
                "interrupted by pool teardown (neighbour reaped); "
                "resubmitted", charged=False)
            self._submit(flight.index, attempt=flight.attempt)
        for flight in expired:
            deadline = self.outcomes[flight.index].deadline_seconds
            self._record_failure(
                flight.index, flight.attempt, "worker",
                flight.elapsed(now),
                f"deadline exceeded ({deadline:.2f}s); worker reaped")
            self._after_failure(
                flight.index,
                SliceDeadlineError(f"slice {flight.index} missed its "
                                   f"{deadline:.2f}s deadline"))

    def _rebuild_pool(self) -> None:
        self.metrics.inc("superpin.supervisor.pool_rebuilds")
        self.tracer.instant("pool.rebuild", cat="supervisor")
        self._teardown(self._executor, None)
        self._executor = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        """A pool of forked workers.

        ``fork``, explicitly: it is the mechanism being reproduced (a
        slice is a fork of the master), and a worker must inherit the
        loaded program rather than re-import it — under ``forkserver``
        (the POSIX default from Python 3.14) every worker of every run
        would pay the import, about one whole small run.  A fork pool
        launches all its workers at the first submit, so once the master
        is exhausted it is sized to no more than the slices there are.
        """
        workers = self._workers
        if self._stream is None:
            workers = min(workers, len(self.outcomes))
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            mp_context=multiprocessing.get_context("fork"))

    @staticmethod
    def _teardown(executor, flights) -> None:
        """Shut a pool down promptly: cancel queued work, kill workers.

        ``shutdown(cancel_futures=True)`` alone would wait for running
        (possibly hung) workers, so the worker processes are terminated
        first.  Touches the executor's ``_processes`` map — internal,
        but stable across supported CPythons — and degrades to a plain
        prompt shutdown if it ever disappears.
        """
        if executor is None:
            return
        for future in flights or ():
            future.cancel()
        try:
            processes = list((getattr(executor, "_processes", None)
                              or {}).values())
            for process in processes:
                process.terminate()
        except Exception:
            processes = []
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for process in processes:
            try:
                process.join(timeout=5.0)
            except Exception:
                pass
