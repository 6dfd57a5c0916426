"""Job table, admission-controlled tenant queues, and the durable log.

The daemon's scheduling state is deliberately tiny and synchronous —
every structure here is touched only from the event-loop thread, so no
locks.  Durability is the :class:`JobLog`: an append-only JSONL file
(fsync per append, torn tails tolerated on replay) recording every
submission and every terminal transition, which is what lets a
SIGKILLed daemon restart and re-enqueue the work it had accepted but
not finished.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

#: The job lifecycle.  ``queued -> running -> done | failed``;
#: cancellation is a transition to ``failed`` with error ``cancelled``
#: (from ``queued`` directly, from ``running`` at the job's next
#: progress event).
JOB_STATES = ("queued", "running", "done", "failed")

TERMINAL_STATES = ("done", "failed")


class QueueFull(RuntimeError):
    """Admission control: the daemon's queue depth limit was reached."""


class JobCancelled(BaseException):
    """Raised inside a running job when its cancel flag is set.

    Deliberately a ``BaseException``: cancellation must preempt the
    run, not be absorbed by the supervisor's per-slice ``except
    Exception`` retry ladder as if it were a slice fault.
    """


@dataclass
class Job:
    """One accepted submission, through its whole lifecycle."""

    job_id: str
    tenant: str
    spec: dict
    state: str = "queued"
    #: Terminal error text (``failed`` only).
    error: str | None = None
    #: Summary result payload (``done`` only): exit code, slice count,
    #: tool report, metric counters.
    result: dict | None = None
    #: Set to preempt the job; checked at every progress event.
    cancel_flag: threading.Event = field(default_factory=threading.Event,
                                         repr=False)
    #: When this daemon accepted (or recovered) the job, handed it to a
    #: job thread, and saw it finish (``time.monotonic()``).  In memory
    #: only: the job log records transitions, not times.
    accepted_at: float = field(default_factory=time.monotonic, repr=False)
    dispatched_at: float | None = field(default=None, repr=False)
    finished_at: float | None = field(default=None, repr=False)

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def public(self) -> dict:
        """The client-visible job record (no live handles)."""
        record = {"job_id": self.job_id, "tenant": self.tenant,
                  "state": self.state,
                  "tool": self.spec.get("tool", "icount2"),
                  "program": self.spec.get("workload", "<asm>")}
        if self.error is not None:
            record["error"] = self.error
        if self.result is not None:
            record["result"] = self.result
        if self.dispatched_at is not None:
            record["queue_wait_seconds"] = (self.dispatched_at
                                            - self.accepted_at)
            if self.finished_at is not None:
                record["run_seconds"] = (self.finished_at
                                         - self.dispatched_at)
        return record


class JobQueue:
    """Bounded queues, one per tenant, drained round-robin.

    Admission control is a single global depth bound: once
    ``max_depth`` jobs are queued (across all tenants), further
    submissions raise :class:`QueueFull` — the client sees a clean
    rejection instead of the daemon buffering without bound.  Fairness
    is round-robin across tenants that have work: a tenant submitting
    100 jobs cannot starve one submitting 2, because each scheduling
    decision takes the *next tenant's* head job, not the globally
    oldest.
    """

    def __init__(self, max_depth: int = 64):
        if max_depth <= 0:
            raise ValueError("max_depth must be positive")
        self.max_depth = max_depth
        self._queues: dict[str, deque[Job]] = {}
        self._rotation: deque[str] = deque()

    def depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def depths(self) -> dict[str, int]:
        return {tenant: len(queue)
                for tenant, queue in sorted(self._queues.items()) if queue}

    def push(self, job: Job) -> None:
        if self.depth() >= self.max_depth:
            raise QueueFull(
                f"queue depth limit {self.max_depth} reached")
        if job.tenant not in self._queues:
            self._queues[job.tenant] = deque()
            self._rotation.append(job.tenant)
        self._queues[job.tenant].append(job)

    def pop(self) -> Job | None:
        """Next job, round-robin across non-empty tenant queues."""
        for _ in range(len(self._rotation)):
            tenant = self._rotation[0]
            self._rotation.rotate(-1)
            queue = self._queues.get(tenant)
            if queue:
                return queue.popleft()
        return None

    def remove(self, job: Job) -> bool:
        """Withdraw a still-queued job (cancellation)."""
        queue = self._queues.get(job.tenant)
        if queue is None or job not in queue:
            return False
        queue.remove(job)
        return True


class JobLog:
    """Append-only durable record of submissions and terminal states.

    One JSON object per line; every append is flushed and fsynced
    before the daemon acts on the transition, so the log never claims
    less than the truth.  A torn final line (the daemon died mid-write)
    is ignored on replay — the transition it would have recorded simply
    re-happens.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._handle = open(self.path, "ab")

    def append(self, record: dict) -> None:
        line = (json.dumps(record, separators=(",", ":"), sort_keys=True)
                + "\n").encode("utf-8")
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def submitted(self, job: Job) -> None:
        self.append({"kind": "submit", "job_id": job.job_id,
                     "tenant": job.tenant, "spec": job.spec})

    def finished(self, job: Job) -> None:
        self.append({"kind": "state", "job_id": job.job_id,
                     "state": job.state, "error": job.error})

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass


def recover_jobs(path) -> list[Job]:
    """Replay a job log; returns accepted-but-unfinished jobs, in order.

    This is the SIGKILL-recovery path: every job the dead daemon had
    durably accepted (a ``submit`` line) without durably finishing (no
    terminal ``state`` line) comes back ``queued`` — including jobs
    that were *running* when the daemon died, since an interrupted run
    left no result and must simply run again.  Undecodable lines (the
    torn tail) and records for unknown jobs are skipped.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return []
    jobs: dict[str, Job] = {}
    finished: set[str] = set()
    for line in lines:
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue  # torn tail (or bit rot): the transition is lost
        if not isinstance(record, dict):
            continue
        kind = record.get("kind")
        job_id = record.get("job_id")
        if not isinstance(job_id, str):
            continue
        if kind == "submit" and isinstance(record.get("spec"), dict):
            jobs[job_id] = Job(job_id=job_id,
                               tenant=record.get("tenant", "default"),
                               spec=record["spec"])
        elif kind == "state" and record.get("state") in TERMINAL_STATES:
            finished.add(job_id)
    return [job for job_id, job in jobs.items()
            if job_id not in finished]
