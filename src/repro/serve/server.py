"""The SuperPin serve daemon: socket front end + shared worker pool.

One asyncio event loop owns every piece of scheduling state (job
table, tenant queues, subscriber lists); SuperPin runs execute on a
bounded :class:`~concurrent.futures.ThreadPoolExecutor` so the loop
stays responsive while jobs run.  A thread is the right isolation unit
here — not a process — because each *job* already fans its slice phase
out over ``-spworkers`` worker processes, and because the run's
``on_progress`` callback must hand events back to the loop
(``call_soon_threadsafe``), which a process boundary would forbid.

What a finished job leaves behind is the daemon's, not the job's
(:class:`Residents`): the assembled program, and the machines the job's
in-process slices, its master and its master's signature lookaheads ran
on, with every trace they decoded and every loop the master found hot.
The next job that names the same program checks both out — a context
switch, not a cold start — and what it may reuse of them is still
decided trace by trace, by the checks that decide it between two slices
of one run.

Durability: accepted submissions are fsynced to ``<state_dir>/
jobs.jsonl`` before the client hears "queued", so a SIGKILLed daemon
restarted on the same state dir re-enqueues everything it had accepted
but not finished (:func:`repro.serve.jobs.recover_jobs`).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from ..fsutil import atomic_write
from ..obs.metrics import MetricsRegistry
from .jobs import (Job, JobCancelled, JobLog, JobQueue, QueueFull,
                   recover_jobs)
from .protocol import (BadJobSpec, encode_line, decode_line,
                       MAX_LINE_BYTES, ProtocolError, validate_request)

#: Events a subscriber queue can carry; ``done``/``failed`` terminate.
TERMINAL_EVENTS = ("done", "failed")

#: Idle residents (and programs) the daemon keeps per job thread.  One
#: is what a thread serving one program needs; the rest is room for the
#: programs of a few tenants to alternate without evicting each other.
#: A constant, not a switch: an idle resident of a bench job guest
#: weighs well under a megabyte (docs/serving.md has the measurement).
RESIDENTS_PER_WORKER = 4


class Residents:
    """What the jobs this daemon has finished left behind, by what a
    job *names*: one table from the SHA-256 of a submitted text, or a
    suite workload's ``(name, clock_hz, scale)``, to the assembled
    program and the idle *residents* last used for it.

    A resident is a :class:`~repro.superpin.slices.SliceMachine`: the
    machine a run's in-process slices context-switch onto, (its
    ``lookahead``) the one its master signs boundaries on, and (its
    ``master``) the engine its master runs on.  All three keep what is
    nobody's — decoded traces, pooled steps, code objects, how hot each
    trace ran, how often each loop head was reached — so a job that
    names a program the daemon has run decodes next to nothing and runs
    its loops as generated code from their first trip.  The key is a
    locality hint and nothing more: what a job reuses of a resident is
    decided per trace, against the guest words now loaded
    (``Jit._refusal``), exactly as between two slices of one run, and
    code *instrumented* for one job serves the next under an equal
    instrumentation digest — the same tool class, constructor arguments
    and ``-spfilter`` — once a comparison has verified it, as between
    two slices of one run (``SliceMachine.adopt``, ``Jit.template``).

    A job holds its resident **exclusively** from :meth:`checkout` until
    it ends; two concurrent jobs of one program hold two.  Only a job
    that finished gives its resident back — one that raised or was
    cancelled drops it, uninspected.  Programs are shared, never written
    (nothing writes a ``Program`` once it is assembled).  At most
    ``slots`` programs and ``slots`` idle residents are kept; the least
    recently used program goes first, its residents with it.
    """

    def __init__(self, workers: int, metrics):
        self.slots = RESIDENTS_PER_WORKER * max(workers, 1)
        self.metrics = metrics
        self._lock = threading.Lock()
        #: ``key -> (program, idle residents)``, least recently used
        #: first.  An entry whose residents are all checked out still
        #: serves its program.
        self._entries: OrderedDict = OrderedDict()
        for counter in ("serve.programs.hits", "serve.programs.misses",
                        "serve.machines.hits", "serve.machines.misses",
                        "serve.machines.evictions",
                        "serve.machines.dropped"):
            metrics.inc(counter, 0)

    def _idle(self) -> int:
        return sum(len(idle) for _, idle in self._entries.values())

    def kept(self) -> dict:
        """How much is resident right now (``status`` shows it)."""
        with self._lock:
            return {"slots": self.slots, "programs": len(self._entries),
                    "idle_machines": self._idle()}

    @contextlib.contextmanager
    def checkout(self, key, build):
        """``with residents.checkout(key, build) as (program, resident)``:
        the program ``key`` names (``build()`` makes it on a miss) and a
        resident nobody else holds, for the length of the block."""
        from ..superpin.slices import SliceMachine
        inc = self.metrics.inc
        program = resident = None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                program, idle = entry
                if idle:
                    resident = idle.pop()
            inc("serve.programs.misses" if entry is None
                else "serve.programs.hits")
            inc("serve.machines.misses" if resident is None
                else "serve.machines.hits")
        if program is None:
            program = build()
        if resident is None:
            resident = SliceMachine()
        try:
            yield program, resident
        except BaseException:
            with self._lock:
                inc("serve.machines.dropped")
            raise
        with self._lock:
            entries = self._entries
            _, idle = entries.setdefault(key, (program, []))
            entries.move_to_end(key)
            idle.append(resident)
            while len(entries) > self.slots or self._idle() > self.slots:
                _, (_, evicted) = entries.popitem(last=False)
                inc("serve.machines.evictions", len(evicted))


class ServeDaemon:
    """One daemon instance: queue, pool, socket server, durable log."""

    def __init__(self, socket_path, state_dir, workers: int = 1,
                 max_depth: int = 64):
        self.socket_path = os.fspath(socket_path)
        self.state_dir = os.fspath(state_dir)
        self.workers = workers
        self.queue = JobQueue(max_depth=max_depth)
        self.jobs: dict[str, Job] = {}
        self.metrics = MetricsRegistry()
        self.residents = Residents(workers, self.metrics)
        self._subscribers: dict[str, list[asyncio.Queue]] = {}
        self._next_id = 1
        self._running = 0
        self._log: JobLog | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._kick: asyncio.Event | None = None

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> None:
        """Serve until a ``shutdown`` request arrives (blocking)."""
        asyncio.run(self._main())

    async def _main(self) -> None:
        os.makedirs(self.state_dir, exist_ok=True)
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._kick = asyncio.Event()
        self._recover()
        self._log = JobLog(os.path.join(self.state_dir, "jobs.jsonl"))
        self._executor = ThreadPoolExecutor(
            max_workers=max(self.workers, 1),
            thread_name_prefix="serve-job")
        if os.path.exists(self.socket_path):
            # A dead daemon's socket file refuses rebinding; since we
            # were launched to own this path, a leftover is stale.
            os.unlink(self.socket_path)
        server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path,
            limit=MAX_LINE_BYTES + 1024)
        scheduler = asyncio.ensure_future(self._scheduler())
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            scheduler.cancel()
            await self._drain_running()
            self._executor.shutdown(wait=True)
            self._write_exports()
            self._log.close()
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def _recover(self) -> None:
        """Re-enqueue jobs a dead daemon accepted but never finished."""
        recovered = recover_jobs(os.path.join(self.state_dir,
                                              "jobs.jsonl"))
        for job in recovered:
            self.jobs[job.job_id] = job
            try:
                number = int(job.job_id.lstrip("j"))
            except ValueError:
                number = 0
            self._next_id = max(self._next_id, number + 1)
            try:
                self.queue.push(job)
                self.metrics.inc("serve.jobs.recovered")
            except QueueFull:
                job.state = "failed"
                job.error = "queue full after crash recovery"

    async def _drain_running(self) -> None:
        """Let in-flight jobs finish before the process exits."""
        while self._running > 0:
            await asyncio.sleep(0.02)

    def _write_exports(self) -> None:
        """Shutdown artifact: daemon counters + every job's record."""
        snapshot = {
            "counters": dict(self.metrics.counters),
            "histograms": self._histograms(),
            "jobs": [self.jobs[job_id].public()
                     for job_id in sorted(self.jobs)],
        }
        atomic_write(os.path.join(self.state_dir, "metrics.json"),
                     (json.dumps(snapshot, indent=2, sort_keys=True)
                      + "\n").encode("utf-8"))

    # -- scheduling --------------------------------------------------------

    async def _scheduler(self) -> None:
        """Dispatch queued jobs whenever pool slots free up.

        ``workers == 0`` is the accept-only mode (used by tests and for
        drain-before-upgrade operation): jobs queue durably, nothing
        dispatches.
        """
        while True:
            self._kick.clear()
            while (self.workers > 0 and self._running < self.workers):
                job = self.queue.pop()
                if job is None:
                    break
                self._dispatch(job)
            await self._kick.wait()

    def _histograms(self) -> dict:
        """The daemon's latency histograms, as ``status`` and the
        shutdown export carry them (observed on the loop thread only)."""
        return {name: histogram.as_dict() for name, histogram
                in self.metrics.histograms.items()}

    def _dispatch(self, job: Job) -> None:
        job.state = "running"
        job.dispatched_at = time.monotonic()
        self._running += 1
        self.metrics.inc("serve.jobs.dispatched")
        self.metrics.observe("serve.job.queue_wait_seconds",
                             job.dispatched_at - job.accepted_at)
        self._emit(job.job_id, {"event": "state", "job_id": job.job_id,
                                "state": "running"})
        future = self._loop.run_in_executor(self._executor,
                                            self._run_job, job)
        future.add_done_callback(
            lambda fut, job=job: self._loop.call_soon_threadsafe(
                self._job_finished, job, fut))

    def _run_job(self, job: Job) -> dict:
        """Execute one job on a pool thread; returns the result record."""

        def on_progress(event: str, payload: dict) -> None:
            if job.cancel_flag.is_set():
                raise JobCancelled("cancelled")
            self._loop.call_soon_threadsafe(
                self._emit, job.job_id,
                {"event": "progress", "job_id": job.job_id,
                 "kind": event, "payload": payload})

        report, tool = run_job_spec(job.spec, self.residents,
                                    on_progress=on_progress)
        return job_result(report, tool)

    def _job_finished(self, job: Job, future) -> None:
        self._running -= 1
        job.finished_at = time.monotonic()
        self.metrics.observe("serve.job.run_seconds",
                             job.finished_at - job.dispatched_at)
        error = future.exception()
        if error is None:
            job.state = "done"
            job.result = future.result()
            self.metrics.inc("serve.jobs.completed")
            self._emit(job.job_id,
                       {"event": "metrics", "job_id": job.job_id,
                        "counters": job.result.get("counters", {})})
            self._emit(job.job_id, {"event": "done",
                                    "job_id": job.job_id,
                                    "result": job.result})
        else:
            job.state = "failed"
            job.error = str(error) or type(error).__name__
            counter = ("serve.jobs.cancelled"
                       if isinstance(error, JobCancelled)
                       else "serve.jobs.failed")
            self.metrics.inc(counter)
            self._emit(job.job_id, {"event": "failed",
                                    "job_id": job.job_id,
                                    "error": job.error})
        self._log.finished(job)
        self._kick.set()

    # -- events ------------------------------------------------------------

    def _emit(self, job_id: str, event: dict) -> None:
        for queue in self._subscribers.get(job_id, []):
            queue.put_nowait(event)
        if event.get("event") in TERMINAL_EVENTS:
            self._subscribers.pop(job_id, None)

    def _subscribe(self, job_id: str) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(job_id, []).append(queue)
        return queue

    def _terminal_event(self, job: Job) -> dict:
        if job.state == "done":
            return {"event": "done", "job_id": job.job_id,
                    "result": job.result}
        return {"event": "failed", "job_id": job.job_id,
                "error": job.error or "failed"}

    # -- the socket front end ----------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            while not self._stop.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode_line(
                        {"ok": False, "code": "protocol",
                         "error": "oversize frame"}))
                    break
                if not line:
                    break
                try:
                    request = decode_line(line)
                    op = validate_request(request)
                except BadJobSpec as exc:
                    self.metrics.inc("serve.jobs.rejected")
                    writer.write(encode_line({"ok": False,
                                              "code": "bad_spec",
                                              "error": str(exc)}))
                    await writer.drain()
                    continue
                except ProtocolError as exc:
                    writer.write(encode_line({"ok": False,
                                              "code": "protocol",
                                              "error": str(exc)}))
                    break
                if not await self._handle_request(op, request, writer):
                    break
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, RuntimeError):
                pass

    async def _handle_request(self, op: str, request: dict,
                              writer) -> bool:
        """Serve one request; False closes the connection."""
        if op == "ping":
            writer.write(encode_line({"ok": True, "pong": True}))
            return True
        if op == "shutdown":
            writer.write(encode_line({"ok": True, "stopping": True}))
            await writer.drain()
            self._stop.set()
            self._kick.set()
            for queues in self._subscribers.values():
                for queue in queues:
                    queue.put_nowait(None)
            return False
        if op == "status":
            writer.write(encode_line(self._status(request.get("job_id"))))
            return True
        if op == "cancel":
            writer.write(encode_line(self._cancel(request["job_id"])))
            return True
        # submit / watch, both possibly streaming.
        if op == "submit":
            job, response = self._submit(request)
            writer.write(encode_line(response))
            if job is None or not request.get("stream", True):
                return True
            queue = self._subscribe(job.job_id)
            if job.finished:
                queue.put_nowait(self._terminal_event(job))
            await self._stream(queue, writer)
            return True
        job = self.jobs.get(request["job_id"])
        if job is None:
            writer.write(encode_line({"ok": False, "code": "unknown_job",
                                      "error": "no such job"}))
            return True
        writer.write(encode_line({"ok": True, "job": job.public()}))
        if job.finished:
            writer.write(encode_line(self._terminal_event(job)))
            return True
        await self._stream(self._subscribe(job.job_id), writer)
        return True

    async def _stream(self, queue: asyncio.Queue, writer) -> None:
        """Forward a job's events until its terminal event, or until a
        shutdown (which puts ``None`` on every subscriber's queue).

        A job thread holds the GIL while it runs, so the events of a
        small job reach the loop together, at its end: whatever has
        queued goes out in one write and one drain."""
        while not self._stop.is_set():
            events = [await queue.get()]
            while not queue.empty():
                events.append(queue.get_nowait())
            stopped = None in events
            if stopped:
                del events[events.index(None):]
            writer.write(b"".join(map(encode_line, events)))
            await writer.drain()
            if stopped or events[-1].get("event") in TERMINAL_EVENTS:
                return

    # -- request implementations -------------------------------------------

    def _submit(self, request: dict):
        spec = request["job"]
        tenant = request.get("tenant", "default")
        problem = check_job_spec(spec)
        if problem is not None:
            self.metrics.inc("serve.jobs.rejected")
            return None, {"ok": False, "code": "bad_spec",
                          "error": problem}
        job = Job(job_id=f"j{self._next_id:04d}", tenant=tenant,
                  spec=spec)
        try:
            self.queue.push(job)
        except QueueFull as exc:
            self.metrics.inc("serve.jobs.rejected")
            return None, {"ok": False, "code": "queue_full",
                          "error": str(exc)}
        self._next_id += 1
        self.jobs[job.job_id] = job
        # Durable before visible: the submit line is fsynced before the
        # client hears "queued", so an accepted job survives SIGKILL.
        self._log.submitted(job)
        self.metrics.inc("serve.jobs.submitted")
        self._kick.set()
        return job, {"ok": True, "job_id": job.job_id, "state": "queued"}

    def _cancel(self, job_id: str) -> dict:
        job = self.jobs.get(job_id)
        if job is None:
            return {"ok": False, "code": "unknown_job",
                    "error": "no such job"}
        if job.finished:
            return {"ok": True, "job_id": job_id, "state": job.state,
                    "already_finished": True}
        if job.state == "queued" and self.queue.remove(job):
            job.state = "failed"
            job.error = "cancelled"
            self.metrics.inc("serve.jobs.cancelled")
            self._log.finished(job)
            self._emit(job_id, self._terminal_event(job))
            return {"ok": True, "job_id": job_id, "state": "failed"}
        # Running: the flag preempts the job at its next progress event.
        job.cancel_flag.set()
        return {"ok": True, "job_id": job_id, "state": "cancelling"}

    def _status(self, job_id: str | None) -> dict:
        if job_id is not None:
            job = self.jobs.get(job_id)
            if job is None:
                return {"ok": False, "code": "unknown_job",
                        "error": "no such job"}
            return {"ok": True, "job": job.public()}
        return {
            "ok": True,
            "daemon": {
                "workers": self.workers,
                "running": self._running,
                "queue_depth": self.queue.depth(),
                "queue_depths": self.queue.depths(),
                "max_depth": self.queue.max_depth,
                "counters": dict(self.metrics.counters),
                "histograms": self._histograms(),
                "residents": self.residents.kept(),
            },
            "jobs": [self.jobs[jid].public() for jid in sorted(self.jobs)],
        }


def check_job_spec(spec: dict) -> str | None:
    """Semantic validation beyond the protocol shape; None when fine."""
    from ..tools import TOOLS
    from ..workloads import BENCHMARK_NAMES
    tool = spec.get("tool", "icount2")
    if tool not in TOOLS:
        return f"unknown tool {tool!r}"
    workload = spec.get("workload")
    if workload is not None and workload not in BENCHMARK_NAMES:
        return f"unknown workload {workload!r}"
    try:
        build_job_config(spec)
    except Exception as exc:
        return f"bad switches: {exc}"
    return None


def build_job_config(spec: dict):
    """A job's :class:`SuperPinConfig` from its switches list, with
    metrics forced on (clients consume the counters)."""
    from ..superpin import parse_switches, SuperPinConfig
    switches = list(spec.get("switches", []))
    config = parse_switches(switches) if switches else SuperPinConfig()
    return dataclasses.replace(config, spmetrics=True)


def named_program(spec: dict, config):
    """What a job spec names, as :meth:`Residents.checkout` takes it:
    ``(key, build)`` — a suite workload at the configured clock rate and
    a scale, or inline assembly by the SHA-256 of its text."""
    if spec.get("workload") is not None:
        from ..workloads import build
        name, scale = spec["workload"], spec.get("scale", 0.25)
        return ((name, config.clock_hz, scale),
                lambda: build(name, clock_hz=config.clock_hz,
                              scale=scale).program)
    from ..isa import assemble
    text = spec["asm"]
    return (hashlib.sha256(text.encode("utf-8")).hexdigest(),
            lambda: assemble(text, name="<submitted>"))


def run_job_spec(spec: dict, residents: Residents, on_progress=None):
    """Run one job spec to completion; returns ``(report, tool)``.

    The program and the machines come from ``residents`` — kept from
    the last job that named the same program, or made now — and go back
    there if the run finishes.  The kernel seed comes from the spec, so
    identical submissions are identical runs: same results whatever the
    daemon has run before.
    """
    from ..machine import Kernel
    from ..superpin import run_superpin
    from ..tools import TOOLS
    config = build_job_config(spec)
    tool = TOOLS[spec.get("tool", "icount2")]()
    key, build = named_program(spec, config)
    with residents.checkout(key, build) as (program, resident):
        report = run_superpin(program, tool, config,
                              kernel=Kernel(seed=spec.get("seed", 42)),
                              on_progress=on_progress, resident=resident)
    return report, tool


def job_result(report, tool) -> dict:
    """The client-visible summary of one finished run."""
    counters = dict(report.metrics.counters) if report.metrics else {}
    return {
        "exit_code": report.exit_code,
        "num_slices": report.num_slices,
        "all_exact": report.all_exact,
        "degraded_slices": list(report.degraded_slices),
        "tool_report": tool.report(),
        "counters": counters,
    }
