"""The streamed pipeline: master, signatures and slices as one stream.

One oracle, the drained run.  ``-spworkers 0`` exhausts the master
before its first slice — the order every earlier revision ran in — and
with workers the same loop releases slice *k* the moment signature *k*
exists.  Nothing a run reports may tell the two apart.

Small guests finish their master before the pool has forked, so tests
that need the overlap to *happen* slow the master down
(:func:`slow_master`: a sleep per recorded signature); the parity tests
take whatever interleaving the host gives them.
"""

import dataclasses
import json
import multiprocessing
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import SliceExecutionError
from repro.isa import assemble
from repro.machine import Kernel
from repro.obs import chrome_trace_dict, Tracer
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import MASTER_TRACK
from repro.sched.events import simulate
from repro.superpin import (ControlProcess, merge_slices, parallel,
                            record_signatures, replay_recording,
                            run_superpin, SliceToolContext, SPControl,
                            SuperPinConfig, supervise_slices)
from repro.superpin.faults import FaultPlan
from repro.superpin import supervisor
from repro.superpin.supervisor import _Supervisor
from repro.tools import BranchProfile, ICount1, ICount2, MemTrace
from tests.conftest import (all_generated, child_pids, deadline_floor,
                            LOOP_SUM, MULTISLICE, virtual_counters)

from .test_master_engine import FORCE_LOOP
from .test_threads_superpin import THREADED

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

TWO_SLICES = """
.entry main
main:
    li   t0, 0
    li   t1, 2500
lp: addi t0, t0, 1
    st   t0, 0x9000(zero)
    blt  t0, t1, lp
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
"""

#: The cooperative-threads guest with a fifth of its loop trips.
THREADS = THREADED
for trips, fewer in (("3000", "600"), ("5000", "1000"), ("6000", "1200")):
    assert trips in THREADS
    THREADS = THREADS.replace(trips, fewer)

#: name -> (source, config): what the parity table runs.
GUESTS = {
    "multislice": (MULTISLICE, dict(spmsec=500, clock_hz=10_000)),
    "forced-boundaries": (FORCE_LOOP, dict(spmsec=1500, clock_hz=1000)),
    "threads": (THREADS, dict(spmsec=4000, clock_hz=1000)),
    "one-slice": (LOOP_SUM, dict(spmsec=500, clock_hz=10_000)),
    "two-slices": (TWO_SLICES, dict(spmsec=500, clock_hz=10_000)),
}
TOOLS = {"icount1": ICount1, "icount2": ICount2, "memtrace": MemTrace,
         "branchprofile": BranchProfile}

def _running_in_group(pgid: int) -> list[int]:
    """Processes of process group ``pgid`` that have not exited."""
    running = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                state, _, group = stat.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue
        if int(group) == pgid and state != "Z":
            running.append(int(entry))
    return running


#: MULTISLICE cut into about thirty slices.
THIRTY = dict(spmsec=100, clock_hz=10_000)


def slow_master(monkeypatch, seconds: float) -> None:
    """Make every cut take ``seconds`` longer, so slices land while the
    master is live whatever the host does."""
    record = parallel.record_boundary_signature

    def slow(boundary, **kwargs):
        time.sleep(seconds)
        return record(boundary, **kwargs)
    monkeypatch.setattr(parallel, "record_boundary_signature", slow)


def run(source, tool_class=ICount2, seed=42, tracer=None, on_progress=None,
        **config):
    tool = tool_class()
    report = run_superpin(assemble(source), tool, SuperPinConfig(**config),
                          kernel=Kernel(seed=seed), tracer=tracer,
                          on_progress=on_progress)
    return report, tool


def slice_record(result) -> dict:
    """Every field of a ``SliceResult``, the tool context as what it
    holds."""
    record = {f.name: getattr(result, f.name)
              for f in dataclasses.fields(result) if f.name != "tool_ctx"}
    record["tool"] = result.tool_ctx.tool.report()
    record["area_locals"] = result.tool_ctx.area_locals
    return record


def observe(report, tool) -> dict:
    """Everything a run reports that is not a host-time measurement."""
    timeline = report.timeline
    audit = report.audit
    return {
        "slices": [slice_record(r) for r in report.slices],
        "statuses": [o.status for o in report.slice_outcomes],
        "attempts": [[(a.number, a.where != "journal", a.ok)
                      for a in o.attempts] for o in report.slice_outcomes],
        "tool": tool.report(),
        "stdout": report.stdout,
        "exit_code": report.exit_code,
        "boundaries": [(b.reason, b.cpu_snapshot, b.master_instructions,
                        b.resident_pages) for b in timeline.boundaries],
        "intervals": [(i.records, i.instructions, i.syscalls,
                       i.master_cow_faults, i.end_reason, i.is_last,
                       i.stream_digest) for i in timeline.intervals],
        "totals": (timeline.total_instructions, timeline.total_syscalls,
                   timeline.final_pc, timeline.final_cpu_hash,
                   timeline.master),
        "signatures": report.signatures,
        "timing": report.timing,
        "shared_cache_timing": report.shared_cache_timing(),
        "audit": audit and (audit.ok, audit.checks, audit.slices_checked,
                            audit.by_kind()),
    }


def assert_same_run(streamed, drained, but=()) -> None:
    """Field by field, so a failure names what differed."""
    assert set(streamed) == set(drained)
    for key in drained:
        if key not in but:
            assert streamed[key] == drained[key], key


class TestParityTable:
    """Guest × tool × workers × lowering: streamed ≡ drained."""

    @pytest.mark.parametrize("tool", TOOLS)
    @pytest.mark.parametrize("guest", GUESTS)
    def test_streamed_equals_drained(self, guest, tool, monkeypatch):
        source, shape = GUESTS[guest]
        config = dict(shape, spaudit=True)
        for generated in (False, True):
            with monkeypatch.context() as patch:
                if generated:
                    all_generated(patch)
                drained = observe(*run(source, TOOLS[tool], spworkers=0,
                                       **config))
                assert drained["audit"][0], drained["audit"]
                for workers in (1, 2):
                    streamed = observe(*run(source, TOOLS[tool],
                                            spworkers=workers, **config))
                    assert_same_run(streamed, drained)

    def test_the_guests_have_the_shapes_they_are_named_for(self):
        slices = {name: run(source, **shape)[0].num_slices
                  for name, (source, shape) in GUESTS.items()}
        assert slices["one-slice"] == 1
        assert slices["two-slices"] == 2
        assert min(slices["multislice"], slices["forced-boundaries"],
                   slices["threads"]) >= 3
        forced = run(FORCE_LOOP, **GUESTS["forced-boundaries"][1])[0]
        assert any(b.reason.value == "syscall"
                   for b in forced.timeline.boundaries)

    @pytest.mark.parametrize("extra", [
        dict(expected_duration_msec=2000), dict(spsample=2),
        dict(spfaults="degrade"), dict(spfaults="retry")],
        ids=lambda extra: "-".join(map(str, *extra.items())))
    def test_options_that_touch_the_slice_phase(self, extra):
        config = dict(GUESTS["multislice"][1], **extra)
        drained = observe(*run(MULTISLICE, spworkers=0, **config))
        streamed = observe(*run(MULTISLICE, spworkers=2, **config))
        assert_same_run(streamed, drained)

    @pytest.mark.parametrize("state", ["miss", "hit"])
    def test_trace_store(self, tmp_path, state):
        """A hit counts slice 0 against the stored heads; a miss saves
        slice 0's.  Either way for any worker count."""
        config = GUESTS["multislice"][1]
        seen = {}
        for workers in (0, 2):
            store = str(tmp_path / f"store{workers}")
            if state == "hit":
                run(MULTISLICE, spworkers=workers, sptracestore=store,
                    **config)
            report, tool = run(MULTISLICE, spworkers=workers,
                               sptracestore=store, spmetrics=True,
                               **config)
            hits = report.metrics.counter("pin.cache.persistent_hits")
            assert (hits > 0) == (state == "hit")
            assert (report.slices[0].warm_starts > 0) == (state == "hit")
            seen[workers] = observe(report, tool), \
                virtual_counters(report.metrics)
        assert_same_run(seen[2][0], seen[0][0])
        assert seen[2][1] == seen[0][1]


class TestTheStreamItself:
    def test_cuts_abandoned_half_way_leave_a_prefix(self):
        config = SuperPinConfig(**THIRTY)
        program = assemble(MULTISLICE)
        full = ControlProcess(program, config, kernel=Kernel(seed=42)).run()
        control = ControlProcess(program, config, kernel=Kernel(seed=42))
        cuts = control.cuts()
        seen = [next(cuts) for _ in range(10)]
        cuts.close()
        partial = control.timeline
        assert [b.index for b in seen] == list(range(1, 11))
        assert seen == partial.boundaries[1:]
        assert len(partial.boundaries) == 11
        assert len(partial.intervals) == 10
        for got, want in zip(partial.boundaries, full.boundaries):
            assert (got.reason, got.cpu_snapshot, got.master_instructions,
                    got.resident_pages) == (
                want.reason, want.cpu_snapshot, want.master_instructions,
                want.resident_pages)
        assert partial.intervals == full.intervals[:10]
        # Totals are only filled at exhaustion.
        assert partial.master is None and partial.total_instructions == 0
        assert next(cuts, None) is None

    def test_run_is_the_drained_generator(self):
        config = SuperPinConfig(**THIRTY)
        program = assemble(MULTISLICE)
        control = ControlProcess(program, config, kernel=Kernel(seed=42))
        timeline = control.run()
        assert timeline is control.timeline
        assert len(timeline.intervals) == len(timeline.boundaries) >= 30
        assert timeline.intervals[-1].is_last
        assert timeline.master is not None

    def test_five_positionals_and_no_stream_behave_as_before(self):
        """What ``bench/layers.py`` does: drive the phases by hand."""
        shape = GUESTS["multislice"][1]
        config = SuperPinConfig(**shape)
        tool = ICount2()
        sp = SPControl(config)
        tool.setup(sp)
        template = SliceToolContext.from_control(tool, sp)
        timeline = ControlProcess(assemble(MULTISLICE), config,
                                  kernel=Kernel(seed=42)).run()
        signatures = record_signatures(timeline, config)
        supervised = supervise_slices(timeline, signatures, template, sp,
                                      config)
        merge_slices(sp, supervised.results)
        tool.fini()
        report, whole = run(MULTISLICE, spworkers=2, **shape)
        assert signatures == report.signatures
        assert [slice_record(r) for r in supervised.results] \
            == [slice_record(r) for r in report.slices]
        assert tool.report() == whole.report()
        assert simulate(timeline, supervised.results, config) \
            == report.timing

    def test_the_pool_forks(self):
        """The mechanism reproduced is fork, whatever the interpreter's
        default start method has become."""
        config = SuperPinConfig(spworkers=2, **GUESTS["multislice"][1])
        sp = SPControl(config)
        timeline = ControlProcess(assemble(MULTISLICE), config,
                                  kernel=Kernel(seed=42)).run()
        supervisor = _Supervisor(
            timeline, record_signatures(timeline, config), None, sp,
            config, None, NULL_METRICS, None, None, None, None, None, None)
        supervisor._release()
        supervisor._launch_pool()
        try:
            assert len(supervisor._pool) == 2
            assert all(type(worker.process)
                       is multiprocessing.get_context("fork").Process
                       for worker in supervisor._pool)
        finally:
            supervisor._close_pool()


class TestRecordingAndJournal:
    def test_record_at_two_workers_saves_the_same_artifact(self, tmp_path):
        """The artifact is saved while slices are already running on
        pickles of its boundaries; it must not notice."""
        shape = GUESTS["multislice"][1]
        ids = {}
        for workers in (0, 2):
            path = str(tmp_path / f"w{workers}.sprec")
            report, _ = run(MULTISLICE, spworkers=workers, sprecord=path,
                            **shape)
            ids[workers] = report.recording_id
            assert report.recording_path == path
        assert ids[2] == ids[0] != ""
        replayed = replay_recording(
            str(tmp_path / "w2.sprec"), ICount2(),
            SuperPinConfig(spaudit=True, **shape))
        assert replayed.audit.ok, replayed.audit.summary()
        assert replayed.recording_id == ids[0]
        assert replayed.all_exact

    _KILLED = """
import os, signal, sys, time
from repro.isa import assemble
from repro.machine import Kernel
from repro.superpin import parallel, run_superpin, SuperPinConfig
from repro.tools import ICount2
from tests.conftest import MULTISLICE

record = parallel.record_boundary_signature
def slow(boundary, **kwargs):
    time.sleep(0.01)
    return record(boundary, **kwargs)
parallel.record_boundary_signature = slow

def kill_mid_stream(event, payload):
    if event == "slice" and payload["completed"] >= 4:
        if payload["final"]:
            raise SystemExit("the master was exhausted: not mid-stream")
        os.kill(os.getpid(), signal.SIGKILL)

run_superpin(assemble(MULTISLICE), ICount2(),
             SuperPinConfig(spmsec=100, clock_hz=10_000, spworkers=2,
                            spjournal=sys.argv[1]),
             kernel=Kernel(seed=42), on_progress=kill_mid_stream)
raise SystemExit("unreachable: the run should have been killed")
"""

    def test_killed_mid_stream_then_resumed(self, tmp_path, monkeypatch):
        journal = tmp_path / "run.spjl"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]))
        # Its own session, so that what it leaves can be found.  Its
        # pool workers must not outlive it: once their job pipes end
        # they exit by themselves.
        child = subprocess.Popen(
            [sys.executable, "-c", self._KILLED, str(journal)], env=env,
            cwd=REPO_ROOT, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            assert child.wait(timeout=120) == -signal.SIGKILL
            deadline = time.monotonic() + 30.0
            while (_running_in_group(child.pid)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert _running_in_group(child.pid) == []
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        clean = observe(*run(MULTISLICE, spworkers=0, **THIRTY))
        slow_master(monkeypatch, 0.005)
        for workers in (0, 2):
            copy = tmp_path / f"resume{workers}.spjl"
            shutil.copy(journal, copy)
            events = []
            report, tool = run(
                MULTISLICE, spworkers=workers, spjournal=str(copy),
                spresume=True, on_progress=lambda event, payload:
                events.append((event, payload)), **THIRTY)
            adopted = [o.index for o in report.slice_outcomes
                       if o.attempts[0].where == "journal"]
            # The fourth landing died before its append.
            assert len(adopted) == report.resumed_slices == 3
            assert_same_run(observe(report, tool), clean,
                            but=("attempts",))
            first = next(p for e, p in events if e == "slice")
            # With workers the prefix is adopted as its slices appear —
            # the master is still cutting; drained, after the last cut.
            assert first["final"] == (workers == 0)


@pytest.fixture(scope="module")
def clean_thirty():
    return observe(*run(MULTISLICE, spworkers=0, spfaults="retry",
                        **THIRTY))


class TestFaultsWhileTheMasterIsLive:
    @pytest.fixture(autouse=True)
    def no_backoff(self, monkeypatch):
        monkeypatch.setattr(supervisor, "RETRY_BACKOFF", 0.0)

    @pytest.mark.parametrize("kind", ["crash", "corrupt", "runaway"])
    @pytest.mark.parametrize("where", ["pilot", "second", "last"])
    def test_retry_recovers(self, monkeypatch, clean_thirty, kind, where):
        n = len(clean_thirty["slices"])
        k = {"pilot": 0, "second": 1, "last": n - 1}[where]
        slow_master(monkeypatch, 0.002)
        report, tool = run(
            MULTISLICE, spworkers=2, spfaults="retry",
            fault_plan=FaultPlan.parse(f"{kind}@{k}"), **THIRTY)
        assert report.slice_outcomes[k].recovered
        assert_same_run(observe(report, tool), clean_thirty,
                        but=("attempts",))

    @pytest.mark.parametrize("where", ["pilot", "second", "last"])
    def test_degrade_leaves_the_same_hole(self, monkeypatch, where):
        config = dict(THIRTY, spfaults="degrade")
        n = run(MULTISLICE, **THIRTY)[0].num_slices
        k = {"pilot": 0, "second": 1, "last": n - 1}[where]
        plan = FaultPlan.parse(f"runaway@{k}:*")
        drained = observe(*run(MULTISLICE, spworkers=0, fault_plan=plan,
                               **config))
        slow_master(monkeypatch, 0.002)
        streamed = observe(*run(MULTISLICE, spworkers=2, fault_plan=plan,
                                **config))
        assert streamed["statuses"][k] == "degraded"
        assert streamed["statuses"].count("degraded") == 1
        assert_same_run(streamed, drained, but=("attempts",))

    def test_a_hang_is_reaped_before_the_master_ends(self, monkeypatch,
                                                     clean_thirty):
        """Supervision does not wait for the master: the deadline clock
        of a hung worker starts when it is released, and it is reaped
        while cuts are still being made."""
        # (Slow enough that the master outlives slice 1's 0.9 s deadline
        # by more than one cut — the supervisor reaps between cuts —
        # however fast the master's own work is.)
        slow_master(monkeypatch, 0.04)
        deadline_floor(monkeypatch, 0.4)
        report, tool = run(
            MULTISLICE, spworkers=2, spfaults="retry",
            fault_plan=FaultPlan.parse("hang@1"), **THIRTY)
        records = report.trace.records
        # (A stalled host may get an innocent slice reaped as well.)
        reaped = next(r for r in records if r.name == "deadline.reaped"
                      and r.args["slice"] == 1)
        master, = (r for r in records if r.name == "control_phase")
        assert reaped.start < master.end
        assert report.slice_outcomes[1].recovered
        assert_same_run(observe(report, tool), clean_thirty,
                        but=("attempts",))

    @pytest.mark.parametrize("how", ["failfast", "cancel"])
    def test_an_abort_stops_the_master_where_it_stands(self, monkeypatch,
                                                       how):
        slow_master(monkeypatch, 0.01)
        cuts = len(run(MULTISLICE, **THIRTY)[0].timeline.boundaries) - 1
        tracer = Tracer()
        if how == "failfast":
            kwargs = dict(spfaults="failfast",
                          fault_plan=FaultPlan.parse("runaway@1:*"))
            error = SliceExecutionError
        else:
            class Cancelled(Exception):
                pass

            def cancel(event, payload):
                if event == "slice" and payload["completed"] == 2:
                    assert not payload["final"]
                    raise Cancelled
            kwargs = dict(on_progress=cancel)
            error = Cancelled
        children = child_pids()
        with pytest.raises(error):
            run(MULTISLICE, spworkers=2, tracer=tracer, **kwargs, **THIRTY)
        # ... and the pool is gone, every worker reaped, by the time
        # the error reaches the caller.
        assert child_pids() == children
        assert multiprocessing.active_children() == []
        aborted_at = tracer.now()
        made = [r for r in tracer.records if r.name == "timeslice.cut"]
        assert 0 < len(made) < cuts
        # The generator was closed: its span ended, and nothing was cut
        # afterwards.
        master, = (r for r in tracer.records if r.name == "control_phase")
        assert made[-1].start <= master.end <= aborted_at
        assert master.args is None  # no totals: the master never exited

    def test_landed_jobs_are_dropped(self):
        """A long run holds the pickles of in-flight slices only."""
        config = SuperPinConfig(spworkers=2, **THIRTY)
        tool = ICount2()
        sp = SPControl(config)
        tool.setup(sp)
        timeline = ControlProcess(assemble(MULTISLICE), config,
                                  kernel=Kernel(seed=42)).run()
        supervisor = _Supervisor(
            timeline, record_signatures(timeline, config),
            SliceToolContext.from_control(tool, sp), sp, config, None,
            NULL_METRICS, None, None, None, None, None, None)
        supervised = supervisor.run()
        assert len(supervised.results) == len(timeline.intervals)
        assert supervisor.payloads == [None] * len(timeline.intervals)


class TestProgressAndPhases:
    PHASES = ["control", "signature", "slice", "merge", "timing"]

    def _events(self, monkeypatch, workers):
        slow_master(monkeypatch, 0.005)
        events = []
        report, _ = run(MULTISLICE, spworkers=workers,
                        on_progress=lambda event, payload:
                        events.append((event, dict(payload))), **THIRTY)
        return report, events

    def test_drained_order_is_the_old_order(self, monkeypatch):
        report, events = self._events(monkeypatch, 0)
        n = report.num_slices
        assert [p["phase"] for e, p in events if e == "phase"] \
            == self.PHASES
        assert [p for e, p in events if e == "slice"] == [
            {"completed": k + 1, "total": n, "final": True}
            for k in range(n)]
        kinds = [(e, p.get("phase")) for e, p in events]
        assert kinds.index(("phase", "slice")) \
            < kinds.index(("slice", None)) \
            < kinds.index(("phase", "merge"))

    def test_streamed_totals_grow_until_the_master_ends(self, monkeypatch):
        report, events = self._events(monkeypatch, 2)
        n = report.num_slices
        assert [p["phase"] for e, p in events if e == "phase"] \
            == self.PHASES
        slices = [p for e, p in events if e == "slice"]
        assert [p["completed"] for p in slices] == list(range(1, n + 1))
        live = [p for p in slices if not p["final"]]
        assert live, "no slice landed while the master was live"
        assert all(p["completed"] < p["total"] <= n for p in live)
        totals = [p["total"] for p in slices]
        assert totals == sorted(totals)
        assert all(p["total"] == n for p in slices if p["final"])
        assert slices[-1] == {"completed": n, "total": n, "final": True}
        # Every slice event falls between "slice" and "merge": that span
        # is when a worker may be busy.
        kinds = [(e, p.get("phase")) for e, p in events]
        assert kinds.index(("phase", "slice")) \
            < kinds.index(("slice", None))
        assert kinds.index(("phase", "merge")) \
            > max(i for i, kind in enumerate(kinds)
                  if kind == ("slice", None))


class TestHostTimeAccount:
    KEYS = {"control_phase_seconds", "signature_phase_seconds",
            "master_overlap_seconds", "first_result_seconds",
            "pipeline_delay_seconds", "slice_phase_seconds"}

    def test_drained(self, monkeypatch):
        slow_master(monkeypatch, 0.002)
        report, _ = run(MULTISLICE, spworkers=0, spmetrics=True, **THIRTY)
        wall = report.wallclock_summary()
        assert self.KEYS <= set(wall)
        n = report.num_slices
        assert wall["signature_phase_seconds"] >= 0.002 * (n - 1)
        assert wall["control_phase_seconds"] > 0.0
        assert wall["master_overlap_seconds"] == 0.0
        # Nothing is released before the master is exhausted, so the
        # pipeline delay is the slice phase and the first result waits
        # for all of the master.
        assert wall["pipeline_delay_seconds"] \
            == pytest.approx(wall["slice_phase_seconds"], abs=0.005)
        assert wall["first_result_seconds"] \
            > wall["control_phase_seconds"] \
            + wall["signature_phase_seconds"]
        counters = report.metrics.counters
        assert counters["superpin.stream.ready_before_master_end"] == n - 1
        assert counters["superpin.stream.landed_before_master_end"] == 0
        depth = report.metrics.histogram(
            "superpin.stream.ready_queue_depth")
        assert (depth.count, depth.min, depth.max) == (n - 1, 1, n - 1)
        assert {r.track for r in report.trace.records
                if r.cat in ("phase", "control", "signature")} == {0}

    def test_streamed(self, monkeypatch):
        slow_master(monkeypatch, 0.01)
        report, _ = run(MULTISLICE, spworkers=2, spmetrics=True, **THIRTY)
        wall = report.wallclock_summary()
        n = report.num_slices
        master = (wall["control_phase_seconds"]
                  + wall["signature_phase_seconds"])
        # All of the master but its first cut ran beside the slices.
        assert 0.5 * master < wall["master_overlap_seconds"] < master
        assert wall["first_result_seconds"] < master
        assert wall["pipeline_delay_seconds"] \
            < wall["slice_phase_seconds"]
        counters = report.metrics.counters
        assert counters["superpin.stream.ready_before_master_end"] == n - 1
        assert 0 < counters["superpin.stream.landed_before_master_end"] < n
        depth = report.metrics.histogram(
            "superpin.stream.ready_queue_depth")
        assert depth.count == n - 1 and depth.max < n - 1
        assert report.trace.track_names[MASTER_TRACK] == "master"
        phases = {r.name: r for r in report.trace.records
                  if r.cat == "phase"}
        assert phases["control_phase"].track == MASTER_TRACK
        assert phases["signature_phase"].track == MASTER_TRACK
        assert phases["slice_phase"].track == 0
        assert phases["slice_phase"].start < phases["control_phase"].end

    def test_replay_has_no_master(self, tmp_path):
        shape = GUESTS["multislice"][1]
        path = str(tmp_path / "run.sprec")
        run(MULTISLICE, sprecord=path, **shape)
        replayed = replay_recording(path, ICount2(), SuperPinConfig(
            spmetrics=True, spworkers=2, **shape))
        wall = replayed.wallclock_summary()
        assert wall["control_phase_seconds"] == 0.0
        assert wall["master_overlap_seconds"] == 0.0
        # ... up to the pool's shutdown, which follows the last result.
        assert 0.0 < wall["pipeline_delay_seconds"] \
            <= wall["slice_phase_seconds"]
        assert not any(name.startswith("superpin.stream.")
                       for name in replayed.metrics.counters)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_chrome_export_nests(self, monkeypatch, workers, tmp_path):
        """On every track, spans are disjoint or nested — what a trace
        viewer needs to draw them."""
        slow_master(monkeypatch, 0.005)
        report, _ = run(MULTISLICE, spworkers=workers,
                        sprecord=str(tmp_path / "run.sprec"), **THIRTY)
        doc = json.loads(json.dumps(chrome_trace_dict(report.trace)))
        by_track = {}
        for event in doc["traceEvents"]:
            if event.get("ph") == "X":
                by_track.setdefault(event["tid"], []).append(
                    (event["ts"], event["ts"] + event["dur"],
                     event["name"]))
        assert (MASTER_TRACK in by_track) == (workers == 2)
        slack = 0.01  # microseconds: the export rounds to 0.001
        for spans in by_track.values():
            open_spans = []
            for start, end, name in sorted(
                    spans, key=lambda s: (s[0], -s[1])):
                while open_spans and open_spans[-1][0] <= start + slack:
                    open_spans.pop()
                if open_spans:
                    assert end <= open_spans[-1][0] + slack, \
                        (name, open_spans[-1][1])
                open_spans.append((end, name))
