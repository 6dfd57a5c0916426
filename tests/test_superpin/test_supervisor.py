"""The one slice executor: transport/policy/journal parity, deadlines,
retries, pool rebuild, degradation.

Every failure here is *injected* through the deterministic
:mod:`repro.superpin.faults` harness (or, for the default-path
deadline, a tool that really stalls), so the retry/degrade/reap paths
run in CI on every push, not just in anger.
"""

import dataclasses
import itertools
import time

import pytest

from repro.errors import (ConfigError, RunawaySliceError,
                          SliceDeadlineError, SliceExecutionError)
from repro.isa import assemble
from repro.machine import Kernel
from repro.obs import MetricsRegistry
from repro.superpin import (ControlProcess, FAULT_POLICIES, FaultKind,
                            FaultPlan, FaultSpec, record_signatures,
                            run_superpin, slice_deadline, SliceToolContext,
                            SPControl, SuperPinConfig, supervise_slices)
from repro.superpin import supervisor
from repro.superpin.faults import (CORRUPT_BLOB, maybe_inject,
                                   WorkerCrashFault)
from repro.tools import ICount2, ITrace
from tests.conftest import deadline_floor, MULTISLICE, retries

#: Both slice-phase transports; every supervision property must hold
#: under each (in-process and process pool).
WORKER_MODES = [0, 2]


def _clean_report(program, tool_cls=ICount2, **kwargs):
    kwargs.setdefault("spmsec", 500)
    kwargs.setdefault("clock_hz", 10_000)
    kwargs.setdefault("spworkers", 0)
    kwargs.setdefault("spfaults", "failfast")
    tool = tool_cls()
    report = run_superpin(program, tool, SuperPinConfig(**kwargs),
                          kernel=Kernel(seed=42))
    return report, tool


def _supervised_report(program, plan, tool_cls=ICount2, **kwargs):
    kwargs.setdefault("spmsec", 500)
    kwargs.setdefault("clock_hz", 10_000)
    kwargs.setdefault("spfaults", "retry")
    tool = tool_cls()
    config = SuperPinConfig(fault_plan=plan, **kwargs)
    report = run_superpin(program, tool, config, kernel=Kernel(seed=42))
    return report, tool


def _slice_fingerprint(report):
    return [(s.index, s.reason, s.exact, s.instructions,
             s.expected_instructions, s.traces_executed, s.analysis_calls,
             s.compiles, s.compiled_ins, s.replayed_syscalls,
             s.emulated_syscalls, s.cow_faults, s.compile_log)
            for s in report.slices]


@pytest.fixture(scope="module")
def program():
    return assemble(MULTISLICE)


@pytest.fixture(scope="module")
def clean(program):
    return _clean_report(program)


@pytest.fixture
def flat_deadline(monkeypatch):
    """Every slice's deadline is the floor alone
    (``supervisor.DEADLINE_FLOOR``; a test sets it with
    ``conftest.deadline_floor``)."""
    monkeypatch.setattr(supervisor, "DEADLINE_PER_INS", 0.0)


class TestExecutorParity:
    """Transport, policy and journal choose *how* a slice is run and
    kept, never what it computes or what the run reports."""

    MATRIX = list(itertools.product(WORKER_MODES, FAULT_POLICIES,
                                    (False, True)))

    @staticmethod
    def _observe(program, tmp_path, spworkers, spfaults, journaled):
        progress = []
        tool = ICount2()
        config = SuperPinConfig(
            spmsec=500, clock_hz=10_000, spworkers=spworkers,
            spfaults=spfaults, spjournal=str(
                tmp_path / f"{spworkers}-{spfaults}.journal")
            if journaled else None)
        report = run_superpin(
            program, tool, config, kernel=Kernel(seed=42),
            on_progress=lambda event, payload: event == "slice"
            and progress.append(payload))
        # While the master is live (workers only) ``total`` is the
        # slices cut so far; from its exhaustion on it is the run's.
        n = report.num_slices
        assert all(p["total"] == n if p["final"] else p["total"] <= n
                   for p in progress)
        assert progress[-1]["final"]
        progress = [p["completed"] for p in progress]
        results = [
            {**{f.name: getattr(r, f.name) for f in dataclasses.fields(r)
                if f.name != "tool_ctx"},
             "tool.icount": r.tool_ctx.tool.icount,
             "area_locals": r.tool_ctx.area_locals}
            for r in report.slices]
        spans = [{r.name for r in report.trace.records
                  if r.args and r.args.get("slice") == k
                  and r.name not in ("slice.pickle", "slice.fork")}
                 for k in range(report.num_slices)]
        attempts = [[(a.number, a.ok) for a in o.attempts]
                    for o in report.slice_outcomes]
        return {"results": results, "total": tool.total,
                "stdout": report.stdout, "spans": spans,
                "attempts": attempts, "progress": progress,
                "where": {a.where for o in report.slice_outcomes
                          for a in o.attempts}}

    def test_transport_policy_journal_are_invisible(self, program,
                                                    tmp_path):
        baseline = None
        for spworkers, spfaults, journaled in self.MATRIX:
            seen = self._observe(program, tmp_path, spworkers, spfaults,
                                 journaled)
            assert seen.pop("where") \
                == {"worker" if spworkers else "inprocess"}
            n = len(seen["results"])
            assert n >= 3
            assert seen["attempts"] == [[(1, True)]] * n
            assert seen["progress"] == list(range(1, n + 1))
            assert seen["spans"] == [{"slice", "slice.run",
                                      "slice.merge"}] * n
            baseline = baseline or seen
            assert seen == baseline, (spworkers, spfaults, journaled)

    @pytest.mark.parametrize("spfaults, journaled, pickled", [
        ("failfast", False, False), ("failfast", True, False),
        ("retry", False, True)])
    def test_inprocess_serialises_only_what_is_read(self, program,
                                                    tmp_path, spfaults,
                                                    journaled, pickled):
        """No pickle nobody reads: in-process, a job is pickled only
        when the policy could retry it."""
        report, _ = _clean_report(
            program, spfaults=spfaults,
            spjournal=str(tmp_path / "run.journal") if journaled else None)
        names = [r.name for r in report.trace.records]
        assert ("slice.pickle" in names) == pickled
        assert ("slice.fork" in names) == pickled
        assert names.count("slice.pickle") \
            == (report.num_slices if pickled else 0)

    def test_progress_hook_exception_aborts_under_any_policy(self,
                                                             program):
        """Cancellation (an ``on_progress`` that raises) is not a slice
        failure: no retry ladder may swallow it."""
        class Cancelled(Exception):
            pass

        def cancel(event, payload):
            if event == "slice":
                raise Cancelled
        for spworkers in WORKER_MODES:
            with pytest.raises(Cancelled):
                run_superpin(program, ICount2(), SuperPinConfig(
                    spmsec=500, clock_hz=10_000, spworkers=spworkers,
                    spfaults="retry"), kernel=Kernel(seed=42),
                    on_progress=cancel)


class StallingICount(ICount2):
    """Stalls far past any deadline in slice 1's analysis routine."""

    stall = False

    def tool_reset(self, slice_num):
        super().tool_reset(slice_num)
        self.stall = slice_num == 1

    def docount(self, count):
        if self.stall:
            time.sleep(60.0)
        super().docount(count)


class SlowStartICount(ICount2):
    """Slices 1 and 2 each take 0.6 s before they execute anything."""

    def tool_reset(self, slice_num):
        super().tool_reset(slice_num)
        if slice_num in (1, 2):
            time.sleep(0.6)


class TestDefaultPathDeadline:
    def test_stalled_worker_is_reaped_under_failfast(self, program,
                                                     flat_deadline,
                                                     monkeypatch):
        """-spworkers N with the default policy and no fault plan still
        enforces the slice deadline (it used to wait for ever)."""
        deadline_floor(monkeypatch, 0.5)
        config = SuperPinConfig(spmsec=500, clock_hz=10_000, spworkers=2)
        assert config.spfaults == "failfast" and config.fault_plan is None
        timeline = ControlProcess(program, config,
                                  kernel=Kernel(seed=42)).run()
        sp = SPControl(config)
        tool = StallingICount()
        tool.setup(sp)
        metrics = MetricsRegistry()
        t0 = time.perf_counter()
        with pytest.raises(SliceExecutionError) as info:
            supervise_slices(timeline, record_signatures(timeline, config),
                             SliceToolContext.from_control(tool, sp), sp,
                             config, metrics=metrics)
        assert time.perf_counter() - t0 < 15
        assert info.value.index == 1
        assert isinstance(info.value.__cause__, SliceDeadlineError)
        assert "deadline exceeded" in info.value.attempts[-1].error
        assert metrics.counter("superpin.supervisor.deadline_hits") == 1


class TestFaultPlan:
    def test_parse_single(self):
        plan = FaultPlan.parse("crash@0")
        assert plan.specs == (FaultSpec(kind=FaultKind.CRASH,
                                        slice_index=0, attempts=1),)

    def test_parse_multiple_with_windows(self):
        plan = FaultPlan.parse("hang@2:*, runaway@1:3")
        assert plan.specs[0].kind is FaultKind.HANG
        assert plan.specs[0].attempts is None
        assert plan.specs[1] == FaultSpec(kind=FaultKind.RUNAWAY,
                                          slice_index=1, attempts=3)

    @pytest.mark.parametrize("text", ["", "explode@0", "crash@x",
                                      "crash@-1", "crash@0:0", "crash"])
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigError):
            FaultPlan.parse(text)

    def test_attempt_window(self):
        plan = FaultPlan.parse("runaway@3:2")
        assert plan.spec_for(3, 1) is not None
        assert plan.spec_for(3, 2) is not None
        assert plan.spec_for(3, 3) is None
        assert plan.spec_for(2, 1) is None

    def test_inject_inprocess_kinds(self):
        always = lambda kind: FaultPlan(
            specs=(FaultSpec(kind=kind, slice_index=0, attempts=None),))
        with pytest.raises(WorkerCrashFault):
            maybe_inject(always(FaultKind.CRASH), 0, 1, "inprocess")
        with pytest.raises(SliceDeadlineError):
            maybe_inject(always(FaultKind.HANG), 0, 1, "inprocess")
        with pytest.raises(RunawaySliceError):
            maybe_inject(always(FaultKind.RUNAWAY), 0, 1, "inprocess")
        spec = maybe_inject(always(FaultKind.CORRUPT), 0, 1, "inprocess")
        assert spec.kind is FaultKind.CORRUPT
        assert maybe_inject(None, 0, 1, "inprocess") is None

    def test_corrupt_blob_never_unpickles(self):
        import pickle
        with pytest.raises(Exception):
            pickle.loads(CORRUPT_BLOB)


class TestDeadline:
    def test_floor_plus_per_instruction(self, program, monkeypatch):
        monkeypatch.setattr(supervisor, "DEADLINE_PER_INS", 1e-3)
        deadline_floor(monkeypatch, 2.0)
        from repro.superpin import ControlProcess
        timeline = ControlProcess(program, SuperPinConfig(
            spmsec=500, clock_hz=10_000), kernel=Kernel(seed=42)).run()
        interval = timeline.intervals[0]
        assert slice_deadline(interval) == pytest.approx(
            2.0 + interval.instructions * 1e-3)

    def test_recorded_on_outcomes(self, clean):
        report, _ = clean
        assert len(report.slice_outcomes) == report.num_slices
        assert all(o.deadline_seconds > 0 for o in report.slice_outcomes)
        assert all(o.status == "ok" and o.num_attempts == 1
                   for o in report.slice_outcomes)


class TestRetryRecovery:
    """Injected first-attempt failures must be invisible in the output."""

    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    @pytest.mark.parametrize("spec", ["crash@1", "corrupt@1", "runaway@1",
                                      "crash@0,runaway@2"])
    def test_output_identical_to_clean_run(self, program, clean,
                                           spworkers, spec):
        clean_report, clean_tool = clean
        report, tool = _supervised_report(program, FaultPlan.parse(spec),
                                          spworkers=spworkers)
        assert tool.total == clean_tool.total
        assert report.stdout == clean_report.stdout
        assert report.exit_code == clean_report.exit_code
        assert report.all_exact
        assert not report.degraded_slices
        assert _slice_fingerprint(report) \
            == _slice_fingerprint(clean_report)
        assert report.detection_summary() \
            == clean_report.detection_summary()
        # The failure actually happened and was actually recovered.
        summary = report.supervision_summary()
        assert summary["failed_attempts"] >= 1
        assert summary["recovered_slices"] >= 1

    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_manual_merge_tool_recovers(self, program, spworkers):
        """ITrace's CONCAT-style manual merge must see each recovered
        slice exactly once — a double merge would duplicate trace
        entries, a hole would drop them."""
        _, clean_tool = _clean_report(program, ITrace)
        _, tool = _supervised_report(program, FaultPlan.parse("crash@1"),
                                     tool_cls=ITrace, spworkers=spworkers)
        assert tool.trace == clean_tool.trace

    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_attempt_history_recorded(self, program, spworkers):
        report, _ = _supervised_report(program,
                                       FaultPlan.parse("runaway@1:2"),
                                       spworkers=spworkers)
        outcome = report.slice_outcomes[1]
        assert outcome.status == "ok"
        assert outcome.recovered
        failed = [a for a in outcome.attempts if not a.ok]
        assert len(failed) >= 2
        assert all("runaway" in a.error for a in failed)
        assert outcome.attempts[-1].ok

    def test_timing_model_survives_recovery(self, program, clean):
        clean_report, _ = clean
        report, _ = _supervised_report(program, FaultPlan.parse("crash@1"),
                                       spworkers=2)
        assert report.timing.total_cycles \
            == clean_report.timing.total_cycles


class TestRetryExhaustion:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_unrecoverable_raises_with_history(self, program, spworkers,
                                               monkeypatch):
        retries(monkeypatch, 1)
        with pytest.raises(SliceExecutionError) as info:
            _supervised_report(program, FaultPlan.parse("runaway@1:*"),
                               spworkers=spworkers)
        exc = info.value
        assert exc.index == 1
        # 1 initial + RETRIES retries + 1 in-process fallback.
        assert len(exc.attempts) == 3
        assert exc.attempts[-1].where == "inprocess"
        assert all(not a.ok for a in exc.attempts)

    def test_zero_retries_still_gets_fallback(self, program, monkeypatch):
        """RETRIES 0: one worker attempt, then straight in-process —
        and a first-attempt-only fault is survived by the fallback."""
        retries(monkeypatch, 0)
        report, tool = _supervised_report(program,
                                          FaultPlan.parse("crash@1:1"),
                                          spworkers=2)
        outcome = report.slice_outcomes[1]
        assert outcome.status == "ok"
        assert outcome.attempts[-1].where == "inprocess"


class TestDegrade:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_unrecoverable_slice_leaves_hole(self, program, clean,
                                             spworkers, monkeypatch):
        clean_report, clean_tool = clean
        retries(monkeypatch, 1)
        report, tool = _supervised_report(program,
                                          FaultPlan.parse("runaway@1:*"),
                                          spworkers=spworkers,
                                          spfaults="degrade")
        assert report.degraded_slices == [1]
        assert not report.all_exact
        assert report.timing is None
        assert [s.index for s in report.slices] \
            == [k for k in range(clean_report.num_slices) if k != 1]
        outcome = report.slice_outcomes[1]
        assert outcome.status == "degraded"
        assert "runaway" in outcome.error
        # Survivors merged exactly: total = clean minus the hole.
        hole = clean_report.slices[1]
        assert tool.total == clean_tool.total - hole.instructions

    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_recoverable_fault_does_not_degrade(self, program, clean,
                                                spworkers):
        clean_report, clean_tool = clean
        report, tool = _supervised_report(program,
                                          FaultPlan.parse("corrupt@2"),
                                          spworkers=spworkers,
                                          spfaults="degrade")
        assert not report.degraded_slices
        assert report.all_exact
        assert tool.total == clean_tool.total


class TestFailFast:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_aborts_on_first_failure(self, program, spworkers):
        with pytest.raises(SliceExecutionError) as info:
            _supervised_report(program, FaultPlan.parse("runaway@1:*"),
                               spworkers=spworkers, spfaults="failfast")
        assert info.value.index == 1
        assert len(info.value.attempts) == 1


class TestDeadlineReaping:
    def test_hung_worker_is_reaped_and_retried(self, program, clean,
                                               flat_deadline, monkeypatch):
        """A worker sleeping far past its deadline must be killed within
        roughly that deadline, and the slice re-run successfully."""
        deadline_floor(monkeypatch, 1.0)
        clean_report, clean_tool = clean
        plan = FaultPlan(specs=(FaultSpec(kind=FaultKind.HANG,
                                          slice_index=2, attempts=1,
                                          hang_seconds=60.0),))
        t0 = time.perf_counter()
        report, tool = _supervised_report(program, plan, spworkers=2)
        elapsed = time.perf_counter() - t0
        assert tool.total == clean_tool.total
        assert report.all_exact
        outcome = report.slice_outcomes[2]
        reaped = [a for a in outcome.attempts if a.error]
        assert any("deadline exceeded" in a.error for a in reaped)
        # Far less than the 60s hang: the deadline (1s) did the work.
        assert elapsed < 30

    def test_queue_wait_does_not_run_the_deadline_clock(self, program,
                                                        flat_deadline,
                                                        monkeypatch):
        """One worker, two slow slices back to back: the second queues
        behind the first for most of its deadline, then needs most of a
        deadline itself.  Its clock must start when a worker takes it
        up, not when it was submitted."""
        deadline_floor(monkeypatch, 1.0)
        report, tool = _clean_report(
            program, tool_cls=SlowStartICount, spworkers=1,
            spfaults="retry", spmetrics=True)
        assert report.all_exact
        assert report.metrics.counter(
            "superpin.supervisor.deadline_hits") == 0
        assert report.supervision_summary()["failed_attempts"] == 0

    def test_hang_on_every_attempt_degrades(self, program, flat_deadline,
                                            monkeypatch):
        plan = FaultPlan(specs=(FaultSpec(kind=FaultKind.HANG,
                                          slice_index=1, attempts=None,
                                          hang_seconds=60.0),))
        retries(monkeypatch, 0)
        deadline_floor(monkeypatch, 0.5)
        t0 = time.perf_counter()
        report, _ = _supervised_report(
            program, plan, spworkers=2, spfaults="degrade")
        elapsed = time.perf_counter() - t0
        assert report.degraded_slices == [1]
        assert elapsed < 30


class TestPoolReconstruction:
    def test_crash_mid_phase_completes_run(self, program, clean):
        """A hard worker death (BrokenProcessPool) must rebuild the pool
        and resubmit the in-flight slices, not abort the run."""
        clean_report, clean_tool = clean
        report, tool = _supervised_report(program,
                                          FaultPlan.parse("crash@3"),
                                          spworkers=2)
        assert tool.total == clean_tool.total
        assert _slice_fingerprint(report) \
            == _slice_fingerprint(clean_report)
        assert any("pool broken" in (a.error or "")
                   for o in report.slice_outcomes for a in o.attempts)

    def test_repeated_crashes_rebuild_repeatedly(self, program, clean,
                                                 monkeypatch):
        _, clean_tool = clean
        retries(monkeypatch, 3)
        report, tool = _supervised_report(
            program, FaultPlan.parse("crash@1:2,crash@4"), spworkers=2)
        assert tool.total == clean_tool.total
        assert report.all_exact

    def test_every_attempt_breaks_pool_then_degrades(self, program,
                                                     monkeypatch):
        """A slice whose every worker attempt kills its process must
        rebuild the pool after each break (counter-verified) and only
        degrade once the in-process fallback also fails — never abort
        the run, never skip the rebuilds."""
        retries(monkeypatch, 1)
        report, _ = _supervised_report(
            program, FaultPlan.parse("crash@2:*"), spworkers=2,
            spfaults="degrade", spmetrics=True)
        assert report.degraded_slices == [2]
        assert report.metrics.counters[
            "superpin.supervisor.pool_rebuilds"] >= 2
        outcome = report.slice_outcomes[2]
        assert outcome.status == "degraded"
        assert sum(1 for a in outcome.attempts
                   if "pool broken" in (a.error or "")) >= 2
        assert outcome.attempts[-1].where == "inprocess"
        # Every other slice still completed exactly.
        assert [s.index for s in report.slices] \
            == [k for k in range(len(report.slice_outcomes)) if k != 2]


class TestSupervisionSummary:
    def test_clean_run_summary(self, clean):
        report, _ = clean
        summary = report.supervision_summary()
        assert summary["attempts"] == report.num_slices
        assert summary["failed_attempts"] == 0
        assert summary["recovered_slices"] == 0
        assert summary["degraded_slices"] == 0
