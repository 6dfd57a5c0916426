"""Failure injection: corrupted recordings must fail loudly, not wrongly.

The tamper tests run the whole slice phase through
:func:`~repro.superpin.supervisor.supervise_slices`, parametrized over
``spworkers in {0, 2}`` — a corrupted recording must surface the same
loud failure (a ``SliceExecutionError`` whose cause is the slice's own
error) whether the slice runs in-process or in a worker (the worker's
exception pickles back across the pool boundary).  The parity
tests close the loop with the supervision subsystem: an injected
worker crash under ``-spfaults retry`` must be invisible in the merged
output.
"""

import pytest

from repro.errors import DivergenceError, ReproError, SliceExecutionError
from repro.isa import assemble
from repro.machine import Kernel, SyscallRecord
from repro.superpin import (ControlProcess, FaultPlan, record_signatures,
                            run_slice, run_superpin, SliceToolContext,
                            SPControl, SuperPinConfig, supervise_slices)
from repro.superpin.sysrecord import RecordedSyscall
from repro.tools import ICount2

#: Both slice-phase execution modes; tampering must fail identically.
WORKER_MODES = [0, 2]


# The time syscall's result feeds control flow, so a corrupted replay
# visibly diverges rather than dying in a dead register.
LIVE_TIME = """
.entry main
main:
    li   s0, 0
    li   s1, 40
ol: li   t0, 0
    li   t1, 300
il: addi t0, t0, 1
    st   t0, 0x8800(t0)
    blt  t0, t1, il
    li   a0, SYS_TIME
    syscall
    andi t2, rv, 7
    add  s2, s2, t2
    li   a0, SYS_GETRANDOM
    la   a1, 0x8700
    li   a2, 1
    syscall
    inc  s0
    blt  s0, s1, ol
    li   a0, SYS_EXIT
    mov  a1, s2
    syscall
"""


def _make_config(spworkers: int) -> SuperPinConfig:
    # spfaults is pinned: these tests are about the *loud* failure mode,
    # so the supervisor must not retry the corruption away.
    return SuperPinConfig(spmsec=500, clock_hz=10_000,
                          spworkers=spworkers, spfaults="failfast",
                          fault_plan=None)


@pytest.fixture(params=WORKER_MODES,
                ids=[f"spworkers{n}" for n in WORKER_MODES])
def pipeline(request):
    """A finished control phase plus everything needed to run slices."""
    program = assemble(LIVE_TIME)
    config = _make_config(request.param)
    control = ControlProcess(program, config, kernel=Kernel(seed=42))
    timeline = control.run()
    assert timeline.num_slices >= 3
    sp = SPControl(config)
    tool = ICount2()
    tool.setup(sp)
    template = SliceToolContext.from_control(tool, sp)
    signatures = record_signatures(timeline, config)
    return timeline, template, sp, config, signatures


def _run_phase(pipeline):
    """Run the full slice phase under the fixture's worker mode."""
    timeline, template, sp, config, signatures = pipeline
    return supervise_slices(timeline, signatures, template, sp,
                            config).results


def _first_interval_with_records(timeline):
    for interval in timeline.intervals:
        if interval.records:
            return interval
    raise AssertionError("no recorded syscalls")


class TestTamperedRecords:
    def test_baseline_runs_clean(self, pipeline):
        results = _run_phase(pipeline)
        assert all(r.exact for r in results)

    def test_wrong_retval_breaks_nothing_silently(self, pipeline):
        """Corrupting a replayed retval changes the slice's state, which
        the signature check then refuses to match — the failure is a
        runaway/divergence, never a silently wrong count."""
        timeline, *_ = pipeline
        interval = _first_interval_with_records(timeline)
        entry = interval.records[0]
        old = entry.record
        interval.records[0] = RecordedSyscall(
            record=SyscallRecord(number=old.number, args=old.args,
                                 retval=old.retval ^ 0xFFFF,
                                 mem_writes=old.mem_writes,
                                 klass=old.klass),
            global_index=entry.global_index)
        with pytest.raises(ReproError):
            _run_phase(pipeline)

    def test_dropped_record_detected(self, pipeline):
        timeline, *_ = pipeline
        interval = _first_interval_with_records(timeline)
        interval.records.pop(0)
        with pytest.raises(SliceExecutionError) as info:
            _run_phase(pipeline)
        assert isinstance(info.value.__cause__, DivergenceError)
        assert len(info.value.attempts) == 1

    def test_swapped_record_order_detected(self, pipeline):
        timeline, *_ = pipeline
        interval = None
        for candidate in timeline.intervals:
            distinct = {r.record.number for r in candidate.records}
            if len(candidate.records) >= 2 and len(distinct) >= 2:
                interval = candidate
                break
        if interval is None:
            pytest.skip("need two distinct records in one interval")
        interval.records[0], interval.records[1] = \
            interval.records[1], interval.records[0]
        with pytest.raises(SliceExecutionError, match="mismatch") as info:
            _run_phase(pipeline)
        assert isinstance(info.value.__cause__, DivergenceError)
        assert "mismatch" in str(info.value.__cause__)

    def test_single_slice_entry_point_still_loud(self):
        """The lower-level run_slice entry point (used by ablations)
        keeps the same loud-failure property."""
        program = assemble(LIVE_TIME)
        config = _make_config(0)
        timeline = ControlProcess(program, config,
                                  kernel=Kernel(seed=42)).run()
        sp = SPControl(config)
        tool = ICount2()
        tool.setup(sp)
        template = SliceToolContext.from_control(tool, sp)
        signatures = record_signatures(timeline, config)
        interval = timeline.intervals[0]
        if not interval.records:
            pytest.skip("first interval recorded nothing")
        interval.records.pop(0)
        with pytest.raises(DivergenceError):
            run_slice(timeline.boundaries[0], interval, signatures[0],
                      template, sp, config)


class TestInjectedCrashParity:
    """Satellite acceptance: an injected first-attempt worker crash
    under ``-spfaults retry`` produces merged tool output identical to
    a clean sequential run."""

    @pytest.fixture(scope="class")
    def clean(self):
        program = assemble(LIVE_TIME)
        tool = ICount2()
        report = run_superpin(program, tool, _make_config(0),
                              kernel=Kernel(seed=42))
        return report, tool

    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_crash_retry_matches_clean_sequential(self, clean, spworkers):
        clean_report, clean_tool = clean
        program = assemble(LIVE_TIME)
        tool = ICount2()
        config = SuperPinConfig(spmsec=500, clock_hz=10_000,
                                spworkers=spworkers, spfaults="retry",
                                fault_plan=FaultPlan.parse("crash@1"))
        report = run_superpin(program, tool, config, kernel=Kernel(seed=42))
        assert tool.total == clean_tool.total
        assert report.stdout == clean_report.stdout
        assert report.exit_code == clean_report.exit_code
        assert report.all_exact and clean_report.all_exact
        assert [(s.index, s.instructions, s.cow_faults, s.compile_log)
                for s in report.slices] \
            == [(s.index, s.instructions, s.cow_faults, s.compile_log)
                for s in clean_report.slices]
        assert report.supervision_summary()["failed_attempts"] >= 1
