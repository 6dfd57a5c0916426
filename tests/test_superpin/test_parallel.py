"""Two-phase slice execution and the ``-spworkers`` process fan-out.

The acceptance property: ``-spworkers N`` must be *functionally
invisible* — the same merged tool output, detection statistics and
per-slice figures as the sequential in-process path, for any N.
"""

import pickle
import threading

import pytest

from repro.errors import ConfigError
from repro.isa import assemble
from repro.machine import Kernel
from repro.sched import shared_cache_charges
from repro.superpin import (AutoMerge, parse_switches, resolve_shared_areas,
                            run_superpin, SharedArea, SPControl,
                            SuperPinConfig)
from repro.tools import ICount2, ITrace
from repro.workloads import build
from tests.conftest import MULTISLICE

# The quickstart example's guest (examples/quickstart.py), inlined so the
# parity tests cover the exact program the README walks through.
QUICKSTART = """
.entry main
main:
    li   s0, 0
    li   s1, 50
outer:
    li   t0, 0
    li   t1, 500
    call kernel
    li   a0, SYS_TIME
    syscall
    inc  s0
    blt  s0, s1, outer
    li   a0, SYS_WRITE
    li   a1, FD_STDOUT
    la   a2, msg
    li   a3, 3
    syscall
    li   a0, SYS_EXIT
    li   a1, 0
    syscall

kernel:
    push ra
loop:
    st   t0, 0x8000(t0)
    ld   t2, 0x8000(t0)
    add  t3, t3, t2
    addi t0, t0, 3
    blt  t0, t1, loop
    pop  ra
    ret

.data
msg: .ascii "ok\\n"
"""


def _slice_fingerprint(report):
    """Everything a slice reports that must not depend on how it ran."""
    return [(s.index, s.reason, s.exact, s.instructions,
             s.expected_instructions, s.traces_executed, s.analysis_calls,
             s.compiles, s.compiled_ins,
             s.replayed_syscalls, s.emulated_syscalls, s.cow_faults,
             s.compile_log)
            for s in report.slices]


def _run_pair(program, tool_cls, workers=2, **config_kwargs):
    """Run sequentially and with workers; return both (report, tool)."""
    config_kwargs.setdefault("spmsec", 500)
    config_kwargs.setdefault("clock_hz", 10_000)
    out = []
    for spworkers in (0, workers):
        tool = tool_cls()
        config = SuperPinConfig(spworkers=spworkers, **config_kwargs)
        report = run_superpin(program, tool, config, kernel=Kernel(seed=42))
        out.append((report, tool))
    return out


class TestParallelParity:
    @pytest.mark.parametrize("source", [QUICKSTART, MULTISLICE],
                             ids=["quickstart", "multislice"])
    def test_icount_identical_to_sequential(self, source):
        program = assemble(source)
        (seq_report, seq_tool), (par_report, par_tool) = _run_pair(
            program, ICount2)
        assert par_tool.total == seq_tool.total
        assert par_report.exit_code == seq_report.exit_code
        assert par_report.stdout == seq_report.stdout
        assert par_report.num_slices == seq_report.num_slices >= 3
        assert par_report.all_exact and seq_report.all_exact
        assert par_report.detection_summary() \
            == seq_report.detection_summary()
        assert _slice_fingerprint(par_report) \
            == _slice_fingerprint(seq_report)
        assert par_report.signatures == seq_report.signatures

    def test_icount_workload_identical(self):
        built = build("gzip", clock_hz=10_000, scale=0.2)
        (seq_report, seq_tool), (par_report, par_tool) = _run_pair(
            built.program, ICount2, workers=3, spmsec=200)
        assert par_tool.total == seq_tool.total
        assert par_report.stdout == seq_report.stdout
        assert par_report.detection_summary() \
            == seq_report.detection_summary()
        assert _slice_fingerprint(par_report) \
            == _slice_fingerprint(seq_report)

    def test_manual_merge_tool_identical(self):
        """ITrace merges via slice-end writes into a CONCAT-style shared
        stream — the Figure-2 manual pattern, which depends on unpickled
        contexts resolving back to the canonical areas."""
        program = assemble(MULTISLICE)
        (seq_report, seq_tool), (par_report, par_tool) = _run_pair(
            program, ITrace)
        assert par_tool.trace == seq_tool.trace
        assert _slice_fingerprint(par_report) \
            == _slice_fingerprint(seq_report)

    def test_timing_model_identical(self):
        """The virtual-time simulation consumes only slice figures, so
        modeled cycles must not depend on how the slices actually ran."""
        program = assemble(MULTISLICE)
        (seq_report, _), (par_report, _) = _run_pair(program, ICount2)
        assert par_report.timing.total_cycles \
            == seq_report.timing.total_cycles
        assert par_report.timing.breakdown() \
            == seq_report.timing.breakdown()

    def test_shared_cache_attribution_order_independent(self):
        """§8 shared-cache figures are a slice-ordered view of the
        compile logs, so they are identical between sequential and
        parallel runs."""
        program = assemble(MULTISLICE)
        (seq_report, seq_tool), (par_report, par_tool) = _run_pair(
            program, ICount2)
        assert par_tool.total == seq_tool.total
        assert _slice_fingerprint(par_report) \
            == _slice_fingerprint(seq_report)
        charges = shared_cache_charges(par_report.slices)
        assert charges == shared_cache_charges(seq_report.slices)
        assert par_report.shared_cache_timing() \
            == seq_report.shared_cache_timing()
        # The view actually re-attributed: later slices recompile the
        # hot loop, so someone must have recorded reuses.
        assert sum(reuses for _, _, reuses in charges.values()) > 0
        # First compilation of each trace is charged exactly once.
        seq_logs = [entry for s in seq_report.slices
                    for entry in s.compile_log]
        assert sum(compiles for compiles, _, _ in charges.values()) \
            == len(set(seq_logs))


class TestSliceTimings:
    def test_sequential_timings(self, multislice_program):
        tool = ICount2()
        report = run_superpin(multislice_program, tool,
                              SuperPinConfig(spmsec=500, clock_hz=10_000,
                                             spworkers=0,
                                             spfaults="failfast"),
                              kernel=Kernel(seed=42))
        assert [t.index for t in report.slice_timings] \
            == list(range(report.num_slices))
        assert all(t.run_seconds > 0 for t in report.slice_timings)
        # No process boundary was crossed, so no pickle/fork cost.
        assert all(t.pickle_seconds == 0 and t.fork_seconds == 0
                   for t in report.slice_timings)
        assert report.signature_phase_seconds > 0
        assert report.slice_phase_seconds \
            >= sum(t.run_seconds for t in report.slice_timings)
        assert 0 < report.measured_parallelism <= 1.0

    def test_parallel_timings(self, multislice_program):
        tool = ICount2()
        report = run_superpin(multislice_program, tool,
                              SuperPinConfig(spmsec=500, clock_hz=10_000,
                                             spworkers=2),
                              kernel=Kernel(seed=42))
        assert all(t.run_seconds > 0 for t in report.slice_timings)
        assert all(t.pickle_seconds > 0 for t in report.slice_timings)
        assert all(t.fork_seconds > 0 for t in report.slice_timings)
        wall = report.wallclock_summary()
        assert wall["slice_phase_seconds"] > 0
        assert wall["slice_pickle_seconds"] > 0
        assert wall["measured_parallelism"] > 0
        assert all(t.total_seconds >= t.run_seconds
                   for t in report.slice_timings)


class TestSpworkersSwitch:
    def test_parse(self):
        config = parse_switches(["-spworkers", "2"])
        assert config.spworkers == 2

    def test_default_sequential(self, monkeypatch):
        monkeypatch.delenv("SUPERPIN_SPWORKERS", raising=False)
        assert SuperPinConfig().spworkers == 0
        assert parse_switches([]).spworkers == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="-spworkers"):
            SuperPinConfig(spworkers=-1)
        with pytest.raises(ConfigError, match="-spworkers"):
            parse_switches(["-spworkers", "-3"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_switches(["-spworkers", "two"])


class TestSharedAreaPickling:
    """The worker-boundary contract for shared areas (see sharedmem)."""

    def test_plain_unpickle_builds_private_copy(self):
        area = SharedArea("area0", 2, AutoMerge.ADD)
        area.data = [7, 9]
        clone = pickle.loads(pickle.dumps(area))
        assert clone is not area
        assert clone.data == [7, 9]
        assert clone.auto_merge is AutoMerge.ADD
        clone[0] = 99  # worker-side writes never reach the parent
        assert area[0] == 7

    def test_resolving_unpickle_returns_canonical_area(self):
        sp = SPControl(SuperPinConfig())
        area = sp.SP_CreateSharedArea([0], 1, AutoMerge.ADD)
        blob = pickle.dumps(area)
        with resolve_shared_areas(sp.areas):
            resolved = pickle.loads(blob)
        assert resolved is area

    def test_resolution_scope_is_restored(self):
        sp = SPControl(SuperPinConfig())
        area = sp.SP_CreateSharedArea([0], 1, AutoMerge.ADD)
        blob = pickle.dumps(area)
        with resolve_shared_areas(sp.areas):
            pass
        assert pickle.loads(blob) is not area

    def test_references_inside_one_pickle_stay_shared(self):
        area = SharedArea("area0", 1)
        pair = pickle.loads(pickle.dumps((area, area)))
        assert pair[0] is pair[1]

    def test_scopes_on_two_threads_do_not_see_each_other(self):
        """Two runs on two threads of one process (two serve-daemon
        jobs) both name their first area ``area0`` and unpickle inside
        scopes that overlap in time; the scope was once one module
        global, and the first to unpickle got the other run's region."""
        runs = {}
        for name in "ab":
            sp = SPControl(SuperPinConfig())
            area = sp.SP_CreateSharedArea([0], 1, AutoMerge.ADD)
            runs[name] = (sp, area, pickle.dumps(area))
        assert runs["a"][1].name == runs["b"][1].name
        a_entered, b_entered, a_left = (threading.Event() for _ in range(3))
        resolved = {}

        def run_a():
            sp, _, blob = runs["a"]
            with resolve_shared_areas(sp.areas):
                a_entered.set()
                assert b_entered.wait(timeout=30)
                resolved["a"] = pickle.loads(blob)
            a_left.set()

        def run_b():
            sp, _, blob = runs["b"]
            assert a_entered.wait(timeout=30)
            with resolve_shared_areas(sp.areas):
                b_entered.set()
                assert a_left.wait(timeout=30)
                resolved["b"] = pickle.loads(blob)

        threads = [threading.Thread(target=run_a),
                   threading.Thread(target=run_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert resolved["a"] is runs["a"][1]
        assert resolved["b"] is runs["b"][1]
        # And nothing outlives the scopes, on this thread or those.
        assert pickle.loads(runs["a"][2]) is not runs["a"][1]


class _Span:
    """Minimal span-record stand-in for the timings projection."""

    def __init__(self, name, slice_tag, duration=0.5):
        self.name = name
        self.args = {"slice": slice_tag}
        self.duration = duration


class TestTimingsProjectionGuard:
    """Regression: the slice-tag guard admitted bools (True credited
    slice 1) and silently dropped out-of-range indices."""

    def test_bool_slice_tag_is_dropped_not_credited(self):
        from repro.superpin.parallel import slice_timings_from_records
        records = [_Span("slice.run", True, duration=2.0),
                   _Span("slice.run", 1, duration=0.25)]
        timings = slice_timings_from_records(records, 2)
        # True must NOT alias slice 1 (bool is an int subclass).
        assert timings[1].run_seconds == 0.25
        assert timings[0].run_seconds == 0.0

    def test_out_of_range_tags_counted_as_dropped(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.superpin.parallel import slice_timings_from_records
        metrics = MetricsRegistry()
        records = [_Span("slice.run", 7), _Span("slice.fork", -1),
                   _Span("slice.run", 0, duration=0.125)]
        timings = slice_timings_from_records(records, 2, metrics=metrics)
        assert timings[0].run_seconds == 0.125
        assert metrics.counters.get("superpin.timings.dropped") == 2

    def test_bool_tags_counted_as_dropped(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.superpin.parallel import slice_timings_from_records
        metrics = MetricsRegistry()
        records = [_Span("slice.run", False)]
        slice_timings_from_records(records, 2, metrics=metrics)
        assert metrics.counters.get("superpin.timings.dropped") == 1

    def test_untagged_and_foreign_spans_are_not_dropped_records(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.superpin.parallel import slice_timings_from_records
        metrics = MetricsRegistry()

        class Foreign:
            name = "signature"
            args = {"boundary": 1}
            duration = 1.0

        class Untagged:
            name = "slice.run"
            args = None
            duration = 1.0

        slice_timings_from_records([Foreign(), Untagged()], 2,
                                   metrics=metrics)
        # Spans that never claimed a slice tag are simply foreign — only
        # spans with a *bad* slice tag count as dropped.
        assert "superpin.timings.dropped" not in metrics.counters
