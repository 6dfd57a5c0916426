"""Cross-slice warm code cache (-spwarmcache): fast, invisible, durable.

Slice 0 (the pilot) exports its compiled traces; the control process
freezes them into a warm payload shipped with every later slice.  The
properties under test:

- warm starts actually happen (the payload is consumed, not decorative);
- warm execution is *architecturally invisible* — tool output and every
  per-slice figure are byte-identical with the switch on or off, for
  both backends and any worker count;
- supervisor retries re-receive the same frozen payload;
- a degraded pilot falls back to an all-cold run instead of wedging;
- consistency-check mismatches compile cold — lowering once — and are
  counted;
- the whole table {backend} x {no store, cold miss, hit} x {workers} is
  one behaviour.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.pin import PinVM, RunState
from repro.superpin import (FaultPlan, run_superpin, SuperPinConfig)
from repro.superpin.warmstore import WarmPayload, WarmStore, WarmTrace
from repro.tools import TOOLS
from tests.conftest import LOOP_SUM, MULTISLICE, virtual_counters

BACKENDS = ["closure", "source"]
WORKER_MODES = [0, 2]


def _report(program, tool_name="icount2", **kwargs):
    kwargs.setdefault("spmsec", 500)
    kwargs.setdefault("clock_hz", 10_000)
    tool = TOOLS[tool_name]()
    report = run_superpin(program, tool, SuperPinConfig(**kwargs),
                          kernel=Kernel(seed=42))
    return report, tool


def _slice_fields(report, skip=()):
    """Every SliceResult field but the tool context, minus ``skip``."""
    return [{f.name: getattr(s, f.name) for f in dataclasses.fields(s)
             if f.name != "tool_ctx" and f.name not in skip}
            for s in report.slices]


#: Host-level bookkeeping a warm start (or its TC2 profile) may move;
#: everything else on a SliceResult is architectural.
_WARM_ONLY = {"warm_starts", "warm_mismatches", "linked_dispatches",
              "cache_hit_rate", "tc2_promotions", "tc2_dispatches",
              "tc2_mispredicts"}


def _fingerprint(report):
    return [(s.index, s.reason, s.exact, s.instructions,
             s.expected_instructions, s.traces_executed, s.analysis_calls,
             s.compiles, s.compiled_ins, s.replayed_syscalls,
             s.emulated_syscalls, s.cow_faults, s.compile_log)
            for s in report.slices]


@pytest.fixture(scope="module")
def program():
    return assemble(MULTISLICE)


class TestWarmStartsHappen:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_later_slices_start_warm(self, program, backend, spworkers):
        report, _ = _report(program, jit_backend=backend,
                            spworkers=spworkers)
        assert report.num_slices >= 3
        by_index = {s.index: s for s in report.slices}
        # The pilot runs cold and its exports are folded then stripped.
        assert by_index[0].warm_starts == 0
        assert by_index[0].warm_exports == ()
        # The application working set recurs, so later slices hit the
        # payload — and warm installs still count as ordinary compiles.
        assert sum(s.warm_starts for s in report.slices) > 0
        for s in report.slices:
            # Warm installs flow through the ordinary insert path, so
            # they are a subset of this slice's compiles.  Mismatches
            # (boundary-split traces whose shape differs from the
            # pilot's) legitimately compile cold instead.
            assert s.warm_starts <= s.compiles
            assert s.warm_starts + s.warm_mismatches <= s.compiles

    def test_metrics_counter_folded(self, program):
        report, _ = _report(program, spworkers=2, spmetrics=True,
                            jit_backend="source")
        counters = dict(report.metrics.counters)
        assert counters["pin.cache.warm_starts"] > 0
        assert counters["pin.cache.linked_dispatches"] > 0
        # Warm starts replace cold JIT invocations, not cache inserts.
        assert counters["pin.jit.compiles"] \
            == counters["pin.cache.compiles"] \
            - counters["pin.cache.warm_starts"]

    def test_switch_off_runs_cold(self, program):
        report, _ = _report(program, spwarmcache=False, spworkers=2)
        assert all(s.warm_starts == 0 for s in report.slices)
        assert all(s.warm_exports == () for s in report.slices)


class TestArchitecturalIdentity:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_on_off_identical(self, program, backend, spworkers):
        warm_report, warm_tool = _report(program, jit_backend=backend,
                                         spworkers=spworkers)
        cold_report, cold_tool = _report(program, jit_backend=backend,
                                         spworkers=spworkers,
                                         spwarmcache=False,
                                         splinktraces=False)
        assert warm_tool.total == cold_tool.total
        assert warm_report.stdout == cold_report.stdout
        assert warm_report.exit_code == cold_report.exit_code
        assert _fingerprint(warm_report) == _fingerprint(cold_report)
        assert warm_report.detection_summary() \
            == cold_report.detection_summary()

    def test_timing_model_unaffected(self, program):
        """The virtual timing figures are computed from compile counts
        a warm start must not perturb."""
        warm_report, _ = _report(program, spworkers=2)
        cold_report, _ = _report(program, spworkers=2, spwarmcache=False)
        assert warm_report.timing.total_cycles \
            == cold_report.timing.total_cycles


class TestSupervisionInteraction:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_retried_slice_rereceives_payload(self, program, spworkers):
        """A crash-then-retry on a non-pilot slice must re-ship the same
        frozen warm payload — the retried attempt still starts warm and
        the output is identical to a clean run."""
        clean_report, clean_tool = _report(program, spworkers=spworkers)
        report, tool = _report(program, spworkers=spworkers,
                               spfaults="retry",
                               fault_plan=FaultPlan.parse("crash@2"))
        assert report.slice_outcomes[2].recovered
        by_index = {s.index: s for s in report.slices}
        assert by_index[2].warm_starts > 0
        assert tool.total == clean_tool.total
        assert _fingerprint(report) == _fingerprint(clean_report)

    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_degraded_pilot_falls_back_cold(self, program, spworkers):
        """If the pilot slice itself is unrecoverable under -spfaults
        degrade, the rest of the run proceeds cold rather than waiting
        for exports that will never come."""
        report, _ = _report(program, spworkers=spworkers,
                            spfaults="degrade", spretries=1,
                            fault_plan=FaultPlan.parse("crash@0:*"))
        assert report.degraded_slices == [0]
        assert 0 not in {s.index for s in report.slices}
        assert all(s.warm_starts == 0 for s in report.slices)
        assert all(s.exact for s in report.slices)


class TestConsistencyCheck:
    def test_mismatched_source_compiles_cold(self):
        """A payload entry whose source text does not match the locally
        regenerated trace is rejected (counted), and the dispatcher
        compiles cold — never executes the foreign code object."""
        program = assemble(LOOP_SUM)
        process = load_program(program, Kernel(seed=42))
        vm = PinVM(process, jit_backend="source")
        bogus = WarmTrace(address=program.entry, num_ins=3,
                          source="def __trace__():  # not this trace\n",
                          code=b"never unmarshalled")
        vm.install_warm(WarmPayload((bogus,)))
        result = vm.run()
        assert result.state is RunState.EXIT
        assert vm.cache.stats.warm_mismatches == 1
        assert vm.cache.stats.warm_starts == 0
        assert vm.cache.stats.compiles > 0

    def test_entries_serve_at_most_once(self):
        """After the first (mismatching) consultation the entry is gone;
        re-execution of the same pc hits the code cache, not the
        payload."""
        program = assemble(LOOP_SUM)
        process = load_program(program, Kernel(seed=42))
        vm = PinVM(process, jit_backend="source")
        vm.install_warm(WarmPayload((WarmTrace(
            address=program.entry, num_ins=3, source="x", code=b"y"),)))
        vm.run()
        assert vm.cache.stats.warm_mismatches == 1  # consulted exactly once
        assert vm.warm_traces == {}

    @pytest.mark.parametrize("spfilter", ["routine:main", "opcode:syscall"])
    def test_mismatch_lowers_once(self, program, spfilter):
        """Regression: a source-backend mismatch used to lower the trace
        twice (warm attempt, then a cold compile), so trace callbacks
        fired twice and the filter counters double-counted.  Every
        instrumentation counter must equal the cold run's."""
        warm, warm_tool = _report(program, "memtrace", spfilter=spfilter,
                                  jit_backend="source")
        cold, cold_tool = _report(program, "memtrace", spfilter=spfilter,
                                  jit_backend="source", spwarmcache=False)
        assert warm.total_warm_mismatches > 0  # the path is exercised
        assert _slice_fields(warm, _WARM_ONLY) \
            == _slice_fields(cold, _WARM_ONLY)
        assert warm_tool.report() == cold_tool.report()


def _pilot(*exports, chains=()):
    return SimpleNamespace(warm_exports=tuple(exports), sb_chains=chains)


class TestStoreSemantics:
    def test_fold_first_wins_and_freeze_sorts(self):
        first = WarmTrace(address=8, num_ins=2, source="a")
        pilot = _pilot(WarmTrace(address=16, num_ins=1), first,
                       WarmTrace(address=8, num_ins=2, source="b"),
                       chains=[[8, 16]])
        payload = WarmStore().fold(pilot)
        assert [e.address for e in payload.traces] == [8, 16]
        assert payload.traces[0] is first
        assert payload.chains == ((8, 16),)
        # Stripped, so reports don't drag trace sources around.
        assert pilot.warm_exports == () and pilot.sb_chains == ()

    def test_fold_after_freeze_is_noop(self):
        """Retries must never mutate the frozen payload: every slice,
        on any attempt, sees the same warm set."""
        store = WarmStore()
        payload = store.fold(_pilot(WarmTrace(address=8, num_ins=2)))
        assert store.fold(_pilot(WarmTrace(address=99, num_ins=1))) \
            is payload
        assert len(payload.traces) == 1
        assert store.lookup() is payload


_PERSISTENT = {
    "none": {},
    "miss": {"pin.cache.persistent_misses": 1,
             "pin.cache.persistent_saves": 1},
    "hit": {"pin.cache.persistent_hits": 1},
}


class TestParityTable:
    @pytest.mark.parametrize("store_state", list(_PERSISTENT))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_workers_and_store_states_agree(self, program, tmp_path,
                                            backend, store_state):
        runs = []
        for spworkers in WORKER_MODES:
            kwargs = dict(jit_backend=backend, spworkers=spworkers,
                          spmetrics=True)
            if store_state != "none":
                kwargs["sptracestore"] = str(tmp_path / f"w{spworkers}")
            if store_state == "hit":
                _report(program, **kwargs)  # the run that fills the store
            runs.append(_report(program, **kwargs))
        (seq, seq_tool), (par, par_tool) = runs
        # Any worker count: the same results, counters and tool output.
        assert _slice_fields(seq) == _slice_fields(par)
        assert virtual_counters(seq.metrics) == virtual_counters(par.metrics)
        assert seq_tool.report() == par_tool.report()
        # Against the cold reference only the warm bookkeeping differs.
        cold, cold_tool = _report(program, jit_backend=backend,
                                  spwarmcache=False)
        assert _slice_fields(seq, _WARM_ONLY) \
            == _slice_fields(cold, _WARM_ONLY)
        assert seq_tool.report() == cold_tool.report()
        assert {name: value for name, value in seq.metrics.counters.items()
                if "persistent" in name} == _PERSISTENT[store_state]
        # A hit warms every slice, the pilot included; otherwise the
        # pilot is the one slice that compiles cold.
        pilot = seq.slices[0]
        assert (pilot.warm_starts == pilot.compiles) \
            == (store_state == "hit")
