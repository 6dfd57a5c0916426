"""The warm account: ``warm_starts`` is a view over the compile logs.

Slice 0's compiled trace heads are the warm set (a ``-sptracestore``
entry takes their place on a hit, and then slice 0 is counted too);
``warm_starts[k]`` is how many distinct heads of slice k's compile log
the set names.  The properties under test:

- the count *is* that expression — under either lowering, any worker count
  and every store state, with the totals the pilot → payload protocol
  used to produce (pinned from the revision that still had it);
- nothing but slice order shapes it: not the worker count, not
  sampling, a degraded slice or a retry (a SIGKILLed
  run resumed from its journal: ``test_streaming.TestRecordingAndJournal`` and
  ``test_trace_store`` compare every slice field, this one included);
- no slice waits for another: slice 1 lands while slice 0 is stalled;
- a store entry is outside input: anything but a list of addresses is
  evicted, recounted and re-saved.
"""

import dataclasses
import hashlib
import json
import time

import pytest

from repro.isa import assemble
from repro.machine import Kernel
from repro.superpin import (FaultPlan, parallel, program_digest,
                            run_superpin, store_key, SuperPinConfig,
                            TraceStore)
from repro.superpin.warmstore import pilot_cold_compiles, STORE_MAGIC
from repro.tools import TOOLS
from tests.conftest import (all_generated, MULTISLICE, retries,
                            virtual_counters)
from tests.test_superpin.test_threads_superpin import THREADED

#: The JIT's own choice of lowering, and every trace generated
#: (``conftest.all_generated``).
BACKENDS = ["closure", "source"]
WORKER_MODES = [0, 2]

#: ``sum(warm_starts)`` on MULTISLICE at the parent of the account's
#: introduction, where a dispatcher miss popped a shipped payload entry:
#: without a store hit, and with slice 0 counted against the stored set.
PINNED = {"none": 34, "miss": 34, "hit": 41}


def _report(program, tool_name="icount2", **kwargs):
    kwargs.setdefault("spmsec", 500)
    kwargs.setdefault("clock_hz", 10_000)
    tool = TOOLS[tool_name]()
    report = run_superpin(program, tool, SuperPinConfig(**kwargs),
                          kernel=Kernel(seed=42))
    return report, tool


def _slice_fields(report):
    """Every SliceResult field but the tool context."""
    return [{f.name: getattr(s, f.name) for f in dataclasses.fields(s)
             if f.name != "tool_ctx"} for s in report.slices]


def _heads(result):
    return {pc for pc, _ in result.compile_log}


def _expected(report, stored=None):
    """The account, spelled out over ``report``'s compile logs."""
    by_index = {s.index: s for s in report.slices}
    if stored is not None:
        return {k: len(_heads(s) & stored) for k, s in by_index.items()}
    named = _heads(by_index[0]) if 0 in by_index else set()
    return {k: len(_heads(s) & named) if k else 0
            for k, s in by_index.items()}


def _counted(report):
    return {s.index: s.warm_starts for s in report.slices}


@pytest.fixture(scope="module")
def program():
    return assemble(MULTISLICE)


class TestWarmStartsHappen:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_later_slices_start_warm(self, program, backend, spworkers,
                                     monkeypatch):
        if backend == "source":
            all_generated(monkeypatch)
        report, _ = _report(program, spworkers=spworkers)
        assert report.num_slices >= 3
        by_index = {s.index: s for s in report.slices}
        # Slice 0 paid for the warm set; the working set recurs, so the
        # later slices name it — and a warm start is still a compile.
        assert by_index[0].warm_starts == 0
        assert sum(s.warm_starts for s in report.slices) > 0
        assert all(s.warm_starts <= s.compiles for s in report.slices)

    def test_metrics_counter_folded(self, program):
        report, _ = _report(program, spworkers=2, spmetrics=True)
        counters = dict(report.metrics.counters)
        assert counters["pin.cache.warm_starts"] \
            == sum(s.warm_starts for s in report.slices) > 0
        # Every dispatcher miss is a JIT compile and a cache insert.
        assert counters["pin.jit.compiles"] \
            == counters["pin.cache.compiles"]


class TestSupervisionInteraction:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_degraded_pilot_falls_back_cold(self, program, spworkers,
                                            monkeypatch):
        """A hole at slice 0 names nothing: every slice counts zero."""
        retries(monkeypatch, 1)
        report, _ = _report(program, spworkers=spworkers,
                            spfaults="degrade",
                            fault_plan=FaultPlan.parse("crash@0:*"))
        assert report.degraded_slices == [0]
        assert 0 not in {s.index for s in report.slices}
        assert all(s.warm_starts == 0 for s in report.slices)
        assert all(s.exact for s in report.slices)


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
                                            backend, store_state,
                                            monkeypatch):
        if backend == "source":
            all_generated(monkeypatch)
        runs = []
        for spworkers in WORKER_MODES:
            kwargs = dict(spworkers=spworkers, spmetrics=True)
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
        assert {name: value for name, value in seq.metrics.counters.items()
                if "persistent" in name} == _PERSISTENT[store_state]
        # The count is the expression over the compile logs — against
        # the stored heads on a hit, where slice 0 counts too — and the
        # number the payload protocol produced, under either lowering.
        stored = _heads(seq.slices[0]) if store_state == "hit" else None
        assert _counted(seq) == _expected(seq, stored)
        assert sum(_counted(seq).values()) == PINNED[store_state]
        assert (pilot_cold_compiles(seq.slices) == 0) \
            == (store_state == "hit")


class TestWarmAccount:
    @pytest.mark.parametrize("guest", ["threads", "sysforced"])
    def test_identity_on_other_guests(self, guest, monkeypatch):
        source, shape = {
            "threads": (THREADED, dict(spmsec=1000)),
            "sysforced": (MULTISLICE, dict(spmsec=100_000, spsysrecs=3)),
        }[guest]
        counts = []
        for backend in BACKENDS:
            with monkeypatch.context() as patch:
                if backend == "source":
                    all_generated(patch)
                for spworkers in WORKER_MODES:
                    report, _ = _report(assemble(source),
                                        spworkers=spworkers, **shape)
                    assert report.num_slices >= 3
                    assert _counted(report) == _expected(report)
                    counts.append(_counted(report))
        assert all(count == counts[0] for count in counts)
        assert sum(counts[0].values()) > 0

    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_slice_order_and_nothing_else(self, program, spworkers,
                                          monkeypatch):
        clean, _ = _report(program, spworkers=spworkers)
        expected = _counted(clean)
        # Sampled-out slices compile the same heads tool-free.
        sampled, _ = _report(program, spworkers=spworkers, spsample=2)
        assert _counted(sampled) == expected
        # A recovered slice is the clean slice; a hole past slice 0
        # takes only its own row out.
        retried, _ = _report(program, spworkers=spworkers,
                             spfaults="retry",
                             fault_plan=FaultPlan.parse("crash@2"))
        assert retried.slice_outcomes[2].recovered
        assert _counted(retried) == expected
        retries(monkeypatch, 0)
        holed, _ = _report(program, spworkers=spworkers,
                           spfaults="degrade",
                           fault_plan=FaultPlan.parse("crash@2:*"))
        assert holed.degraded_slices == [2]
        assert _counted(holed) == {k: n for k, n in expected.items()
                                   if k != 2}

    def test_slice_one_lands_while_slice_zero_is_stalled(self, program,
                                                         monkeypatch):
        """No slice waits for another.  (Under the pilot protocol slice 1
        was released only once slice 0 had landed.)"""
        run_slice = parallel.run_slice

        def stalled(boundary, interval, *args, **kwargs):
            if interval.index == 0:
                time.sleep(0.5)
            return run_slice(boundary, interval, *args, **kwargs)
        monkeypatch.setattr(parallel, "run_slice", stalled)
        report, _ = _report(program, spworkers=2)
        landed = {r.args["slice"]: r.end for r in report.trace.records
                  if r.name == "slice"}
        assert landed[1] < landed[0]
        assert _counted(report) == _expected(report)

    @pytest.mark.parametrize("entry", [
        [16, "32"], [16, -1], [16, True], [16, 1.5], {"16": 1}, [], 7],
        ids=repr)
    def test_a_malformed_entry_is_recounted_and_resaved(self, program,
                                                        tmp_path, entry):
        """A well-framed entry (valid digest) holding anything but a
        non-empty list of addresses is evicted as corrupt."""
        root = str(tmp_path / "store")
        first, _ = _report(program, sptracestore=root, spmetrics=True)
        key = store_key(program_digest(program), first.config)
        store = TraceStore(root)
        good = store.load(key)
        assert good == tuple(sorted(_heads(first.slices[0])))
        payload = json.dumps(entry).encode()
        with open(store._path(key), "wb") as handle:
            handle.write(STORE_MAGIC + hashlib.sha256(payload).digest()
                         + payload)
        second, _ = _report(program, sptracestore=root, spmetrics=True)
        counters = dict(second.metrics.counters)
        assert counters["pin.cache.persistent_corrupt"] == 1
        assert counters["pin.cache.persistent_saves"] == 1
        assert "pin.cache.persistent_hits" not in counters
        assert _counted(second) == _counted(first)
        assert store.load(key) == good

    def test_a_stored_set_is_only_ever_a_counter(self, program, tmp_path):
        """What a hostile writer can change: ``warm_starts``, and
        nothing else a run reports."""
        root = str(tmp_path / "store")
        clean, clean_tool = _report(program)
        key = store_key(program_digest(program), clean.config)
        TraceStore(root).save(key, [1, 2, 3])
        report, tool = _report(program, sptracestore=root)
        assert all(s.warm_starts == 0 for s in report.slices)
        for result in clean.slices:
            result.warm_starts = 0
        assert _slice_fields(report) == _slice_fields(clean)
        assert tool.report() == clean_tool.report()
