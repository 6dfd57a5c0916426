"""Persistent trace store (-sptracestore): a program's warm set on disk.

Properties under test:

- entries round-trip and verify; corrupt entries are evicted and never
  returned;
- keys are sensitive to what shapes a trace head (the program) and to
  no switch;
- LRU eviction enforces the size budget without evicting the entry
  just written;
- a second identical run records ``pin.cache.persistent_hits > 0`` and
  reports *zero* pilot cold compiles, with byte-identical results, for
  any worker count;
- replays and journal resumes go through the same store;
- two processes hammering one store never observe a torn or invalid
  entry.

(What a well-framed but malformed entry does to a run is in
``test_warmcache.TestWarmAccount``.)
"""

import os
import subprocess
import sys

import pytest

from repro.isa import assemble
from repro.machine import Kernel
from repro.superpin import (damage_store_entry, FaultPlan,
                            pilot_cold_compiles, program_digest,
                            replay_recording, run_superpin, store_key,
                            SuperPinConfig, trace_store_for, TraceStore)
from repro.superpin.journal import damage_journal
from repro.tools import ICount2
from tests.conftest import all_generated, MULTISLICE, retries

WORKER_MODES = [0, 2]


@pytest.fixture(scope="module")
def program():
    return assemble(MULTISLICE)


@pytest.fixture()
def store_dir(tmp_path):
    return str(tmp_path / "store")


def _payload(n=3, base=0x100):
    return tuple(base + 16 * i for i in range(n))


def _report(program, store, **kwargs):
    kwargs.setdefault("spmsec", 500)
    kwargs.setdefault("clock_hz", 10_000)
    kwargs.setdefault("spmetrics", True)
    kwargs.setdefault("sptracestore", store)
    tool = ICount2()
    report = run_superpin(program, tool, SuperPinConfig(**kwargs),
                          kernel=Kernel(seed=42))
    return report, tool


def _fingerprint(report):
    return [(s.index, s.exact, s.instructions, s.traces_executed,
             s.analysis_calls, s.compiles, s.compile_log)
            for s in report.slices]


def _warm(report):
    return [s.warm_starts for s in report.slices]


def _pilot_cold(report):
    return pilot_cold_compiles(report.slices)


class TestStoreBasics:
    def test_round_trip(self, store_dir):
        store = TraceStore(store_dir)
        payload = _payload()
        store.save("k" * 64, payload)
        assert store.load("k" * 64) == payload
        assert len(store) == 1

    def test_missing_key_is_a_miss(self, store_dir):
        store = TraceStore(store_dir)
        assert store.load("0" * 64) is None

    def test_empty_payload_not_stored(self, store_dir):
        store = TraceStore(store_dir)
        store.save("k" * 64, ())
        assert len(store) == 0

    def test_key_sensitivity(self, program):
        digest = program_digest(program)
        base = store_key(digest, SuperPinConfig())
        assert store_key(digest, SuperPinConfig()) == base
        assert store_key("other-digest", SuperPinConfig()) != base
        # No switch moves a trace head, so none shapes the key.
        for other in (dict(spsuppress=True), dict(spworkers=2),
                      dict(spmsec=250)):
            assert store_key(digest, SuperPinConfig(**other)) == base

    @pytest.mark.parametrize("other", [
        "generated", dict(spsuppress=True), dict(spfilter="opcode:mem")],
        ids=["jit_backend", "spsuppress", "spfilter"])
    def test_no_switch_moves_a_trace_head(self, program, other,
                                          monkeypatch):
        """Why ``store_key`` reads nothing off the config — and nothing
        of the lowering (``generated``: every trace generated)."""
        base, _ = _report(program, None)
        if other == "generated":
            all_generated(monkeypatch)
            other = {}
        report, _ = _report(program, None, **other)
        assert [s.compile_log for s in report.slices] \
            == [s.compile_log for s in base.slices]

    def test_trace_store_for_gating(self, store_dir):
        assert trace_store_for(SuperPinConfig()) is None
        on = SuperPinConfig(sptracestore=store_dir)
        assert isinstance(trace_store_for(on), TraceStore)


class TestCorruption:
    def test_corrupt_entry_evicted_never_returned(self, store_dir):
        from repro.obs.metrics import MetricsRegistry
        metrics = MetricsRegistry()
        store = TraceStore(store_dir, metrics=metrics)
        key = "c" * 64
        store.save(key, _payload())
        damage_store_entry(store_dir, key)
        assert store.load(key) is None
        assert len(store) == 0  # evicted on the spot
        counters = dict(metrics.counters)
        assert counters["pin.cache.persistent_corrupt"] == 1
        assert counters["pin.cache.persistent_evictions"] == 1
        assert counters["pin.cache.persistent_misses"] == 1
        assert "pin.cache.persistent_hits" not in counters

    def test_truncated_entry_rejected(self, store_dir):
        store = TraceStore(store_dir)
        key = "t" * 64
        store.save(key, _payload())
        path = store._path(key)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:len(data) // 2])
        assert store.load(key) is None

    def test_garbage_file_rejected(self, store_dir):
        store = TraceStore(store_dir)
        key = "g" * 64
        with open(store._path(key), "wb") as handle:
            handle.write(b"not a store entry at all")
        assert store.load(key) is None
        assert len(store) == 0


class TestEviction:
    def test_lru_eviction_under_budget(self, store_dir):
        store = TraceStore(store_dir, limit_bytes=1)
        store.save("a" * 64, _payload())
        # The freshly-written entry survives even over budget ...
        assert store.keys() == ["a" * 64]
        store.save("b" * 64, _payload())
        # ... and the older entry is the casualty.
        assert store.keys() == ["b" * 64]

    def test_hits_refresh_recency(self, store_dir):
        import time
        store = TraceStore(store_dir, limit_bytes=10 ** 9)
        store.save("a" * 64, _payload())
        time.sleep(0.02)
        store.save("b" * 64, _payload())
        time.sleep(0.02)
        assert store.load("a" * 64) is not None  # refreshes atime/mtime
        small = TraceStore(store_dir, limit_bytes=1)
        small.save("c" * 64, _payload())
        # 'b' is now least recent; 'a' was touched by the hit.  The
        # budget of one byte forces everything but the newest out, in
        # LRU order — so 'b' must be gone.
        assert "b" * 64 not in small.keys()


class TestWarmStartProof:
    @pytest.mark.parametrize("spworkers", WORKER_MODES)
    def test_second_run_starts_warm(self, program, store_dir, spworkers):
        first, _ = _report(program, store_dir, spworkers=spworkers)
        second, _ = _report(program, store_dir, spworkers=spworkers)
        c1 = dict(first.metrics.counters)
        c2 = dict(second.metrics.counters)
        assert c1.get("pin.cache.persistent_hits", 0) == 0
        assert c1["pin.cache.persistent_misses"] == 1
        assert c1["pin.cache.persistent_saves"] == 1
        assert c2["pin.cache.persistent_hits"] == 1
        assert c2.get("pin.cache.persistent_misses", 0) == 0
        assert c2.get("pin.cache.persistent_saves", 0) == 0
        # Zero pilot cold compiles on the second run: the stored set
        # named every head slice 0 compiled — and nothing else moved.
        assert _pilot_cold(first) > 0
        assert _pilot_cold(second) == 0
        assert _fingerprint(first) == _fingerprint(second)
        assert _warm(first)[0] == 0 < _warm(second)[0]
        assert _warm(first)[1:] == _warm(second)[1:]

    def test_warm_run_identical_to_storeless_run(self, program, tmp_path):
        baseline, base_tool = _report(program, None, sptracestore=None)
        store = str(tmp_path / "store")
        _report(program, store)
        warm, warm_tool = _report(program, store)
        assert warm.metrics.counters["pin.cache.persistent_hits"] == 1
        assert _fingerprint(baseline) == _fingerprint(warm)
        assert base_tool.report() == warm_tool.report()

    def test_corrupt_store_entry_falls_back_cold(self, program,
                                                 store_dir):
        first, _ = _report(program, store_dir)
        key = store_key(program_digest(program),
                        SuperPinConfig(sptracestore=store_dir))
        damage_store_entry(store_dir, key)
        second, _ = _report(program, store_dir)
        counters = dict(second.metrics.counters)
        assert counters["pin.cache.persistent_corrupt"] == 1
        assert counters.get("pin.cache.persistent_hits", 0) == 0
        # The damaged entry was evicted and re-saved by the recount.
        assert counters["pin.cache.persistent_saves"] == 1
        assert _fingerprint(first) == _fingerprint(second)
        # The freshly re-written entry is the next run's hit.
        third, _ = _report(program, store_dir)
        assert third.metrics.counters["pin.cache.persistent_hits"] == 1

    def test_no_pilot_payload_stores_nothing(self, program, store_dir,
                                             monkeypatch):
        """A run whose slice 0 left no result has no warm set to save."""
        retries(monkeypatch, 1)
        degraded, _ = _report(program, store_dir, spfaults="degrade",
                              fault_plan=FaultPlan.parse("crash@0:*"))
        assert degraded.degraded_slices == [0]
        assert "pin.cache.persistent_saves" \
            not in degraded.metrics.counters
        assert TraceStore(store_dir).keys() == []

    def test_a_run_of_one_slice_saves_and_hits(self, program, store_dir):
        """What the daemon's one-slice jobs see on resubmission."""
        first, _ = _report(program, store_dir, spmsec=10_000_000)
        second, _ = _report(program, store_dir, spmsec=10_000_000)
        assert first.num_slices == second.num_slices == 1
        assert first.metrics.counters["pin.cache.persistent_saves"] == 1
        assert second.metrics.counters["pin.cache.persistent_hits"] == 1
        assert _pilot_cold(first) > 0
        assert _pilot_cold(second) == 0


class TestReplayAndResumeWarm:
    def test_replay_goes_through_the_store(self, program, tmp_path):
        # Regression (satellite fix): replays used to bypass the warm
        # tier entirely.  Entries are keyed by recording id, so two
        # replays of one artifact share an entry the live run does not.
        recording = str(tmp_path / "run.sprec")
        store = str(tmp_path / "store")
        _report(program, None, sptracestore=None, sprecord=recording)
        config = SuperPinConfig(spmsec=500, clock_hz=10_000,
                                spmetrics=True, sptracestore=store)
        first = replay_recording(recording, ICount2(), config)
        second = replay_recording(recording, ICount2(), config)
        c1 = dict(first.metrics.counters)
        c2 = dict(second.metrics.counters)
        assert c1["pin.cache.persistent_misses"] == 1
        assert c1["pin.cache.persistent_saves"] == 1
        assert c2["pin.cache.persistent_hits"] == 1
        assert _pilot_cold(second) == 0
        assert _fingerprint(first) == _fingerprint(second)

    def test_resume_goes_through_the_store(self, program, tmp_path):
        # A crash-resumed run re-executes its journal's missing suffix;
        # adopted and re-executed slices are counted alike, against the
        # entry the first run saved.
        store = str(tmp_path / "store")
        journal = str(tmp_path / "run.spjournal")
        _report(program, store)
        full, _ = _report(program, store, spjournal=journal)
        assert full.num_slices >= 3
        damage_journal(journal, "truncate")
        resumed, _ = _report(program, store, spjournal=journal,
                             spresume=True, spfaults="retry")
        counters = dict(resumed.metrics.counters)
        assert resumed.resumed_slices > 0
        assert resumed.resumed_slices < resumed.num_slices
        assert counters["pin.cache.persistent_hits"] == 1
        assert _fingerprint(full) == _fingerprint(resumed)
        assert _warm(full) == _warm(resumed) and _warm(full)[0] > 0


_HAMMER = """
import os, sys
sys.path.insert(0, {src!r})
from repro.superpin import TraceStore, damage_store_entry

root, seed = sys.argv[1], int(sys.argv[2])
keys = [chr(ord('a') + i) * 64 for i in range(4)]
payloads = {{key: tuple(ord(key[0]) * 4096 + 16 * i for i in range(40))
            for key in keys}}
store = TraceStore(root, limit_bytes=700)
for round in range(120):
    key = keys[(round + seed) % len(keys)]
    store.save(key, payloads[key])
    if round % 7 == seed % 7:
        try:
            damage_store_entry(root, keys[(round + 1 + seed) % len(keys)])
        except OSError:
            pass
    got = store.load(keys[(round + 2 + seed) % len(keys)])
    if got is not None:
        want = payloads[keys[(round + 2 + seed) % len(keys)]]
        assert got == want, (got, want)
print("clean")
"""


class TestConcurrentHammer:
    def test_two_processes_never_see_torn_entries(self, tmp_path):
        # Two processes save, load, damage and LRU-evict against one
        # store directory at once.  Every successful load must return a
        # complete, expected payload — atomic_write plus the per-entry
        # digest make anything else impossible, and this is the test
        # that keeps it that way.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        root = str(tmp_path / "store")
        script = _HAMMER.format(src=os.path.abspath(src))
        procs = [subprocess.Popen(
            [sys.executable, "-c", script, root, str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            for seed in (0, 3)]
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0, out.decode()
            assert b"clean" in out


def test_fingerprint_is_stable_and_hex():
    from repro.superpin import isa_fingerprint
    first = isa_fingerprint()
    assert first == isa_fingerprint()
    assert len(first) == 64
    int(first, 16)


def test_switch_parsing(tmp_path):
    """No switch reaches the store: only the field does."""
    from repro.errors import ConfigError
    from repro.superpin import parse_switches, trace_store_for
    with pytest.raises(ConfigError, match="unknown SuperPin switch"):
        parse_switches(["-sptracestore", str(tmp_path)])
    store = trace_store_for(SuperPinConfig(sptracestore=str(tmp_path)))
    assert store is not None and store.root == str(tmp_path)
    with pytest.raises(ConfigError):
        SuperPinConfig(sptracestore="   ")
