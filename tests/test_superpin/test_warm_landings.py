"""Warm landings: a time-travel session runs every landing on one code
cache, checked page by page against the state it lands on.

The oracle is an engine built new for each landing — a cold cache, as
every landing had before the session kept one: whatever the session
visited before, in whatever order, and whatever scans ran in between,
each landing's ``state_fingerprint()`` and pc are the fresh engine's.
"""

import random

import pytest

from bench.workloads import build_guest, WORKLOADS
from repro.isa import assemble
from repro.machine import Kernel
from repro.superpin import (load_recording, run_superpin, SuperPinConfig,
                            TimeTravelEngine)
from repro.tools import ICount2
from tests.conftest import all_generated, MULTISLICE
from tests.test_superpin.test_self_modifying import GUESTS as SELF_MODIFYING


def stratified(rng: random.Random, total: int, count: int) -> list[int]:
    """One seeded target in each of ``count`` equal strata of the run."""
    return [int((i + rng.random()) * total / count) for i in range(count)]


def record(program, path, **config) -> object:
    run_superpin(program, ICount2(),
                 SuperPinConfig(sprecord=str(path), **config),
                 kernel=Kernel(seed=42))
    recording = load_recording(path)
    assert recording.num_slices > 1
    return recording


def cold(recording, icount: int) -> tuple[int, str]:
    fresh = TimeTravelEngine(recording)
    fresh.goto(icount)
    return fresh.registers()[0], fresh.state_fingerprint()


def landed(engine) -> tuple[int, str]:
    return engine.registers()[0], engine.state_fingerprint()


def land_everywhere(recording, seed: int) -> TimeTravelEngine:
    """One session over stratified targets, shuffled, each landing
    held against a cold engine's; returns the session."""
    rng = random.Random(seed)
    targets = stratified(rng, recording.total_instructions, 16)
    rng.shuffle(targets)
    session = TimeTravelEngine(recording)
    for icount in targets + targets[::3]:
        session.goto(icount)
        assert landed(session) == cold(recording, icount), icount
    return session


@pytest.fixture(scope="module")
def bench_recording(tmp_path_factory):
    smoke = WORKLOADS["gcc-footprint"].smoke()
    program = build_guest(smoke.guest, smoke.artifact_scale, seed=1).program
    return record(program, tmp_path_factory.mktemp("warm") / "gcc.sprec")


@pytest.mark.parametrize("lowering", ["chosen", "generated"])
def test_a_bench_guest_lands_as_a_cold_engine(bench_recording, lowering,
                                              monkeypatch):
    if lowering == "generated":
        all_generated(monkeypatch)
    session = land_everywhere(bench_recording, seed=5)
    stats = session.stats()
    assert stats["superpin.timetravel.warm_landings"] > 0
    assert stats["superpin.timetravel.cache_flushes"] == 0


@pytest.mark.parametrize("guest", SELF_MODIFYING)
def test_a_self_modifying_guest_lands_as_a_cold_engine(guest, tmp_path):
    """Each guest rewrites code it has run (``rewritten`` patches a
    callee between two loops): a landing on one side of a rewrite
    after one on the other finds a watched word different and flushes
    the session cache, and a store into kept code during a landing
    still evicts it."""
    source, timing, _ = SELF_MODIFYING[guest]
    recording = record(assemble(source), tmp_path / f"{guest}.sprec",
                       clock_hz=10_000, **timing)
    stats = land_everywhere(recording, seed=11).stats()
    assert stats["superpin.timetravel.cache_flushes"] > 0
    assert stats["superpin.timetravel.warm_landings"] > 0


def test_scans_between_landings(tmp_path):
    """``lastwrite`` and ``reverse-continue`` take the machine onto cold
    caches of their own; the landings around them check against the
    session cache's pages and watch, not the scans'."""
    recording = record(assemble(MULTISLICE), tmp_path / "multi.sprec",
                       spmsec=500, clock_hz=10_000)
    session = TimeTravelEngine(recording)
    rng = random.Random(3)
    total = recording.total_instructions
    for icount in stratified(rng, total, 8):
        session.goto(icount)
        assert landed(session) == cold(recording, icount), icount
        hit = session.last_write_before(0x9002)
        if hit is not None:
            session.goto(hit.icount)
            assert landed(session) == cold(recording, hit.icount)
        session.goto(rng.randrange(total + 1))
        session.watchpoints.add(0x9002)
        event = session.reverse_continue()
        session.watchpoints.clear()
        assert landed(session) == cold(recording, event.icount)
        assert session.position == event.icount
    stats = session.stats()
    assert stats["superpin.timetravel.scanned_slices"] > 0
    assert stats["superpin.timetravel.warm_landings"] > 0
