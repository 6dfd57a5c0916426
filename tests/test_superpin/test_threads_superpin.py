"""SuperPin over multithreaded guests (§8's deterministic-replay goal).

The invariant stack: slices fork *mid-thread*, inherit every thread
context plus the scheduler state, re-execute the recorded interleaving
deterministically, and detect signatures of whichever thread was running
at the boundary — with every tool result identical to serial Pin.
"""

import pytest

from repro.isa import assemble
from repro.machine import Kernel, load_program, THREAD
from repro.machine.interpreter import Interpreter
from repro.pin import run_with_pin
from repro.superpin import run_superpin, SliceEnd, SuperPinConfig
from repro.tools import DCacheSim, ICount2, ITrace
from tests.conftest import all_generated

THREADED = """
.entry main
main:
    li   a0, SYS_THREAD_CREATE
    la   a1, worker
    li   a2, 3000
    syscall
    mov  s0, rv
    li   a0, SYS_THREAD_CREATE
    la   a1, worker
    li   a2, 5000
    syscall
    mov  s1, rv
    li   t0, 0
    li   t1, 6000
ml: inc  t0
    st   t0, 0x7000(zero)
    andi t2, t0, 255
    bnez t2, mn
    push t0
    push t1
    li   a0, SYS_YIELD
    syscall
    pop  t1
    pop  t0
mn: blt  t0, t1, ml
    li   a0, SYS_THREAD_JOIN
    mov  a1, s0
    syscall
    mov  s2, rv
    li   a0, SYS_THREAD_JOIN
    mov  a1, s1
    syscall
    add  s2, s2, rv
    li   a0, SYS_TIME
    syscall
    li   a0, SYS_EXIT
    mov  a1, s2
    syscall

worker:
    mov  t0, a0
    li   t1, 0
    li   t3, 0
wl: inc  t1
    ld   t4, 0x7000(zero)
    add  t3, t3, t4
    st   t3, 0x7100(t1)
    andi t2, t1, 511
    bnez t2, nx
    push t0
    push t1
    push t3
    li   a0, SYS_YIELD
    syscall
    pop  t3
    pop  t1
    pop  t0
nx: blt  t1, t0, wl
    andi rv, t3, 0xffff
    ret
"""

CONFIG = SuperPinConfig(spmsec=500, clock_hz=10_000)


@pytest.fixture(scope="module")
def program():
    return assemble(THREADED)


@pytest.fixture(scope="module")
def native(program):
    kernel = Kernel(seed=9)
    process = load_program(program, kernel)
    interp = Interpreter(process)
    interp.run(max_instructions=10_000_000)
    return process, interp


class TestExactness:
    def test_icount_exact(self, program, native):
        process, interp = native
        tool = ICount2()
        report = run_superpin(program, tool, CONFIG, kernel=Kernel(seed=9))
        assert report.num_slices > 5
        assert tool.total == interp.total_instructions
        assert report.exit_code == process.exit_code
        assert report.all_exact

    def test_itrace_streams_identical(self, program):
        serial = ITrace()
        run_with_pin(program, serial, Kernel(seed=9))
        parallel = ITrace()
        run_superpin(program, parallel, CONFIG, kernel=Kernel(seed=9))
        assert serial.trace == parallel.trace

    def test_dcache_exact_across_threads(self, program):
        serial = DCacheSim(sets=32, line_words=4)
        run_with_pin(program, serial, Kernel(seed=9))
        parallel = DCacheSim(sets=32, line_words=4)
        run_superpin(program, parallel, CONFIG, kernel=Kernel(seed=9))
        assert (serial.total_hits, serial.total_misses) \
            == (parallel.total_hits, parallel.total_misses)

    def test_source_backend_too(self, program, native, monkeypatch):
        """Every trace generated (``conftest.all_generated``)."""
        all_generated(monkeypatch)
        _, interp = native
        tool = ICount2()
        config = SuperPinConfig(spmsec=500, clock_hz=10_000)
        report = run_superpin(program, tool, config, kernel=Kernel(seed=9))
        assert tool.total == interp.total_instructions
        assert report.all_exact


class TestMechanics:
    def test_thread_records_reexecuted_in_slices(self, program):
        tool = ICount2()
        report = run_superpin(program, tool, CONFIG, kernel=Kernel(seed=9))
        thread_records = sum(
            1 for interval in report.timeline.intervals
            for entry in interval.records
            if entry.record.klass == THREAD)
        assert thread_records > 10
        # Thread ops never force boundaries.
        from repro.superpin import BoundaryReason
        for boundary in report.timeline.boundaries[1:]:
            assert boundary.reason in (BoundaryReason.TIMEOUT,
                                       BoundaryReason.SYSCALL_FORCE,
                                       BoundaryReason.SYSREC_FULL)

    def test_boundaries_capture_scheduler_state(self, program):
        tool = ICount2()
        report = run_superpin(program, tool, CONFIG, kernel=Kernel(seed=9))
        forks = [b.thread_fork for b in report.timeline.boundaries]
        assert all(fork is not None for fork in forks)
        # Some boundary lands while a worker (tid != 0) is current.
        assert any(fork.current_tid != 0 for fork in forks)

    def test_detection_works_mid_worker_thread(self, program):
        """At least one slice both starts and ends inside a worker, and
        all slices still end by detection."""
        tool = ICount2()
        report = run_superpin(program, tool, CONFIG, kernel=Kernel(seed=9))
        for result in report.slices[:-1]:
            assert result.reason is SliceEnd.MATCHED
