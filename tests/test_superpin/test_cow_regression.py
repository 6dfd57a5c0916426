"""Regression: the signature lookahead must not perturb COW accounting.

The §4.4 quick-register recorder runs a few basic blocks of the next
slice on a scratch fork.  Historically that scratch was built around
``boundary.mem_fork`` *itself*, so the recorder's internal ``fork()``
froze the snapshot's pages — and the real slice, re-executing from that
same snapshot, was charged a phantom ``cow_fault`` on its first write to
each resident page.  The recorder must use
:meth:`~repro.machine.memory.Memory.scratch_fork`, which leaves the
parent's freeze state untouched.
"""

import pytest

from repro.isa import abi, assemble
from repro.machine import Kernel
from repro.machine.cpu import CpuState
from repro.machine.memory import Memory
from repro.superpin import run_superpin, SuperPinConfig
from repro.superpin.control import Boundary, BoundaryReason
from repro.superpin.parallel import record_boundary_signature
from repro.tools import ICount2
from tests.conftest import MULTISLICE, static_quick_regs

# Register-writing loop: gives the lookahead blocks to observe, with a
# syscall barrier well past the block budget.
LOOKAHEAD_FODDER = """
.entry main
main:
    li   t0, 0
    li   t1, 4000
lp: addi t0, t0, 1
    st   t0, 0x8000(t0)
    blt  t0, t1, lp
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
"""


def _fresh_snapshot_boundary():
    """A boundary whose memory snapshot has *unfrozen* resident pages.

    Built directly (not via a ControlProcess fork) so any page the
    signature recorder freezes is attributable to the recorder alone.
    """
    program = assemble(LOOKAHEAD_FODDER)
    mem = Memory()
    for segment in program.segments:
        mem.write_block(segment.base, list(segment.words))
    cpu = CpuState(program.entry)
    cpu.sp = abi.STACK_TOP
    return Boundary(index=1, reason=BoundaryReason.TIMEOUT,
                    cpu_snapshot=cpu.snapshot(), mem_fork=mem,
                    layout_fork=None, thread_fork=None,
                    master_instructions=0,
                    resident_pages=mem.resident_pages)


class TestLookaheadLeavesSnapshotUntouched:
    def test_no_pages_frozen_no_phantom_faults(self):
        boundary = _fresh_snapshot_boundary()
        mem = boundary.mem_fork
        resident_before = mem.resident_pages
        assert mem.frozen_pages == 0 and mem.cow_faults == 0

        signature = record_boundary_signature(boundary)
        # The lookahead really ran and found its write-hot registers.
        assert signature.adaptive

        # The snapshot must be exactly as COW-clean as before: no frozen
        # pages, so the slice's first writes charge no phantom faults.
        assert mem.frozen_pages == 0
        faults_before = mem.cow_faults
        from repro.machine.memory import PAGE_WORDS
        for page_index in sorted(mem._pages):
            mem.write(page_index * PAGE_WORDS,
                      mem.read(page_index * PAGE_WORDS))
        assert mem.cow_faults == faults_before == 0
        # The scratch run's own writes stayed in the scratch.
        assert mem.resident_pages == resident_before

    def test_signature_identical_with_and_without_adaptive(self,
                                                          monkeypatch):
        adaptive = record_boundary_signature(_fresh_snapshot_boundary())
        static_quick_regs(monkeypatch)
        plain = record_boundary_signature(_fresh_snapshot_boundary())
        assert adaptive.adaptive and not plain.adaptive
        # Same captured state; only the quick-register choice may differ.
        assert adaptive.pc == plain.pc
        assert adaptive.regs == plain.regs
        assert adaptive.stack == plain.stack


class TestEndToEndCowParity:
    def test_slice_cow_faults_independent_of_adaptive(self):
        """Per-slice cow_faults must be identical with the adaptive
        recorder on and off — recording a signature may not change what
        the slice pays for its writes."""
        program = assemble(MULTISLICE)
        per_slice = {}
        for adaptive in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not adaptive:
                    static_quick_regs(patch)
                report = run_superpin(
                    program, ICount2(),
                    SuperPinConfig(spmsec=500, clock_hz=10_000),
                    kernel=Kernel(seed=42))
            per_slice[adaptive] = [s.cow_faults for s in report.slices]
        assert per_slice[True] == per_slice[False]
        assert sum(per_slice[True]) > 0  # the workload does write
