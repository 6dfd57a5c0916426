"""Whole-stack property test: random programs × random configs.

The heaviest invariant in the repository: for an arbitrary structured
program and arbitrary (valid) SuperPin configuration, the merged
instruction count equals the native count, slices partition the
execution exactly, and the timing report is internally consistent.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.machine.interpreter import Interpreter
from repro.superpin import run_superpin, SuperPinConfig
from repro.tools import ICount2
from tests.conftest import all_generated, random_program


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000),
       blocks=st.integers(2, 5),
       loop_iters=st.integers(10, 60),
       spmsec=st.sampled_from([100, 250, 500, 1000]),
       spmp=st.sampled_from([1, 2, 4, 8]),
       spsysrecs=st.sampled_from([0, 3, 1000]),
       backend=st.sampled_from(["closure", "source"]))
def test_superpin_invariants_hold(seed, blocks, loop_iters, spmsec, spmp,
                                  spsysrecs, backend):
    program = assemble(random_program(seed, blocks=blocks, block_len=8,
                                      loop_iters=loop_iters))
    kernel = Kernel(seed=seed)
    process = load_program(program, kernel)
    interp = Interpreter(process)
    interp.run(max_instructions=5_000_000)
    native = interp.total_instructions

    tool = ICount2()
    config = SuperPinConfig(spmsec=spmsec, spmp=spmp, spsysrecs=spsysrecs,
                            clock_hz=10_000)
    with pytest.MonkeyPatch.context() as patch:
        if backend == "source":
            all_generated(patch)
        report = run_superpin(program, tool, config,
                              kernel=Kernel(seed=seed))

    # Functional exactness.
    assert tool.total == native
    assert report.exit_code == process.exit_code
    assert report.all_exact
    assert report.total_slice_instructions \
        == report.timeline.total_instructions == native

    # Structural sanity.
    assert len(report.signatures) == report.num_slices - 1
    intervals = report.timeline.intervals
    assert sum(i.instructions for i in intervals) == native

    # Timing consistency.
    timing = report.timing
    assert timing.total_cycles >= timing.master_finish_cycles
    assert timing.max_concurrent_slices <= spmp
    assert abs(sum(timing.breakdown().values())
               - timing.total_cycles) < 1e-6 * max(1.0, timing.total_cycles)
