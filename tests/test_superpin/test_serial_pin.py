"""Serial Pin through the front door: ``run_superpin`` at ``-sp 0``.

The oracle is :func:`repro.pin.run_with_pin`, the bare serial run that
is also the ``-sp 0`` path's body: on the four bench guests, under every
shipped tool, with and without ``-spfilter``, the report must carry what
the bare run computed — tool report, exit code, instruction count and
guest output — and the figure harness's classic-Pin account must be the
one it built by hand from the same run.
"""

import functools

import pytest

from bench.workloads import build_guest, WORKLOADS
from repro.harness.runner import EXPERIMENT_SEED, run_benchmark
from repro.machine import Kernel
from repro.pin import parse_filter, run_with_pin
from repro.sched.timing import DEFAULT_COST_MODEL
from repro.superpin import run_superpin, SuperPinConfig
from repro.tools import TOOLS
from repro.workloads import build


@functools.lru_cache(maxsize=None)
def guest(workload: str):
    smoke = WORKLOADS[workload].smoke()
    return build_guest(smoke.guest, smoke.scale, seed=1).program


@pytest.mark.parametrize("spfilter", [None, "opcode:mem"])
@pytest.mark.parametrize("tool", sorted(TOOLS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_the_front_door_is_run_with_pin(workload, tool, spfilter):
    program = guest(workload)
    served = TOOLS[tool]()
    report = run_superpin(program, served,
                          SuperPinConfig(sp=False, spfilter=spfilter),
                          kernel=Kernel(seed=42))
    bare = TOOLS[tool]()
    if spfilter is not None:
        bare.instrument_filter = parse_filter(spfilter, program)
    result, _, kernel = run_with_pin(program, bare, Kernel(seed=42))
    assert served.report() == bare.report()
    assert report.exit_code == result.exit_code
    assert report.timeline.total_instructions == result.instructions
    assert report.stdout == kernel.stdout_text()
    assert report.instrumentation_summary()["analysis_calls"] \
        == result.analysis_calls


def test_the_harness_pin_account_does_not_move():
    """Figures 3-5 divide by ``pin_cycles``: read off the serial report,
    it is the account the harness used to build from ``run_with_pin``."""
    run = run_benchmark("gzip", "icount1", scale=0.05, use_cache=False)
    program = build("gzip", clock_hz=run.superpin.config.clock_hz,
                    scale=0.05).program
    result, vm, _ = run_with_pin(program, TOOLS["icount1"](),
                                 Kernel(seed=EXPERIMENT_SEED))
    assert run.pin_cycles == DEFAULT_COST_MODEL.pin_cycles(
        instructions=result.instructions, syscalls=result.syscalls,
        traces_executed=result.traces_executed,
        analysis_calls=result.analysis_calls,
        inline_checks=result.inline_checks,
        compiles=vm.cache.stats.compiles,
        compiled_ins=vm.cache.stats.compiled_ins)
    assert run.pin_cycles > run.native_cycles
