"""A slice machine keeps its compiled traces: a run computes what it
computed when every slice compiled every trace it ran.

A resident engine's trace store (``repro.pin.engine.WarmCache``) hands
a slice's cold code cache the trace an earlier slice compiled wherever
the JIT would serve that very product (``Jit.readmit``), charged as the
compile it stands for.  The reference is the same run with every
switch handed an empty store (``tests/conftest.without_trace_store``):
every ``SliceResult`` field — ``compile_log`` and ``warm_starts``
among them — the tool report, the detection statistics, the counters
outside ``slices.PLACEMENT_COUNTERS``, ``timing.total_cycles`` and
``shared_cache_timing()`` must be equal; only the placement counters
(``pin.cache.readmitted`` among them) may tell the two apart.
"""

import dataclasses
import functools
import math

import pytest

from bench.workloads import build_guest, WORKLOADS
from repro.isa import assemble
from repro.machine import Interpreter, Kernel, load_program
from repro.machine.cpu import CpuState
from repro.machine.memory import Memory
from repro.machine.process import Process
from repro.pin import jit
from repro.pin.codecache import CodeCache
from repro.pin.engine import PinVM, WarmCache
from repro.pin.trace import BARE
from repro.superpin import run_superpin, SuperPinConfig
from repro.superpin.slices import SliceMachine
from repro.tools import ICount2, TOOLS
from tests.conftest import (LOOP_SUM, MULTISLICE, virtual_counters,
                            without_trace_store)
from tests.test_serve.test_residents import (new_residents, serve,
                                             spec_for)
from tests.test_superpin.test_self_modifying import GUESTS as REWRITING
from tests.test_superpin.test_slice_machine import OTHER, SlicePhase


class Undeclared(ICount2):
    """``icount2`` without its declaration (it overrides
    ``instrument_trace`` and promises nothing): instrumented on every
    compile, so nothing it compiles may be handed to a later slice."""

    name = "undeclared"

    def instrument_trace(self, trace, vm):
        ICount2.instrument_trace(self, trace, vm)


TOOL_FACTORIES = {"icount2": TOOLS["icount2"], "memtrace": TOOLS["memtrace"],
                  "itrace": TOOLS["itrace"], "undeclared": Undeclared}

CONFIGS = {"w0": dict(spworkers=0), "w2": dict(spworkers=2),
           "sample-2": dict(spworkers=0, spsample=2),
           "filter-mem": dict(spworkers=0, spfilter="opcode:mem")}


@functools.lru_cache(maxsize=None)
def guest(workload: str):
    smoke = WORKLOADS[workload].smoke()
    return build_guest(smoke.guest, smoke.scale, seed=1).program


def image(program, tool, config, kernel_seed=42):
    """What the run computes, and its placement counters apart."""
    report = run_superpin(program, tool, config,
                          kernel=Kernel(seed=kernel_seed))
    slices = [{f.name: getattr(s, f.name) for f in dataclasses.fields(s)
               if f.name != "tool_ctx"} for s in report.slices]
    counters = report.metrics.counters
    return ({"report": tool.report(), "slices": slices,
             "detection": report.detection_summary(),
             "counters": virtual_counters(report.metrics),
             "stdout": report.stdout,
             "total_cycles": report.timing.total_cycles,
             "shared": report.shared_cache_timing()},
            counters.get("pin.cache.readmitted", 0))


def both(make, monkeypatch):
    """``make()`` run as shipped, then with an empty store at every
    switch: the two images and the re-admissions of the first."""
    kept, readmitted = make()
    with monkeypatch.context() as patch:
        without_trace_store(patch)
        cold, none = make()
    assert none == 0
    return kept, cold, readmitted


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("tool", TOOL_FACTORIES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_kept_trace_computes_what_a_compile_does(workload, tool, config,
                                                   monkeypatch):
    settings = SuperPinConfig(spmetrics=True, **CONFIGS[config])
    kept, cold, readmitted = both(
        lambda: image(guest(workload), TOOL_FACTORIES[tool](), settings),
        monkeypatch)
    assert kept == cold
    if tool == "undeclared":
        # Its slices attach calls bound to their own copies: never kept,
        # whatever the sampled-out slices could have shared.
        assert config == "sample-2" or readmitted == 0
    elif workload == "gcc-footprint" and config in ("w0", "filter-mem"):
        assert readmitted > 0


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("rewriting", REWRITING)
def test_rewritten_code_is_never_readmitted_stale(rewriting, workers,
                                                  monkeypatch):
    """Guests that rewrite code they ran, between slices and inside
    one: the store is checked page by page at every switch and watched
    during the run, so a rewritten trace is compiled again."""
    source, timing, _ = REWRITING[rewriting]
    settings = SuperPinConfig(clock_hz=10_000, spworkers=workers,
                              spmetrics=True, **timing)
    kept, cold, _ = both(
        lambda: image(assemble(source), TOOLS["icount1"](), settings, 3),
        monkeypatch)
    assert kept == cold


#: ``f`` runs through the first three slices — a machine that runs two
#: of them has verified it, and keeps it in its store — and is rewritten
#: three slices later by a store followed at once by a call of ``f``;
#: a filler longer than a slice later, ``f`` is called again.
REWRITTEN_AND_CALLED = """
.entry main
main:
    li   s0, 0
    li   s1, 3000
a_loop:
    call f
    inc  s0
    bne  s0, s1, a_loop
    li   t0, 0
    li   t1, 9000
b_loop:
    inc  t0
    bne  t0, t1, b_loop
    la   t3, donor
    ld   t4, 0(t3)
    la   t3, patch
    st   t4, 0(t3)
    call f
    li   t0, 0
    li   t1, 9000
d_loop:
    inc  t0
    bne  t0, t1, d_loop
    li   s0, 0
    li   s1, 10
e_loop:
    call f
    inc  s0
    bne  s0, s1, e_loop
    li   a0, SYS_EXIT
    mov  a1, s2
    syscall
f:
patch:
    addi s2, s2, 1
    ret
donor:
    addi s2, s2, 5
"""


@pytest.mark.parametrize("rewriter", ["same", "other"])
def test_code_rewritten_under_the_store_is_compiled_again(rewriter):
    """Machine one runs every slice but, in the ``other`` case, the one
    that rewrites ``f``.  On machine one the store's ``f`` must go when
    the guest's store lands (the code watch), or at the switch onto the
    first boundary after another machine rewrote it (the page check);
    either way every slice is what a fresh machine makes of it."""
    fresh = SlicePhase(REWRITTEN_AND_CALLED, TOOLS["icount1"]()).run_all()
    assert fresh[1]["icount"] > 0
    phase = SlicePhase(REWRITTEN_AND_CALLED, TOOLS["icount1"](),
                       spmetrics=True)
    program = assemble(REWRITTEN_AND_CALLED)
    process = load_program(program, Kernel(seed=42))
    interpreter = Interpreter(process)
    patch = program.symbols["patch"]
    original = process.mem.read(patch)
    for rewriting, interval in enumerate(phase.timeline.intervals):
        interpreter.run(interval.instructions)
        if process.mem.read(patch) != original:
            break
    assert 3 <= rewriting < phase.n - 1
    one, two = SliceMachine(), SliceMachine()
    assert phase.run_all(machine_for=lambda k: two if (
        rewriter == "other" and k == rewriting) else one) == fresh
    assert phase.counters["pin.cache.readmitted"] > 0


def test_a_resident_runs_a_b_a(monkeypatch):
    """A daemon resident that runs program A, then B at the same base,
    then A again: each job reports what it reports on a store that
    starts empty, though A's slices re-admit what A's earlier slices
    compiled."""
    sequence = [spec_for(MULTISLICE), spec_for(OTHER), spec_for(MULTISLICE)]

    def jobs():
        residents = new_residents()
        return [serve(residents, spec) for spec in sequence]

    kept = jobs()
    with monkeypatch.context() as patch:
        without_trace_store(patch)
        cold = jobs()
    assert [result for result, _ in kept] == [result for result, _ in cold]
    assert kept[0][1]["pin.cache.readmitted"] > 0
    assert kept[2][1]["pin.cache.readmitted"] > 0
    assert all(placement["pin.cache.readmitted"] == 0
               for _, placement in cold)


def test_a_bare_trace_is_readmitted_over_a_bare_skeleton(monkeypatch):
    """A trace compiled with nothing attached is handed back only to a
    run that attaches nothing, and its skeleton is stripped of what an
    instrumented run left on it — what a loop form or a promotion of
    the trace would otherwise lower from.  Here the instrumented run's
    cache is flushed before it ends (as a bubble overflow would), so
    the store still holds the bare traces its skeletons no longer
    carry."""
    # Threaded code throughout, whatever the suite's threshold: a
    # trace is handed back only in the lowering a compile would choose.
    monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", math.inf)
    program = assemble(LOOP_SUM)
    vm = PinVM(Process(CpuState(), Memory(), None))
    store = WarmCache()

    def switch():
        process = load_program(program, Kernel(seed=42))
        vm.switch(process.cpu.snapshot(), process.mem,
                  process.syscall_handler, warm=store,
                  code_cache=CodeCache())

    switch()
    bare = vm.run()
    switch()
    ICount2().activate(vm)
    assert vm.run().analysis_calls > 0
    vm.cache.flush()
    switch()
    again = vm.run()
    assert vm.jit_stats.readmitted == len(vm.cache) > 0
    assert again.analysis_calls == bare.analysis_calls == 0
    for trace in vm.cache.live_traces():
        assert all(ins.shape is BARE for ins in trace.instructions)
