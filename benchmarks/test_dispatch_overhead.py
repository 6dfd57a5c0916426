"""Dispatch-overhead microbenchmark: trace linking and the loop form.

Measures the host-level cost of **dict dispatch** — a call-heavy guest
maximises trace-to-trace transitions; with ``-splinktraces`` each
transition chains through a patched direct link instead of the
dispatcher's hash lookup — and of a dispatch per trip of a self-loop,
which a generated trace's loop form takes inside one function.

Functional parity is asserted unconditionally; the wall-clock
comparisons are printed (and exported by the bench-smoke CI job) with
only generous sanity bounds, because shared CI hosts jitter.
"""

import time

from repro.harness import format_table
from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.pin import PinVM

#: Tiny leaf calls split execution into many short traces: the loop
#: body is ~10 traces, so per-transition dispatch cost dominates.
CALL_HEAVY = """
.entry main
main:
    li   t0, 0
    li   t1, 8000
lp:
    call f1
    call f2
    call f3
    call f4
    addi t0, t0, 1
    bne  t0, t1, lp
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
f1: ret
f2: ret
f3: ret
f4: ret
"""

#: The other extreme: the whole loop is one trace branching to its own
#: head, so every transition is the trace's own back edge — which
#: generated code takes inside one function (its loop form).
SELF_LOOP = """
.entry main
main:
    li   t0, 0
    li   t1, 40000
lp:
    add  t2, t2, t0
    xor  t3, t2, t0
    addi t0, t0, 1
    bne  t0, t1, lp
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
"""

REPEATS = 3


def _run_vm(program, backend, linked):
    process = load_program(program, Kernel(seed=42))
    vm = PinVM(process, jit_backend=backend, link_traces=linked)
    t0 = time.perf_counter()
    result = vm.run()
    elapsed = time.perf_counter() - t0
    return result, vm.cache.stats, elapsed


def _best_of(program, backend, linked):
    runs = [_run_vm(program, backend, linked) for _ in range(REPEATS)]
    return min(runs, key=lambda r: r[2])


def test_dispatch_linked_vs_unlinked(save_figure):
    program = assemble(CALL_HEAVY)
    rows = []
    for backend in ("closure", "source"):
        linked_res, linked_stats, linked_s = _best_of(
            program, backend, True)
        plain_res, plain_stats, plain_s = _best_of(
            program, backend, False)

        # Architectural identity: linking changes nothing observable.
        assert linked_res.instructions == plain_res.instructions
        assert linked_res.traces_executed == plain_res.traces_executed
        assert linked_res.exit_code == plain_res.exit_code
        assert linked_stats.compiles == plain_stats.compiles

        # The dispatch accounting moves wholesale to the links: in
        # steady state only cold exits touch the dispatcher dict.
        assert plain_res.linked_dispatches == 0
        assert linked_res.linked_dispatches \
            > 0.9 * plain_res.traces_executed
        assert linked_stats.lookups + linked_res.linked_dispatches \
            == plain_stats.lookups

        # Generous sanity bound only; the printed table is the figure.
        assert linked_s < plain_s * 1.5

        rows.append([backend,
                     str(plain_res.traces_executed),
                     str(plain_stats.lookups),
                     str(linked_stats.lookups),
                     str(linked_res.linked_dispatches),
                     f"{plain_s * 1e3:.1f}",
                     f"{linked_s * 1e3:.1f}",
                     f"{plain_s / linked_s:.2f}x"])
    table = format_table(
        ["backend", "transitions", "dict dispatches (off)",
         "dict dispatches (on)", "linked", "unlinked (ms)",
         "linked (ms)", "speedup"], rows)
    save_figure("dispatch_overhead",
                "Trace linking: dispatcher dict traffic and wall clock\n"
                f"(call-heavy guest, best of {REPEATS})\n\n{table}")


def _run_generated(program):
    process = load_program(program, Kernel(seed=42))
    vm = PinVM(process, jit_backend="source")
    t0 = time.perf_counter()
    result = vm.run()
    elapsed = time.perf_counter() - t0
    return result, vm, elapsed


def test_loop_form_vs_dispatched(save_figure, monkeypatch):
    """The self-loop guest as generated code: every trip a dispatch of
    the trace's function (``Jit.loop_form`` patched to decline) against
    trips inside its loop form."""
    from repro.pin.jit import Jit
    program = assemble(SELF_LOOP)
    looped_res, looped_vm, looped_s = min(
        (_run_generated(program) for _ in range(REPEATS)),
        key=lambda r: r[2])
    with monkeypatch.context() as patch:
        patch.setattr(Jit, "loop_form", lambda self, trace: None)
        plain_res, plain_vm, plain_s = min(
            (_run_generated(program) for _ in range(REPEATS)),
            key=lambda r: r[2])

    # Architectural identity, exactly: an internal back edge *is* a
    # linked dispatch of one more trace execution.
    assert looped_res == plain_res
    assert looped_vm.cache.stats == plain_vm.cache.stats
    assert list(looped_vm.cpu.regs) == list(plain_vm.cpu.regs)
    stats = looped_vm.jit_stats
    assert plain_vm.jit_stats.loop_trips == 0
    assert stats.loop_builds == 1
    assert stats.loop_trips > 0.99 * looped_res.traces_executed

    # Generous sanity bound only; the printed table is the figure.
    assert looped_s < plain_s * 1.2

    table = format_table(
        ["transitions", "loop builds", "trips inside", "dispatched (ms)",
         "looped (ms)", "speedup"],
        [[str(looped_res.traces_executed), str(stats.loop_builds),
          str(stats.loop_trips), f"{plain_s * 1e3:.1f}",
          f"{looped_s * 1e3:.1f}", f"{plain_s / looped_s:.2f}x"]])
    save_figure("dispatch_loop_form",
                "The loop form: a self-loop as generated code, every trip "
                "dispatched\nagainst trips inside its loop form "
                f"(best of {REPEATS})\n\n{table}")
