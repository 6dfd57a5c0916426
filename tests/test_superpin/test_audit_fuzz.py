"""Seeded fuzz harness for the differential replay audit.

Drives N random-but-terminating, syscall-bearing programs through the
full SuperPin pipeline under a matrix of configurations — sequential and
worker fan-out, linked and unlinked traces,
adaptive timeslices — with ``-spaudit`` on, asserting every combination
is divergence-free.  The generator deliberately exercises every syscall
class: REPLAY (``time``/``getpid``/``getrandom``/``write``), EMULATE
(``brk``/``mmap``/``munmap``) and FORCE_SLICE (``open``/``close``), so
boundary forcing and record playback are fuzzed alongside the signature
machinery.

One more pass promotes every cached trace to generated code at its
second execution, so the master's and the slices' mid-run promotions
and loop forms run under the audit.

The same harness then mutation-tests the oracle: seeded ``tamper`` and
unrecoverable ``corrupt`` injections must yield a nonzero
``superpin.audit.divergences`` count on every seed.

Set ``SUPERPIN_AUDIT_ARTIFACT`` to a directory to dump each run's
:meth:`AuditReport.to_json` blob (the CI job uploads these).
"""

from __future__ import annotations

import json
import os
import random
import re

import pytest

from repro.isa import assemble
from repro.machine import Kernel
from repro.superpin import FaultPlan, run_superpin, SuperPinConfig
from repro.tools import ICount2

from ..conftest import promote_at, unlinked

_ALU_RRR = ("add", "sub", "mul", "and", "or", "xor", "slt")
_ALU_RRI = ("addi", "muli", "andi", "ori", "xori")
_TEMPS = ("t0", "t1", "t2", "t3", "t4", "t5")

#: The fixed CI seed list; ~6 programs keeps the job inside its budget.
SEEDS = (1, 2, 3, 5, 8, 13)


def random_syscall_program(seed: int, blocks: int = 4, block_len: int = 5,
                           loop_iters: int = 90) -> str:
    """A random terminating program whose loops issue real syscalls.

    Same skeleton as :func:`tests.conftest.random_program` (counted
    loops of ALU/memory ops), plus syscall events drawn from all three
    record classes so the audit's stream digests have something to
    check.  Scratch addresses are fixed (no pointer-valued control
    flow), so icount-style tool results are layout-independent.
    """
    rng = random.Random(seed)
    lines = [".entry main", "main:"]
    lines.append(f"    li s4, {rng.randint(1, 1 << 30)}")

    def syscall_event(b: int, i: int) -> None:
        kind = rng.random()
        if kind < 0.30:
            lines.append("    li a0, SYS_TIME")
            lines.append("    syscall")
            lines.append("    andi t4, rv, 7")
        elif kind < 0.45:
            lines.append("    li a0, SYS_GETPID")
            lines.append("    syscall")
        elif kind < 0.60:
            lines.append("    li a0, SYS_GETRANDOM")
            lines.append("    la a1, buf")
            lines.append("    li a2, 2")
            lines.append("    syscall")
        elif kind < 0.72:
            lines.append("    li a0, SYS_WRITE")
            lines.append("    li a1, FD_STDOUT")
            lines.append("    la a2, msg")
            lines.append("    li a3, 3")
            lines.append("    syscall")
        elif kind < 0.80:
            lines.append("    li a0, SYS_BRK")
            lines.append("    li a1, 0")
            lines.append("    syscall")
        elif kind < 0.90:
            words = 64 * rng.randint(1, 4)
            lines.append("    li a0, SYS_MMAP")
            lines.append("    li a1, 0")
            lines.append(f"    li a2, {words}")
            lines.append("    syscall")
            lines.append("    mov s3, rv")
            lines.append("    li a0, SYS_MUNMAP")
            lines.append("    mov a1, s3")
            lines.append(f"    li a2, {words}")
            lines.append("    syscall")
        else:
            # FORCE_SLICE pair: open(create)/close ends the timeslice.
            lines.append("    li a0, SYS_OPEN")
            lines.append("    la a1, fname")
            lines.append("    li a2, 3")
            lines.append("    li a3, 1")
            lines.append("    syscall")
            lines.append("    mov s5, rv")
            lines.append("    li a0, SYS_CLOSE")
            lines.append("    mov a1, s5")
            lines.append("    syscall")

    for b in range(blocks):
        lines.append("    li s0, 0")
        lines.append(f"blk{b}:")
        for i in range(block_len):
            kind = rng.random()
            if kind < 0.40:
                op = rng.choice(_ALU_RRR)
                rd, rs, rt = (rng.choice(_TEMPS) for _ in range(3))
                lines.append(f"    {op} {rd}, {rs}, {rt}")
            elif kind < 0.60:
                op = rng.choice(_ALU_RRI)
                rd, rs = rng.choice(_TEMPS), rng.choice(_TEMPS)
                lines.append(f"    {op} {rd}, {rs}, {rng.randint(-99, 99)}")
            elif kind < 0.72:
                rd = rng.choice(_TEMPS)
                lines.append(f"    st {rd}, {0x8000 + rng.randint(0, 63)}(s0)")
            elif kind < 0.82:
                rd = rng.choice(_TEMPS)
                lines.append(f"    ld {rd}, {0x8000 + rng.randint(0, 63)}(s0)")
            elif kind < 0.90:
                rd = rng.choice(_TEMPS)
                lines.append(f"    push {rd}")
                lines.append(f"    pop {rd}")
            else:
                syscall_event(b, i)
        lines.append("    addi s0, s0, 1")
        lines.append(f"    li s1, {loop_iters}")
        lines.append(f"    blt s0, s1, blk{b}")
    lines.append("    li a0, SYS_EXIT")
    lines.append("    mov a1, t2")
    lines.append("    syscall")
    lines.append(".data")
    lines.append("buf: .space 4")
    lines.append('msg: .ascii "ok!"')
    lines.append('fname: .ascii "log"')
    return "\n".join(lines) + "\n"


#: name -> SuperPinConfig overrides.  Every audit-relevant axis appears
#: in at least one entry; the worker/adaptive entries run on a seed
#: subset to stay inside the CI budget.
CONFIGS = {
    # Cold dispatch: no links — every trace transition goes through
    # the dispatcher (``unlinked``, applied by the test).
    "seq-cold": dict(spworkers=0),
    "seq-linked": dict(spworkers=0),
    "workers": dict(spworkers=2),
    "adaptive": dict(spworkers=0, expected_duration_msec=600),
}
_BROAD = ("seq-cold", "seq-linked")          # every seed
_NARROW = ("workers", "adaptive")            # seed subset

MATRIX = ([(seed, name) for seed in SEEDS for name in _BROAD]
          + [(seed, name) for seed in SEEDS[:2] for name in _NARROW])


def _config(name: str, **extra) -> SuperPinConfig:
    overrides = dict(spmsec=100, clock_hz=10_000, spaudit=True,
                     spmetrics=True)
    overrides.update(CONFIGS.get(name, {}))
    overrides.update(extra)
    return SuperPinConfig(**overrides)


def _dump_artifact(tag: str, audit) -> None:
    directory = os.environ.get("SUPERPIN_AUDIT_ARTIFACT")
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", tag)
    with open(os.path.join(directory, f"audit-{safe}.json"), "w") as fh:
        json.dump(audit.to_json(), fh, indent=2)


@pytest.mark.parametrize("seed,name", MATRIX,
                         ids=[f"s{s}-{n}" for s, n in MATRIX])
def test_fuzzed_pipeline_is_divergence_free(seed, name, monkeypatch):
    if name == "seq-cold":
        unlinked(monkeypatch)
    program = assemble(random_syscall_program(seed))
    report = run_superpin(program, ICount2(), _config(name),
                          kernel=Kernel(seed=seed))
    audit = report.audit
    _dump_artifact(f"s{seed}-{name}", audit)
    assert audit is not None
    assert audit.ok, f"seed {seed} config {name}: {audit.summary()}\n" \
        + "\n".join(f"  {d}" for d in audit.divergences[:10])
    # The run must have been non-trivial for the assertion to mean much.
    assert report.num_slices >= 3
    assert audit.checks >= 10 * report.num_slices


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_pipeline_with_every_trace_promoted_early(seed, monkeypatch):
    """The same programs with every cached trace promoted to generated
    code at its second execution (``promote_at(2)``): 90-trip loops are
    never promoted at the shipped mark, so this is the pass that puts
    the master's and the slices' mid-run promotions and loop forms — cut
    at loop heads, side exits, syscalls of all three classes and
    timeslice ends — under the audit's reference run, which is the plain
    interpreter."""
    promote_at(monkeypatch, 2)
    program = assemble(random_syscall_program(seed))
    name = "workers" if seed in SEEDS[:2] else "seq-linked"
    report = run_superpin(program, ICount2(), _config(name),
                          kernel=Kernel(seed=seed))
    audit = report.audit
    _dump_artifact(f"s{seed}-{name}-promote-2", audit)
    assert audit.ok, f"seed {seed}: {audit.summary()}\n" \
        + "\n".join(f"  {d}" for d in audit.divergences[:10])
    # The master's loops ran as generated code, and as loop forms.
    master = report.timeline.master
    assert 2 * master.jit_instructions > master.instructions
    assert master.loop_trips > 0


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_seeded_tamper_always_detected(seed):
    """Mutation test: a silently falsified slice must never audit clean."""
    program = assemble(random_syscall_program(seed))
    config = _config("seq-linked",
                     fault_plan=FaultPlan.parse("tamper@1"))
    report = run_superpin(program, ICount2(), config,
                          kernel=Kernel(seed=seed))
    _dump_artifact(f"s{seed}-tamper", report.audit)
    assert not report.audit.ok
    assert report.metrics.counters["superpin.audit.divergences"] > 0
    assert any(d.slice_index == 1 for d in report.audit.divergences)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_seeded_corrupt_always_detected(seed):
    """Mutation test: an unrecoverable corrupt slice leaves a hole the
    degrade policy tolerates — and the audit must flag."""
    program = assemble(random_syscall_program(seed))
    config = _config("seq-linked", spfaults="degrade",
                     fault_plan=FaultPlan.parse("corrupt@1:*"))
    report = run_superpin(program, ICount2(), config,
                          kernel=Kernel(seed=seed))
    _dump_artifact(f"s{seed}-corrupt", report.audit)
    assert report.degraded_slices == [1]
    assert not report.audit.ok
    assert report.metrics.counters["superpin.audit.divergences"] > 0
    assert "slice.missing" in report.audit.by_kind()
