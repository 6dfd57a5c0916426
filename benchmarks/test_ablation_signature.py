"""Ablation: adaptive quick-register selection vs static defaults.

Paper §4.4: "the recorder attempts to ascertain the two registers that
are most likely to change ... If the recorder cannot ascertain a clear
candidate within a specified block count, then default registers are
used."  The ablation quantifies what adaptivity buys: with registers
that actually vary across loop iterations, far fewer quick checks
escalate into expensive full architectural compares.
"""

import pytest

from repro.isa import assemble
from repro.machine import Kernel
from repro.superpin import Lookahead, run_superpin, SuperPinConfig
from repro.tools import ICount2

# A loop whose stack pointer and return address never change: the
# default quick registers (sp, ra) are useless discriminators here, so
# every quick check escalates; the adaptive choice picks the counter.
HOSTILE_TO_DEFAULTS = """
.entry main
main:
    li   t3, 0
    li   t4, 400000
lp:
    addi t3, t3, 1
    add  t5, t5, t3
    xor  t6, t6, t5
    blt  t3, t4, lp
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
"""


def _run(adaptive: bool):
    """One run; ``adaptive=False`` is the static-defaults ablation: the
    lookahead names no candidate, so every signature keeps the default
    quick registers (the lookahead itself is not a switch)."""
    program = assemble(HOSTILE_TO_DEFAULTS)
    config = SuperPinConfig(spmsec=1000, clock_hz=10_000)
    with pytest.MonkeyPatch.context() as patch:
        if not adaptive:
            patch.setattr(Lookahead, "select", lambda self, *args: None)
        return run_superpin(program, ICount2(), config,
                            kernel=Kernel(seed=42))


def test_adaptive_vs_default_escalation(benchmark, save_figure):
    adaptive = benchmark.pedantic(lambda: _run(True), rounds=1,
                                  iterations=1)
    static = _run(False)

    a_stats = adaptive.detection_summary()
    s_stats = static.detection_summary()

    lines = [
        "Ablation: signature quick-register selection",
        "",
        f"  adaptive: quick={a_stats['quick_checks']} "
        f"full={a_stats['full_checks']} "
        f"rate={a_stats['full_check_rate']:.2%}",
        f"  defaults: quick={s_stats['quick_checks']} "
        f"full={s_stats['full_checks']} "
        f"rate={s_stats['full_check_rate']:.2%}",
    ]
    save_figure("ablation_signature", "\n".join(lines))

    # Both configurations are functionally exact...
    assert adaptive.all_exact and static.all_exact
    # ...but defaults escalate on (nearly) every visit while adaptive
    # selection keeps full checks rare.
    assert s_stats["full_check_rate"] > 0.5
    assert a_stats["full_check_rate"] < 0.05
    assert a_stats["full_checks"] * 10 < s_stats["full_checks"]


def test_adaptive_marks_signatures():
    report = _run(True)
    assert all(sig.adaptive for sig in report.signatures)
    report = _run(False)
    assert not any(sig.adaptive for sig in report.signatures)
