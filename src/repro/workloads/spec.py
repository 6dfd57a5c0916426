"""The synthetic SPEC CPU2000-like suite.

Twenty-six benchmarks named after the suite the paper evaluates on
(SPEC2000: 12 integer + 14 floating point).  Each spec's knobs encode the
*characteristic that drives its paper-visible behaviour*, not its actual
computation:

* integer codes get branchy/call-heavy mixes, more syscalls and larger
  footprints; ``gcc`` is the extreme — large, low-reuse code footprint
  plus constant allocator churn, which the paper calls out both for the
  record/playback motivation (§4.2) and the timeslice study (§6.1);
* floating-point codes get small-footprint tight loops with long
  durations and almost no syscalls — the benchmarks where SuperPin's
  icount2 overhead drops toward 7%;
* durations (virtual seconds at scale=1) roughly follow relative
  SPEC2000 run times so the pipeline-delay effect varies across the
  suite the way Figure 3/5's spread does.
"""

from __future__ import annotations

import math

from ..superpin.switches import DEFAULT_CLOCK_HZ
from .generators import build_workload, BuiltWorkload, WorkloadSpec

# Mix weight order: (arith, mem, chase, branchy, callpair)
_INT = (0.8, 1.0, 0.6, 1.6, 1.0)
_FP = (2.2, 1.4, 0.2, 0.4, 0.2)

SPEC2000: dict[str, WorkloadSpec] = {spec.name: spec for spec in [
    # --- integer ---------------------------------------------------------
    WorkloadSpec("gzip", seed=101, duration=55, n_funcs=8,
                 mix=(1.2, 1.8, 0.3, 1.0, 0.4), iters=48,
                 working_set=8192, write_every=8, time_every=16),
    WorkloadSpec("vpr", seed=102, duration=35, n_funcs=16, mix=_INT,
                 iters=40, working_set=4096, time_every=32),
    WorkloadSpec("gcc", seed=103, duration=100, n_funcs=64,
                 calls_per_round=8, mix=(0.8, 1.0, 0.8, 1.8, 1.2),
                 iters=12, working_set=65536, rotate_calls=True,
                 alloc_every=2, mmap_every=8, openclose_every=64,
                 write_every=16),
    WorkloadSpec("mcf", seed=104, duration=85, n_funcs=4,
                 mix=(0.4, 1.2, 2.5, 0.6, 0.2), iters=64,
                 working_set=65536, stride=17, time_every=64),
    WorkloadSpec("crafty", seed=105, duration=70, n_funcs=16,
                 mix=(1.0, 0.8, 0.3, 2.0, 1.4), iters=32,
                 working_set=2048, time_every=32),
    WorkloadSpec("parser", seed=106, duration=65, n_funcs=16, mix=_INT,
                 iters=28, working_set=4096, alloc_every=8,
                 write_every=32),
    WorkloadSpec("eon", seed=107, duration=12, n_funcs=16,
                 mix=(1.2, 0.8, 0.2, 0.8, 2.2), iters=24,
                 working_set=2048, time_every=64),
    WorkloadSpec("perlbmk", seed=108, duration=70, n_funcs=32,
                 calls_per_round=6, mix=_INT, iters=20,
                 working_set=8192, rotate_calls=True, alloc_every=4,
                 write_every=16, openclose_every=128),
    WorkloadSpec("gap", seed=109, duration=60, n_funcs=16,
                 mix=(1.6, 1.0, 0.4, 0.8, 0.6), iters=36,
                 working_set=8192, alloc_every=8),
    WorkloadSpec("vortex", seed=110, duration=85, n_funcs=32,
                 calls_per_round=6, mix=_INT, iters=24,
                 working_set=16384, rotate_calls=True, write_every=8,
                 openclose_every=128, time_every=32),
    WorkloadSpec("bzip2", seed=111, duration=90, n_funcs=8,
                 mix=(1.4, 2.0, 0.4, 1.0, 0.2), iters=56,
                 working_set=16384, write_every=16),
    WorkloadSpec("twolf", seed=112, duration=75, n_funcs=16, mix=_INT,
                 iters=36, working_set=8192, rng_every=16,
                 time_every=32),
    # --- floating point ---------------------------------------------------
    WorkloadSpec("wupwise", seed=201, duration=115, n_funcs=4, mix=_FP,
                 iters=96, working_set=8192),
    WorkloadSpec("swim", seed=202, duration=140, n_funcs=4,
                 mix=(1.8, 2.2, 0.1, 0.2, 0.1), iters=128,
                 working_set=32768, stride=3),
    WorkloadSpec("mgrid", seed=203, duration=150, n_funcs=4,
                 mix=(1.6, 2.4, 0.1, 0.2, 0.1), iters=128,
                 working_set=32768, stride=5),
    WorkloadSpec("applu", seed=204, duration=130, n_funcs=8, mix=_FP,
                 iters=96, working_set=16384),
    WorkloadSpec("mesa", seed=205, duration=16, n_funcs=16,
                 mix=(1.8, 1.2, 0.2, 0.8, 0.6), iters=40,
                 working_set=8192, write_every=32),
    WorkloadSpec("galgel", seed=206, duration=110, n_funcs=8, mix=_FP,
                 iters=88, working_set=16384),
    WorkloadSpec("art", seed=207, duration=95, n_funcs=4,
                 mix=(1.2, 2.4, 0.3, 0.4, 0.1), iters=96,
                 working_set=32768, stride=9),
    WorkloadSpec("equake", seed=208, duration=90, n_funcs=8, mix=_FP,
                 iters=72, working_set=16384, time_every=64),
    WorkloadSpec("facerec", seed=209, duration=110, n_funcs=8, mix=_FP,
                 iters=80, working_set=16384),
    WorkloadSpec("ammp", seed=210, duration=120, n_funcs=8, mix=_FP,
                 iters=88, working_set=16384, alloc_every=64),
    WorkloadSpec("lucas", seed=211, duration=120, n_funcs=4,
                 mix=(2.6, 1.2, 0.1, 0.2, 0.1), iters=112,
                 working_set=16384),
    WorkloadSpec("fma3d", seed=212, duration=130, n_funcs=16, mix=_FP,
                 iters=64, working_set=16384),
    WorkloadSpec("sixtrack", seed=213, duration=150, n_funcs=8, mix=_FP,
                 iters=112, working_set=8192),
    WorkloadSpec("apsi", seed=214, duration=120, n_funcs=8, mix=_FP,
                 iters=88, working_set=16384, time_every=128),
]}

#: Names in the paper's (alphabetical) figure order.
BENCHMARK_NAMES = sorted(SPEC2000)

#: Integer / FP split, for suite-level summaries.
INTEGER = ("bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf",
           "parser", "perlbmk", "twolf", "vortex", "vpr")
FLOATING_POINT = tuple(n for n in BENCHMARK_NAMES if n not in INTEGER)


def positive_scale(value) -> float:
    """``value`` as a workload's duration scale: a finite number above
    0 (not a bool); a ``ValueError`` saying so otherwise.  The one check
    of every outside ``scale`` — a command line's, a daemon job's — since
    :func:`build` would make a one-round program of a scale of -1 and
    fail deep in the generator on ``nan`` or ``inf``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= 0):
        raise ValueError(f"scale must be a positive finite number, "
                         f"got {value!r}")
    return float(value)


def build(name: str, clock_hz: int = DEFAULT_CLOCK_HZ,
          scale: float = 1.0) -> BuiltWorkload:
    """Build one suite benchmark by name."""
    try:
        spec = SPEC2000[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from "
            f"{', '.join(BENCHMARK_NAMES)}") from None
    return build_workload(spec, clock_hz=clock_hz, scale=scale)
