"""The four benchmark workloads and how their guests are generated.

Every workload walks the same user journey — interpret the guest, run it
under serial Pin, under SuperPin with 0 and 2 workers, record it, replay
the recording, time-travel over it, and push small jobs through the
daemon — so every end-to-end metric exists on every workload.  What
differs is the guest, the tool and where the size goes: the three live
workloads spend their budget on the live pipeline (``scale``) and keep
the artifact steps small; ``artifact-service`` does the reverse.

Sizes are what fits about eight rounds into ``run_seconds`` on the
2-core host that recorded ``BENCH_11.json``; the floor of five rounds
then still fits when the host runs at half that speed.
"""

import dataclasses
import random

NPROC = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    guest: str
    #: Tool of the live operations (Pin, SuperPin w0/w2, record).
    tool: str
    #: Guest scale of native / Pin / SuperPin.
    scale: float
    #: Guest scale of record / replay / time travel.
    artifact_scale: float
    #: Tools one recording is replayed under, in one call.
    replay_tools: tuple[str, ...]
    #: ``goto`` calls per round.
    gotos: int
    #: Groups of five ``step_back(1)`` per round.
    stepback_groups: int
    #: Guest scale of the daemon jobs, and how many go in per round.
    serve_scale: float
    serve_jobs: int
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 5

    def smoke(self) -> "Workload":
        """The same journey at a size that finishes in seconds."""
        return dataclasses.replace(
            self, scale=0.1, artifact_scale=0.05, gotos=6,
            stepback_groups=2, serve_scale=min(self.serve_scale, 0.01),
            serve_jobs=4, setup_repeats=2)


WORKLOADS = {w.name: w for w in [
    Workload(
        "gzip-loop",
        "4 hot functions, 90% warm compiles: engine dispatch, guest "
        "execution and the serial control phase do the work, compiles "
        "the least of the three live workloads",
        guest="gzip", tool="icount2", scale=0.7, artifact_scale=0.3,
        replay_tools=("icount2",), gotos=30, stepback_groups=4,
        serve_scale=0.01, serve_jobs=20),
    Workload(
        "gcc-footprint",
        "64 rotating functions plus brk/mmap/open churn: JIT compile, "
        "warm cache and syscall playback dominate; a change that makes "
        "compiles dearer to help gzip-loop loses here",
        guest="gcc", tool="icount2", scale=0.085, artifact_scale=0.03,
        replay_tools=("icount2",), gotos=30, stepback_groups=3,
        serve_scale=0.002, serve_jobs=12),
    Workload(
        "mcf-memtrace",
        "per-memory-instruction analysis calls with effective addresses "
        "and a per-slice address stream to pickle back and merge: result "
        "transport and merge do real work only here",
        guest="mcf", tool="memtrace", scale=0.35, artifact_scale=0.15,
        replay_tools=("memtrace",), gotos=30, stepback_groups=4,
        serve_scale=0.01, serve_jobs=20),
    Workload(
        "artifact-service",
        "replay, sub-slice re-execution and tiny daemon jobs bypass the "
        "control phase and the steady-state engine; fixed costs (load, "
        "fork, daemon) dominate, so a live-pipeline speed-up should not "
        "move it",
        guest="gzip", tool="icount2", scale=0.15, artifact_scale=0.45,
        replay_tools=("icount2", "memtrace"), gotos=40,
        stepback_groups=8, serve_scale=0.03, serve_jobs=16),
]}

#: A seed stretches or shrinks each guest by up to this share.
SCALE_JITTER = 0.01


def build_guest(guest: str, scale: float, seed: int):
    """Generate one guest program from the suite's spec for ``guest``.

    The seed draws the guest's length from a narrow range; it does not
    touch ``WorkloadSpec.seed``.  That seed picks which kernels a guest
    is made of, and programs drawn that way are different benchmarks,
    not different inputs: over eight seeds mcf under memtrace makes 75
    to 327 analysis calls per thousand instructions and gzip retires
    185k to 344k instructions at one scale.
    """
    from repro.workloads import SPEC2000
    from repro.workloads.generators import build_workload
    jitter = random.Random(f"{guest}/{scale}/{seed}").uniform(-1.0, 1.0)
    return build_workload(SPEC2000[guest],
                          scale=scale * (1.0 + SCALE_JITTER * jitter))
