"""The virtual account of the four benchmark guests, pinned.

``tests/golden/engine_account.json`` holds, for each benchmark guest at
a small scale and at ``-spworkers`` 0 and 2, every slice's compiles,
compiled instructions, warm starts, trace executions, instructions and
signature checks, and the run's ``timing.total_cycles``.  They depend
on what each slice executes and compiles, never on how the engine
dispatches it (links, loop forms, generated code), so an engine change
that leaves the golden unchanged left the virtual account alone.

Regenerate (only when the account is meant to move) with
``PYTHONPATH=src python -m tests.test_superpin.test_engine_golden``.
"""

import json
import pathlib

import pytest

from repro.machine import Kernel
from repro.superpin import run_superpin, SuperPinConfig
from repro.tools import TOOLS
from repro.workloads import build

GOLDEN = (pathlib.Path(__file__).resolve().parents[1] / "golden"
          / "engine_account.json")

#: ``(name, guest, tool, scale)``: the benchmark's four workloads'
#: guests and tools, shrunk to 6-16 slices each.
GUESTS = [
    ("gzip-loop", "gzip", "icount2", 0.3),
    ("gcc-footprint", "gcc", "icount2", 0.04),
    ("mcf-memtrace", "mcf", "memtrace", 0.12),
    ("artifact-service", "gzip", "icount2", 0.12),
]
WORKERS = [0, 2]


def account(guest: str, tool_name: str, scale: float,
            workers: int) -> dict:
    """One run's pinned figures."""
    report = run_superpin(build(guest, scale=scale).program,
                          TOOLS[tool_name](),
                          SuperPinConfig(spworkers=workers),
                          kernel=Kernel(seed=7))
    assert report.all_exact
    slices = [{
        "compiles": s.compiles,
        "compiled_ins": s.compiled_ins,
        "warm_starts": s.warm_starts,
        "traces_executed": s.traces_executed,
        "instructions": s.instructions,
        "quick_checks": s.detection.quick_checks if s.detection else 0,
        "full_checks": s.detection.full_checks if s.detection else 0,
    } for s in report.slices]
    return {"total_cycles": report.timing.total_cycles, "slices": slices}


def measure() -> dict:
    return {f"{name}/w{workers}": account(guest, tool, scale, workers)
            for name, guest, tool, scale in GUESTS
            for workers in WORKERS}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name,guest,tool,scale", GUESTS,
                         ids=[g[0] for g in GUESTS])
def test_account_matches_golden(name, guest, tool, scale, workers):
    golden = json.loads(GOLDEN.read_text())[f"{name}/w{workers}"]
    assert account(guest, tool, scale, workers) == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(measure(), indent=1, sort_keys=True)
                      + "\n")
