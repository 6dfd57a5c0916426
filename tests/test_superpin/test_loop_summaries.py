"""Loop summaries are no switch: whatever lowering a loop gets, the run
computes the same thing.

Every loop form summarizes what its tool declares a summary for
(``repro.pin.pyjit``), and a summary counts as the calls it stands for.
So on the bench guests, under the tools that declare one, a run is the
same under the JIT's own choice of lowering, with every cached trace
promoted at its first execution, with every trace generated, and with
no loop form at all (which summarizes nothing): tool report, analysis
calls, every ``SliceResult`` field and the virtual account — serially
and at 0 and 2 workers.  Only the ``pin.suppress.*`` placement counters
tell the runs apart.
"""

import dataclasses
import functools

import pytest

from bench.workloads import build_guest, WORKLOADS
from repro.machine import Kernel
from repro.superpin import run_superpin, SuperPinConfig
from repro.tools import TOOLS
from tests.conftest import all_generated, promote_at, without_loop_forms

LOWERINGS = {
    "chosen": lambda monkeypatch: None,
    "promote-1": lambda monkeypatch: promote_at(monkeypatch, 1),
    "generated": all_generated,
    "no-loop-forms": without_loop_forms,
}


@functools.lru_cache(maxsize=None)
def guest(workload: str):
    smoke = WORKLOADS[workload].smoke()
    return build_guest(smoke.guest, smoke.scale, seed=1).program


def run(workload, tool, config):
    instance = TOOLS[tool]()
    report = run_superpin(guest(workload), instance, config,
                          kernel=Kernel(seed=42))
    slices = [{f.name: getattr(s, f.name) for f in dataclasses.fields(s)
               if f.name != "tool_ctx"} for s in report.slices]
    return {"report": instance.report(),
            "analysis_calls":
                report.instrumentation_summary()["analysis_calls"],
            "slices": slices,
            "total_cycles": report.timing.total_cycles}


@pytest.mark.parametrize("mode", ["serial", "w0", "w2"])
@pytest.mark.parametrize("tool", ["icount1", "icount2", "opcodemix"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_lowering_computes_the_same_run(workload, tool, mode,
                                              monkeypatch):
    config = (SuperPinConfig(sp=False) if mode == "serial"
              else SuperPinConfig(spworkers=int(mode[1:])))
    images = {}
    for name, lower in LOWERINGS.items():
        with monkeypatch.context() as patch:
            lower(patch)
            images[name] = run(workload, tool, config)
    reference = images.pop("no-loop-forms")
    assert reference["analysis_calls"] > 0
    for name, image in images.items():
        assert image == reference, name


def test_a_heavy_tool_is_summarized_by_default():
    """``icount1`` on the gzip guest: the JIT's own choice gives its hot
    loops a loop form, and the loop form summarizes."""
    config = SuperPinConfig(spworkers=0, spmetrics=True)
    report = run_superpin(guest("gzip-loop"), TOOLS["icount1"](), config,
                          kernel=Kernel(seed=42))
    counter = report.metrics.counter
    assert counter("pin.suppress.summarized_loops") > 0
    assert counter("pin.suppress.suppressed_calls") > 0
