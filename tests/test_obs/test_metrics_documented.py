"""Every metric a run emits has a row in ``docs/observability.md``.

The counter inventory's first column names metrics in three
shorthands, expanded here as a reader would: ``.suffix`` replaces the
last component of the name before it (``serve.jobs.submitted`` /
``.failed``), a bare ``suffix`` likewise (``pin.cache.persistent_hits``
/ ``persistent_misses``), and ``<reason>`` / ``.*`` stand for one or
more further components.
"""

import pathlib
import re

import pytest

from repro.machine import Kernel
from repro.superpin import (load_recording, run_superpin, SuperPinConfig,
                            TimeTravelEngine)
from repro.tools import TOOLS
from repro.workloads import build

DOC = (pathlib.Path(__file__).resolve().parents[2] / "docs"
       / "observability.md")


def documented_patterns() -> list[re.Pattern]:
    """One regex per name in the counter inventory's first column."""
    text = DOC.read_text()
    inventory = text.split("## Counter inventory", 1)[1]
    inventory = inventory.split("\n### ", 1)[0]
    patterns = []
    for line in inventory.splitlines():
        if not line.startswith("| `"):
            continue
        last = None
        for token in re.findall(r"`([^`]+)`", line.split("|")[1]):
            if token.startswith("."):
                token = last.rsplit(".", 1)[0] + token
            elif "." not in token:
                token = last.rsplit(".", 1)[0] + "." + token
            last = token
            wild = re.split(r"<[^>]*>|\*", token)
            patterns.append(re.compile(".+".join(map(re.escape, wild))))
    return patterns


def emitted(tool: str, workers: int) -> set[str]:
    report = run_superpin(build("gzip", scale=0.1).program, TOOLS[tool](),
                          SuperPinConfig(spworkers=workers, spmetrics=True),
                          kernel=Kernel(seed=3))
    metrics = report.metrics
    return set(metrics.counters) | set(metrics.gauges) | set(
        metrics.histograms)


def test_shorthand_expands():
    names = [p.pattern for p in documented_patterns()]
    assert re.escape("serve.jobs.failed") in names
    assert re.escape("pin.cache.persistent_misses") in names
    assert any(p.fullmatch("superpin.control.cuts.timeslice")
               for p in documented_patterns())


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("tool", ["icount2", "memtrace"])
def test_every_emitted_metric_is_documented(tool, workers):
    patterns = documented_patterns()
    missing = sorted(name for name in emitted(tool, workers)
                     if not any(p.fullmatch(name) for p in patterns))
    assert missing == []


@pytest.mark.parametrize("tool", ["icount2", "memtrace"])
def test_every_serial_pin_metric_is_documented(tool):
    """Serial Pin (``-sp 0``) counts what its one engine did."""
    report = run_superpin(build("gzip", scale=0.1).program, TOOLS[tool](),
                          SuperPinConfig(sp=False, spmetrics=True),
                          kernel=Kernel(seed=3))
    metrics = report.metrics
    names = set(metrics.counters) | set(metrics.gauges) | set(
        metrics.histograms)
    assert "pin.jit.loop_trips" in names
    patterns = documented_patterns()
    assert sorted(name for name in names
                  if not any(p.fullmatch(name) for p in patterns)) == []


def test_every_debugger_metric_is_documented(tmp_path):
    """A time-travel session counts its landings, scans and code cache
    (``TimeTravelEngine.stats()``, the ``stats`` debugger command)."""
    path = tmp_path / "run.sprec"
    run_superpin(build("gzip", scale=0.05).program, TOOLS["icount2"](),
                 SuperPinConfig(sprecord=str(path)), kernel=Kernel(seed=3))
    engine = TimeTravelEngine(load_recording(path))
    total = engine.total_instructions
    for icount in (total // 2, total // 3, total - 1):
        engine.goto(icount)
    engine.last_write_before(0x1400)
    names = set(engine.stats())
    assert "superpin.timetravel.warm_landings" in names
    patterns = documented_patterns()
    assert sorted(name for name in names
                  if not any(p.fullmatch(name) for p in patterns)) == []
