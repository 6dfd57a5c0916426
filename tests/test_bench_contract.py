"""The frozen benchmark's view of the library, checked in tier-1.

``bench/`` is not edited by refactors (BENCHMARK.json pins it) and its
own tests are not part of tier-1, so an API change could break it unseen
until the benchmark pipeline counts failed operations.  This file pins
what ``bench/*.py`` uses of ``repro``: every imported name resolves, and
the calls most exposed to slice-phase / warm-store refactors still have
the shape the benchmark calls them with.
"""

import ast
import glob
import importlib
import os

import pytest

from repro.isa import assemble
from repro.machine import Kernel
from repro.superpin import (ControlProcess, merge_slices, program_digest,
                            record_signatures, run_superpin,
                            SliceToolContext, SPControl, store_key,
                            SuperPinConfig, supervise_slices,
                            trace_store_for)
from repro.tools import ICount2
from tests.conftest import MULTISLICE

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "bench")


def _repro_imports():
    """``(file, module, name)`` for every ``from repro... import name``
    anywhere in ``bench/*.py`` (the benchmark imports inside functions)."""
    found = []
    for path in sorted(glob.glob(os.path.join(BENCH_DIR, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").split(".")[0] == "repro"):
                found.extend((os.path.basename(path), node.module, alias.name)
                             for alias in node.names)
    return found


def test_bench_imports_are_found():
    assert len(_repro_imports()) > 20  # the walk sees the benchmark


@pytest.mark.parametrize("file,module,name", sorted(set(_repro_imports())))
def test_bench_import_resolves(file, module, name):
    assert hasattr(importlib.import_module(module), name), \
        f"bench/{file}: cannot import {name!r} from {module}"


CONFIG = dict(spmsec=500, clock_hz=10_000)


def test_supervise_slices_takes_five_positionals():
    """bench/layers.py drives the phases itself and calls the slice
    phase as ``supervise_slices(timeline, signatures, template, sp,
    config)`` — every hook after those must stay optional."""
    config = SuperPinConfig(**CONFIG)
    tool = ICount2()
    sp = SPControl(config)
    tool.setup(sp)
    template = SliceToolContext.from_control(tool, sp)
    timeline = ControlProcess(assemble(MULTISLICE), config,
                              kernel=Kernel(seed=42)).run()
    signatures = record_signatures(timeline, config)
    supervised = supervise_slices(timeline, signatures, template, sp,
                                  config)
    assert len(supervised.results) == len(timeline.intervals) >= 3
    assert sum(r.warm_starts for r in supervised.results) > 0
    merge_slices(sp, supervised.results)
    tool.fini()
    assert tool.total == sum(r.instructions for r in supervised.results)


def test_trace_store_calls(tmp_path):
    """bench/layers.py reads back the entry a ``-sptracestore`` run
    wrote — addressed by ``store_key(program_digest(program), config)``,
    so the key stays a function of program and config alone — and
    re-saves the loaded payload under another key."""
    program = assemble(MULTISLICE)
    config = SuperPinConfig(sptracestore=str(tmp_path / "store"), **CONFIG)
    run_superpin(program, ICount2(), config, kernel=Kernel(seed=42))
    store = trace_store_for(config)
    payload = store.load(store_key(program_digest(program), config))
    assert payload is not None, "the run's entry is not at the bench's key"
    size = store.size_bytes()
    assert size > 0
    store.save("bench-copy", payload)
    assert store.load("bench-copy") == payload
    assert store.size_bytes() > size
