"""Self-tests of the benchmark harness.

Run with ``python -m pytest bench/tests``; not part of the tier-1
``testpaths``.
"""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import compare, e2e, layers, oracle  # noqa: E402
from bench.spans import aggregate, self_times  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def names(entries) -> list[str]:
    return [entry["name"] for entry in entries]


# -- BENCHMARK.json -----------------------------------------------------------

def test_declaration_is_within_the_contract(declared):
    assert set(declared) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["bench"]
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    every = (names(declared["workloads"]) + names(declared["end_to_end"])
             + names(declared["per_layer"]))
    assert len(every) == len(set(every))
    assert all(NAME.match(name) for name in every)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = declared["end_to_end"][names(declared["end_to_end"])
                                   .index("setup_s")]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"]
                                 for m in declared["end_to_end"])


def test_declaration_matches_the_code(declared):
    assert names(declared["workloads"]) == list(WORKLOADS)
    for entry in declared["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert ({m["name"]: m["unit"] for m in declared["end_to_end"]}
            == e2e.END_TO_END)
    assert ({m["name"]: m["unit"] for m in declared["per_layer"]}
            == layers.PER_LAYER)


# -- run.py, end to end -------------------------------------------------------

@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """The whole suite at smoke size, both passes."""
    out_dir = str(tmp_path_factory.mktemp("smoke"))
    for trace in ("0", "1"):
        subprocess.run([*RUN, "--smoke", "--trace", trace,
                        "--out-dir", out_dir], check=True,
                       stdout=subprocess.DEVNULL)
    with open(os.path.join(out_dir, "BENCH_local.json"),
              encoding="utf-8") as handle:
        return {"document": json.load(handle), "out_dir": out_dir}


def test_smoke_emits_every_declared_name_and_nothing_else(smoke, declared):
    workloads = smoke["document"]["workloads"]
    assert list(workloads) == names(declared["workloads"])
    for name, passes in workloads.items():
        assert (list(passes["e2e"]["metrics"])
                == names(declared["end_to_end"]))
        assert (list(passes["layers"]["metrics"])
                == names(declared["per_layer"]))
        for result in passes.values():
            assert result["failed"] == 0, result["failures"]
            assert result["attempted"] >= 1
        assert all(metric["value"] > 0
                   for metric in passes["e2e"]["metrics"].values())
        skipped = {metric: row["skipped"] for metric, row
                   in passes["layers"]["metrics"].items()
                   if row["value"] is None}
        assert not skipped
        assert os.path.exists(os.path.join(smoke["out_dir"],
                                           f"trace_{name}.json"))


def test_last_line_is_the_contract_object(declared):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(
            [*RUN, "--workload", "artifact-service", "--seed", "3",
             "--smoke", "--trace", trace], check=True,
            stdout=subprocess.PIPE, text=True)
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == names(declared[key])
        for entry in declared[key]:
            assert set(line["metrics"][entry["name"]]) == {"value", "unit"}
            assert line["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only the benchmark there is nothing to
    measure: a non-zero exit and no result line."""
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "local",
                                                  "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gzip-loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode != 0
    assert done.stdout == ""


# -- spans --------------------------------------------------------------------

def span(ident, parent, start, end, name="s"):
    return {"id": ident, "name": name, "parent": parent, "run": 1,
            "start": start, "end": end}


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        span(0, None, 0.0, 10.0, "root"),
        span(1, 0, 1.0, 4.0, "a"),
        span(2, 0, 3.0, 6.0, "b"),      # overlaps a: union is [1, 6]
        span(3, 1, 2.0, 3.0, "leaf"),
        span(4, 0, 9.0, 12.0, "b"),     # runs past its parent: clipped
    ]
    selfs = self_times(tree)
    assert selfs == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0,
                                   3: 1.0, 4: 3.0})
    by_name = aggregate(tree)
    assert by_name["b"] == pytest.approx(
        {"count": 2, "total_s": 6.0, "self_s": 6.0})
    assert by_name["root"]["self_s"] == pytest.approx(4.0)


# -- calibration --------------------------------------------------------------

def test_calibration_kernel_imports_nothing_from_the_program():
    path = os.path.join(BENCH_DIR, "calib.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported <= {"gc", "os", "time"}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; import bench.calib; "
         "sys.exit(any(m.split('.')[0] == 'repro' for m in sys.modules))"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": ROOT})
    assert done.returncode == 0


# -- probing ------------------------------------------------------------------

@pytest.fixture()
def account(tmp_path):
    return layers.Account(WORKLOADS["gzip-loop"].smoke(), 0, str(tmp_path))


def test_unknown_backend_is_skipped_not_raised(account):
    account.cycle()
    account.probe(account.engine_probe("nonesuch", "t0"))
    name = "engine.mips.pinvm.nonesuch.t0"
    assert name not in account.values
    assert "nonesuch" in account.skipped[name]
    assert account.ops.failed == 0


def test_deleted_phase_function_nulls_its_metrics(account, monkeypatch):
    import repro.superpin
    monkeypatch.delattr(repro.superpin, "record_signatures")
    account.cycle()
    account.derive(account.pipeline)
    account.derive(account.ratios)
    table = account.metrics()
    assert table["control.run_s"]["value"] is None
    assert "record_signatures" in table["control.run_s"]["skipped"]
    # What does not need the deleted function is still measured.
    assert table["derived.slowdown_vs_native.w0"]["value"] > 0
    assert account.ops.failed == 0


# -- the oracle ---------------------------------------------------------------

def test_wrong_expected_digest_fails_one_operation(tmp_path):
    workload = WORKLOADS["gzip-loop"].smoke()
    expected = str(tmp_path / "gzip-loop.json")

    def run(name, update=False):
        workdir = tmp_path / name
        workdir.mkdir()
        return e2e.run(workload, 0, 0.0, 2, str(workdir), expected, 0.0,
                       update_expected=update)

    assert run("pin", update=True)["failed"] == 0
    assert run("good")["failed"] == 0
    pinned = oracle.load_expected(expected)
    pinned["live"]["arch"]["stdout_sha256"] = "0" * 64
    oracle.write_expected(expected, pinned)
    bad = run("bad")
    assert bad["failed"] == 1
    assert "stdout_sha256" in bad["failures"][0]


def test_exception_in_an_operation_is_counted_not_raised():
    ops = oracle.Ops()
    assert ops.attempt("boom", lambda: 1 / 0) is None
    assert ops.attempt("fine", lambda: 7) == 7
    assert (ops.attempted, ops.failed) == (2, 1)
    assert "ZeroDivisionError" in ops.failures[0]


# -- compare ------------------------------------------------------------------

def test_compare_verdicts():
    def metric(value, q1, q3):
        return {"value": value, "q1": q1, "q3": q3}

    steady = metric(1.00, 0.99, 1.01)
    assert compare.verdict(steady, metric(1.02, 1.01, 1.03), 0.1,
                           "lower") == "same"
    assert compare.verdict(steady, metric(1.30, 1.28, 1.32), 0.1,
                           "lower") == "worse"
    assert compare.verdict(steady, metric(0.70, 0.69, 0.71), 0.1,
                           "lower") == "better"
    assert compare.verdict(steady, metric(1.30, 1.28, 1.32), 0.1,
                           "higher") == "better"
    # Wider than the bound and overlapping: the runs cannot tell.
    assert compare.verdict(metric(1.0, 0.8, 1.2), metric(1.15, 0.9, 1.4),
                           0.1, "lower") == "unresolved"
    # Wider than the bound but apart: resolved.
    assert compare.verdict(metric(1.0, 0.9, 1.1), metric(2.0, 1.8, 2.2),
                           0.1, "lower") == "worse"
