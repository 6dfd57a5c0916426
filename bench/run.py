#!/usr/bin/env python3
"""Host-time benchmark for the SuperPin pipeline.

Two ways in:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one pass, in this process.  Prints every metric by
    name and unit, then — as the last line — one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics``: the
    end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1``.

``python3 bench/run.py [--trace] [--smoke] [--tag T]``
    The whole suite: each workload in its own subprocess (so peak RSS is
    clean), results gathered into ``<out-dir>/BENCH_<tag>.json`` and,
    for the traced pass, one ``trace_<workload>.json`` span file each.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SCHEMA = "superpin-bench/1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload "
                        "in-process (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1: the traced pass (per-layer metrics)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="fix the round count instead of --seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two rounds: a self-test")
    parser.add_argument("--out-dir",
                        default=os.path.join(BENCH_DIR, "results", "local"),
                        help="where result and span files go")
    parser.add_argument("--tag", default="local",
                        help="suite result file is BENCH_<tag>.json")
    parser.add_argument("--expected-dir",
                        default=os.path.join(BENCH_DIR, "expected"))
    parser.add_argument("--update-expected", action="store_true",
                        help="pin this run's seed-0 results")
    parser.add_argument("--json-out", help="also write the full result "
                        "of a --workload run to this file")
    return parser.parse_args(argv)


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


# -- one workload, in this process --------------------------------------------

def run_workload(args) -> dict:
    sys.path[:0] = [ROOT, SRC]
    from bench import e2e
    from bench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose "
                         f"from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    rounds = args.rounds
    if args.smoke:
        workload = workload.smoke()
        rounds = rounds or 2
    seconds = (args.seconds if args.seconds is not None
               else declared()["run_seconds"])
    start = time.perf_counter()
    e2e.import_program()
    import_seconds = time.perf_counter() - start

    os.makedirs(args.out_dir, exist_ok=True)
    workdir = os.path.join(BENCH_DIR, ".work",
                           f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    expected_path = os.path.join(args.expected_dir,
                                 f"{workload.name}.json")
    try:
        if args.trace:
            from bench import layers
            result = layers.run(
                workload, args.seed, seconds, rounds, workdir,
                os.path.join(args.out_dir,
                             f"trace_{workload.name}.json"))
        else:
            result = e2e.run(workload, args.seed, seconds, rounds,
                             workdir, expected_path, import_seconds,
                             update_expected=args.update_expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["schema"] = SCHEMA
    return result


def print_result(result: dict) -> None:
    print(f"# {result['workload']} seed {result['seed']} "
          f"pass {result['pass']}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        extra = ""
        if "n" in metric:
            extra = (f"  [q1 {metric['q1']:.6g} q3 {metric['q3']:.6g} "
                     f"n {metric['n']} raw {metric['raw']:.6g}]")
        if metric.get("skipped"):
            extra = f"  [skipped: {metric['skipped']}]"
        print(f"{name:44s} {shown:>12s} {metric['unit']}{extra}")
    print(f"{'ops_failed':44s} {result['failed']:12d} count "
          f"[of {result['attempted']} attempted]")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def contract_line(result: dict) -> str:
    """The last line of output: exactly the four keys the driver reads."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metric["value"],
                           "unit": metric["unit"]}
                    for name, metric in result["metrics"].items()},
    })


# -- the suite: one subprocess per workload -----------------------------------

def run_suite(args) -> int:
    spec = declared()
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"BENCH_{args.tag}.json")
    try:
        with open(out_path, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        document = {"schema": SCHEMA, "tag": args.tag, "workloads": {}}
    pass_name = "layers" if args.trace else "e2e"
    failed = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        scratch = os.path.join(args.out_dir, f".{name}.{pass_name}.json")
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace), "--out-dir", args.out_dir,
                   "--expected-dir", args.expected_dir,
                   "--json-out", scratch]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.rounds is not None:
            command += ["--rounds", str(args.rounds)]
        if args.smoke:
            command.append("--smoke")
        if args.update_expected:
            command.append("--update-expected")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # The child's last line is for the driver; show the rest.
        print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
        if done.returncode != 0:
            print(f"FAILED {name}: exit code {done.returncode}")
            failed += 1
            continue
        with open(scratch, encoding="utf-8") as handle:
            result = json.load(handle)
        os.remove(scratch)
        failed += result["failed"]
        document["workloads"].setdefault(name, {})[pass_name] = result
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {os.path.relpath(out_path)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("bench: no src/repro beside bench/ — nothing to measure",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_suite(args)
    result = run_workload(args)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    print_result(result)
    print(contract_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
