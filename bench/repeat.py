#!/usr/bin/env python3
"""Repeat test: is the benchmark steady enough to carry its own bounds?

Runs every workload ``--seeds`` times, each time with another seed, and
that whole set ``--sets`` times, through the command ``BENCHMARK.json``
names.  For each workload and end-to-end metric it takes each set's
median and its interquartile spread as a share of that median, then
fails if

* an operation failed in any run,
* a spread exceeds the metric's bound (``setup_s`` excepted: its spread
  is reported, its median is held to the bound), or
* a later set's median is worse than the first set's by more than the
  bound.

The spread of the calibration kernel itself is recorded beside them: it
says how unsteady the host was while the test ran.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, ROOT)

from bench import stats  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="runs per workload in one set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="only this workload (repeatable)")
    parser.add_argument("--out", default=os.path.join(
        BENCH_DIR, "results", "local", "repeat.json"))
    return parser.parse_args(argv)


def run_once(spec: dict, workload: str, seed: int, scratch: str) -> dict:
    """One run through the declared command; its contract line, wall
    time and calibration summary."""
    command = [*spec["command"], "--workload", workload, "--seed",
               str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0", "--json-out", scratch]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code "
                           f"{done.returncode}")
    line = json.loads(done.stdout.splitlines()[-1])
    with open(scratch, encoding="utf-8") as handle:
        full = json.load(handle)
    os.remove(scratch)
    return {"seed": seed, "wall_s": wall, "failed": line["failed"],
            "attempted": line["attempted"], "rounds": full["rounds"],
            "calib_s": full["calib"]["median"],
            "samples": full["samples"],
            "values": {name: metric["value"]
                       for name, metric in line["metrics"].items()}}


def judge(metric: dict, sets: list[list[float]]) -> dict:
    """Median and spread of each set, the worst shift of a later set's
    median against the first, and what (if anything) breaks the bound."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    medians = [statistics.median(values) for values in sets]
    spreads = [stats.spread(values) for values in sets]
    shift = max((sign * (median - medians[0]) / medians[0]
                 for median in medians[1:]), default=0.0)
    broken = []
    if metric["name"] != "setup_s" and max(spreads) > metric["bound"]:
        broken.append("spread")
    if shift > metric["bound"]:
        broken.append("shift")
    return {"medians": medians, "spreads": spreads, "worst_shift": shift,
            "bound": metric["bound"], "broken": broken}


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    scratch = args.out + ".run"
    runs = {name: [[] for _ in range(args.sets)] for name in names}
    for index in range(args.sets):
        for name in names:
            for offset in range(args.seeds):
                seed = args.first_seed + index * args.seeds + offset
                run = run_once(spec, name, seed, scratch)
                runs[name][index].append(run)
                print(f"set {index} {name} seed {seed}: "
                      f"{run['wall_s']:.1f} s, {run['rounds']} rounds, "
                      f"{run['failed']} of {run['attempted']} failed",
                      flush=True)

    broken = 0
    table = {}
    for name in names:
        table[name] = {}
        for metric in spec["end_to_end"]:
            verdict = judge(metric, [
                [run["values"][metric["name"]] for run in one_set]
                for one_set in runs[name]])
            table[name][metric["name"]] = verdict
            broken += bool(verdict["broken"])
            print(f"{name:18s} {metric['name']:18s} "
                  f"median {verdict['medians'][0]:10.4f} {metric['unit']:4s}"
                  f" spread {max(verdict['spreads']):6.1%}"
                  f" shift {verdict['worst_shift']:+7.1%}"
                  f" bound {metric['bound']:4.0%}"
                  f" {' '.join(verdict['broken']) or 'ok'}")
    every = [run for sets in runs.values() for one in sets for run in one]
    failed = sum(run["failed"] for run in every)
    calib = [run["calib_s"] for run in every]
    walls = [run["wall_s"] for run in every]
    summary = {
        "ops_failed": failed,
        "ops_attempted": sum(run["attempted"] for run in every),
        "metrics_broken": broken,
        "calib_s": stats.summarize(calib),
        "wall_s": {"total": sum(walls), "max": max(walls),
                   "mean": statistics.mean(walls)},
    }
    print(f"ops_failed {failed} of {summary['ops_attempted']}; "
          f"calib_s median {summary['calib_s']['median']:.4f} s spread "
          f"{summary['calib_s']['spread']:.1%}; run wall mean "
          f"{summary['wall_s']['mean']:.1f} s max "
          f"{summary['wall_s']['max']:.1f} s")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"seeds": args.seeds, "sets": args.sets,
                   "first_seed": args.first_seed, "summary": summary,
                   "verdicts": table, "runs": runs}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(args.out)}")
    return 1 if failed or broken else 0


if __name__ == "__main__":
    sys.exit(main())
