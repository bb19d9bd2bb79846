#!/usr/bin/env python3
"""Interleaved A/B of the ledger benchmark on two trees (bench/ledger/README.md).

  python3 bench/ledger/compare.py BASE_DIR HEAD_DIR [--pairs 10]
      [--workload NAME|all]

Each pair runs both trees' run.py on one workload with one seed, alternating
which tree goes first; both run for BASE's run_seconds. One extra pair per
workload runs first and is discarded (it also builds). Per workload and
end-to-end metric it prints each side's median and quartiles, the share of
pairs HEAD won (ties count for neither), and a verdict.

Both trees run the same seeds, so the simulated metrics (latency
percentiles, goodput, hit ratio) and the sample digests are exact functions
of the model: a change that only alters speed leaves them identical, and any
difference is a change to the model. Their verdict is

  identical   equal in every pair;
  regressed   HEAD's median is worse than BASE's, by any amount;
  improved    HEAD's median is better and HEAD won at least 90% of the pairs;
  changed     otherwise.

Host costs carry the machine's noise, so they are judged against the bounds
in BASE's BENCHMARK.json:

  improved    HEAD won at least 90% of the pairs, and the medians differ by
              more than the distance between BASE's quartiles;
  regressed   HEAD's median is worse than BASE's by more than the bound;
  unresolved  BASE's quartile spread is wider than the bound, unless every
              HEAD run beats every BASE run;
  unchanged   otherwise.

Exits 1 if a metric regressed or the sample digests differ, so a change
meant to alter the model exits 1 too and must say why.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED_BASE = 100
SIMULATED = {"sim_p50_ms", "sim_p99_ms", "sim_p999_ms", "goodput_frac",
             "local_hit_ratio"}


def run_tree(tree, workload, seed, seconds):
    """One run.py invocation; returns (metrics, digests)."""
    proc = subprocess.run(
        [sys.executable, "bench/ledger/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"compare.py: {tree}: run.py failed for {workload} seed "
                 f"{seed}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report = json.loads((Path(tree) / "BENCH_ledger.json").read_text())
    digests = [rep["digest"] for rep in report["workloads"][workload]["reps"]]
    return {k: v["value"] for k, v in result["metrics"].items()}, digests


def summary(values):
    q = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def verdict(metric, base, head):
    lower = metric["better"] == "lower"
    better = (lambda h, b: h < b) if lower else (lambda h, b: h > b)
    b_med, h_med = statistics.median(base), statistics.median(head)
    b_q1, _, b_q3 = statistics.quantiles(base, n=4)
    pairs = list(zip(base, head))
    won = sum(better(h, b) for b, h in pairs) / len(pairs)
    worse_by = (h_med - b_med) / b_med if lower else (b_med - h_med) / b_med
    if metric["name"] in SIMULATED:
        if base == head:
            return won, "identical"
        if worse_by > 0:
            return won, "regressed"
        return won, "improved" if won >= 0.9 else "changed"
    if (won >= 0.9 and better(h_med, b_med)
            and abs(h_med - b_med) > b_q3 - b_q1):
        return won, "improved"
    if worse_by > metric["bound"]:
        return won, "regressed"
    if ((b_q3 - b_q1) / b_med > metric["bound"]
            and not all(better(h, b) for h in head for b in base)):
        return won, "unresolved"
    return won, "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    args = parser.parse_args()
    if args.pairs < 10:
        sys.exit("compare.py: --pairs must be at least 10")

    spec = json.loads((Path(args.base) / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    failed = False
    for workload in workloads:
        base, head = [], []
        digests_equal = True
        for i in range(args.pairs + 1):
            seed = SEED_BASE + i
            order = [("base", args.base), ("head", args.head)]
            if i % 2:
                order.reverse()
            runs = {side: run_tree(tree, workload, seed, seconds)
                    for side, tree in order}
            digests_equal &= runs["base"][1] == runs["head"][1]
            if i > 0:
                base.append(runs["base"][0])
                head.append(runs["head"][0])
        print(f"== {workload}: {args.pairs} pairs, {seconds:g} s per run")
        print(f"   {'metric':18s} {'base median [q1, q3]':>36s} "
              f"{'head median [q1, q3]':>36s}   won  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [m[name] for m in base]
            h = [m[name] for m in head]
            won, word = verdict(metric, b, h)
            failed |= word == "regressed"
            print(f"   {name:18s} {summary(b):>36s} {summary(h):>36s} "
                  f"{won:5.0%}  {word}")
        failed |= not digests_equal
        print(f"   sample digests {'identical' if digests_equal else 'DIFFER'}"
              " between the trees")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
