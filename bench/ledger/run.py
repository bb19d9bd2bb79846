#!/usr/bin/env python3
"""Ledger benchmark runner (bench/ledger/README.md).

Builds bench/ledger (Release), then runs each selected workload as K
independent replications, one `ledger` process each, with sub-seeds derived
from --seed. The --seconds of measured time are split evenly across the
selected workloads: one workload gets all of it, and a pass of all four
gets a quarter each. A run of `calibrate` precedes each replication and
follows the last, and host time is reported relative to it. Every
replication must close its books, and the
composed stack must reproduce the library harness's digest
(`ledger --check`). Prints every metric by name with its unit, writes
BENCH_ledger.json, and prints as its last line one JSON object

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0, aggregated
over the replications) or its per-layer metrics (--trace 1, from one traced
replication). Exits 1 on a correctness violation, 2 on a usage or build
error, without the JSON line.

  python3 bench/ledger/run.py [--workload NAME|all] [--seed N]
                              [--seconds S] [--trace 0|1]
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
LEDGER_DIR = ROOT / "bench" / "ledger"
BUILD_DIR = LEDGER_DIR / "build"
LEDGER = BUILD_DIR / "ledger"
CALIBRATE = BUILD_DIR / "calibrate"

# Host seconds one replication takes on the reference machine (4-vCPU x86
# virtual machine, Release build). A workload given S seconds executes
# max(3, floor(S / (this + CALIBRATION_SECONDS))) replications, so its
# sub-seed set, and with it every simulated metric, depends only on --seed
# and S.
REPLICATION_SECONDS = {
    "push_sticky": 0.45,
    "pull_spray_burst": 0.6,
    "hot_planner_writes": 0.45,
    "sharded_diurnal": 0.5,
}
CALIBRATION_SECONDS = 0.1  # one calibrate run, which precedes each replication
# Host time is reported at the reference machine's speed: a replication's
# wall time times CALIBRATION_REFERENCE_S over the mean of the calibrate
# runs just before and just after it. On a shared machine other tenants
# slow this kind of code by tens of percent for minutes at a time; the
# calibration slows with it, and it runs nothing from src/, so the ratio
# moves with the program, not the neighbours (README.md, Calibrated host
# time).
CALIBRATION_REFERENCE_S = 0.1  # about calibrate's time on a quiet machine
# End-to-end metrics are interquartile means over the replications, with
# three exceptions. Host time is the median of the calibrated replications.
# Set-up time is the fastest replication's: it is too short for the
# calibration to track, other processes only ever add time, and the minimum
# moves least when their load changes. A replication's peak RSS is bimodal
# (the sample book may or may not outgrow its reservation), so a run
# reports the largest.
AGGREGATE = {"host_ns_per_inv": statistics.median, "setup_s": min,
             "peak_rss_mb": max}
WATCHDOG_SECONDS = 120
UNTRACED_FOR_OVERHEAD = 3  # untraced repeats the traced replication is timed against


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"{ROOT / 'src'} is missing: run from a full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(LEDGER_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "ledger",
                  "calibrate", "-j2"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def replication_seed(seed, j):
    return seed * 1000 + j


def replication_seeds(seed, seconds, workload):
    count = max(3, math.floor(
        seconds / (REPLICATION_SECONDS[workload] + CALIBRATION_SECONDS)))
    return [replication_seed(seed, j) for j in range(count)]


def ledger(workload, seed, *flags):
    """One ledger process; returns its JSON result, or a violation record."""
    cmd = [str(LEDGER), f"--workload={workload}", f"--seed={seed}", *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WATCHDOG_SECONDS)
    except subprocess.TimeoutExpired:
        return {"correct": False, "metrics": {}, "submitted": 0, "failed": 0,
                "violations": [f"watchdog: no result in {WATCHDOG_SECONDS} s"],
                "seed": seed}
    if proc.returncode == 2:
        fail(f"{' '.join(cmd)}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}, "submitted": 0, "failed": 0,
                  "violations": [f"exit {proc.returncode}, no result: "
                                 f"{proc.stderr.strip()[-500:]}"]}
    if proc.returncode != 0:
        result["correct"] = False
    result["seed"] = seed
    return result


def calibrate():
    """Seconds the calibration loop takes on this machine right now."""
    try:
        proc = subprocess.run([str(CALIBRATE)], capture_output=True,
                              text=True, timeout=WATCHDOG_SECONDS)
        return json.loads(proc.stdout)["seconds"]
    except (subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        fail(f"{CALIBRATE} failed: {e}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def interquartile_mean(values):
    """Mean of the middle half of `values`. Like the median it ignores the
    outer quarters, so a stray replication cannot pull it; unlike the median
    it averages every replication in between, so it moves less between
    runs."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


class WorkloadRun:
    """Everything one workload's run collects."""

    def __init__(self, name):
        self.name = name
        self.check = None
        self.reps = []      # untraced replications
        self.traced = None  # the traced replication, --trace 1 only
        self.violations = []

    def record(self, result, what):
        if not result.get("correct", False):
            for v in result.get("violations") or ["incorrect result"]:
                self.violations.append(f"{what} seed {result['seed']}: {v}")

    def end_to_end(self, spec):
        out = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in self.reps
                      if m["name"] in r["metrics"]]
            if len(values) != len(self.reps):
                self.violations.append(f"metric {m['name']} missing")
                continue
            if m["name"] == "host_ns_per_inv":
                values = [v * CALIBRATION_REFERENCE_S / r["calibration_s"]
                          for v, r in zip(values, self.reps)]
            q1, q3 = quartiles(values)
            aggregate = AGGREGATE.get(m["name"], interquartile_mean)
            out[m["name"]] = {"value": aggregate(values), "unit": m["unit"],
                              "q1": q1, "q3": q3}
        return out

    def per_layer(self, spec):
        traced = self.traced["metrics"]
        if not traced or not all(r["metrics"] for r in self.reps):
            self.violations.append("a replication reported no metrics")
            return {}
        # Host costs the untraced runs also measure come from them: tracing
        # inflates them.
        untraced = {name: statistics.median(r["metrics"][name]["value"]
                                            for r in self.reps)
                    for name in self.reps[0]["metrics"]}
        out = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_pct":
                value = 100 * (traced["host_ns_per_inv"]["value"] /
                               untraced["host_ns_per_inv"] - 1)
            elif name in untraced:
                value = untraced[name]
            elif name in traced:
                value = traced[name]["value"]
            else:
                self.violations.append(f"metric {name} missing")
                continue
            out[name] = {"value": value, "unit": m["unit"]}
        digests = {r["digest"] for r in self.reps + [self.traced]}
        if len(digests) != 1:
            self.violations.append(
                "traced digest differs from the untraced digest")
        return out

    def totals(self):
        results = self.reps + ([self.traced] if self.traced else [])
        attempted = sum(r.get("submitted", 0) for r in results)
        failed = sum(r.get("failed", 0) for r in results)
        return max(attempted, 1), failed


def run_workloads(names, seed, seconds, trace):
    runs = {name: WorkloadRun(name) for name in names}
    for run in runs.values():
        run.check = ledger(run.name, replication_seed(seed, 0), "--check")
        run.record(run.check, "check")
    if trace:
        for run in runs.values():
            rep_seed = replication_seed(seed, 0)
            for _ in range(UNTRACED_FOR_OVERHEAD):
                run.reps.append(ledger(run.name, rep_seed))
                run.record(run.reps[-1], "replication")
            run.traced = ledger(run.name, rep_seed, "--traced")
            run.record(run.traced, "traced")
        return runs
    # Replications of different workloads interleave, so slow drift on the
    # machine touches every workload alike. A calibrate run precedes each
    # replication and one follows the last; each replication is calibrated
    # by the mean of the two around it.
    seeds = {run.name: replication_seeds(seed, seconds, run.name)
             for run in runs.values()}
    before = calibrate()
    for j in range(max(len(s) for s in seeds.values())):
        for run in runs.values():
            if j < len(seeds[run.name]):
                rep = ledger(run.name, seeds[run.name][j])
                after = calibrate()
                rep["calibration_s"] = (before + after) / 2
                before = after
                run.reps.append(rep)
                run.record(rep, "replication")
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of %s, or all" % ", ".join(REPLICATION_SECONDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time, split across the workloads "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    names = (list(REPLICATION_SECONDS) if args.workload == "all"
             else [args.workload])
    if any(name not in REPLICATION_SECONDS for name in names):
        fail(f"unknown --workload {args.workload}")
    if not 0 <= args.seed < 2**40:
        fail("--seed must be in [0, 2^40)")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    build()
    started = time.monotonic()
    runs = run_workloads(names, args.seed, seconds / len(names),
                         args.trace == 1)
    elapsed = time.monotonic() - started

    report = {"seed": args.seed, "seconds": seconds, "trace": args.trace,
              "elapsed_s": elapsed, "workloads": {}}
    final_metrics = {}
    attempted = failed = 0
    correct = True
    for run in runs.values():
        metrics = run.per_layer(spec) if args.trace else run.end_to_end(spec)
        run_attempted, run_failed = run.totals()
        if run.violations:
            correct = False
            run_failed = run_attempted
        attempted += run_attempted
        failed += run_failed
        report["workloads"][run.name] = {
            "correct": not run.violations, "violations": run.violations,
            "replications": len(run.reps),
            "check": run.check, "reps": run.reps, "traced": run.traced,
            "metrics": metrics}
        print(f"== {run.name}: {len(run.reps)} replication(s), "
              f"{run_attempted} invocations, {run_failed} failed, "
              f"{'correct' if not run.violations else 'VIOLATIONS'}")
        for v in run.violations:
            print(f"   violation: {v}")
        for name, m in metrics.items():
            spread = (f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]"
                      if "q1" in m else "")
            print(f"   {name:38s} {m['value']:14.6g} {m['unit']}{spread}")
            key = name if len(runs) == 1 else f"{run.name}.{name}"
            final_metrics[key] = {"value": m["value"], "unit": m["unit"]}
        if not args.trace and "host_ns_per_inv" in metrics:
            raw = statistics.median(r["metrics"]["host_ns_per_inv"]["value"]
                                    for r in run.reps)
            calibration = statistics.median(r["calibration_s"]
                                            for r in run.reps)
            print(f"   {'(uncalibrated host_ns_per_inv)':38s} {raw:14.6g} ns"
                  f"  calibrate median {calibration:.4g} s")
    (ROOT / "BENCH_ledger.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
