#!/usr/bin/env python3
"""Gates the ledger's exact counts against a committed baseline.

Reads BENCH_ledger.json, as `python3 bench/ledger/run.py --seconds 4`
writes it, and bench/baseline/ledger_counts.json. For every replication of
every workload it fails when

  - sim.events_per_inv differs from the baseline, or
  - proc.allocs_per_inv exceeds the baseline.

Both counts depend on the workload and the replication's seed, not on the
machine, so the baseline is keyed by workload and seed. A count that does
not repeat exactly from run to run is recorded at the largest value seen.
Host times are not gated.

  python3 tools/check_ledger_counts.py [--bench BENCH_ledger.json]
      [--baseline bench/baseline/ledger_counts.json]
  python3 tools/check_ledger_counts.py --record BENCH_a.json BENCH_b.json ...

--record writes the baseline from one or more ledger runs with the same
--seed and --seconds: events per invocation must agree across them, and
allocations per invocation take the maximum. Exits 1 on a failed check, 2
on unusable input.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EVENTS = "sim.events_per_inv"
ALLOCS = "proc.allocs_per_inv"


def fail(message):
    print(f"check_ledger_counts: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def counts(bench):
    """{workload: {seed: {EVENTS: v, ALLOCS: v}}} from one ledger run."""
    out = {}
    for name, run in bench["workloads"].items():
        reps = out.setdefault(name, {})
        for rep in run["reps"]:
            metrics = rep["metrics"]
            if EVENTS not in metrics or ALLOCS not in metrics:
                fail(f"{name} seed {rep['seed']}: no counts (failed run?)")
            reps[str(rep["seed"])] = {EVENTS: metrics[EVENTS]["value"],
                                      ALLOCS: metrics[ALLOCS]["value"]}
    return out


def record(paths, baseline_path):
    benches = [load(p) for p in paths]
    runs = {(b["seed"], b["seconds"]) for b in benches}
    if len(runs) != 1:
        fail("--record needs runs with one --seed and --seconds")
    merged = {}
    for bench in benches:
        for name, reps in counts(bench).items():
            for seed, got in reps.items():
                have = merged.setdefault(name, {}).setdefault(seed, dict(got))
                if have[EVENTS] != got[EVENTS]:
                    fail(f"{name} seed {seed}: {EVENTS} differs across runs "
                         f"({have[EVENTS]} vs {got[EVENTS]})")
                have[ALLOCS] = max(have[ALLOCS], got[ALLOCS])
    seed, seconds = runs.pop()
    Path(baseline_path).write_text(json.dumps(
        {"seed": seed, "seconds": seconds, "runs": len(benches),
         "workloads": merged}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {baseline_path} from {len(benches)} run(s)")


def check(bench_path, baseline_path):
    bench = load(bench_path)
    baseline = load(baseline_path)
    if (bench["seed"], bench["seconds"]) != (baseline["seed"],
                                             baseline["seconds"]):
        fail(f"{bench_path} ran --seed {bench['seed']} --seconds "
             f"{bench['seconds']}; the baseline needs --seed "
             f"{baseline['seed']} --seconds {baseline['seconds']}")
    problems = []
    got_counts = counts(bench)
    for name, reps in baseline["workloads"].items():
        for seed, want in reps.items():
            got = got_counts.get(name, {}).get(seed)
            if got is None:
                problems.append(f"{name} seed {seed}: not in {bench_path}")
                continue
            if got[EVENTS] != want[EVENTS]:
                problems.append(f"{name} seed {seed}: {EVENTS} {got[EVENTS]} "
                                f"!= baseline {want[EVENTS]}")
            if got[ALLOCS] > want[ALLOCS]:
                problems.append(f"{name} seed {seed}: {ALLOCS} {got[ALLOCS]} "
                                f"> baseline {want[ALLOCS]}")
            print(f"{name:20s} seed {seed}: {EVENTS} {got[EVENTS]:.6g} "
                  f"(baseline {want[EVENTS]:.6g}), {ALLOCS} "
                  f"{got[ALLOCS]:.6g} (baseline {want[ALLOCS]:.6g})")
    for p in problems:
        print(f"FAIL: {p}")
    if problems:
        print("A deliberate change to these counts re-records the baseline "
              "with --record (tools/check_ledger_counts.py).")
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bench", default=str(ROOT / "BENCH_ledger.json"))
    parser.add_argument("--baseline", default=str(
        ROOT / "bench" / "baseline" / "ledger_counts.json"))
    parser.add_argument("--record", nargs="+", metavar="BENCH",
                        help="write the baseline from these ledger runs")
    args = parser.parse_args()
    if args.record:
        record(args.record, args.baseline)
        return 0
    return check(args.bench, args.baseline)


if __name__ == "__main__":
    sys.exit(main())
