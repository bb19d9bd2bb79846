#!/usr/bin/env python3
"""Pins the CI planner smoke runs' plans against a committed baseline.

Reads the six BENCH_planner*.json files that the "Smoke-run planner" CI
step writes with tools/loadgen and bench/baseline/planner_smoke.json. For
every run it fails when any of

  - samples_digest (every scored invocation's latency),
  - engine_digest (the sharded engine's event stream; sharded runs only),
  - planner_result (rounds, moves, splits, merges, moved bytes and every
    round's objectives)

differs from the baseline. All three are pure functions of the loadgen
flags, so a solver or collector refactor that changes any plan fails here,
not only in the synthetic PlannerGoldenTest cells.

  python3 tools/check_planner_smoke.py [--dir DIR]
      [--baseline bench/baseline/planner_smoke.json]
  python3 tools/check_planner_smoke.py --record [--dir DIR]

--record writes the baseline from the runs in DIR. Re-record only after a
deliberate change to plans or to the runs' behaviour: run the six loadgen
commands of the CI step, then --record, and say in the change why the
plans moved. Exits 1 on a failed check, 2 on unusable input.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ("BENCH_planner.json", "BENCH_planner_shard1.json",
        "BENCH_planner_shard4.json", "BENCH_planner_chbl.json",
        "BENCH_planner_chbl_shard1.json", "BENCH_planner_chbl_shard4.json")
KEYS = ("samples_digest", "engine_digest", "planner_result")


def fail(message):
    print(f"check_planner_smoke: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def pinned(run_dir):
    """{run file: {key: value or None}} for the runs in run_dir."""
    out = {}
    for name in RUNS:
        doc = load(Path(run_dir) / name)
        if "planner_result" not in doc:
            fail(f"{name}: no planner_result (planner off?)")
        out[name] = {key: doc.get(key) for key in KEYS}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", default=".",
                        help="directory holding the BENCH_planner*.json runs")
    parser.add_argument("--baseline", default=str(
        ROOT / "bench" / "baseline" / "planner_smoke.json"))
    parser.add_argument("--record", action="store_true",
                        help="write the baseline from the runs in --dir")
    args = parser.parse_args()
    got = pinned(args.dir)
    if args.record:
        Path(args.baseline).write_text(
            json.dumps({"runs": got}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.baseline} from {len(got)} runs")
        return 0
    want = load(args.baseline)["runs"]
    problems = []
    for name in RUNS:
        if name not in want:
            problems.append(f"{name}: not in the baseline")
            continue
        differs = [key for key in KEYS if got[name][key] != want[name][key]]
        problems += [f"{name}: {key} differs from the baseline"
                     for key in differs]
        print(f"{name:32s} {', '.join(differs) or 'identical'}")
    for p in problems:
        print(f"FAIL: {p}")
    if problems:
        print("A deliberate change to plans re-records the baseline with "
              "--record (tools/check_planner_smoke.py).")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
