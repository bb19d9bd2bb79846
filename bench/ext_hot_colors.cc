// Extension experiment — hot colors: global re-balancing + splitting vs
// sticky placement (§5 Scaling; docs/PLANNER.md).
//
// The paper's prototype maps each color to one instance and flags the
// consequence: a viral color concentrates on a single worker. The planner
// subsystem lifts that restriction proactively — periodic snapshot ->
// solve -> apply rounds re-home colors to flatten load and shard colors
// whose share exceeds the split threshold across a replica set.
//
// This bench runs the open-loop workload harness head-to-head at Zipf
// popularity skews s in {1.1, 1.3, 1.5}:
//   * bucket hashing        (the paper's stateless recommendation),
//   * greedy sticky LA      (first-sight placement, never revisited),
//   * LA + planner          (plan+apply re-balancing with splitting).
// Each cell reports p99, goodput, and the max/mean routing imbalance.
//
// Asserted invariants (exit 1 on violation):
//   * at s >= 1.2 the planner cell beats both baselines on p99 AND on
//     max/mean imbalance — re-balancing must actually buy something once
//     the head of the popularity curve dominates;
//   * the accounting identity submitted = completed + dropped + abandoned
//     closes in every cell (migrations must not leak invocations);
//   * the planner cell is bit-identical when re-run with the same seed;
//   * on the sharded engine, digests and planner counters are identical
//     across --shards 1 and 4 with planning enabled.
// Writes BENCH_plan.json.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/json_writer.h"
#include "src/common/table_printer.h"
#include "src/core/policy_factory.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

constexpr int kWorkers = 8;
constexpr double kOfferedRps = 1500;
constexpr double kDeadlineMs = 100;

WorkloadSpec SkewSpec(double zipf_s) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kPoisson;
  spec.arrival.rate_per_sec = kOfferedRps;
  spec.mix.color_count = 64;
  spec.mix.zipf_theta = zipf_s;
  spec.mix.objects_per_color = 4;
  spec.mix.inputs_per_invocation = 1;
  spec.mix.functions[0].cpu_ops = 2e6;  // ~2 ms compute per invocation
  spec.driver.duration = SimTime::FromSeconds(12);
  spec.seed = 3;
  return spec;
}

PlannerConfig BenchPlanner() {
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  planner.move_alpha = 0.5;
  planner.split_threshold = 0.2;
  planner.max_split = 4;
  return planner;
}

struct Cell {
  std::string label;
  WorkloadRunResult run;
};

Cell RunCell(const std::string& label, double zipf_s, PolicyKind policy,
             const PlannerConfig* planner) {
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(kDeadlineMs);
  slo.warmup = SimTime::FromSeconds(2);
  Cell cell;
  cell.label = label;
  cell.run = RunWorkload(SkewSpec(zipf_s), policy, kWorkers, slo,
                         DefaultWorkloadPlatformConfig(), nullptr, nullptr,
                         planner);
  return cell;
}

void AppendCellJson(double zipf_s, const Cell& cell, JsonWriter* json) {
  json->BeginObject();
  json->Key("zipf_s");
  json->Double(zipf_s);
  json->Key("policy");
  json->String(cell.label);
  json->Key("p99_ms");
  json->Double(cell.run.report.p99_ms);
  json->Key("goodput_rps");
  json->Double(cell.run.report.goodput_rps);
  json->Key("routing_imbalance");
  json->Double(cell.run.routing_imbalance);
  json->Key("planner_rounds");
  json->UInt(cell.run.counters.platform.planner_rounds);
  json->Key("planner_moves");
  json->UInt(cell.run.counters.planner_moves);
  json->Key("planner_splits");
  json->UInt(cell.run.counters.planner_splits);
  json->Key("planner_merges");
  json->UInt(cell.run.counters.planner_merges);
  json->Key("planner_moved_bytes");
  json->UInt(cell.run.counters.platform.planner_moved_bytes);
  json->Key("books_close");
  json->Bool(cell.run.books_close);
  json->Key("samples_digest");
  json->UInt(cell.run.samples_digest);
  json->EndObject();
}

// Sharded-engine determinism cell: with planning on, digests and planner
// counters must be identical for every shard count.
bool RunShardedCell(JsonWriter* json) {
  ShardedWorkloadConfig config;
  config.groups = 4;
  config.routers_per_group = 2;
  config.planner = BenchPlanner();
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(kDeadlineMs);
  slo.warmup = SimTime::FromSeconds(2);
  const WorkloadSpec spec = SkewSpec(1.3);

  json->Key("sharded_cells");
  json->BeginArray();
  bool ok = true;
  const auto runs = RunShardInvariantCell(
      "sharded planner cell", spec, PolicyKind::kLeastAssigned, kWorkers,
      config, slo, DefaultWorkloadPlatformConfig(), &ok);
  for (const WorkloadRunResult& run : runs) {
    if (run.counters.platform.planner_rounds == 0) {
      std::fprintf(stderr, "FAIL: sharded planner never ran\n");
      ok = false;
    }
    json->BeginObject();
    json->Key("shards");
    json->Int(run.profile.shards);
    json->Key("samples_digest");
    json->UInt(run.samples_digest);
    json->Key("engine_digest");
    json->UInt(run.engine_digest);
    json->Key("planner_rounds");
    json->UInt(run.counters.platform.planner_rounds);
    json->Key("planner_moves");
    json->UInt(run.counters.planner_moves);
    json->Key("planner_splits");
    json->UInt(run.counters.planner_splits);
    json->Key("books_close");
    json->Bool(run.books_close);
    json->EndObject();
  }
  json->EndArray();
  return ok;
}

void Run() {
  std::printf("== Extension: hot colors — planner + splitting vs sticky "
              "placement ==\n");
  std::printf("(open-loop Poisson %.0f rps, %d workers, 64 colors, Zipf "
              "s sweep;\n planner: 500 ms rounds, alpha=0.5, split "
              "threshold 0.2)\n\n",
              kOfferedRps, kWorkers);

  const PlannerConfig planner = BenchPlanner();

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("palette-bench-v1");
  json.Key("bench");
  json.String("ext_hot_colors");
  json.Key("workers");
  json.Int(kWorkers);
  json.Key("offered_rps");
  json.Double(kOfferedRps);
  json.Key("planner");
  json.BeginObject();
  json.Key("plan_every_ms");
  json.Double(planner.plan_every.millis());
  json.Key("move_alpha");
  json.Double(planner.move_alpha);
  json.Key("split_threshold");
  json.Double(planner.split_threshold);
  json.Key("max_split");
  json.Int(planner.max_split);
  json.EndObject();
  json.Key("cells");
  json.BeginArray();

  TablePrinter table;
  table.AddRow({"zipf_s", "policy", "p99_ms", "goodput_rps", "max/mean",
                "rounds", "moves", "splits", "books"});

  bool ok = true;
  for (const double s : {1.1, 1.3, 1.5}) {
    const Cell bucket =
        RunCell("bucket", s, PolicyKind::kBucketHashing, nullptr);
    const Cell sticky =
        RunCell("la_sticky", s, PolicyKind::kLeastAssigned, nullptr);
    const Cell planned =
        RunCell("la_planner", s, PolicyKind::kLeastAssigned, &planner);

    for (const Cell* cell : {&bucket, &sticky, &planned}) {
      const RunCounters& c = cell->run.counters;
      table.AddRow(
          {StrFormat("%.1f", s), cell->label,
           StrFormat("%.3f", cell->run.report.p99_ms),
           StrFormat("%.1f", cell->run.report.goodput_rps),
           StrFormat("%.3f", cell->run.routing_imbalance),
           StrFormat("%llu", (unsigned long long)c.platform.planner_rounds),
           StrFormat("%llu", (unsigned long long)c.planner_moves),
           StrFormat("%llu", (unsigned long long)c.planner_splits),
           cell->run.books_close ? "close" : "VIOLATED"});
      AppendCellJson(s, *cell, &json);
      if (!cell->run.books_close) {
        std::fprintf(stderr, "FAIL: books do not close (s=%.1f, %s)\n", s,
                     cell->label.c_str());
        ok = false;
      }
    }

    // The planner must actually plan, and above s=1.2 it must win both
    // the tail and the balance against either baseline.
    const RunCounters& plan = planned.run.counters;
    if (plan.platform.planner_rounds == 0 ||
        plan.planner_moves + plan.planner_splits == 0) {
      std::fprintf(stderr, "FAIL: planner idle at s=%.1f\n", s);
      ok = false;
    }
    if (s >= 1.2) {
      for (const Cell* baseline : {&bucket, &sticky}) {
        if (planned.run.report.p99_ms >= baseline->run.report.p99_ms) {
          std::fprintf(stderr,
                       "FAIL: s=%.1f planner p99 %.3f ms does not beat %s "
                       "%.3f ms\n",
                       s, planned.run.report.p99_ms,
                       baseline->label.c_str(),
                       baseline->run.report.p99_ms);
          ok = false;
        }
        if (planned.run.routing_imbalance >=
            baseline->run.routing_imbalance) {
          std::fprintf(stderr,
                       "FAIL: s=%.1f planner imbalance %.3f does not beat "
                       "%s %.3f\n",
                       s, planned.run.routing_imbalance,
                       baseline->label.c_str(),
                       baseline->run.routing_imbalance);
          ok = false;
        }
      }
    }

    // Seed reproducibility: an identical planner cell must be
    // bit-identical (same sample digest, same movement).
    if (s == 1.3) {
      const Cell again =
          RunCell("la_planner", s, PolicyKind::kLeastAssigned, &planner);
      if (again.run.samples_digest != planned.run.samples_digest ||
          again.run.counters.planner_moves != plan.planner_moves ||
          again.run.counters.platform.planner_moved_bytes !=
              plan.platform.planner_moved_bytes) {
        std::fprintf(stderr,
                     "FAIL: planner cell not reproducible per seed\n");
        ok = false;
      }
    }
  }
  json.EndArray();

  const bool sharded_ok = RunShardedCell(&json);
  ok = ok && sharded_ok;
  json.Key("ok");
  json.Bool(ok);
  json.EndObject();

  table.Print();
  std::printf(
      "\nSticky first-sight placement leaves the Zipf head stacked where "
      "it\nfirst landed; the planner re-homes warm colors off the hot "
      "worker and\nshards the viral head across a replica set, so both the "
      "tail and the\nmax/mean imbalance drop as skew grows.\n");
  if (!ok) {
    std::fprintf(stderr, "FAIL: ext_hot_colors invariants violated\n");
    std::exit(1);
  }
  std::printf("\nall invariants hold: planner beats both baselines at "
              "s>=1.2, books close,\ndigests stable per seed and across "
              "engine shard counts\n");
  if (!WriteTextFile("BENCH_plan.json", json.str())) {
    std::exit(1);
  }
  std::printf("wrote BENCH_plan.json\n");
}

}  // namespace
}  // namespace palette

int main() {
  palette::Run();
  return 0;
}
