// Extension experiment — pull-based dispatch: late binding + locality-
// aware work stealing vs push dispatch (docs/DISPATCH.md).
//
// Palette's router tier trades locality for scale: one sticky router
// keeps every color on its placed worker, while `spray` across replicas
// destroys the hint->binding and with it the local-hit ratio. Pull
// dispatch decouples the two — routing becomes a hint, invocations wait
// in per-color pending queues, and idle workers claim home colors first,
// stealing hot foreign queues only under a bounded budget priced at the
// remote-fetch penalty.
//
// This bench runs the open-loop harness head-to-head under MMPP-burst and
// diurnal arrivals, 8 workers:
//   * sticky1    — 1 router, color partition, push (locality ceiling),
//   * spray8     — 8 routers, spray, push       (locality floor),
//   * pull8      — 8 routers, spray, pull dispatch.
// A fault cell replays the pull8 MMPP cell under a crash/restart
// schedule.
//
// Asserted invariants (exit 1 on violation):
//   * pull recovers at least half the local-hit ratio spray loses at 8
//     routers: (pull - spray) >= 0.5 * (sticky - spray), per arrival;
//   * pull p99 under the MMPP burst is no worse than push p99 in the
//     same 8-router spray configuration;
//   * the accounting identity submitted = completed + dropped + abandoned
//     closes in every cell, including under faults;
//   * the pull cell is bit-identical when re-run with the same seed
//     (samples digest, pulls, steals, steal bytes);
//   * on the sharded engine, digests and pull counters are identical
//     across --shards 1 and 4 with pull dispatch on.
// Writes BENCH_pull.json.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/json_writer.h"
#include "src/common/table_printer.h"
#include "src/router/router_tier.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

constexpr int kWorkers = 8;
constexpr double kOfferedRps = 400;

WorkloadSpec BurstSpec(ArrivalKind arrival) {
  WorkloadSpec spec;
  spec.arrival.kind = arrival;
  spec.arrival.rate_per_sec = kOfferedRps;
  spec.mix.color_count = 64;
  spec.mix.zipf_theta = 0.9;
  spec.mix.objects_per_color = 4;
  spec.mix.inputs_per_invocation = 1;
  spec.mix.functions[0].cpu_ops = 2e6;  // ~2 ms compute per invocation
  spec.driver.duration = SimTime::FromSeconds(12);
  spec.seed = 11;
  return spec;
}

struct Cell {
  std::string label;
  WorkloadRunResult run;
};

Cell RunCell(const std::string& label, ArrivalKind arrival, int routers,
             DispatchMode dispatch, FaasDispatchMode mode,
             const FaultSchedule* faults) {
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(250);
  slo.warmup = SimTime::FromSeconds(2);
  RouterTierConfig tier_config;
  tier_config.routers = routers;
  tier_config.dispatch = dispatch;
  PlatformConfig platform_config = DefaultWorkloadPlatformConfig();
  platform_config.dispatch_mode = mode;
  Cell cell;
  cell.label = label;
  cell.run = RunRouterWorkload(BurstSpec(arrival), PolicyKind::kLeastAssigned,
                               kWorkers, tier_config, slo, platform_config,
                               faults);
  return cell;
}

void AppendCellJson(std::string_view arrival, const Cell& cell,
                    JsonWriter* json) {
  json->BeginObject();
  json->Key("arrival");
  json->String(std::string(arrival));
  json->Key("cell");
  json->String(cell.label);
  json->Key("local_hit_ratio");
  json->Double(cell.run.report.local_hit_ratio);
  json->Key("p99_ms");
  json->Double(cell.run.report.p99_ms);
  json->Key("goodput_rps");
  json->Double(cell.run.report.goodput_rps);
  json->Key("pulls");
  json->UInt(cell.run.counters.platform.pulls);
  json->Key("steals");
  json->UInt(cell.run.counters.platform.steals);
  json->Key("steal_bytes");
  json->UInt(cell.run.counters.platform.steal_bytes);
  json->Key("books_close");
  json->Bool(cell.run.books_close);
  json->Key("samples_digest");
  json->UInt(cell.run.samples_digest);
  json->EndObject();
}

// Sharded-engine determinism cell: with pull dispatch on, digests and the
// pull counters must be identical for every shard count.
bool RunShardedCell(JsonWriter* json) {
  ShardedWorkloadConfig config;
  config.groups = 4;
  config.routers_per_group = 2;
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(250);
  slo.warmup = SimTime::FromSeconds(2);
  PlatformConfig platform_config = DefaultWorkloadPlatformConfig();
  platform_config.dispatch_mode = FaasDispatchMode::kPull;
  const WorkloadSpec spec = BurstSpec(ArrivalKind::kMmpp);

  json->Key("sharded_cells");
  json->BeginArray();
  bool ok = true;
  const auto runs =
      RunShardInvariantCell("sharded pull cell", spec,
                            PolicyKind::kLeastAssigned, kWorkers, config,
                            slo, platform_config, &ok);
  for (const WorkloadRunResult& run : runs) {
    if (run.counters.platform.pulls == 0) {
      std::fprintf(stderr, "FAIL: sharded pull dispatch never pulled\n");
      ok = false;
    }
    json->BeginObject();
    json->Key("shards");
    json->Int(run.profile.shards);
    json->Key("samples_digest");
    json->UInt(run.samples_digest);
    json->Key("engine_digest");
    json->UInt(run.engine_digest);
    json->Key("pulls");
    json->UInt(run.counters.platform.pulls);
    json->Key("steals");
    json->UInt(run.counters.platform.steals);
    json->Key("steal_bytes");
    json->UInt(run.counters.platform.steal_bytes);
    json->Key("books_close");
    json->Bool(run.books_close);
    json->EndObject();
  }
  json->EndArray();
  return ok;
}

void Run() {
  std::printf("== Extension: pull dispatch — late binding + bounded "
              "stealing vs push ==\n");
  std::printf("(open-loop %.0f rps, %d workers, 64 colors; sticky ceiling "
              "vs 8-router spray\n floor vs pull late binding)\n\n",
              kOfferedRps, kWorkers);

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("palette-bench-v1");
  json.Key("bench");
  json.String("ext_pull_dispatch");
  json.Key("workers");
  json.Int(kWorkers);
  json.Key("offered_rps");
  json.Double(kOfferedRps);
  json.Key("cells");
  json.BeginArray();

  TablePrinter table;
  table.AddRow({"arrival", "cell", "hit_ratio", "p99_ms", "goodput_rps",
                "pulls", "steals", "books"});

  bool ok = true;
  for (const ArrivalKind arrival :
       {ArrivalKind::kMmpp, ArrivalKind::kDiurnal}) {
    const std::string_view arrival_id = ArrivalKindId(arrival);
    const Cell sticky =
        RunCell("sticky1", arrival, 1, DispatchMode::kColorPartition,
                FaasDispatchMode::kPush, nullptr);
    const Cell spray =
        RunCell("spray8", arrival, 8, DispatchMode::kSpray,
                FaasDispatchMode::kPush, nullptr);
    const Cell pull =
        RunCell("pull8", arrival, 8, DispatchMode::kSpray,
                FaasDispatchMode::kPull, nullptr);

    for (const Cell* cell : {&sticky, &spray, &pull}) {
      table.AddRow(
          {std::string(arrival_id), cell->label,
           StrFormat("%.4f", cell->run.report.local_hit_ratio),
           StrFormat("%.3f", cell->run.report.p99_ms),
           StrFormat("%.1f", cell->run.report.goodput_rps),
           StrFormat("%llu",
                     (unsigned long long)cell->run.counters.platform.pulls),
           StrFormat("%llu",
                     (unsigned long long)cell->run.counters.platform.steals),
           cell->run.books_close ? "close" : "VIOLATED"});
      AppendCellJson(arrival_id, *cell, &json);
      if (!cell->run.books_close) {
        std::fprintf(stderr, "FAIL: books do not close (%s, %s)\n",
                     std::string(arrival_id).c_str(), cell->label.c_str());
        ok = false;
      }
    }

    // The headline claim: pull recovers at least half of the locality
    // spray loses at 8 routers.
    const double gap = sticky.run.report.local_hit_ratio -
                       spray.run.report.local_hit_ratio;
    if (gap <= 0) {
      std::fprintf(stderr,
                   "FAIL: %s spray lost no locality (gap %.4f) — the "
                   "experiment is vacuous\n",
                   std::string(arrival_id).c_str(), gap);
      ok = false;
    }
    const double recovered = pull.run.report.local_hit_ratio -
                             spray.run.report.local_hit_ratio;
    if (recovered < 0.5 * gap) {
      std::fprintf(stderr,
                   "FAIL: %s %s recovered %.4f of a %.4f locality gap "
                   "(< half)\n",
                   std::string(arrival_id).c_str(), pull.label.c_str(),
                   recovered, gap);
      ok = false;
    }
    if (pull.run.counters.platform.pulls == 0) {
      std::fprintf(stderr, "FAIL: %s %s never pulled\n",
                   std::string(arrival_id).c_str(), pull.label.c_str());
      ok = false;
    }
    // Under the MMPP burst, late binding must not cost the tail: pull p99
    // no worse than push p99 at the same router scale.
    if (arrival == ArrivalKind::kMmpp &&
        pull.run.report.p99_ms > spray.run.report.p99_ms) {
      std::fprintf(stderr,
                   "FAIL: mmpp pull p99 %.3f ms worse than push %.3f ms\n",
                   pull.run.report.p99_ms, spray.run.report.p99_ms);
      ok = false;
    }

    // Seed reproducibility for the pull cell: same seed, same bits.
    if (arrival == ArrivalKind::kMmpp) {
      const Cell again =
          RunCell("pull8", arrival, 8, DispatchMode::kSpray,
                  FaasDispatchMode::kPull, nullptr);
      const PlatformCounters& a = again.run.counters.platform;
      const PlatformCounters& b = pull.run.counters.platform;
      if (again.run.samples_digest != pull.run.samples_digest ||
          a.pulls != b.pulls || a.steals != b.steals ||
          a.steal_bytes != b.steal_bytes) {
        std::fprintf(stderr, "FAIL: pull cell not reproducible per seed\n");
        ok = false;
      }
    }
  }

  // Fault cell: crash one worker mid-burst, restart it, crash a router
  // replica — claimed-but-unstarted work must fail back to its color
  // queue and the books must still close.
  {
    FaultSchedule faults;
    faults.Add(FaultEvent{SimTime::FromSeconds(4), FaultKind::kCrash, "w1"});
    faults.Add(
        FaultEvent{SimTime::FromSeconds(6), FaultKind::kRestart, "w1"});
    faults.Add(FaultEvent{SimTime::FromSeconds(8), FaultKind::kRouterCrash,
                          "r2"});
    const Cell faulted =
        RunCell("pull8_faults", ArrivalKind::kMmpp, 8, DispatchMode::kSpray,
                FaasDispatchMode::kPull, &faults);
    table.AddRow(
        {"mmpp", faulted.label,
         StrFormat("%.4f", faulted.run.report.local_hit_ratio),
         StrFormat("%.3f", faulted.run.report.p99_ms),
         StrFormat("%.1f", faulted.run.report.goodput_rps),
         StrFormat("%llu",
                   (unsigned long long)faulted.run.counters.platform.pulls),
         StrFormat("%llu",
                   (unsigned long long)faulted.run.counters.platform.steals),
         faulted.run.books_close ? "close" : "VIOLATED"});
    AppendCellJson("mmpp+faults", faulted, &json);
    if (!faulted.run.books_close) {
      std::fprintf(stderr, "FAIL: books do not close under faults\n");
      ok = false;
    }
    if (faulted.run.report.completed == 0) {
      std::fprintf(stderr, "FAIL: fault cell completed nothing\n");
      ok = false;
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
      "\nSpraying 8 routers breaks the color->worker binding and with it "
      "the\nlocal-hit ratio; pull dispatch re-derives the binding at the "
      "workers —\nhome colors first, hot foreign queues under a bounded, "
      "priced steal\nbudget — so locality comes back without giving up the "
      "late-binding\nbalance win on the burst tail.\n");
  if (!ok) {
    std::fprintf(stderr, "FAIL: ext_pull_dispatch invariants violated\n");
    std::exit(1);
  }
  std::printf("\nall invariants hold: pull recovers >= half the "
              "sprayed-away\nlocality, the burst tail is no worse than "
              "push, books close in every\ncell, digests stable per seed "
              "and across engine shard counts\n");
  if (!WriteTextFile("BENCH_pull.json", json.str())) {
    std::exit(1);
  }
  std::printf("wrote BENCH_pull.json\n");
}

}  // namespace
}  // namespace palette

int main() {
  palette::Run();
  return 0;
}
