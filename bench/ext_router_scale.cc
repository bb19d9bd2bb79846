// Extension experiment — scaling out the routing tier (docs/ROUTING.md).
//
// The paper's prototype fronts the cluster with a single Palette load
// balancer. This bench asks what happens when the routing tier itself
// scales out to N replicas, the control-plane question every production
// frontend faces. Three sweeps, one seed, bit-identical output:
//
//   * scale — router count {1,2,4,8} x dispatch {color,spray} x policy
//     {ch,la}, no faults. Color-partition dispatch keeps every color on
//     one replica, so the stateful least-assigned policy holds its
//     single-router locality at any replica count. Spray splits each
//     color's stream across replicas: least-assigned fragments its
//     placements and the hit ratio decays with router count, while
//     stateless consistent hashing is spray-tolerant (all replicas
//     compute the same map from the shared policy seed).
//   * staleness — view sync lag {0, 5ms, 50ms} under seeded worker
//     crash/restart churn with retries on. Lagging views route to dead
//     instances; the tier counts misroutes, syncs the offending view,
//     and forwards each misrouted attempt exactly once. Misroutes and
//     stale routes grow with the lag; the books still close.
//   * router_faults — a replica crashes mid-run and restarts later
//     (resyncing its view from the membership log); the survivors absorb
//     its partition and goodput holds.
//
// The headline asserts (exit 1 on violation): at 4 routers the
// color-partitioned least-assigned cell stays within a few percent of the
// single-router hit ratio, spray costs measurably more locality, and
// submitted = completed + dropped + abandoned in every cell.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/common/json_writer.h"
#include "src/common/table_printer.h"
#include "src/core/policy_factory.h"
#include "src/router/router_tier.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

constexpr int kWorkers = 8;
constexpr double kOfferedRps = 600;
constexpr double kDeadlineMs = 100;
// Headline margins (relative to the single-router baseline).
constexpr double kColorHitRatioMargin = 0.05;   // color@4 within 5%
constexpr double kSprayMinHitRatioLoss = 0.10;  // spray@4 loses >= 10%

WorkloadSpec SweepSpec() {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kPoisson;
  spec.arrival.rate_per_sec = kOfferedRps;
  spec.mix.color_count = 256;
  spec.mix.zipf_theta = 0.9;
  spec.mix.objects_per_color = 2;
  spec.mix.inputs_per_invocation = 1;
  spec.mix.functions[0].cpu_ops = 2e6;  // ~2 ms compute per invocation
  spec.driver.duration = SimTime::FromSeconds(10);
  spec.seed = 1;
  return spec;
}

PlatformConfig BasePlatformConfig() {
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  // Small caches make locality the bottleneck: splitting a color across
  // instances shows up directly in the hit ratio.
  config.cache.per_instance_capacity = 32 * kMiB;
  return config;
}

struct CellResult {
  std::string label;
  WorkloadRunResult run;
  bool books_close = false;
};

void AppendCellJson(const CellResult& cell, JsonWriter* json) {
  json->Key("submitted");
  json->UInt(cell.run.counters.platform.submitted);
  json->Key("completed");
  json->UInt(cell.run.counters.platform.completed);
  json->Key("dropped");
  json->UInt(cell.run.counters.platform.dropped);
  json->Key("abandoned");
  json->UInt(cell.run.counters.platform.abandoned);
  json->Key("retries");
  json->UInt(cell.run.counters.platform.retries);
  json->Key("recolored");
  json->UInt(cell.run.counters.recolored);
  json->Key("router_routes");
  json->UInt(cell.run.counters.router_routes);
  json->Key("router_stale_routes");
  json->UInt(cell.run.counters.router_stale_routes);
  json->Key("router_misroutes");
  json->UInt(cell.run.counters.router_misroutes);
  json->Key("router_forwards");
  json->UInt(cell.run.counters.router_forwards);
  json->Key("router_recolored");
  json->UInt(cell.run.counters.router_recolored);
  json->Key("books_close");
  json->Bool(cell.books_close);
  json->Key("samples_digest");
  json->UInt(cell.run.samples_digest);
  json->Key("report");
  AppendSloReportJson(cell.run.report, json);
}

void Run() {
  std::printf("== Extension: scale-out routing tier ==\n");
  std::printf(
      "(open-loop Poisson %.0f rps, %d workers, N PaletteLoadBalancer "
      "replicas;\n color-partition vs spray dispatch, eventually-consistent "
      "views)\n\n",
      kOfferedRps, kWorkers);

  const WorkloadSpec spec = SweepSpec();
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(kDeadlineMs);
  slo.warmup = SimTime::FromSeconds(2);
  const PlatformConfig base_config = BasePlatformConfig();

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("palette-bench-v1");
  json.Key("bench");
  json.String("ext_router_scale");
  json.Key("workers");
  json.Int(kWorkers);
  json.Key("deadline_ms");
  json.Double(kDeadlineMs);
  json.Key("spec");
  AppendWorkloadSpecJson(spec, &json);

  bool books_ok = true;

  // -- Part A: router count x dispatch x policy, no faults ---------------
  std::printf("-- scale: router count x dispatch x policy --\n");
  TablePrinter scale_table;
  scale_table.AddRow({"policy", "dispatch", "routers", "hit_ratio", "p99_ms",
                      "goodput_rps", "routes", "books"});
  json.Key("scale");
  json.BeginArray();

  const std::vector<PolicyKind> policies = {PolicyKind::kConsistentHashing,
                                            PolicyKind::kLeastAssigned};
  const std::vector<int> router_counts = {1, 2, 4, 8};
  // (policy, dispatch, routers) -> hit ratio, for the headline checks.
  std::map<std::string, double> hit_ratio;
  for (const PolicyKind policy : policies) {
    for (const DispatchMode dispatch :
         {DispatchMode::kColorPartition, DispatchMode::kSpray}) {
      for (const int routers : router_counts) {
        RouterTierConfig tier_config;
        tier_config.routers = routers;
        tier_config.dispatch = dispatch;
        const WorkloadRunResult run = RunRouterWorkload(
            spec, policy, kWorkers, tier_config, slo, base_config, nullptr);
        const bool closes = run.counters.platform.BooksClose();
        books_ok = books_ok && closes;
        const std::string key =
            StrFormat("%s/%s/%d", std::string(PolicyKindId(policy)).c_str(),
                      std::string(DispatchModeId(dispatch)).c_str(), routers);
        hit_ratio[key] = run.report.local_hit_ratio;

        scale_table.AddRow(
            {std::string(PolicyKindId(policy)),
             std::string(DispatchModeId(dispatch)), StrFormat("%d", routers),
             StrFormat("%.4f", run.report.local_hit_ratio),
             StrFormat("%.3f", run.report.p99_ms),
             StrFormat("%.1f", run.report.goodput_rps),
             StrFormat("%llu",
                       (unsigned long long)run.counters.router_routes),
             closes ? "ok" : "VIOLATED"});

        json.BeginObject();
        json.Key("policy");
        json.String(PolicyKindId(policy));
        json.Key("dispatch");
        json.String(DispatchModeId(dispatch));
        json.Key("routers");
        json.Int(routers);
        CellResult cell{key, run, closes};
        AppendCellJson(cell, &json);
        json.EndObject();
      }
    }
  }
  json.EndArray();
  scale_table.Print();

  // -- Part B: view staleness under worker churn -------------------------
  std::printf("\n-- staleness: view sync lag under worker churn "
              "(la, color, 4 routers, retries on) --\n");
  TablePrinter stale_table;
  stale_table.AddRow({"sync_lag_ms", "stale_routes", "misroutes", "forwards",
                      "retries", "goodput_rps", "p99_ms", "books"});
  json.Key("staleness");
  json.BeginArray();

  PlatformConfig retry_config = base_config;
  retry_config.default_deadline = SimTime::FromSeconds(1);
  retry_config.retry.max_attempts = 4;
  retry_config.retry.initial_backoff = SimTime::FromMillis(5);
  retry_config.retry.multiplier = 2.0;
  retry_config.retry.jitter = 0.2;

  MtbfConfig mtbf;
  mtbf.mtbf = SimTime::FromSeconds(2);
  mtbf.mttr = SimTime::FromMillis(1500);
  mtbf.start = SimTime::FromSeconds(3);
  mtbf.end = SimTime::FromSeconds(8);
  mtbf.crash = true;
  std::vector<std::string> workers;
  for (int i = 0; i < kWorkers; ++i) {
    workers.push_back(StrFormat("w%d", i));
  }
  const FaultSchedule churn =
      FaultSchedule::FromMtbf(mtbf, workers, spec.seed ^ 0xFA117ULL);

  std::vector<std::uint64_t> misroutes_by_lag;
  for (const double lag_ms : {0.0, 5.0, 50.0}) {
    RouterTierConfig tier_config;
    tier_config.routers = 4;
    tier_config.dispatch = DispatchMode::kColorPartition;
    tier_config.sync_lag = SimTime::FromMillis(lag_ms);
    const WorkloadRunResult run =
        RunRouterWorkload(spec, PolicyKind::kLeastAssigned, kWorkers,
                          tier_config, slo, retry_config, &churn);
    const bool closes = run.counters.platform.BooksClose();
    books_ok = books_ok && closes;
    const RunCounters& c = run.counters;
    misroutes_by_lag.push_back(c.router_misroutes);

    stale_table.AddRow(
        {StrFormat("%.0f", lag_ms),
         StrFormat("%llu", (unsigned long long)c.router_stale_routes),
         StrFormat("%llu", (unsigned long long)c.router_misroutes),
         StrFormat("%llu", (unsigned long long)c.router_forwards),
         StrFormat("%llu", (unsigned long long)c.platform.retries),
         StrFormat("%.1f", run.report.goodput_rps),
         StrFormat("%.3f", run.report.p99_ms), closes ? "ok" : "VIOLATED"});

    json.BeginObject();
    json.Key("sync_lag_ms");
    json.Double(lag_ms);
    CellResult cell{StrFormat("lag%.0f", lag_ms), run, closes};
    AppendCellJson(cell, &json);
    json.EndObject();
  }
  json.EndArray();
  stale_table.Print();

  // -- Part C: a router replica crashes and restarts ---------------------
  std::printf("\n-- router_faults: replica crash at 3s, restart at 6s "
              "(la, color, 4 routers) --\n");
  json.Key("router_faults");
  json.BeginArray();
  TablePrinter fault_table;
  fault_table.AddRow({"scenario", "hit_ratio", "p99_ms", "goodput_rps",
                      "routes", "books"});
  FaultSchedule router_faults;
  router_faults.Add(
      {SimTime::FromSeconds(3), FaultKind::kRouterCrash, "r1"});
  router_faults.Add(
      {SimTime::FromSeconds(6), FaultKind::kRouterRestart, "r1"});
  const std::vector<const FaultSchedule*> fault_scenarios = {nullptr,
                                                             &router_faults};
  for (const FaultSchedule* faults : fault_scenarios) {
    RouterTierConfig tier_config;
    tier_config.routers = 4;
    tier_config.dispatch = DispatchMode::kColorPartition;
    const WorkloadRunResult run =
        RunRouterWorkload(spec, PolicyKind::kLeastAssigned, kWorkers,
                          tier_config, slo, base_config, faults);
    const bool closes = run.counters.platform.BooksClose();
    books_ok = books_ok && closes;
    const char* scenario = faults == nullptr ? "steady" : "crash+restart";
    fault_table.AddRow({scenario,
                        StrFormat("%.4f", run.report.local_hit_ratio),
                        StrFormat("%.3f", run.report.p99_ms),
                        StrFormat("%.1f", run.report.goodput_rps),
                        StrFormat("%llu", static_cast<unsigned long long>(
                                              run.counters.router_routes)),
                        closes ? "ok" : "VIOLATED"});
    json.BeginObject();
    json.Key("scenario");
    json.String(scenario);
    CellResult cell{scenario, run, closes};
    AppendCellJson(cell, &json);
    json.EndObject();
  }
  json.EndArray();
  fault_table.Print();

  // -- Headline ----------------------------------------------------------
  const double la1 = hit_ratio.at("la/color/1");
  const double la_color4 = hit_ratio.at("la/color/4");
  const double la_color8 = hit_ratio.at("la/color/8");
  const double la_spray4 = hit_ratio.at("la/spray/4");
  const double color4_delta = std::fabs(la_color4 - la1) / la1;
  const double color8_delta = std::fabs(la_color8 - la1) / la1;
  const double spray4_loss = (la1 - la_spray4) / la1;

  json.Key("headline");
  json.BeginObject();
  json.Key("la_hit_ratio_1router");
  json.Double(la1);
  json.Key("la_color_4router_delta");
  json.Double(color4_delta);
  json.Key("la_color_8router_delta");
  json.Double(color8_delta);
  json.Key("la_spray_4router_loss");
  json.Double(spray4_loss);
  json.EndObject();
  json.Key("books_close");
  json.Bool(books_ok);
  json.EndObject();

  std::printf(
      "\nheadline: la hit ratio — 1 router %.4f; color@4 delta %.2f%%, "
      "color@8 delta %.2f%%;\nspray@4 loses %.2f%% (stateful placements "
      "fragment across replicas)\n",
      la1, 100 * color4_delta, 100 * color8_delta, 100 * spray4_loss);

  bool ok = true;
  if (!books_ok) {
    std::fprintf(stderr,
                 "FAIL: accounting identity violated — submitted != "
                 "completed + dropped + abandoned\n");
    ok = false;
  }
  if (color4_delta > kColorHitRatioMargin) {
    std::fprintf(stderr,
                 "FAIL: color-partitioned 4-router hit ratio drifted %.2f%% "
                 "from the single-router baseline (margin %.0f%%)\n",
                 100 * color4_delta, 100 * kColorHitRatioMargin);
    ok = false;
  }
  if (spray4_loss < kSprayMinHitRatioLoss) {
    std::fprintf(stderr,
                 "FAIL: spray at 4 routers lost only %.2f%% hit ratio — "
                 "expected >= %.0f%% (did replicas stop diverging?)\n",
                 100 * spray4_loss, 100 * kSprayMinHitRatioLoss);
    ok = false;
  }
  if (misroutes_by_lag.back() < misroutes_by_lag.front()) {
    std::fprintf(stderr, "FAIL: misroutes did not grow with view lag\n");
    ok = false;
  }
  if (!ok) {
    std::exit(1);
  }
  std::printf("books close in every cell; color partitioning preserves "
              "single-router locality at scale\n");

  if (!WriteTextFile("BENCH_router.json", json.str())) {
    return;
  }
  std::printf("\nwrote BENCH_router.json\n");
}

}  // namespace
}  // namespace palette

int main() {
  palette::Run();
  return 0;
}
