// Extension experiment — goodput and tail latency under instance churn
// (docs/FAULTS.md).
//
// The paper argues colors are safe to rely on precisely because they are
// best-effort hints: an instance can die and the system keeps working.
// This bench quantifies "keeps working". A deterministic fault schedule
// (seeded MTBF crash/restart process) is replayed identically against every
// routing policy, with the platform's retry layer off and on, and each cell
// reports goodput, p99, and the failure books.
//
// Two effects separate the cells:
//   * retries off: every invocation queued on (or running on) a crashed
//     worker is dropped — goodput falls by roughly the queue depth per
//     crash, and the books record the loss as faas.invocations_dropped;
//   * retries on: lost attempts re-enter the load balancer, where
//     failure-aware re-coloring has already re-homed the dead instance's
//     colors, so the retry lands on a live replacement (lb.recolored
//     counts the moved mappings). Goodput recovers to the offered rate and
//     the cost shows up as p99 instead (backoff + re-execution).
//
// The accounting identity `submitted = completed + dropped + abandoned`
// must close in every cell once the simulator drains; the bench exits
// non-zero if it does not, and CI asserts the retries-on cells drop and
// abandon nothing.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/json_writer.h"
#include "src/common/table_printer.h"
#include "src/core/policy_factory.h"
#include "src/obs/alerts.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

constexpr int kWorkers = 8;
constexpr double kDeadlineMs = 100;
constexpr double kOfferedRps = 1000;

WorkloadSpec SweepSpec() {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kPoisson;
  spec.arrival.rate_per_sec = kOfferedRps;
  spec.mix.color_count = 256;
  spec.mix.zipf_theta = 0.7;
  spec.mix.objects_per_color = 2;
  spec.mix.inputs_per_invocation = 1;
  spec.mix.functions[0].cpu_ops = 2e6;  // ~2 ms compute per invocation
  spec.driver.duration = SimTime::FromSeconds(15);
  spec.seed = 1;
  return spec;
}

// Churn hits the middle of the run: crashes (hard failures — the running
// attempt dies too) with restarts, so membership dips and recovers
// repeatedly while load keeps arriving.
FaultSchedule SweepFaults(const WorkloadSpec& spec) {
  MtbfConfig mtbf;
  mtbf.mtbf = SimTime::FromSeconds(2);
  mtbf.mttr = SimTime::FromMillis(1500);
  mtbf.start = SimTime::FromSeconds(3);
  mtbf.end = SimTime::FromSeconds(12);
  mtbf.crash = true;
  std::vector<std::string> workers;
  for (int i = 0; i < kWorkers; ++i) {
    workers.push_back(StrFormat("w%d", i));
  }
  return FaultSchedule::FromMtbf(mtbf, workers, spec.seed ^ 0xFA117ULL);
}

// Alert cell (docs/OBSERVABILITY.md): one group-scoped crash/restart
// replayed on the sharded engine with the telemetry sampler on, watched
// through the alert engine. The crash must FIRE the recolor alert (the
// dead worker's colors re-home, lb.recolored.rate goes nonzero) and the
// accompanying p99 spike alert; the restart must let both CLEAR before
// the run ends; and the alert log must be bit-identical across engine
// shard counts — it is pure arithmetic over the merged series, and the
// merged series are digest-stable. Appends an "alert_cell" object to the
// open JSON writer; returns false (and the bench exits non-zero) if any
// of those invariants break.
bool RunAlertCell(JsonWriter* json) {
  WorkloadSpec spec = SweepSpec();
  spec.driver.duration = SimTime::FromSeconds(10);

  SloConfig slo;
  slo.deadline = SimTime::FromMillis(kDeadlineMs);
  slo.warmup = SimTime::FromSeconds(2);

  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.cache.per_instance_capacity = 32 * kMiB;
  config.default_deadline = SimTime::FromSeconds(1);
  config.retry.max_attempts = 4;
  config.retry.initial_backoff = SimTime::FromMillis(5);
  config.retry.multiplier = 2.0;
  config.retry.jitter = 0.2;

  // Two groups of four workers: the merged cluster p99 is the count-
  // weighted mean of the per-group quantiles, so a small group count
  // keeps a one-group episode visible after the fold.
  ShardedWorkloadConfig sharded;
  sharded.groups = 2;
  sharded.routers_per_group = 0;
  sharded.obs.sample_every = SimTime::FromMillis(250);
  std::vector<std::string> errors;
  sharded.obs.alert_rules = ParseAlertRules(
      "recolor=lb.recolored.rate>0:1:4;"
      "p99_spike=faas.latency.end_to_end_ns.p99>25ms:2:4",
      &errors);
  if (!errors.empty() || sharded.obs.alert_rules.size() != 2) {
    std::fprintf(stderr, "FAIL: alert-cell rules did not parse\n");
    return false;
  }

  // Crash three of group 1's four workers mid-run, restart them 2 s
  // later: the group's colors re-home onto the survivor (recolor FIRE)
  // and the survivor saturates — half the cluster's traffic on one
  // worker — until the restarts land and the queue drains (CLEAR).
  std::vector<ShardedFault> faults;
  for (int w = 0; w < 3; ++w) {
    faults.push_back({1,
                      {SimTime::FromSeconds(4), FaultKind::kCrash,
                       StrFormat("g1w%d", w)}});
    faults.push_back({1,
                      {SimTime::FromSeconds(6), FaultKind::kRestart,
                       StrFormat("g1w%d", w)}});
  }

  json->Key("alert_cell");
  json->BeginObject();
  json->Key("rules");
  json->BeginArray();
  for (const AlertRule& rule : sharded.obs.alert_rules) {
    json->String(rule.name);
  }
  json->EndArray();
  json->Key("runs");
  json->BeginArray();

  bool ok = true;
  bool log_identical = true;
  std::string first_log;
  for (const int shards : {1, 4}) {
    sharded.shards = shards;
    // Bucket hashing re-colors on membership change in both directions:
    // the crash re-homes the dead workers' colors onto the survivor, and
    // the restart spreads them back — so the latency episode actually
    // ends (failure-aware-only policies leave the colors piled on the
    // survivor and the saturation never recovers).
    const WorkloadRunResult run =
        RunShardedWorkload(spec, PolicyKind::kBucketHashing, kWorkers,
                           sharded, slo, config, &faults);
    if (run.telemetry.alerts == nullptr) {
      std::fprintf(stderr, "FAIL: alert cell ran without telemetry\n");
      return false;
    }
    const AlertEngine& alerts = *run.telemetry.alerts;
    const std::string log = alerts.ToLogLines();
    if (shards == 1) {
      first_log = log;
      std::printf("alert log (crash at 4s, restart at 6s):\n%s", log.c_str());
    } else if (log != first_log) {
      std::fprintf(stderr,
                   "FAIL: alert log differs between --shards 1 and %d\n",
                   shards);
      log_identical = false;
      ok = false;
    }
    // Every rule must fire on the crash and clear after the restart.
    const std::uint64_t rules = sharded.obs.alert_rules.size();
    if (alerts.fired_count() < rules ||
        alerts.cleared_count() != alerts.fired_count() ||
        !alerts.ActiveAlerts().empty()) {
      std::fprintf(stderr,
                   "FAIL: shards=%d: expected every alert to fire and "
                   "clear (fired=%llu cleared=%llu active=%zu)\n",
                   shards, (unsigned long long)alerts.fired_count(),
                   (unsigned long long)alerts.cleared_count(),
                   alerts.ActiveAlerts().size());
      ok = false;
    }
    json->BeginObject();
    json->Key("shards");
    json->Int(shards);
    json->Key("samples_digest");
    json->UInt(run.samples_digest);
    json->Key("engine_digest");
    json->UInt(run.engine_digest);
    json->Key("books_close");
    json->Bool(run.books_close);
    alerts.AppendJson(json);
    json->EndObject();
    ok = ok && run.books_close;
  }
  json->EndArray();
  json->Key("log_identical_across_shards");
  json->Bool(log_identical);
  json->Key("ok");
  json->Bool(ok);
  json->EndObject();
  if (ok) {
    std::printf(
        "alert cell: recolor + p99 alerts fired on the crash and cleared "
        "after the restart;\nlog bit-identical across --shards 1 and 4\n");
  }
  return ok;
}

// Planner-under-churn cell (docs/PLANNER.md): Least Assigned with the
// global re-balancer ticking every 500 ms while the same MTBF schedule
// crashes and restarts workers. Two movement mechanisms now coexist —
// reactive failure re-coloring (lb.recolored) and proactive planner moves
// (lb.planner_moves) — and the split metrics must show both at work
// without double counting, with the books still closing across
// plan-applied migrations that race crashes.
bool RunPlannerChurnCell(const WorkloadSpec& spec, const FaultSchedule& faults,
                         const SloConfig& slo, const PlatformConfig& config,
                         JsonWriter* json) {
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  planner.seed = spec.seed;
  const WorkloadRunResult run = RunWorkload(
      spec, PolicyKind::kLeastAssigned, kWorkers, slo, config, &faults,
      nullptr, &planner);
  const RunCounters& c = run.counters;
  const bool closes = run.books_close;
  bool ok = closes;
  if (!closes) {
    std::fprintf(stderr, "FAIL: planner churn cell books do not close\n");
  }
  if (c.platform.planner_rounds == 0 || c.planner_moves == 0) {
    std::fprintf(stderr,
                 "FAIL: planner churn cell: planner idle (rounds=%llu "
                 "moves=%llu)\n",
                 (unsigned long long)c.platform.planner_rounds,
                 (unsigned long long)c.planner_moves);
    ok = false;
  }
  if (c.recolored == 0) {
    std::fprintf(stderr,
                 "FAIL: planner churn cell: crashes caused no failure "
                 "re-coloring\n");
    ok = false;
  }
  std::printf(
      "planner churn cell: goodput %.1f rps, p99 %.3f ms; failure "
      "recolored %llu vs\nplanner moves %llu + splits %llu over %llu "
      "rounds — both mechanisms active,\ncounted separately, books %s\n",
      run.report.goodput_rps, run.report.p99_ms,
      (unsigned long long)c.recolored,
      (unsigned long long)c.planner_moves,
      (unsigned long long)c.planner_splits,
      (unsigned long long)c.platform.planner_rounds,
      closes ? "close" : "VIOLATED");
  json->Key("planner_churn_cell");
  json->BeginObject();
  json->Key("policy");
  json->String(PolicyKindId(PolicyKind::kLeastAssigned));
  json->Key("plan_every_ms");
  json->Double(planner.plan_every.millis());
  json->Key("goodput_rps");
  json->Double(run.report.goodput_rps);
  json->Key("p99_ms");
  json->Double(run.report.p99_ms);
  json->Key("recolored");
  json->UInt(c.recolored);
  json->Key("planner_rounds");
  json->UInt(c.platform.planner_rounds);
  json->Key("planner_moves");
  json->UInt(c.planner_moves);
  json->Key("planner_splits");
  json->UInt(c.planner_splits);
  json->Key("planner_merges");
  json->UInt(c.planner_merges);
  json->Key("planner_moved_bytes");
  json->UInt(c.platform.planner_moved_bytes);
  json->Key("books_close");
  json->Bool(closes);
  json->Key("samples_digest");
  json->UInt(run.samples_digest);
  json->Key("ok");
  json->Bool(ok);
  json->EndObject();
  return ok;
}

void Run() {
  std::printf("== Extension: goodput + p99 under instance churn ==\n");
  std::printf(
      "(open-loop Poisson %.0f rps, %d workers, seeded MTBF crash/restart "
      "schedule,\n retries off vs on, identical churn for every policy)\n\n",
      kOfferedRps, kWorkers);

  const std::vector<PolicyKind> policies = {
      PolicyKind::kObliviousRandom, PolicyKind::kConsistentHashing,
      PolicyKind::kBucketHashing, PolicyKind::kLeastAssigned};

  SloConfig slo;
  slo.deadline = SimTime::FromMillis(kDeadlineMs);
  slo.warmup = SimTime::FromSeconds(2);

  const WorkloadSpec spec = SweepSpec();
  const FaultSchedule faults = SweepFaults(spec);

  PlatformConfig base_config = DefaultWorkloadPlatformConfig();
  base_config.cache.per_instance_capacity = 32 * kMiB;
  // A generous per-attempt deadline: it only fires when churn strands an
  // attempt, so timeouts stay a churn signal rather than a latency tax.
  base_config.default_deadline = SimTime::FromSeconds(1);

  PlatformConfig retry_config = base_config;
  retry_config.retry.max_attempts = 4;
  retry_config.retry.initial_backoff = SimTime::FromMillis(5);
  retry_config.retry.multiplier = 2.0;
  retry_config.retry.jitter = 0.2;

  TablePrinter table;
  table.AddRow({"policy", "retries", "goodput_rps", "p99_ms", "submitted",
                "completed", "dropped", "abandoned", "retried", "timeouts",
                "recolored"});

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("palette-bench-v1");
  json.Key("bench");
  json.String("ext_fault_sweep");
  json.Key("workers");
  json.Int(kWorkers);
  json.Key("deadline_ms");
  json.Double(kDeadlineMs);
  json.Key("spec");
  AppendWorkloadSpecJson(spec, &json);
  json.Key("faults");
  json.BeginObject();
  json.Key("crashes");
  json.UInt(faults.CountOf(FaultKind::kCrash));
  json.Key("restarts");
  json.UInt(faults.CountOf(FaultKind::kRestart));
  json.Key("events");
  json.BeginArray();
  for (const FaultEvent& event : faults.events()) {
    json.BeginObject();
    json.Key("at_s");
    json.Double(event.at.seconds());
    json.Key("kind");
    json.String(FaultKindId(event.kind));
    json.Key("worker");
    json.String(event.worker);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.Key("cells");
  json.BeginArray();

  bool books_ok = true;
  for (const PolicyKind policy : policies) {
    for (const bool retries_on : {false, true}) {
      const PlatformConfig& config = retries_on ? retry_config : base_config;
      const WorkloadRunResult run =
          RunWorkload(spec, policy, kWorkers, slo, config, &faults);
      const RunCounters& c = run.counters;
      const bool closes = run.books_close;
      books_ok = books_ok && closes;

      table.AddRow({std::string(PolicyKindId(policy)),
                    retries_on ? "on" : "off",
                    StrFormat("%.1f", run.report.goodput_rps),
                    StrFormat("%.3f", run.report.p99_ms),
                    StrFormat("%llu", (unsigned long long)c.platform.submitted),
                    StrFormat("%llu", (unsigned long long)c.platform.completed),
                    StrFormat("%llu", (unsigned long long)c.platform.dropped),
                    StrFormat("%llu", (unsigned long long)c.platform.abandoned),
                    StrFormat("%llu", (unsigned long long)c.platform.retries),
                    StrFormat("%llu", (unsigned long long)c.platform.timeouts),
                    StrFormat("%llu", (unsigned long long)c.recolored)});

      json.BeginObject();
      json.Key("policy");
      json.String(PolicyKindId(policy));
      json.Key("retries_enabled");
      json.Bool(retries_on);
      json.Key("submitted");
      json.UInt(c.platform.submitted);
      json.Key("completed");
      json.UInt(c.platform.completed);
      json.Key("dropped");
      json.UInt(c.platform.dropped);
      json.Key("abandoned");
      json.UInt(c.platform.abandoned);
      json.Key("retries");
      json.UInt(c.platform.retries);
      json.Key("timeouts");
      json.UInt(c.platform.timeouts);
      json.Key("recolored");
      json.UInt(c.recolored);
      // No PlannerConfig in these cells, so every re-homing here is
      // failure re-coloring — the planner counters must stay zero or the
      // two mechanisms have bled into each other (docs/PLANNER.md).
      json.Key("planner_moves");
      json.UInt(c.planner_moves);
      json.Key("planner_splits");
      json.UInt(c.planner_splits);
      if (c.planner_moves != 0 || c.planner_splits != 0 ||
          c.platform.planner_rounds != 0) {
        std::fprintf(stderr,
                     "FAIL: planner counters nonzero without a planner "
                     "(policy=%s)\n",
                     std::string(PolicyKindId(policy)).c_str());
        books_ok = false;
      }
      json.Key("cold_starts");
      json.UInt(c.platform.cold_starts);
      json.Key("books_close");
      json.Bool(closes);
      json.Key("samples_digest");
      json.UInt(run.samples_digest);
      json.Key("report");
      AppendSloReportJson(run.report, &json);
      json.EndObject();
    }
  }
  json.EndArray();
  json.Key("books_close");
  json.Bool(books_ok);

  std::printf("\n== Planner cell: proactive re-balancing under the same "
              "churn (docs/PLANNER.md) ==\n");
  const bool planner_ok =
      RunPlannerChurnCell(spec, faults, slo, retry_config, &json);

  std::printf("\n== Alert cell: crash -> FIRE, restart -> CLEAR "
              "(sharded engine, docs/OBSERVABILITY.md) ==\n");
  const bool alerts_ok = RunAlertCell(&json);
  json.EndObject();

  table.Print();
  std::printf(
      "\nIdentical churn per cell; retries turn crash losses (dropped) "
      "into\nbackoff latency, and failure-aware re-coloring points the "
      "retried hints\nat the replacement instances (recolored > 0 for "
      "color-table policies).\n");
  if (!books_ok) {
    std::fprintf(stderr,
                 "FAIL: accounting identity violated — submitted != "
                 "completed + dropped + abandoned\n");
    std::exit(1);
  }
  std::printf("books close in every cell: submitted = completed + dropped "
              "+ abandoned\n");
  if (!planner_ok) {
    std::fprintf(stderr, "FAIL: planner churn cell invariants violated\n");
    std::exit(1);
  }
  if (!alerts_ok) {
    std::fprintf(stderr, "FAIL: alert cell invariants violated\n");
    std::exit(1);
  }

  if (!WriteTextFile("BENCH_fault.json", json.str())) {
    return;
  }
  std::printf("\nwrote BENCH_fault.json\n");
}

}  // namespace
}  // namespace palette

int main() {
  palette::Run();
  return 0;
}
