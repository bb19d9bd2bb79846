// loadgen — deterministic open-loop traffic generator + SLO harness
// (docs/WORKLOADS.md).
//
// Drives a fresh simulated FaaS platform with a workload spec (arrival
// process x invocation mix), scores the intended-start -> completion
// samples against a latency deadline, and writes BENCH_slo.json. The same
// --seed and spec reproduce a bit-identical sample set (the JSON embeds an
// order-sensitive digest; CI asserts on it).
//
// Usage:
//   loadgen [--arrival=poisson] [--rate=400] [--duration=20] [--seed=1]
//           [--policy=la] [--workers=8] [--deadline_ms=100] [--warmup_s=1]
//           [--colors=512] [--theta=0.9] [--churn_interval_s=0] ...
//           [--write_fraction=0]         # outputs per invocation knob
//           [--routers=0]                # >0: route through a RouterTier
//           [--dispatch=color|spray] [--sync_lag_ms=0] [--hop_us=200]
//           [--dispatch_mode=push|pull]  # worker binding (DISPATCH.md)
//           [--steal_budget=4]           # pull: max in-flight steals
//           [--coherence=off|write-through|write-back|causal]  # STORAGE.md
//           [--dirty_age_ms=50] [--staleness_ms=100] [--ae_lag_ms=10]
//           [--storage_tiers=1]          # 2: fast/slow backing store
//           [--fast_mb=256]              # fast-tier capacity
//           [--shards=0]                 # >=1: sharded parallel engine
//           [--groups=8] [--group_routers=2] [--shard_hop_us=500]
//           [--sweep=200,400,800,1600]   # rate step-sweep for the knee
//           [--dump_samples]             # embed per-sample records
//           [--out=BENCH_slo.json]
//           [--sample_every_ms=0]        # >0: sim-clock telemetry sampling
//           [--prom_out=<path|->]        # Prometheus text exposition
//           [--ts_out=<path|->]          # time-series CSV
//           [--alerts=<rules>] [--alert_log=<path|->]   # SLO alert engine
//           [--trace_counters=<path>]    # Chrome-trace counter tracks
//           [--profile]                  # sharded-engine profiler (JSON)
//           [--plan_every_ms=0]          # >0: global re-balancer cadence
//           [--move_alpha=0.5] [--split_threshold=0.2] [--max_split=4]
//
// Planner (docs/PLANNER.md): --plan_every_ms>0 runs the optimization-based
// re-balancer on the sim clock — periodic snapshot -> solve -> apply with
// hot-color splitting. Works in all three modes (monolithic, --routers,
// --shards); the JSON grows "planner" (config) and "planner_result"
// (rounds, moves/splits/merges, per-round objectives in monolithic mode).
//
// Telemetry (docs/OBSERVABILITY.md): --sample_every_ms>0 attaches a
// TimeSeriesSampler on the simulator's event-free clock observer — rates,
// gauge levels, and per-window p50/p99 for the faas/lb/cache/net/router
// families — and the --alerts rules (see ParseAlertRules in
// src/obs/alerts.h) evaluate over those windows. Sampling adds zero
// events: digests and samples are bit-identical with it on or off, and
// with it off the BENCH_slo.json output is byte-identical to a build
// without telemetry.
//
// Storage tier (docs/STORAGE.md): --coherence!=off turns on the stateful
// write path — write-through, write-back (bounded dirty age, crash loss in
// the books), or causal (bounded-staleness reads) — plus anti-entropy
// between instance caches; --storage_tiers=2 adds the fast/slow two-tier
// backing store. The JSON grows a "storage" section with the write books,
// coherence traffic, staleness, and tier counters.
//
// Sharded mode (docs/PERF.md, "Parallel engine"): --shards>=1 maps the
// workload onto --groups worker-group domains, each fronted by its own
// --group_routers router replicas, running on that many event-core
// threads. Digests are bit-identical for every --shards value; --shards=0
// (the default) keeps today's monolithic single-simulator paths
// byte-identical. --routers and --sweep apply to monolithic mode only.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/json_writer.h"
#include "src/common/table_printer.h"
#include "src/core/policy_factory.h"
#include "src/obs/prometheus.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

// Parses a comma-separated list of positive rates; returns false on a
// non-numeric or non-positive entry.
bool ParseRateCsv(const std::string& csv, std::vector<double>* out) {
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      comma = csv.size();
    }
    if (comma > start) {
      const std::string entry = csv.substr(start, comma - start);
      char* end = nullptr;
      const double rate = std::strtod(entry.c_str(), &end);
      if (end != entry.c_str() + entry.size() || !(rate > 0) ||
          !std::isfinite(rate)) {
        std::fprintf(stderr, "--sweep rates must be positive numbers: %s\n",
                     entry.c_str());
        return false;
      }
      out->push_back(rate);
    }
    start = comma + 1;
  }
  return true;
}

void AppendSamplesJson(const std::vector<InvocationSample>& samples,
                       JsonWriter* json) {
  json->BeginArray();
  for (const InvocationSample& s : samples) {
    json->BeginObject();
    json->Key("t_ns");
    json->Int(s.intended_start.nanos());
    json->Key("done_ns");
    json->Int(s.completed.nanos());
    json->Key("color");
    json->UInt(s.color_id);
    json->Key("fn");
    json->UInt(s.function_index);
    json->Key("status");
    json->UInt(static_cast<std::uint64_t>(s.status));
    json->Key("local");
    json->UInt(s.local_hits);
    json->Key("remote");
    json->UInt(s.remote_hits);
    json->Key("miss");
    json->UInt(s.misses);
    json->EndObject();
  }
  json->EndArray();
}

// "-" routes to stdout; anything else is a file path.
bool WriteTextOutput(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return true;
  }
  return WriteTextFile(path, content);
}

// One Chrome trace file of counter tracks: the telemetry series, plus (when
// profiling) per-shard events-per-epoch imbalance tracks on pid 2.
std::string TraceCountersJson(const TimeSeriesSampler& series,
                              const EngineProfile& profile) {
  JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  series.AppendChromeCounterTracks(&json, /*pid=*/1);
  if (profile.enabled) {
    for (std::size_t s = 0; s < profile.per_shard.size(); ++s) {
      for (const auto& [t_min_ns, events] : profile.per_shard[s].epoch_log) {
        json.BeginObject();
        json.Key("ph");
        json.String("C");
        json.Key("cat");
        json.String("engine");
        json.Key("name");
        json.String(StrFormat("engine.shard%zu.events_per_epoch", s));
        json.Key("pid");
        json.Int(2);
        json.Key("tid");
        json.Int(0);
        json.Key("ts");
        json.Double(static_cast<double>(t_min_ns) / 1e3);
        json.Key("args");
        json.BeginObject();
        json.Key("value");
        json.UInt(events);
        json.EndObject();
        json.EndObject();
      }
    }
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

void AppendEngineProfileJson(const EngineProfile& profile, JsonWriter* json) {
  json->BeginObject();
  json->Key("domains");
  json->Int(profile.domains);
  json->Key("shards");
  json->Int(profile.shards);
  json->Key("epochs");
  json->UInt(profile.epochs);
  json->Key("events");
  json->UInt(profile.events);
  json->Key("channel_high_water");
  json->UInt(profile.channel_high_water);
  json->Key("overflow_spills");
  json->UInt(profile.overflow_spills);
  json->Key("overflow_drains");
  json->UInt(profile.overflow_drains);
  json->Key("per_shard");
  json->BeginArray();
  for (const ShardProfile& shard : profile.per_shard) {
    json->BeginObject();
    json->Key("epochs");
    json->UInt(shard.epochs);
    json->Key("events");
    json->UInt(shard.events);
    json->Key("busy_epochs");
    json->UInt(shard.busy_epochs);
    json->Key("lookahead_utilization");
    json->Double(shard.lookahead_utilization());
    json->Key("barrier_wait_ms");
    json->Double(static_cast<double>(shard.barrier_wait_ns) / 1e6);
    json->Key("drain_ms");
    json->Double(static_cast<double>(shard.drain_ns) / 1e6);
    json->Key("execute_ms");
    json->Double(static_cast<double>(shard.execute_ns) / 1e6);
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

// One `"key": value` counter member.
void Field(const char* key, std::uint64_t value, JsonWriter* json) {
  json->Key(key);
  json->UInt(value);
}

// The "storage" result section shared by the monolithic and sharded paths
// (docs/STORAGE.md). Callers gate on StorageConfig::enabled() so runs with
// the tier off stay byte-identical to pre-storage output.
void AppendStorageStatsJson(const StorageStats& s, JsonWriter* json) {
  json->BeginObject();
  Field("writes_total", s.writes_total, json);
  Field("writes_durable", s.writes_durable, json);
  Field("writes_lost", s.writes_lost, json);
  Field("write_bytes", s.write_bytes, json);
  Field("flushes", s.flushes, json);
  Field("dirty_bytes_flushed", s.dirty_bytes_flushed, json);
  Field("dirty_bytes_lost", s.dirty_bytes_lost, json);
  Field("coherence_syncs", s.coherence_syncs, json);
  Field("coherence_bytes", s.coherence_bytes, json);
  Field("stale_reads", s.stale_reads, json);
  json->Key("max_served_staleness_ns");
  json->Int(s.max_served_staleness_ns);
  Field("ae_records", s.ae_records, json);
  Field("ae_applied", s.ae_applied, json);
  Field("ae_invalidations", s.ae_invalidations, json);
  Field("ae_refreshes", s.ae_refreshes, json);
  Field("ae_refresh_bytes", s.ae_refresh_bytes, json);
  Field("tier_fast_reads", s.tier_fast_reads, json);
  Field("tier_slow_reads", s.tier_slow_reads, json);
  Field("tier_promotions", s.tier_promotions, json);
  Field("tier_demotions", s.tier_demotions, json);
  Field("tier_promoted_bytes", s.tier_promoted_bytes, json);
  Field("tier_demoted_bytes", s.tier_demoted_bytes, json);
  json->Key("write_books_close");
  json->Bool(s.WriteBooksClose());
  json->EndObject();
}

// The optional counter sections a run's config turns on. A section stays
// out of the output while its layer is off, so those runs keep their
// pre-section JSON.
struct CounterSections {
  bool pull = false;     // --dispatch_mode=pull
  bool storage = false;  // --coherence other than off
  bool planner = false;  // --plan_every_ms > 0
  bool router = false;   // --routers > 0, or --group_routers > 0 sharded
  // --shards >= 1: the books start at the front door, which ships each
  // invocation to a group platform or books it as rejected there.
  bool sharded = false;
};

// The counter keys of one run, written alike for every harness topology
// (docs/WORKLOADS.md, "Harness results"). The planner's per-round
// objectives and routing imbalance exist only on monolithic runs.
void AppendRunCountersJson(const CounterSections& on,
                           const WorkloadRunResult& run, JsonWriter* json) {
  const RunCounters& c = run.counters;
  Field("cold_starts", c.platform.cold_starts, json);
  Field("retries", c.platform.retries, json);
  Field("timeouts", c.platform.timeouts, json);
  Field("platform_dropped", c.platform.dropped, json);
  if (on.pull) {
    Field("pulls", c.platform.pulls, json);
    Field("steals", c.platform.steals, json);
    Field("steal_bytes", c.platform.steal_bytes, json);
  }
  if (on.storage) {
    json->Key("storage");
    AppendStorageStatsJson(c.storage, json);
  }
  if (on.planner) {
    json->Key("planner_result");
    json->BeginObject();
    Field("rounds", c.platform.planner_rounds, json);
    Field("moves", c.planner_moves, json);
    Field("splits", c.planner_splits, json);
    Field("merges", c.planner_merges, json);
    Field("moved_bytes", c.platform.planner_moved_bytes, json);
    if (!on.sharded) {
      json->Key("routing_imbalance");
      json->Double(run.routing_imbalance);
      json->Key("round_objectives");
      json->BeginArray();
      for (const PlanRound& round : run.plan_rounds) {
        json->BeginObject();
        Field("round", round.round, json);
        json->Key("t_ms");
        json->Double(round.at.millis());
        json->Key("objective_before");
        json->Double(round.objective_before);
        json->Key("objective_after");
        json->Double(round.objective_after);
        Field("moves", round.moves, json);
        Field("splits", round.splits, json);
        Field("merges", round.merges, json);
        json->EndObject();
      }
      json->EndArray();
    }
    json->EndObject();
  }
  if (on.router) {
    json->Key("router");
    json->BeginObject();
    Field("routes", c.router_routes, json);
    Field("stale_routes", c.router_stale_routes, json);
    Field("misroutes", c.router_misroutes, json);
    Field("forwards", c.router_forwards, json);
    Field("recolored", c.router_recolored, json);
    json->EndObject();
  }
  json->Key("books");
  json->BeginObject();
  if (on.sharded) {
    Field("submitted", run.driver_submitted, json);
    Field("group_submitted", c.platform.submitted, json);
  } else {
    Field("submitted", c.platform.submitted, json);
  }
  Field("completed", c.platform.completed, json);
  Field("dropped", c.platform.dropped, json);
  Field("abandoned", c.platform.abandoned, json);
  if (on.sharded) {
    Field("rejections", run.rejections, json);
  }
  json->Key("close");
  json->Bool(run.books_close);
  json->EndObject();
}

// The text twin of AppendRunCountersJson: the same counters, one summary
// line per section.
void PrintRunCounters(const CounterSections& on, const WorkloadRunResult& run) {
  const RunCounters& c = run.counters;
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::printf("cold starts: %llu, retries: %llu, timeouts: %llu, platform "
              "drops: %llu\n",
              u(c.platform.cold_starts), u(c.platform.retries),
              u(c.platform.timeouts), u(c.platform.dropped));
  if (on.pull) {
    std::printf("pulls: %llu, steals: %llu, steal bytes: %llu\n",
                u(c.platform.pulls), u(c.platform.steals),
                u(c.platform.steal_bytes));
  }
  if (on.storage) {
    const StorageStats& s = c.storage;
    std::printf("storage: writes: %llu (%llu durable, %llu lost), coherence "
                "bytes: %llu, stale reads: %llu, books %s\n",
                u(s.writes_total), u(s.writes_durable), u(s.writes_lost),
                u(s.coherence_bytes), u(s.stale_reads),
                s.WriteBooksClose() ? "close" : "DO NOT CLOSE");
  }
  if (on.planner) {
    std::printf("planner: rounds: %llu, moves: %llu, splits: %llu, merges: "
                "%llu, moved: %llu bytes",
                u(c.platform.planner_rounds), u(c.planner_moves),
                u(c.planner_splits), u(c.planner_merges),
                u(c.platform.planner_moved_bytes));
    if (!on.sharded) {
      std::printf(", imbalance: %.3f", run.routing_imbalance);
    }
    std::printf("\n");
  }
  if (on.router) {
    std::printf("router tier: routes: %llu, stale: %llu, misroutes: %llu, "
                "forwards: %llu, recolored: %llu\n",
                u(c.router_routes), u(c.router_stale_routes),
                u(c.router_misroutes), u(c.router_forwards),
                u(c.router_recolored));
  }
  std::printf("books: submitted %llu, completed %llu, dropped %llu, "
              "abandoned %llu%s, %s\n",
              u(on.sharded ? run.driver_submitted : c.platform.submitted),
              u(c.platform.completed), u(c.platform.dropped),
              u(c.platform.abandoned),
              on.sharded
                  ? StrFormat(", rejected %llu", u(run.rejections)).c_str()
                  : "",
              run.books_close ? "close" : "DO NOT CLOSE");
}

// The gated telemetry outputs shared by the monolithic and sharded paths.
// Returns false on a write failure. Appends nothing and writes nothing
// when telemetry is off, keeping obs-free output byte-identical.
bool EmitTelemetry(const WorkloadTelemetry& telemetry,
                   const EngineProfile& profile, const std::string& prom_out,
                   const std::string& ts_out, const std::string& alert_log,
                   const std::string& trace_counters, JsonWriter* json) {
  if (!telemetry.enabled()) {
    return true;
  }
  json->Key("telemetry");
  json->BeginObject();
  json->Key("samples_taken");
  json->UInt(telemetry.series->samples_taken());
  json->Key("series_count");
  json->UInt(telemetry.series->series_count());
  json->Key("last_mark_ns");
  json->Int(telemetry.series->last_mark().nanos());
  if (telemetry.alerts != nullptr) {
    json->Key("alerts");
    json->BeginObject();
    telemetry.alerts->AppendJson(json);
    json->EndObject();
  }
  json->EndObject();

  if (telemetry.alerts != nullptr && !telemetry.alerts->log().empty()) {
    std::printf("alerts:\n%s", telemetry.alerts->ToLogLines().c_str());
  }
  if (!prom_out.empty() &&
      !WriteTextOutput(prom_out, ToPrometheusText(*telemetry.metrics))) {
    return false;
  }
  if (!ts_out.empty() &&
      !WriteTextOutput(ts_out, telemetry.series->ToCsv())) {
    return false;
  }
  if (!alert_log.empty() && telemetry.alerts != nullptr &&
      !WriteTextOutput(alert_log, telemetry.alerts->ToLogLines())) {
    return false;
  }
  if (!trace_counters.empty() &&
      !WriteTextOutput(trace_counters,
                       TraceCountersJson(*telemetry.series, profile))) {
    return false;
  }
  return true;
}

int Run(int argc, char** argv) {
  const FlagParser flags(argc, argv);

  WorkloadSpec spec;
  if (!WorkloadSpecFromFlags(flags, &spec)) {
    return 1;
  }
  PolicyKind policy;
  const std::string policy_id = flags.GetString("policy", "la");
  if (!ParsePolicyKind(policy_id, &policy)) {
    std::fprintf(stderr, "unknown policy id: %s\n", policy_id.c_str());
    return 1;
  }
  const int workers = static_cast<int>(flags.GetInt("workers", 8));
  // Routing-tier mode (docs/ROUTING.md): --routers=N fronts the platform
  // with N load-balancer replicas instead of routing directly.
  const int routers = static_cast<int>(flags.GetInt("routers", 0));
  RouterTierConfig tier_config;
  tier_config.routers = routers;
  const std::string dispatch_id = flags.GetString(
      "dispatch", std::string(DispatchModeId(tier_config.dispatch)));
  if (!ParseDispatchMode(dispatch_id, &tier_config.dispatch)) {
    std::fprintf(stderr, "unknown dispatch mode: %s (try: color spray)\n",
                 dispatch_id.c_str());
    return 1;
  }
  // Sharded-engine mode: --shards>=1 runs the workload on the parallel
  // engine; the group tiers reuse the dispatch/sync_lag flags.
  const int shards = static_cast<int>(flags.GetInt("shards", 0));
  ShardedWorkloadConfig sharded_config;
  sharded_config.shards = shards;
  if (shards >= 1 && !ShardedWorkloadConfigFromFlags(flags, &sharded_config)) {
    return 1;
  }
  SloConfig slo;
  slo.warmup = SimTime::FromSeconds(1);
  slo.top_colors =
      static_cast<std::size_t>(flags.GetInt("top_colors", 8));
  const std::string sweep_csv = flags.GetString("sweep", "");
  const bool dump_samples = flags.GetBool("dump_samples", false);
  const std::string out_path = flags.GetString("out", "BENCH_slo.json");
  PlatformConfig platform_config = DefaultWorkloadPlatformConfig();
  // Dispatch binding (docs/DISPATCH.md): --dispatch_mode=push keeps
  // route-time binding; pull late-binds via per-color pending queues with
  // budget-gated locality-aware stealing.
  const std::string dispatch_mode_id = flags.GetString(
      "dispatch_mode",
      std::string(FaasDispatchModeId(platform_config.dispatch_mode)));
  if (!ParseFaasDispatchMode(dispatch_mode_id,
                             &platform_config.dispatch_mode)) {
    std::fprintf(stderr, "unknown dispatch_mode: %s (try: push pull)\n",
                 dispatch_mode_id.c_str());
    return 1;
  }
  const std::int64_t steal_budget =
      flags.GetInt("steal_budget", platform_config.steal_budget);
  if (steal_budget < 0 || steal_budget > INT32_MAX) {
    std::fprintf(stderr,
                 "steal_budget must be in [0, %d] (0 disables stealing): "
                 "%lld\n",
                 INT32_MAX, static_cast<long long>(steal_budget));
    return 1;
  }
  platform_config.steal_budget = static_cast<int>(steal_budget);

  // Stateful storage tier (docs/STORAGE.md). --coherence=off (the default)
  // leaves the layer out of the platform entirely.
  StorageConfig& storage = platform_config.storage;
  const std::string coherence_id =
      flags.GetString("coherence", std::string(CoherenceModeId(storage.mode)));
  if (!ParseCoherenceMode(coherence_id, &storage.mode)) {
    std::fprintf(stderr,
                 "unknown coherence mode: %s (try: off write-through "
                 "write-back causal)\n",
                 coherence_id.c_str());
    return 1;
  }
  storage.tiers.two_tier = flags.GetInt("storage_tiers", 1) >= 2;
  if (!CapacityFlag(flags, "cache_mb",
                    &platform_config.cache.per_instance_capacity) ||
      !CapacityFlag(flags, "fast_mb", &storage.tiers.fast_capacity)) {
    return 1;
  }

  // Telemetry flags (docs/OBSERVABILITY.md).
  WorkloadObsConfig obs;
  const std::string alerts_spec = flags.GetString("alerts", "");
  const std::string prom_out = flags.GetString("prom_out", "");
  const std::string ts_out = flags.GetString("ts_out", "");
  const std::string alert_log = flags.GetString("alert_log", "");
  const std::string trace_counters = flags.GetString("trace_counters", "");
  const bool profile = flags.GetBool("profile", false);

  // Global re-balancer flags (docs/PLANNER.md). --plan_every_ms=0 (the
  // default) leaves the planner off and the run byte-identical to a
  // planner-free build.
  PlannerConfig planner_config{.plan_every = SimTime()};
  planner_config.split_threshold = flags.GetDouble(
      "split_threshold", planner_config.split_threshold);
  planner_config.move_alpha =
      flags.GetDouble("move_alpha", planner_config.move_alpha);
  const std::int64_t max_split =
      flags.GetInt("max_split", planner_config.max_split);
  if (max_split < 1 || max_split > INT32_MAX) {
    std::fprintf(stderr, "--max_split must be in [1, %d]: %lld\n", INT32_MAX,
                 static_cast<long long>(max_split));
    return 1;
  }
  planner_config.max_split = static_cast<int>(max_split);
  if (!(planner_config.split_threshold >= 0 &&
        planner_config.split_threshold <= 1)) {
    std::fprintf(stderr, "--split_threshold must be in [0, 1]: %g\n",
                 planner_config.split_threshold);
    return 1;
  }
  if (!std::isfinite(planner_config.move_alpha) ||
      planner_config.move_alpha < 0) {
    std::fprintf(stderr, "--move_alpha must be finite and >= 0: %g\n",
                 planner_config.move_alpha);
    return 1;
  }
  planner_config.seed = spec.seed;

  // Every time flag, each defaulting to the value already in its config.
  const SimTime ms = SimTime::FromMillis(1);
  if (!DurationFlag(flags, "sync_lag_ms", ms, &tier_config.sync_lag) ||
      !DurationFlag(flags, "hop_us", SimTime::FromMicros(1),
                    &tier_config.hop_latency) ||
      !DurationFlag(flags, "deadline_ms", ms, &slo.deadline) ||
      !DurationFlag(flags, "warmup_s", SimTime::FromSeconds(1),
                    &slo.warmup) ||
      !DurationFlag(flags, "dirty_age_ms", ms, &storage.max_dirty_age) ||
      !DurationFlag(flags, "staleness_ms", ms, &storage.staleness_bound) ||
      !DurationFlag(flags, "ae_lag_ms", ms, &storage.ae_lag) ||
      !DurationFlag(flags, "sample_every_ms", ms, &obs.sample_every) ||
      !DurationFlag(flags, "plan_every_ms", ms, &planner_config.plan_every)) {
    return 1;
  }
  sharded_config.group_sync_lag = tier_config.sync_lag;
  sharded_config.group_dispatch = tier_config.dispatch;
  if (!alerts_spec.empty()) {
    std::vector<std::string> rule_errors;
    obs.alert_rules = ParseAlertRules(alerts_spec, &rule_errors);
    for (const std::string& error : rule_errors) {
      std::fprintf(stderr, "warning: %s\n", error.c_str());
    }
    if (obs.alert_rules.empty()) {
      std::fprintf(stderr, "no valid --alerts rules\n");
      return 1;
    }
    if (!obs.enabled()) {
      // Alerts need windows to evaluate; default to 100ms sampling.
      obs.sample_every = SimTime::FromMillis(100);
    }
  }

  // Counts that size the simulated system; a bad one would otherwise run
  // an empty cluster whose books trivially close.
  const char* bad_count = workers < 1   ? "--workers must be at least 1"
                          : shards < 0  ? "--shards must not be negative"
                          : routers < 0 ? "--routers must not be negative"
                                        : nullptr;
  if (bad_count != nullptr) {
    std::fprintf(stderr, "%s\n", bad_count);
    return 1;
  }
  for (const std::string& unknown : flags.UnqueriedFlags()) {
    std::fprintf(stderr, "warning: unrecognized flag --%s\n",
                 unknown.c_str());
  }
  if (shards >= 1 && !sweep_csv.empty()) {
    std::fprintf(stderr, "--sweep is not supported with --shards\n");
    return 1;
  }
  std::vector<double> rates;
  if (!ParseRateCsv(sweep_csv, &rates)) {
    return 1;
  }
  if (obs.enabled() && !sweep_csv.empty()) {
    std::fprintf(stderr,
                 "warning: telemetry flags are ignored with --sweep\n");
    obs = WorkloadObsConfig();
  }
  if (shards >= 1 && routers > 0) {
    std::fprintf(stderr,
                 "warning: --routers is ignored with --shards (use "
                 "--group_routers)\n");
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("palette-bench-v1");
  json.Key("bench");
  json.String("loadgen");
  json.Key("policy");
  json.String(PolicyKindId(policy));
  json.Key("workers");
  json.Int(workers);
  json.Key("deadline_ms");
  json.Double(slo.deadline.millis());
  json.Key("warmup_s");
  json.Double(slo.warmup.seconds());
  json.Key("spec");
  AppendWorkloadSpecJson(spec, &json);
  json.Key("dispatch_mode");
  json.String(FaasDispatchModeId(platform_config.dispatch_mode));
  if (platform_config.dispatch_mode != FaasDispatchMode::kPush) {
    json.Key("steal_budget");
    json.Int(platform_config.steal_budget);
  }
  if (storage.enabled()) {
    json.Key("storage_config");
    json.BeginObject();
    json.Key("coherence");
    json.String(CoherenceModeId(storage.mode));
    json.Key("dirty_age_ms");
    json.Double(storage.max_dirty_age.millis());
    json.Key("staleness_ms");
    json.Double(storage.staleness_bound.millis());
    json.Key("ae_lag_ms");
    json.Double(storage.ae_lag.millis());
    json.Key("two_tier");
    json.Bool(storage.tiers.two_tier);
    if (storage.tiers.two_tier) {
      json.Key("fast_mb");
      json.Double(static_cast<double>(storage.tiers.fast_capacity) /
                  static_cast<double>(kMiB));
    }
    json.EndObject();
  }
  if (routers > 0 && shards < 1) {
    json.Key("routers");
    json.Int(routers);
    json.Key("dispatch");
    json.String(DispatchModeId(tier_config.dispatch));
    json.Key("sync_lag_ms");
    json.Double(tier_config.sync_lag.millis());
    json.Key("hop_us");
    json.Double(tier_config.hop_latency.micros());
  }
  if (planner_config.enabled()) {
    json.Key("planner");
    json.BeginObject();
    json.Key("plan_every_ms");
    json.Double(planner_config.plan_every.millis());
    json.Key("move_alpha");
    json.Double(planner_config.move_alpha);
    json.Key("split_threshold");
    json.Double(planner_config.split_threshold);
    json.Key("max_split");
    json.Int(planner_config.max_split);
    json.EndObject();
  }

  CounterSections sections;
  sections.pull = platform_config.dispatch_mode == FaasDispatchMode::kPull;
  sections.storage = storage.enabled();
  sections.planner = planner_config.enabled();
  sections.sharded = shards >= 1;
  sections.router =
      sections.sharded ? sharded_config.routers_per_group > 0 : routers > 0;
  sharded_config.obs = obs;
  sharded_config.profile = profile;
  sharded_config.planner = planner_config;

  const auto run_spec = [&](const WorkloadSpec& at_spec) {
    if (sections.sharded) {
      return RunShardedWorkload(at_spec, policy, workers, sharded_config, slo,
                                platform_config);
    }
    const WorkloadObsConfig* obs_ptr = obs.enabled() ? &obs : nullptr;
    const PlannerConfig* planner_ptr =
        planner_config.enabled() ? &planner_config : nullptr;
    return routers > 0
               ? RunRouterWorkload(at_spec, policy, workers, tier_config,
                                   slo, platform_config, nullptr, obs_ptr,
                                   planner_ptr)
               : RunWorkload(at_spec, policy, workers, slo, platform_config,
                             nullptr, obs_ptr, planner_ptr);
  };

  if (sweep_csv.empty()) {
    // Single run at the spec's rate.
    if (sections.sharded) {
      // Sharded parallel-engine run: one topology, `shards` event cores.
      json.Key("sharded");
      json.BeginObject();
      json.Key("shards");
      json.Int(shards);
      json.Key("groups");
      json.Int(sharded_config.groups);
      json.Key("group_routers");
      json.Int(sharded_config.routers_per_group);
      json.Key("hop_us");
      json.Double(sharded_config.hop.micros());
      json.Key("dispatch");
      json.String(DispatchModeId(sharded_config.group_dispatch));
      json.Key("sync_lag_ms");
      json.Double(sharded_config.group_sync_lag.millis());
      json.EndObject();
      std::printf("== loadgen (sharded): %s arrivals at %.0f rps, %s "
                  "policy, %d workers across %d groups x %d routers, %d "
                  "shard(s) ==\n\n",
                  std::string(ArrivalKindId(spec.arrival.kind)).c_str(),
                  spec.arrival.rate_per_sec, policy_id.c_str(), workers,
                  sharded_config.groups, sharded_config.routers_per_group,
                  shards);
    } else {
      std::printf("== loadgen: %s arrivals at %.0f rps, %s policy, %d "
                  "workers%s ==\n\n",
                  std::string(ArrivalKindId(spec.arrival.kind)).c_str(),
                  spec.arrival.rate_per_sec, policy_id.c_str(), workers,
                  routers > 0
                      ? StrFormat(", %d %s routers", routers,
                                  dispatch_id.c_str()).c_str()
                      : "");
    }
    const WorkloadRunResult run = run_spec(spec);
    const auto u = [](std::uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    std::printf("%s\n", SloReportTable(run.report).c_str());
    if (sections.sharded) {
      std::printf("samples digest: %016llx, engine digest: %016llx, sim "
                  "events: %llu, epochs: %llu, wall: %.3f s\n",
                  u(run.samples_digest), u(run.engine_digest),
                  u(run.sim_events), u(run.epochs), run.wall_seconds);
    } else {
      std::printf("samples: %llu, digest: %016llx, sim events: %llu\n",
                  u(run.driver_submitted), u(run.samples_digest),
                  u(run.sim_events));
    }
    PrintRunCounters(sections, run);

    json.Key("sample_count");
    json.UInt(run.driver_submitted);
    json.Key("samples_digest");
    json.String(StrFormat("%016llx", u(run.samples_digest)));
    if (sections.sharded) {
      json.Key("engine_digest");
      json.String(StrFormat("%016llx", u(run.engine_digest)));
    }
    json.Key("sim_events");
    json.UInt(run.sim_events);
    if (sections.sharded) {
      json.Key("epochs");
      json.UInt(run.epochs);
      json.Key("wall_seconds");
      json.Double(run.wall_seconds);
    }
    AppendRunCountersJson(sections, run, &json);
    json.Key("report");
    AppendSloReportJson(run.report, &json);
    if (run.profile.enabled) {
      json.Key("engine_profile");
      AppendEngineProfileJson(run.profile, &json);
    }
    // Sharded runs score their sample book in place and do not return it.
    if (dump_samples && !sections.sharded) {
      json.Key("samples");
      AppendSamplesJson(run.samples, &json);
    }
    if (!EmitTelemetry(run.telemetry, run.profile, prom_out, ts_out,
                       alert_log, trace_counters, &json)) {
      return 1;
    }
  } else {
    // Rate step-sweep: fresh platform per rate, max sustainable = highest
    // rate whose p99 meets the deadline with nothing shed.
    if (rates.empty()) {
      std::fprintf(stderr, "empty --sweep rate list\n");
      return 1;
    }
    std::printf("== loadgen rate sweep: %s policy, %d workers, deadline "
                "%.0f ms ==\n\n",
                policy_id.c_str(), workers, slo.deadline.millis());
    std::vector<std::uint64_t> digests;
    const RateSweepResult sweep =
        SweepRates(rates, [&](double rate) {
          WorkloadSpec at_rate = spec;
          at_rate.arrival.rate_per_sec = rate;
          const WorkloadRunResult run = run_spec(at_rate);
          digests.push_back(run.samples_digest);
          return run.report;
        });

    TablePrinter table;
    table.AddRow({"offered_rps", "completed_rps", "goodput_rps", "p50_ms",
                  "p99_ms", "p99.9_ms", "hit%", "meets_slo"});
    for (const RateSweepPoint& point : sweep.points) {
      table.AddRow({StrFormat("%.0f", point.offered_rps),
                    StrFormat("%.1f", point.report.completed_rps),
                    StrFormat("%.1f", point.report.goodput_rps),
                    StrFormat("%.3f", point.report.p50_ms),
                    StrFormat("%.3f", point.report.p99_ms),
                    StrFormat("%.3f", point.report.p999_ms),
                    StrFormat("%.1f", 100 * point.report.local_hit_ratio),
                    point.report.MeetsSlo() ? "yes" : "no"});
    }
    table.Print();
    std::printf("\nmax sustainable rate: %.0f rps (p99 <= %.0f ms)\n",
                sweep.max_sustainable_rps, slo.deadline.millis());

    json.Key("max_sustainable_rps");
    json.Double(sweep.max_sustainable_rps);
    json.Key("sweep");
    json.BeginArray();
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
      json.BeginObject();
      json.Key("offered_rps");
      json.Double(sweep.points[i].offered_rps);
      json.Key("samples_digest");
      json.String(StrFormat(
          "%016llx", static_cast<unsigned long long>(digests[i])));
      json.Key("report");
      AppendSloReportJson(sweep.points[i].report, &json);
      json.EndObject();
    }
    json.EndArray();
  }
  json.EndObject();

  if (!WriteTextFile(out_path, json.str())) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace palette

int main(int argc, char** argv) { return palette::Run(argc, argv); }
