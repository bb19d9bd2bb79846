#include "src/workload/spec.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/common/flags.h"
#include "src/common/json_writer.h"
#include "src/workload/fault_schedule.h"

namespace palette {

bool WorkloadSpecFromFlags(const FlagParser& flags, WorkloadSpec* out) {
  WorkloadSpec spec;
  const std::string arrival_id = flags.GetString(
      "arrival", std::string(ArrivalKindId(spec.arrival.kind)));
  if (!ParseArrivalKind(arrival_id, &spec.arrival.kind)) {
    std::fprintf(stderr,
                 "unknown arrival kind: %s (try: fixed poisson mmpp "
                 "diurnal)\n",
                 arrival_id.c_str());
    return false;
  }
  spec.arrival.rate_per_sec =
      flags.GetDouble("rate", spec.arrival.rate_per_sec);
  spec.arrival.burst_multiplier =
      flags.GetDouble("burst_mult", spec.arrival.burst_multiplier);
  // The MMPP dwell means and the diurnal period: positive durations, kept
  // in seconds at the simulator's nanosecond resolution.
  for (const auto& [name, seconds] :
       {std::pair{"on_s", &spec.arrival.mean_on_seconds},
        std::pair{"off_s", &spec.arrival.mean_off_seconds},
        std::pair{"period_s", &spec.arrival.period_seconds}}) {
    SimTime duration = SimTime::FromSeconds(*seconds);
    if (!DurationFlag(flags, name, SimTime::FromSeconds(1), &duration)) {
      return false;
    }
    if (duration <= SimTime()) {
      std::fprintf(stderr, "--%s must be positive\n", name);
      return false;
    }
    *seconds = duration.seconds();
  }
  spec.arrival.amplitude =
      flags.GetDouble("amplitude", spec.arrival.amplitude);

  if (!(spec.arrival.rate_per_sec > 0)) {
    std::fprintf(stderr, "--rate must be positive: %g\n",
                 spec.arrival.rate_per_sec);
    return false;
  }
  const std::int64_t colors =
      flags.GetInt("colors", static_cast<std::int64_t>(spec.mix.color_count));
  if (colors < 1) {
    std::fprintf(stderr, "--colors must be at least 1: %lld\n",
                 static_cast<long long>(colors));
    return false;
  }
  spec.mix.color_count = static_cast<std::uint64_t>(colors);
  spec.mix.zipf_theta = flags.GetDouble("theta", spec.mix.zipf_theta);
  if (!DurationFlag(flags, "churn_interval_s", SimTime::FromSeconds(1),
                    &spec.mix.churn_interval)) {
    return false;
  }
  spec.mix.churn_step = static_cast<std::uint64_t>(
      flags.GetInt("churn_step", static_cast<std::int64_t>(
                                     spec.mix.color_count / 8)));
  spec.mix.objects_per_color = static_cast<std::uint64_t>(flags.GetInt(
      "objects_per_color",
      static_cast<std::int64_t>(spec.mix.objects_per_color)));
  spec.mix.inputs_per_invocation = static_cast<int>(
      flags.GetInt("inputs", spec.mix.inputs_per_invocation));
  spec.mix.functions[0].cpu_ops =
      flags.GetDouble("cpu_ops", spec.mix.functions[0].cpu_ops);
  spec.mix.write_fraction =
      flags.GetDouble("write_fraction", spec.mix.write_fraction);

  if (!DurationFlag(flags, "duration", SimTime::FromSeconds(1),
                    &spec.driver.duration)) {
    return false;
  }
  spec.driver.max_invocations = static_cast<std::uint64_t>(
      flags.GetInt("max_invocations",
                   static_cast<std::int64_t>(spec.driver.max_invocations)));
  spec.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  *out = spec;
  return true;
}

void AppendWorkloadSpecJson(const WorkloadSpec& spec, JsonWriter* json) {
  json->BeginObject();
  json->Key("arrival");
  json->String(ArrivalKindId(spec.arrival.kind));
  json->Key("rate_per_sec");
  json->Double(spec.arrival.rate_per_sec);
  if (spec.arrival.kind == ArrivalKind::kMmpp) {
    json->Key("burst_multiplier");
    json->Double(spec.arrival.burst_multiplier);
    json->Key("mean_on_seconds");
    json->Double(spec.arrival.mean_on_seconds);
    json->Key("mean_off_seconds");
    json->Double(spec.arrival.mean_off_seconds);
  }
  if (spec.arrival.kind == ArrivalKind::kDiurnal) {
    json->Key("period_seconds");
    json->Double(spec.arrival.period_seconds);
    json->Key("amplitude");
    json->Double(spec.arrival.amplitude);
  }
  json->Key("colors");
  json->UInt(spec.mix.color_count);
  json->Key("zipf_theta");
  json->Double(spec.mix.zipf_theta);
  json->Key("churn_interval_s");
  json->Double(spec.mix.churn_interval.seconds());
  json->Key("churn_step");
  json->UInt(spec.mix.churn_step);
  json->Key("objects_per_color");
  json->UInt(spec.mix.objects_per_color);
  json->Key("inputs_per_invocation");
  json->Int(spec.mix.inputs_per_invocation);
  json->Key("cpu_ops");
  json->Double(spec.mix.functions[0].cpu_ops);
  json->Key("write_fraction");
  json->Double(spec.mix.write_fraction);
  json->Key("duration_s");
  json->Double(spec.driver.duration.seconds());
  json->Key("seed");
  json->UInt(spec.seed);
  json->EndObject();
}

namespace {

// Exports one domain's non-null sources into `m`. Per-window refreshes skip
// the per-worker families: the sampler does not track them and their
// export cost scales with the cluster.
void ExportDomain(const FaasPlatform* platform, const RouterTier* tier,
                  const OpenLoopDriver* driver, bool per_worker,
                  MetricsRegistry* m) {
  if (platform != nullptr) {
    platform->ExportMetrics(m, std::string(), per_worker);
  }
  if (tier != nullptr) {
    tier->ExportMetrics(m);
  }
  if (driver != nullptr) {
    m->counter("driver.submitted").Set(driver->submitted());
    m->counter("driver.completed").Set(driver->completed());
    m->counter("driver.rejected").Set(driver->rejected());
  }
}

}  // namespace

WorkloadTelemetry BeginTelemetry(const WorkloadObsConfig& obs, Simulator* sim,
                                 FaasPlatform* platform, RouterTier* tier,
                                 const OpenLoopDriver* driver) {
  WorkloadTelemetry t;
  t.metrics = std::make_shared<MetricsRegistry>();
  if (platform != nullptr) {
    platform->set_metrics(t.metrics.get());
  }
  TimeSeriesConfig ts_config;
  ts_config.interval = obs.sample_every;
  ts_config.ring_capacity = obs.ring_capacity;
  t.series = std::make_shared<TimeSeriesSampler>(ts_config);
  t.series->set_source(t.metrics.get());
  t.series->set_refresh([platform, tier, driver, m = t.metrics.get()] {
    ExportDomain(platform, tier, driver, /*per_worker=*/false, m);
  });
  sim->SetClockObserver(obs.sample_every, [sampler = t.series.get()](
                                              SimTime mark) {
    sampler->Sample(mark);
  });
  return t;
}

void FinishTelemetry(Simulator* sim, FaasPlatform* platform, RouterTier* tier,
                     const OpenLoopDriver* driver, SimTime horizon,
                     WorkloadTelemetry* t) {
  sim->FlushObserverUpTo(std::max(sim->Now(), horizon));
  sim->SetClockObserver(SimTime(), nullptr);
  t->series->set_refresh(nullptr);
  ExportDomain(platform, tier, driver, /*per_worker=*/true, t->metrics.get());
}

void EvaluateAlerts(const WorkloadObsConfig& obs, WorkloadTelemetry* t) {
  if (!obs.alert_rules.empty()) {
    t->alerts = std::make_shared<AlertEngine>(obs.alert_rules);
    t->alerts->Run(*t->series);
  }
}

PlatformConfig DefaultWorkloadPlatformConfig() {
  PlatformConfig config;
  config.cpu_ops_per_second = 1e9;
  config.dispatch_latency = SimTime::FromMillis(1);
  config.cold_start = SimTime::FromMillis(100);
  // Objects are small (KiB..MiB); the serialization tax is negligible next
  // to the fetch path and just slows the sweep down.
  config.serialization_bytes_per_second = 0;
  config.cache.per_instance_capacity = 256 * kMiB;
  config.cache_miss_fills = true;
  // Backend round trip on misses.
  config.network.latency = SimTime::FromMillis(2);
  return config;
}

RunCounters& RunCounters::operator+=(const RunCounters& other) {
  platform += other.platform;
  recolored += other.recolored;
  planner_moves += other.planner_moves;
  planner_splits += other.planner_splits;
  planner_merges += other.planner_merges;
  router_routes += other.router_routes;
  router_stale_routes += other.router_stale_routes;
  router_misroutes += other.router_misroutes;
  router_forwards += other.router_forwards;
  router_recolored += other.router_recolored;
  storage.Accumulate(other.storage);
  return *this;
}

RunCounters CollectRunCounters(const FaasPlatform& platform,
                               const RouterTier* tier) {
  RunCounters c;
  c.platform = platform.counters();
  const PaletteLoadBalancer& lb = platform.load_balancer();
  c.recolored = lb.recolored();
  c.planner_moves = lb.planner_moves();
  c.planner_splits = lb.planner_splits();
  c.planner_merges = lb.planner_merges();
  if (tier != nullptr) {
    c.router_routes = tier->routes();
    c.router_stale_routes = tier->stale_routes();
    c.router_misroutes = tier->misroutes();
    c.router_forwards = tier->forwards();
    c.router_recolored = tier->recolored();
  }
  if (platform.storage_layer() != nullptr) {
    c.storage = platform.storage_layer()->stats();
  }
  return c;
}

void CloseBooks(const OpenLoopDriver& driver, std::uint64_t rejections,
                WorkloadRunResult* result) {
  result->driver_submitted = driver.submitted();
  result->driver_completed = driver.completed();
  result->rejections = rejections;
  result->books_close =
      result->driver_submitted ==
          result->counters.platform.submitted + rejections &&
      result->counters.platform.BooksClose();
}

namespace {

// The one monolithic harness body. `tier_config` is null for direct runs;
// otherwise traffic flows through a RouterTier built from it.
WorkloadRunResult RunMonolithic(const WorkloadSpec& spec, PolicyKind policy,
                                int workers,
                                const RouterTierConfig* tier_config,
                                const SloConfig& slo,
                                const PlatformConfig& platform_config,
                                const FaultSchedule* faults,
                                const WorkloadObsConfig* obs,
                                const PlannerConfig* planner) {
  Simulator sim;
  FaasPlatform platform(&sim, policy, spec.seed, platform_config);
  platform.AddWorkers(workers);
  std::unique_ptr<RouterTier> tier;
  if (tier_config != nullptr) {
    tier = std::make_unique<RouterTier>(&platform, *tier_config);
  }
  if (faults != nullptr) {
    faults->InstallOn(&sim, &platform, tier.get());
  }

  // Independent sub-streams per component, both derived from the one
  // experiment seed.
  Rng seeder(spec.seed);
  const std::uint64_t arrival_seed = seeder.Next();
  const std::uint64_t driver_seed = seeder.Next();

  OpenLoopDriver driver(&platform,
                        MakeArrivalProcess(spec.arrival, arrival_seed),
                        InvocationMix(spec.mix), spec.driver, driver_seed);
  if (tier != nullptr) {
    driver.set_invoker(
        [t = tier.get()](InvocationSpec invocation,
                         FaasPlatform::CompletionCallback on_complete) {
          return t->Invoke(std::move(invocation), std::move(on_complete));
        });
  }
  std::unique_ptr<PlannerRuntime> planner_runtime;
  if (planner != nullptr && planner->enabled()) {
    // The platform's LB stays authoritative; tier replicas learn each
    // applied plan through the tier's update log (RouterTier::OnPlanApplied).
    planner_runtime = std::make_unique<PlannerRuntime>(&platform, *planner);
    planner_runtime->Start(spec.driver.duration);
  }
  WorkloadTelemetry telemetry;
  if (obs != nullptr && obs->enabled()) {
    telemetry = BeginTelemetry(*obs, &sim, &platform, tier.get(), &driver);
  }
  driver.Start();
  const std::uint64_t events = sim.Run();
  if (telemetry.enabled()) {
    FinishTelemetry(&sim, &platform, tier.get(), &driver,
                    spec.driver.duration, &telemetry);
    EvaluateAlerts(*obs, &telemetry);
  }

  WorkloadRunResult result;
  result.telemetry = std::move(telemetry);
  result.report = ScoreSlo(driver.samples(), slo, spec.driver.duration,
                           spec.arrival.rate_per_sec);
  result.samples = driver.samples();
  result.samples_digest = SamplesDigest(result.samples);
  result.sim_events = events;
  result.counters = CollectRunCounters(platform, tier.get());
  CloseBooks(driver, driver.rejected(), &result);
  if (planner_runtime != nullptr) {
    result.plan_rounds = planner_runtime->rounds();
  }
  result.routing_imbalance = platform.load_balancer().RoutingImbalance();
  return result;
}

}  // namespace

WorkloadRunResult RunWorkload(const WorkloadSpec& spec, PolicyKind policy,
                              int workers, const SloConfig& slo,
                              const PlatformConfig& platform_config,
                              const FaultSchedule* faults,
                              const WorkloadObsConfig* obs,
                              const PlannerConfig* planner) {
  return RunMonolithic(spec, policy, workers, nullptr, slo, platform_config,
                       faults, obs, planner);
}

WorkloadRunResult RunRouterWorkload(const WorkloadSpec& spec,
                                    PolicyKind policy, int workers,
                                    RouterTierConfig tier_config,
                                    const SloConfig& slo,
                                    const PlatformConfig& platform_config,
                                    const FaultSchedule* faults,
                                    const WorkloadObsConfig* obs,
                                    const PlannerConfig* planner) {
  tier_config.policy = policy;
  tier_config.seed = spec.seed;
  return RunMonolithic(spec, policy, workers, &tier_config, slo,
                       platform_config, faults, obs, planner);
}

}  // namespace palette
