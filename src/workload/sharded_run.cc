#include "src/workload/sharded_run.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/hash/hash.h"
#include "src/sim/sharded_simulator.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/mix.h"

namespace palette {

namespace {

// One worker group: the platform owning its cluster slice, the optional
// router tier fronting it, and the group's rejection count.
struct GroupState {
  std::unique_ptr<FaasPlatform> platform;
  std::unique_ptr<RouterTier> tier;
  std::unique_ptr<PlannerRuntime> planner;
  std::uint64_t rejections = 0;
};

// An invocation in flight from the front door to its group: the spec and
// completion callback ride the cross-domain channel behind a shared_ptr so
// the message capture stays inside the inline event buffer.
struct PendingDispatch {
  InvocationSpec spec;
  FaasPlatform::CompletionCallback cb;
};

}  // namespace

bool ShardedWorkloadConfigFromFlags(const FlagParser& flags,
                                    ShardedWorkloadConfig* out) {
  ShardedWorkloadConfig config = *out;
  config.groups = static_cast<int>(flags.GetInt("groups", config.groups));
  config.routers_per_group = static_cast<int>(
      flags.GetInt("group_routers", config.routers_per_group));
  if (!DurationFlag(flags, "shard_hop_us", SimTime::FromMicros(1),
                    &config.hop)) {
    return false;
  }
  const char* bad = config.groups < 1 ? "--groups must be at least 1"
                    : config.routers_per_group < 0
                        ? "--group_routers must not be negative"
                    : config.hop <= SimTime() ? "--shard_hop_us must be positive"
                                              : nullptr;
  if (bad != nullptr) {
    std::fprintf(stderr, "%s\n", bad);
    return false;
  }
  *out = config;
  return true;
}

WorkloadRunResult RunShardedWorkload(
    const WorkloadSpec& spec, PolicyKind policy, int total_workers,
    const ShardedWorkloadConfig& config, const SloConfig& slo,
    const PlatformConfig& platform_config,
    const std::vector<ShardedFault>* faults) {
  const int groups = std::max(1, config.groups);
  // The fabric hop doubles as the engine lookahead, so it must be positive.
  const SimTime hop = std::max(config.hop, SimTime::FromNanos(1));

  ShardedSimulatorConfig engine_config;
  engine_config.domains = groups + 1;
  engine_config.shards = config.shards;
  engine_config.lookahead = hop;
  engine_config.channel_capacity = config.channel_capacity;
  engine_config.profile = config.profile;
  ShardedSimulator engine(engine_config);

  // Independent sub-streams per component, all derived from the one
  // experiment seed (same scheme as RunWorkload) plus one per group.
  Rng seeder(spec.seed);
  const std::uint64_t arrival_seed = seeder.Next();
  const std::uint64_t driver_seed = seeder.Next();

  std::vector<GroupState> group_states(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    GroupState& group = group_states[static_cast<std::size_t>(g)];
    const std::uint64_t group_seed = seeder.Next();
    PlatformConfig group_platform = platform_config;
    group_platform.domain = 1 + g;
    group.platform = std::make_unique<FaasPlatform>(
        &engine.domain_sim(1 + g), policy, group_seed, group_platform);
    group.platform->set_worker_prefix(StrFormat("g%dw", g));
    // Even split; the first (total % groups) groups absorb the remainder.
    const int group_workers =
        total_workers / groups + (g < total_workers % groups ? 1 : 0);
    group.platform->AddWorkers(group_workers);
    group.platform->set_cross_scheduler(&engine.scheduler(1 + g), hop);
    if (config.routers_per_group > 0) {
      RouterTierConfig tier_config;
      tier_config.routers = config.routers_per_group;
      tier_config.dispatch = config.group_dispatch;
      tier_config.sync_lag = config.group_sync_lag;
      tier_config.policy = policy;
      tier_config.seed = group_seed;
      group.tier =
          std::make_unique<RouterTier>(group.platform.get(), tier_config);
      group.tier->set_scheduler(&engine.scheduler(1 + g));
    }
    if (config.planner.enabled()) {
      // One runtime per group, ticking on the group's own event core: the
      // group set is model topology (never thread count), so planner
      // rounds — and digests — are identical across `shards` values.
      group.planner = std::make_unique<PlannerRuntime>(group.platform.get(),
                                                       config.planner);
      group.planner->Start(spec.driver.duration);
    }
  }

  // Faults install on the owning group's domain so they interleave with
  // that group's events exactly as in a monolithic run.
  std::vector<FaultSchedule> group_faults(static_cast<std::size_t>(groups));
  if (faults != nullptr) {
    for (const ShardedFault& fault : *faults) {
      if (fault.group >= 0 && fault.group < groups) {
        group_faults[static_cast<std::size_t>(fault.group)].Add(fault.event);
      }
    }
    for (int g = 0; g < groups; ++g) {
      const GroupState& group = group_states[static_cast<std::size_t>(g)];
      group_faults[static_cast<std::size_t>(g)].InstallOn(
          &engine.domain_sim(1 + g), group.platform.get(),
          group.tier.get());
    }
  }

  // The front door: open-loop arrivals on domain 0, shipping each
  // invocation to its color's group over the fabric.
  Simulator& front = engine.domain_sim(0);
  OpenLoopDriver driver(&front, MakeArrivalProcess(spec.arrival, arrival_seed),
                        InvocationMix(spec.mix), spec.driver, driver_seed);
  std::uint64_t next_dispatch_id = 0;
  driver.set_invoker(
      [&engine, &group_states, &front, &next_dispatch_id, hop, groups](
          InvocationSpec invocation, FaasPlatform::CompletionCallback cb)
          -> std::optional<std::uint64_t> {
        // Consistent color->group partition: every invocation of a color
        // meets the same group, so stickiness survives the fabric.
        // Uncolored traffic spreads by submission index.
        const std::uint64_t key = invocation.color.has_value()
                                      ? Fnv1a64(*invocation.color)
                                      : MixU64(next_dispatch_id);
        const int g = static_cast<int>(
            JumpConsistentHash(key, static_cast<std::uint32_t>(groups)));
        invocation.origin_domain = 0;
        auto pending = std::make_shared<PendingDispatch>(
            PendingDispatch{std::move(invocation), std::move(cb)});
        GroupState* group = &group_states[static_cast<std::size_t>(g)];
        engine.Send(
            0, 1 + g, SaturatingAdd(front.Now(), hop),
            [pending, group]() mutable {
              // Routed by the group's tier when it has one (attached to
              // the platform at construction).
              const auto id = group->platform->Invoke(
                  std::move(pending->spec), std::move(pending->cb));
              if (!id.has_value()) {
                // Rejected at the group; the front-door sample stays
                // pending and scores as a drop.
                ++group->rejections;
              }
            });
        // The fabric accepts unconditionally; group-side rejections are
        // booked above. Ids are front-door-synthetic.
        return ++next_dispatch_id;
      });
  // Telemetry: one session per domain, each on its own event core's clock
  // observer. Domain 0 samples the front-door driver; each group domain
  // samples its platform and tier. Refreshes run on whatever shard owns
  // the domain, touching only domain-local state.
  const int domains = groups + 1;
  std::vector<WorkloadTelemetry> sessions;
  if (config.obs.enabled()) {
    sessions.push_back(
        BeginTelemetry(config.obs, &front, nullptr, nullptr, &driver));
    for (int g = 0; g < groups; ++g) {
      GroupState& group = group_states[static_cast<std::size_t>(g)];
      sessions.push_back(BeginTelemetry(config.obs, &engine.domain_sim(1 + g),
                                        group.platform.get(),
                                        group.tier.get(), nullptr));
    }
  }

  driver.Start();

  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t events = engine.Run();
  const auto wall_end = std::chrono::steady_clock::now();

  WorkloadRunResult result;
  if (config.obs.enabled()) {
    // Close the books on the run's own (shard-count-invariant) clocks: the
    // common horizon is the latest domain clock or the nominal duration,
    // so every domain's mark set is aligned before the window-by-window
    // fold. Merge in fixed domain order — the one order every --shards
    // value shares — making the cluster CSV/alert log bit-identical.
    SimTime horizon = spec.driver.duration;
    for (int d = 0; d < domains; ++d) {
      horizon = std::max(horizon, engine.domain_sim(d).Now());
    }
    FinishTelemetry(&front, nullptr, nullptr, &driver, horizon, &sessions[0]);
    for (int g = 0; g < groups; ++g) {
      GroupState& group = group_states[static_cast<std::size_t>(g)];
      FinishTelemetry(&engine.domain_sim(1 + g), group.platform.get(),
                      group.tier.get(), nullptr, horizon,
                      &sessions[static_cast<std::size_t>(1 + g)]);
    }
    result.telemetry.metrics = std::make_shared<MetricsRegistry>();
    result.telemetry.series = sessions[0].series;
    for (std::size_t d = 0; d < sessions.size(); ++d) {
      result.telemetry.metrics->MergeFrom(*sessions[d].metrics);
      if (d > 0) {
        result.telemetry.series->MergeFrom(*sessions[d].series);
      }
    }
    EvaluateAlerts(config.obs, &result.telemetry);
  }
  result.profile = engine.profile();
  result.report = ScoreSlo(driver.samples(), slo, spec.driver.duration,
                           spec.arrival.rate_per_sec);
  result.samples_digest = SamplesDigest(driver.samples());
  result.engine_digest = engine.CombinedDigest();
  result.sim_events = events;
  result.epochs = engine.epochs();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  std::uint64_t rejections = 0;
  for (const GroupState& group : group_states) {
    result.counters += CollectRunCounters(*group.platform, group.tier.get());
    rejections += group.rejections;
  }
  CloseBooks(driver, rejections, &result);
  return result;
}

}  // namespace palette
