// Sharded cluster workload harness (docs/PERF.md, "Parallel engine").
//
// Maps the open-loop router workload onto the sharded conservative-
// lookahead engine. The domain topology is fixed by the model — never by
// the thread count — so results are bit-identical across --shards values:
//
//   domain 0            the front door: arrival generation, the sample
//                       book, completion accounting;
//   domains 1 .. G      one worker group each: a FaasPlatform owning the
//                       group's slice of the cluster (workers "g<i>w<j>"),
//                       fronted by its own RouterTier of view-synced
//                       replicas ("r0".."rR-1" per group).
//
// Colors partition across groups by consistent hash (all invocations of a
// color meet the same group, preserving color->instance stickiness across
// the fabric), dispatch to a group is one cross-domain hop — which also
// lower-bounds the engine lookahead — and completions hop back to the
// front door. Recorded completion timestamps follow the monolithic router
// harness convention: the dispatch hop is inside the measured latency, the
// return hop is reporting delay, not service time.
#ifndef PALETTE_SRC_WORKLOAD_SHARDED_RUN_H_
#define PALETTE_SRC_WORKLOAD_SHARDED_RUN_H_

#include <cstdint>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/faas/platform.h"
#include "src/router/router_tier.h"
#include "src/sim/sharded_simulator.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/slo.h"
#include "src/workload/spec.h"

namespace palette {

struct ShardedWorkloadConfig {
  // Worker-group domains (engine domains = groups + 1). Part of the model
  // topology: changing it changes the simulated system and the digests.
  int groups = 8;
  // Event-core threads; any value yields the same digests.
  int shards = 1;
  // Router replicas fronting each group; 0 = drivers hit the group
  // platform's own load balancer directly.
  int routers_per_group = 2;
  // Front door <-> group fabric hop, charged to dispatch and to completion
  // return. Doubles as the engine's conservative lookahead, so it must be
  // positive.
  SimTime hop = SimTime::FromMicros(500);
  // View-sync lag inside each group's router tier.
  SimTime group_sync_lag;
  DispatchMode group_dispatch = DispatchMode::kColorPartition;
  std::size_t channel_capacity = 256;
  // Telemetry: when obs.enabled(), every domain runs its own session
  // (BeginTelemetry, src/workload/spec.h), and after the run the
  // per-domain series and registries fold in fixed domain order — so the
  // merged CSV and alert log are bit-identical across `shards` values.
  WorkloadObsConfig obs;
  // Engine profiler (ShardedSimulatorConfig::profile): wall-clock phase
  // timings and per-epoch logs, reported via WorkloadRunResult::profile.
  bool profile = false;
  // Global re-balancer (docs/PLANNER.md). When enabled, each group domain
  // runs its own PlannerRuntime against its platform on the group's event
  // core. Groups are fixed by the model topology, so planner rounds — and
  // therefore digests — are bit-identical across `shards` values.
  PlannerConfig planner{.plan_every = SimTime()};
};

// Reads --groups (>= 1), --group_routers (>= 0) and --shard_hop_us (> 0)
// into `*out`; returns false (and prints to stderr) on a bad value.
bool ShardedWorkloadConfigFromFlags(const FlagParser& flags,
                                    ShardedWorkloadConfig* out);

// A fault aimed at one group's platform/tier. Worker names follow the
// group scheme ("g2w0"); router names are per-group ("r1").
struct ShardedFault {
  int group = 0;
  FaultEvent event;
};

// The old name of the harness result, still spelled by bench/ledger.
using ShardedRunResult = WorkloadRunResult;

// Runs `spec` against `config.groups` worker groups on the sharded engine,
// with `total_workers` split evenly across groups (first groups take the
// remainder). Deterministic: identical (spec, policy, workers, config,
// faults) give bit-identical samples, books, and digests for every
// `config.shards` value. `faults`, when non-null, is installed on the
// owning group's domain before the run starts.
WorkloadRunResult RunShardedWorkload(
    const WorkloadSpec& spec, PolicyKind policy, int total_workers,
    const ShardedWorkloadConfig& config, const SloConfig& slo,
    const PlatformConfig& platform_config,
    const std::vector<ShardedFault>* faults = nullptr);

}  // namespace palette

#endif  // PALETTE_SRC_WORKLOAD_SHARDED_RUN_H_
