// WorkloadSpec: one self-contained description of an open-loop experiment —
// arrival process, invocation mix, driver horizon, and seed — parseable
// from CLI flags and serializable into the BENCH_slo.json header so a
// result file names the exact workload that produced it.
#ifndef PALETTE_SRC_WORKLOAD_SPEC_H_
#define PALETTE_SRC_WORKLOAD_SPEC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/faas/platform.h"
#include "src/obs/alerts.h"
#include "src/obs/timeseries.h"
#include "src/planner/planner_runtime.h"
#include "src/router/router_tier.h"
#include "src/sim/sharded_simulator.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/mix.h"
#include "src/workload/slo.h"

namespace palette {

class FaultSchedule;
class FlagParser;
class JsonWriter;

struct WorkloadSpec {
  ArrivalSpec arrival;
  MixConfig mix;
  DriverConfig driver;
  // Experiment seed; the arrival process and the mix/driver stream derive
  // independent sub-streams from it.
  std::uint64_t seed = 1;
};

// Reads a spec from flags (all optional, defaults above):
//   --arrival=poisson|fixed|mmpp|diurnal  --rate=<rps>  --duration=<s>
//   --burst_mult= --on_s= --off_s=        (mmpp)
//   --period_s= --amplitude=              (diurnal)
//   --colors= --theta= --churn_interval_s= --churn_step=
//   --objects_per_color= --inputs= --cpu_ops= --write_fraction=
//   --seed= --max_invocations=
// Returns false (and prints to stderr) on an unknown arrival kind, a
// non-positive rate, fewer than one color, a bad time flag (DurationFlag)
// or a non-positive --on_s, --off_s or --period_s.
bool WorkloadSpecFromFlags(const FlagParser& flags, WorkloadSpec* out);

// Appends the spec as a JSON object value (caller wrote the key).
void AppendWorkloadSpecJson(const WorkloadSpec& spec, JsonWriter* json);

// Platform sized so open-loop SLO runs exercise the locality trade-off:
// a deliberately small per-instance cache (256 MiB, below the default
// mix's ~340 MiB object population) makes oblivious routing thrash where
// color-sticky routing keeps each instance's 1/N share warm.
PlatformConfig DefaultWorkloadPlatformConfig();

// Telemetry for one run (docs/OBSERVABILITY.md). Off by default: with
// sample_every == 0 no registry or sampler is attached at all, so the
// run's outputs are byte-identical to an obs-free build of the harness.
struct WorkloadObsConfig {
  SimTime sample_every;  // sampling window; zero = telemetry off
  std::size_t ring_capacity = 4096;
  std::vector<AlertRule> alert_rules;

  bool enabled() const { return sample_every > SimTime(); }
};

// What an obs-enabled run hands back: the end-of-run registry (Prometheus
// exposition), the windowed series (CSV / counter tracks / dashboards),
// and the evaluated alert engine. All null when telemetry was off.
struct WorkloadTelemetry {
  std::shared_ptr<MetricsRegistry> metrics;
  std::shared_ptr<TimeSeriesSampler> series;
  std::shared_ptr<AlertEngine> alerts;

  bool enabled() const { return series != nullptr; }
};

// One telemetry session per simulated domain (docs/OBSERVABILITY.md); the
// platform, tier and driver are each nullable. Begin attaches a registry
// to the platform, refreshes it from every source once per window and
// samples on the simulator's event-free clock observer, so digests are
// bit-identical with telemetry on or off. Call it before driver Start().
WorkloadTelemetry BeginTelemetry(const WorkloadObsConfig& obs, Simulator* sim,
                                 FaasPlatform* platform, RouterTier* tier,
                                 const OpenLoopDriver* driver);

// Closes a drained session: samples the idle tail up to max(now, horizon),
// detaches the refresh and exports every source's final state.
void FinishTelemetry(Simulator* sim, FaasPlatform* platform, RouterTier* tier,
                     const OpenLoopDriver* driver, SimTime horizon,
                     WorkloadTelemetry* t);

// Evaluates `obs.alert_rules` (if any) over the finished series.
void EvaluateAlerts(const WorkloadObsConfig& obs, WorkloadTelemetry* t);

// Every counter a harness run reports, read once from the platform (and
// router tier) after the drain. Field names follow the registry names in
// the comments, so the result struct, loadgen's text and JSON, and the
// Prometheus export cannot disagree. Sharded runs fold one per group with
// +=, so the same counters read the same in every harness topology.
struct RunCounters {
  PlatformCounters platform;
  // Load balancer: failure-aware re-colorings and planned migration
  // (planner counters are zero unless a planner ran; docs/PLANNER.md).
  std::uint64_t recolored = 0;       // lb.recolored
  std::uint64_t planner_moves = 0;   // lb.planner_moves
  std::uint64_t planner_splits = 0;  // lb.planner_splits
  std::uint64_t planner_merges = 0;  // planner.merges
  // Router tier (docs/ROUTING.md); zero when traffic bypassed a tier.
  std::uint64_t router_routes = 0;        // router.routes
  std::uint64_t router_stale_routes = 0;  // router.stale_routes
  std::uint64_t router_misroutes = 0;     // router.misroutes
  std::uint64_t router_forwards = 0;      // router.forwards
  std::uint64_t router_recolored = 0;     // router.recolored (views summed)
  // Storage-tier books (docs/STORAGE.md), storage.*: all zero unless the
  // platform config enabled a coherence mode. After the drain,
  //   writes_total = writes_durable + writes_lost.
  StorageStats storage;

  RunCounters& operator+=(const RunCounters& other);
  bool operator==(const RunCounters&) const = default;
};

// Reads every RunCounters field from `platform` and, when non-null, the
// router tier fronting it.
RunCounters CollectRunCounters(const FaasPlatform& platform,
                               const RouterTier* tier);

// The result of every harness run, direct, router and sharded
// (src/workload/sharded_run.h). A topology's own fields stay default in
// the others.
struct WorkloadRunResult {
  SloReport report;
  // Order-sensitive digest over the driver's sample book.
  std::uint64_t samples_digest = 0;
  std::uint64_t sim_events = 0;
  // Front-door books. rejections are invocations no platform or tier
  // accepted: driver.rejected() on monolithic runs, the summed group
  // rejections on sharded runs. books_close is
  //   driver_submitted == counters.platform.submitted + rejections
  // and counters.platform.BooksClose().
  std::uint64_t driver_submitted = 0;
  std::uint64_t driver_completed = 0;
  std::uint64_t rejections = 0;
  bool books_close = false;
  // Summed over the groups of a sharded run.
  RunCounters counters;
  // Null members unless the run's WorkloadObsConfig enabled telemetry.
  WorkloadTelemetry telemetry;

  // Monolithic runs only: the sample book, the per-round planner
  // objectives, and max/avg invocations routed per instance.
  std::vector<InvocationSample> samples;
  std::vector<PlanRound> plan_rounds;
  double routing_imbalance = 0;
  // Sharded runs only: the engine's combined per-domain event digest, its
  // epochs, the wall time of the engine run, and the profiler snapshot.
  std::uint64_t engine_digest = 0;
  std::uint64_t epochs = 0;
  double wall_seconds = 0;
  EngineProfile profile;
};

// Fills the front-door books; call after `result->counters` is filled.
void CloseBooks(const OpenLoopDriver& driver, std::uint64_t rejections,
                WorkloadRunResult* result);

// Runs `spec` open-loop against a fresh Simulator + FaasPlatform with
// `workers` workers under `policy`, drains the platform, and scores the
// samples. Deterministic: identical (spec, policy, workers, config,
// faults) give a bit-identical sample set. `faults`, when non-null, is
// installed on the simulator before the driver starts.
WorkloadRunResult RunWorkload(const WorkloadSpec& spec, PolicyKind policy,
                              int workers, const SloConfig& slo,
                              const PlatformConfig& platform_config,
                              const FaultSchedule* faults = nullptr,
                              const WorkloadObsConfig* obs = nullptr,
                              const PlannerConfig* planner = nullptr);

// Like RunWorkload, but traffic flows through a RouterTier of
// `tier_config.routers` replicas (docs/ROUTING.md) instead of the
// platform's load balancer. `tier_config.policy` and `.seed` are
// overridden from `policy` / `spec.seed` so one (spec, policy) pair names
// the same experiment in both harnesses. Router crash/restart entries in
// `faults` are delivered to the tier; worker entries to the platform.
WorkloadRunResult RunRouterWorkload(const WorkloadSpec& spec,
                                    PolicyKind policy, int workers,
                                    RouterTierConfig tier_config,
                                    const SloConfig& slo,
                                    const PlatformConfig& platform_config,
                                    const FaultSchedule* faults = nullptr,
                                    const WorkloadObsConfig* obs = nullptr,
                                    const PlannerConfig* planner = nullptr);

}  // namespace palette

#endif  // PALETTE_SRC_WORKLOAD_SPEC_H_
