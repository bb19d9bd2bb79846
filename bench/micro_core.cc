// Microbenchmarks (google-benchmark) for the core data structures on the
// load balancer's hot path: hashing, ring lookups, policy routing, and the
// HyperLogLog sketch. These bound the per-invocation overhead Palette adds
// to a FaaS frontend.
//
// On top of the google-benchmark suite, main() times three summary
// figures — simulator events/sec (schedule + dispatch through the pooled
// 4-ary heap), load-balancer routes/sec per policy, and the sharded
// engine's events/sec at shard counts {1, 2, 4, 8} on the diurnal router
// workload — and writes them to BENCH_core.json (schema
// "palette-bench-v1", shared with bench_sweep) so the perf trajectory is
// machine-readable. The sharded A/B doubles as a determinism gate: the
// binary exits non-zero if digests diverge across shard counts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/cache/faast_cache.h"
#include "src/common/json_writer.h"
#include "src/common/table_printer.h"
#include "src/core/bucket_hashing_policy.h"
#include "src/core/least_assigned_policy.h"
#include "src/core/palette_load_balancer.h"
#include "src/core/policy_factory.h"
#include "src/faas/platform.h"
#include "src/hash/consistent_hash_ring.h"
#include "src/hash/hash.h"
#include "src/sim/simulator.h"
#include "src/sketch/hyperloglog.h"
#include "src/workload/sharded_run.h"

namespace palette {
namespace {

std::vector<std::string> MakeColors(int n) {
  std::vector<std::string> colors;
  colors.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    colors.push_back(StrFormat("color-%d", i));
  }
  return colors;
}

void BM_Murmur3(benchmark::State& state) {
  const std::string key(static_cast<std::size_t>(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Murmur3_64(key));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Murmur3)->Arg(8)->Arg(32)->Arg(256);

void BM_Fnv1a(benchmark::State& state) {
  const std::string key(static_cast<std::size_t>(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fnv1a64(key));
  }
}
BENCHMARK(BM_Fnv1a)->Arg(8)->Arg(32);

void BM_JumpConsistentHash(benchmark::State& state) {
  std::uint64_t key = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JumpConsistentHash(key++, static_cast<std::uint32_t>(state.range(0))));
  }
}
BENCHMARK(BM_JumpConsistentHash)->Arg(16)->Arg(1024)->Arg(16384);

void BM_RingLookup(benchmark::State& state) {
  ConsistentHashRing ring;
  for (int i = 0; i < state.range(0); ++i) {
    ring.AddMember(StrFormat("w%d", i));
  }
  const auto colors = MakeColors(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.Lookup(colors[i++ & 1023]));
  }
}
BENCHMARK(BM_RingLookup)->Arg(8)->Arg(48)->Arg(256);

void BM_PolicyRoute(benchmark::State& state, PolicyKind kind) {
  auto policy = MakePolicy(kind, 1);
  for (int i = 0; i < 48; ++i) {
    policy->OnInstanceAdded(StrFormat("w%d", i));
  }
  const auto colors = MakeColors(8192);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->RouteColored(colors[i++ & 8191]));
  }
}
BENCHMARK_CAPTURE(BM_PolicyRoute, random, PolicyKind::kObliviousRandom);
BENCHMARK_CAPTURE(BM_PolicyRoute, rr, PolicyKind::kObliviousRoundRobin);
BENCHMARK_CAPTURE(BM_PolicyRoute, ch, PolicyKind::kConsistentHashing);
BENCHMARK_CAPTURE(BM_PolicyRoute, bh, PolicyKind::kBucketHashing);
BENCHMARK_CAPTURE(BM_PolicyRoute, la, PolicyKind::kLeastAssigned);
BENCHMARK_CAPTURE(BM_PolicyRoute, chbl, PolicyKind::kBoundedLoads);
BENCHMARK_CAPTURE(BM_PolicyRoute, repl, PolicyKind::kReplicatedColors);

void BM_BucketHashingRebalance(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    BucketHashingConfig config;
    config.bucket_count = static_cast<std::size_t>(state.range(0));
    BucketHashingPolicy policy(1, config);
    policy.OnInstanceAdded("w0");
    const auto colors = MakeColors(4096);
    for (const auto& color : colors) {
      policy.RouteColored(color);
    }
    for (int i = 1; i < 8; ++i) {
      policy.OnInstanceAdded(StrFormat("w%d", i));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(policy.Rebalance());
  }
}
BENCHMARK(BM_BucketHashingRebalance)->Arg(1024)->Arg(16384);

void BM_HllAdd(benchmark::State& state) {
  HyperLogLog hll(static_cast<int>(state.range(0)));
  std::uint64_t i = 0;
  for (auto _ : state) {
    hll.AddHash(MixU64(i++));
  }
}
BENCHMARK(BM_HllAdd)->Arg(8)->Arg(12);

void BM_HllEstimate(benchmark::State& state) {
  HyperLogLog hll(static_cast<int>(state.range(0)));
  for (std::uint64_t i = 0; i < 10000; ++i) {
    hll.AddHash(MixU64(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hll.Estimate());
  }
}
BENCHMARK(BM_HllEstimate)->Arg(8)->Arg(12);

void BM_LoadBalancerEndToEnd(benchmark::State& state) {
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, 1));
  for (int i = 0; i < 48; ++i) {
    lb.AddInstance(StrFormat("w%d", i));
  }
  const auto colors = MakeColors(8192);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb.RouteId(colors[i++ & 8191]));
  }
}
BENCHMARK(BM_LoadBalancerEndToEnd);

void BM_SimulatorEvents(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    state.ResumeTiming();
    // A self-rescheduling chain plus a fan of peers models the platform's
    // mix: mostly near-future events with some already-due ones.
    const int n = static_cast<int>(state.range(0));
    std::uint64_t ticks = 0;
    std::function<void()> chain = [&] {
      if (++ticks < static_cast<std::uint64_t>(n)) {
        sim.After(SimTime::FromNanos(10), [&chain] { chain(); });
      }
    };
    for (int i = 0; i < 64; ++i) {
      sim.After(SimTime::FromNanos(5 * i), [] {});
    }
    sim.After(SimTime::FromNanos(1), [&chain] { chain(); });
    sim.Run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEvents)->Arg(100000);

// The pull matcher at deep pending queues (docs/DISPATCH.md): 32 idle
// workers face `range(0)` pending colors that none of them may claim (each
// homed on one busy anchor worker, stealing off), and each iteration
// submits one invocation homed on an idle worker and runs the platform
// until its claimer is idle again. One iteration is one claim, so the
// time per iteration is ns per claim. It covers two matches over the full
// backlog: the arrival's, which claims, and the claimer's return to the
// idle set, which finds nothing.
void BM_PullMatch(benchmark::State& state) {
  const int pending_colors = static_cast<int>(state.range(0));
  constexpr int kIdle = 32;
  PlatformConfig config;
  config.dispatch_mode = FaasDispatchMode::kPull;
  config.steal_budget = 0;
  config.cold_start = SimTime();
  config.serialization_bytes_per_second = 0;
  std::vector<std::string> idle_names;
  for (int i = 0; i < kIdle; ++i) {
    idle_names.push_back(StrFormat("w%d", i));
  }
  const std::string anchor = "anchor";
  // Colors are picked against the final membership's cache ring, which is
  // the home rule for work no load balancer placed.
  FaastCache ring(config.cache);
  ring.AddInstance(anchor);
  for (const std::string& name : idle_names) {
    ring.AddInstance(name);
  }
  std::vector<std::string> anchored;
  std::vector<std::string> idle_homed;
  for (int i = 0; static_cast<int>(anchored.size()) < pending_colors ||
                  idle_homed.size() < 64;
       ++i) {
    std::string color = StrFormat("color-%d", i);
    if (ring.HomeInstance(color) == anchor) {
      if (static_cast<int>(anchored.size()) < pending_colors) {
        anchored.push_back(std::move(color));
      }
    } else if (idle_homed.size() < 64) {
      idle_homed.push_back(std::move(color));
    }
  }

  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  const InstanceId anchor_id = InternInstance(anchor);
  // Routed through an external route function, so no color is ever placed
  // by the platform's load balancer and every home is its ring home.
  const FaasPlatform::RouteFn route =
      [anchor_id](const std::optional<Color>&, std::uint64_t, int) {
        return std::optional<RoutedTarget>(RoutedTarget{anchor_id, 0});
      };
  const auto submit = [&](const std::string& color, double cpu_ops) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = Color(color);
    spec.cpu_ops = cpu_ops;
    platform.InvokeVia(std::move(spec), route, nullptr);
  };
  // The anchor claims a job that outlives the benchmark, then the backlog
  // queues behind it; the idle workers join last so the backlog is built
  // without a match per enqueue against the whole idle set.
  platform.AddWorker(anchor);
  submit(anchored.front(), 1e18);
  for (const std::string& color : anchored) {
    submit(color, 1e3);
  }
  sim.RunUntil(SimTime::FromMillis(10));
  for (const std::string& name : idle_names) {
    platform.AddWorker(name);
  }
  sim.RunUntil(SimTime::FromMillis(20));

  const std::uint64_t pulls_before = platform.counters().pulls;
  std::size_t i = 0;
  for (auto _ : state) {
    submit(idle_homed[i++ % idle_homed.size()], 1e3);
    sim.RunUntil(sim.Now() + SimTime::FromMillis(10));
    benchmark::DoNotOptimize(platform.counters().pulls);
  }
  const std::uint64_t claims = platform.counters().pulls - pulls_before;
  if (claims != static_cast<std::uint64_t>(state.iterations()) ||
      platform.PendingTotal() != anchored.size()) {
    state.SkipWithError("matcher claimed outside the idle-homed work");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(claims));
}
BENCHMARK(BM_PullMatch)->Arg(16)->Arg(256)->Arg(2048);

// Timed summary figures for BENCH_core.json.

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// A self-rescheduling event whose capture is the size class of the FaaS
// platform's invocation continuations (80 bytes — well past std::function's
// small-buffer threshold, within the simulator's inline capacity).
struct EventLane {
  Simulator* sim;
  std::uint64_t* checksum;
  std::uint64_t* remaining;
  std::uint64_t state;
  std::uint64_t pad[6];

  void operator()() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    *checksum += state >> 60;
    if (*remaining > 0) {
      --*remaining;
      sim->After(SimTime::FromNanos(
                     static_cast<std::int64_t>(1 + (state >> 33) % 97)),
                 *this);
    }
  }
};
static_assert(sizeof(EventLane) == 80);

// Schedules and dispatches `n` events through the pooled heap: a 2048-wide
// self-rearming event fan (a realistic pending-event depth for a loaded
// platform) whose callbacks carry platform-sized captures, instead of
// draining a pre-filled queue of empty lambdas.
double MeasureEventsPerSec(std::uint64_t n) {
  Simulator sim;
  constexpr int kFanWidth = 2048;
  std::uint64_t checksum = 0;
  std::uint64_t remaining = n;
  const auto start = std::chrono::steady_clock::now();
  for (int lane = 0; lane < kFanWidth && remaining > 0; ++lane) {
    --remaining;
    sim.At(SimTime::FromNanos(lane % 13),
           EventLane{&sim, &checksum, &remaining,
                     static_cast<std::uint64_t>(lane),
                     {}});
  }
  sim.Run();
  const double seconds = SecondsSince(start);
  benchmark::DoNotOptimize(checksum);
  return static_cast<double>(sim.executed_events()) / seconds;
}

// Sharded engine A/B (docs/PERF.md, "Parallel engine"): the diurnal router
// workload — open-loop diurnal arrivals into 8 router-fronted worker
// groups — run on the sharded conservative-lookahead engine at shard
// counts {1, 2, 4, 8}. The topology (groups, hop, routers) is fixed, only
// the thread count varies, so every run must produce bit-identical
// digests; a mismatch fails the binary so CI catches it.
struct ShardedPoint {
  int shards = 1;
  WorkloadRunResult run;
};

std::vector<ShardedPoint> MeasureShardedEngine() {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kDiurnal;
  spec.arrival.rate_per_sec = 20000;
  spec.arrival.period_seconds = 1.0;
  spec.arrival.amplitude = 0.8;
  spec.driver.duration = SimTime::FromSeconds(2);
  ShardedWorkloadConfig config;
  config.groups = 8;
  config.routers_per_group = 2;
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  slo.warmup = SimTime::FromMillis(250);
  const PlatformConfig platform_config = DefaultWorkloadPlatformConfig();
  std::vector<ShardedPoint> points;
  for (const int shards : {1, 2, 4, 8}) {
    config.shards = shards;
    ShardedPoint point;
    point.shards = shards;
    point.run = RunShardedWorkload(spec, PolicyKind::kLeastAssigned, 64,
                                   config, slo, platform_config);
    points.push_back(std::move(point));
  }
  return points;
}

// Sampler overhead A/B (docs/OBSERVABILITY.md, "Cost"): the same open-loop
// workload with telemetry off and with 100 ms sampling. The clock observer
// adds zero events to the run — the samples digest must match bit-for-bit
// — so the only cost is the per-mark refresh + snapshot work, which must
// stay a low-single-digit percentage of events/sec. Each arm takes the
// best of three runs to damp scheduler noise.
struct SamplerAb {
  double events_per_sec_off = 0;
  double events_per_sec_on = 0;
  double overhead_pct = 0;
  std::uint64_t samples_taken = 0;
  bool digests_match = false;
};

SamplerAb MeasureSamplerOverhead() {
  WorkloadSpec spec;
  spec.arrival.rate_per_sec = 20000;
  spec.driver.duration = SimTime::FromSeconds(4);
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  const PlatformConfig platform_config = DefaultWorkloadPlatformConfig();
  WorkloadObsConfig obs;
  obs.sample_every = SimTime::FromMillis(100);

  SamplerAb ab;
  std::uint64_t digest_off = 0;
  std::uint64_t digest_on = 0;
  const auto run_off = [&] {
    const auto start = std::chrono::steady_clock::now();
    const WorkloadRunResult off = RunWorkload(
        spec, PolicyKind::kLeastAssigned, 64, slo, platform_config);
    const double eps =
        static_cast<double>(off.sim_events) / SecondsSince(start);
    ab.events_per_sec_off = std::max(ab.events_per_sec_off, eps);
    digest_off = off.samples_digest;
  };
  const auto run_on = [&] {
    const auto start = std::chrono::steady_clock::now();
    const WorkloadRunResult on =
        RunWorkload(spec, PolicyKind::kLeastAssigned, 64, slo,
                    platform_config, nullptr, &obs);
    const double eps =
        static_cast<double>(on.sim_events) / SecondsSince(start);
    ab.events_per_sec_on = std::max(ab.events_per_sec_on, eps);
    digest_on = on.samples_digest;
    if (on.telemetry.series != nullptr) {
      ab.samples_taken = on.telemetry.series->samples_taken();
    }
  };
  // Alternate arm order across reps so throughput drift (turbo decay,
  // neighbor load) does not systematically tax one arm.
  for (int rep = 0; rep < 5; ++rep) {
    if (rep % 2 == 0) {
      run_off();
      run_on();
    } else {
      run_on();
      run_off();
    }
  }
  ab.digests_match = digest_off == digest_on;
  ab.overhead_pct = ab.events_per_sec_off > 0
                        ? 100.0 * (ab.events_per_sec_off -
                                   ab.events_per_sec_on) /
                              ab.events_per_sec_off
                        : 0;
  return ab;
}

double MeasureRoutesPerSec(PolicyKind kind, std::uint64_t n) {
  PaletteLoadBalancer lb(MakePolicy(kind, 1));
  for (int i = 0; i < 48; ++i) {
    lb.AddInstance(StrFormat("w%d", i));
  }
  const auto colors = MakeColors(8192);
  // Warm the color tables so the steady-state (hit) path dominates.
  for (std::size_t i = 0; i < 8192; ++i) {
    lb.RouteId(colors[i]);
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    benchmark::DoNotOptimize(lb.RouteId(colors[i & 8191]));
  }
  return static_cast<double>(n) / SecondsSince(start);
}

// Returns false when the sharded engine's digests diverge across shard
// counts (a determinism regression).
bool WriteBenchCoreJson() {
  constexpr std::uint64_t kEvents = 2'000'000;
  constexpr std::uint64_t kRoutes = 2'000'000;
  const double events_per_sec = MeasureEventsPerSec(kEvents);

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("palette-bench-v1");
  json.Key("bench");
  json.String("core");
  json.Key("results");
  json.BeginArray();
  json.BeginObject();
  json.Key("name");
  json.String("events_per_sec");
  json.Key("value");
  json.Double(events_per_sec);
  json.EndObject();
  std::printf("\nevents_per_sec: %.3e\n", events_per_sec);

  const SamplerAb sampler = MeasureSamplerOverhead();
  json.BeginObject();
  json.Key("name");
  json.String("workload_events_per_sec_unsampled");
  json.Key("value");
  json.Double(sampler.events_per_sec_off);
  json.EndObject();
  json.BeginObject();
  json.Key("name");
  json.String("workload_events_per_sec_sampled");
  json.Key("value");
  json.Double(sampler.events_per_sec_on);
  json.Key("sample_every_ms");
  json.Double(100);
  json.Key("samples_taken");
  json.UInt(sampler.samples_taken);
  json.Key("overhead_pct");
  json.Double(sampler.overhead_pct);
  json.Key("digests_match");
  json.Bool(sampler.digests_match);
  json.EndObject();
  std::printf(
      "sampler A/B: %.3e events/sec off, %.3e on (100ms windows, %llu "
      "samples) -> %.2f%% overhead, digests %s\n",
      sampler.events_per_sec_off, sampler.events_per_sec_on,
      static_cast<unsigned long long>(sampler.samples_taken),
      sampler.overhead_pct, sampler.digests_match ? "match" : "DIVERGE");

  for (const PolicyKind kind : AllPolicyKinds()) {
    const double routes = MeasureRoutesPerSec(kind, kRoutes);
    json.BeginObject();
    json.Key("name");
    json.String(StrFormat("routes_per_sec_%s",
                          std::string(PolicyKindId(kind)).c_str()));
    json.Key("value");
    json.Double(routes);
    json.EndObject();
    std::printf("routes_per_sec_%s: %.3e\n",
                std::string(PolicyKindId(kind)).c_str(), routes);
  }
  const std::vector<ShardedPoint> sharded = MeasureShardedEngine();
  bool digests_match = true;
  for (const ShardedPoint& point : sharded) {
    const double sharded_eps =
        point.run.wall_seconds > 0
            ? static_cast<double>(point.run.sim_events) /
                  point.run.wall_seconds
            : 0;
    json.BeginObject();
    json.Key("name");
    json.String("sharded_events_per_sec");
    json.Key("shards");
    json.Int(point.shards);
    json.Key("value");
    json.Double(sharded_eps);
    json.Key("events_per_sec_per_core");
    json.Double(sharded_eps / point.shards);
    json.Key("events");
    json.UInt(point.run.sim_events);
    json.Key("epochs");
    json.UInt(point.run.epochs);
    json.Key("engine_digest");
    json.String(StrFormat("%016llx", static_cast<unsigned long long>(
                                         point.run.engine_digest)));
    json.EndObject();
    std::printf(
        "sharded_events_per_sec (shards=%d): %.3e (%.3e/core, %llu events, "
        "%llu epochs, digest %016llx)\n",
        point.shards, sharded_eps, sharded_eps / point.shards,
        static_cast<unsigned long long>(point.run.sim_events),
        static_cast<unsigned long long>(point.run.epochs),
        static_cast<unsigned long long>(point.run.engine_digest));
    if (point.run.engine_digest != sharded.front().run.engine_digest ||
        point.run.samples_digest != sharded.front().run.samples_digest) {
      digests_match = false;
    }
  }
  if (!digests_match) {
    std::fprintf(stderr,
                 "FAIL: sharded engine digests diverge across shard "
                 "counts\n");
  }
  if (!sampler.digests_match) {
    std::fprintf(stderr,
                 "FAIL: samples digest changed with the telemetry sampler "
                 "on — the clock observer must add zero events\n");
    digests_match = false;
  }
  json.EndArray();
  json.EndObject();
  if (WriteTextFile("BENCH_core.json", json.str())) {
    std::printf("wrote BENCH_core.json\n");
  }
  return digests_match;
}

}  // namespace
}  // namespace palette

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return palette::WriteBenchCoreJson() ? 0 : 1;
}
