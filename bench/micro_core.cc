// Microbenchmarks (google-benchmark) for the core data structures on the
// load balancer's hot path: hashing, ring lookups, policy routing, and the
// HyperLogLog sketch. These bound the per-invocation overhead Palette adds
// to a FaaS frontend.
//
// main() keeps every google-benchmark run's wall ns per iteration (the
// pull matcher and planner layers among them), then times three summary
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
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/faast_cache.h"
#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/core/bucket_hashing_policy.h"
#include "src/core/least_assigned_policy.h"
#include "src/core/palette_load_balancer.h"
#include "src/core/policy_factory.h"
#include "src/faas/platform.h"
#include "src/hash/consistent_hash_ring.h"
#include "src/hash/hash.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/planner/rebalance_planner.h"
#include "src/planner/snapshot.h"
#include "src/router/router_tier.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/sketch/hyperloglog.h"
#include "src/storage/storage_layer.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

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

// The pull matcher at deep pending queues (docs/DISPATCH.md): `range(1)`
// idle workers face `range(0)` pending colors that none of them may claim
// (each homed on one busy anchor worker, stealing off), and each iteration
// submits one invocation homed on an idle worker and runs the platform
// until its claimer is idle again. One iteration is one claim, so the
// time per iteration is ns per claim. It covers two matches over the full
// backlog: the arrival's, which claims, and the claimer's return to the
// idle pool, which finds nothing. The idle width shows what a match costs
// per idle worker it visits; all workers live in this one process and no
// thread is started.
void BM_PullMatch(benchmark::State& state) {
  const int pending_colors = static_cast<int>(state.range(0));
  const int idle_workers = static_cast<int>(state.range(1));
  PlatformConfig config;
  config.dispatch_mode = FaasDispatchMode::kPull;
  config.steal_budget = 0;
  config.cold_start = SimTime();
  config.serialization_bytes_per_second = 0;
  std::vector<std::string> idle_names;
  for (int i = 0; i < idle_workers; ++i) {
    idle_names.push_back(StrFormat("w%d", i));
  }
  const std::string anchor = "anchor";
  // Colors are picked against the final membership's cache ring, which is
  // the home rule for work no load balancer placed.
  FaastCache ring(config.cache);
  ring.AddInstance(anchor);
  const InstanceId anchor_id = InternInstance(anchor);
  for (const std::string& name : idle_names) {
    ring.AddInstance(name);
  }
  std::vector<std::string> anchored;
  std::vector<std::string> idle_homed;
  for (int i = 0; static_cast<int>(anchored.size()) < pending_colors ||
                  idle_homed.size() < 64;
       ++i) {
    std::string color = StrFormat("color-%d", i);
    if (ring.HomeInstanceId(color) == anchor_id) {
      if (static_cast<int>(anchored.size()) < pending_colors) {
        anchored.push_back(std::move(color));
      }
    } else if (idle_homed.size() < 64) {
      idle_homed.push_back(std::move(color));
    }
  }

  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  // Routed by an attached router, so no color is ever placed by the
  // platform's load balancer and every home is its ring home.
  platform.set_router(
      [anchor_id](const std::optional<Color>&, std::uint64_t, int) {
        return std::optional<RoutedTarget>(RoutedTarget{anchor_id, 0});
      });
  const auto submit = [&](const std::string& color, double cpu_ops) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = Color(color);
    spec.cpu_ops = cpu_ops;
    platform.Invoke(std::move(spec), nullptr);
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
BENCHMARK(BM_PullMatch)
    ->ArgNames({"pending", "idle"})
    ->ArgsProduct({{16, 256, 2048}, {8, 32, 256}});

// One FaastCache::Get, the input fetch every run makes once a claim
// lands, on a 32-shard cache holding 1024 objects at their ring homes.
// range(0) picks the outcome: 0 = local hit (the home reads), 1 = remote
// hit (another shard reads), 2 = miss (a name never stored). Reads rotate
// over the objects so no single LRU entry stays hot.
void BM_CacheFetch(benchmark::State& state) {
  const int outcome = static_cast<int>(state.range(0));
  constexpr int kShards = 32;
  constexpr int kObjects = 1024;
  FaastCache cache;
  std::vector<std::string> shards;
  for (int i = 0; i < kShards; ++i) {
    shards.push_back(StrFormat("w%d", i));
    cache.AddInstance(shards.back());
  }
  struct Read {
    InstanceId reader;
    std::string object;
  };
  std::vector<Read> reads;
  for (int i = 0; i < kObjects; ++i) {
    std::string object = StrFormat("color-%d___obj", i);
    const InstanceId home = *cache.HomeInstanceId(object);
    if (outcome == 2) {
      object += "-absent";
    } else {
      cache.Put(home, object, 4 * kKiB);
    }
    InstanceId reader = home;
    if (outcome != 0) {
      // Any shard but the home: the next one in name-index order.
      const auto at =
          std::find(shards.begin(), shards.end(), InstanceName(home));
      reader = InternInstance(
          shards[static_cast<std::size_t>(at - shards.begin() + 1) %
                 shards.size()]);
    }
    reads.push_back(Read{reader, std::move(object)});
  }
  static constexpr CacheOutcome kExpected[] = {
      CacheOutcome::kLocalHit, CacheOutcome::kRemoteHit, CacheOutcome::kMiss};
  static constexpr const char* kLabels[] = {"local_hit", "remote_hit",
                                            "miss"};
  bool as_expected = true;
  std::size_t i = 0;
  for (auto _ : state) {
    const Read& read = reads[i++ % reads.size()];
    const CacheLookup lookup = cache.Get(read.reader, read.object);
    as_expected &= lookup.outcome == kExpected[outcome];
    benchmark::DoNotOptimize(lookup);
  }
  if (!as_expected) {
    state.SkipWithError("a read did not take the benchmarked outcome");
  }
  state.SetLabel(kLabels[outcome]);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheFetch)->Arg(0)->Arg(1)->Arg(2);

// One write-back StorageLayer::OnWrite of a replicated output on
// `range(0)` instances, plus the events it schedules: the flush its
// dirty-age timer fires and the anti-entropy replay on every peer outside
// the write's replica set. The writer is the object's ring home (colored
// routing) and the next two instances in join order hold synchronous
// replicas, as a split color's writes land. Writes rotate over 1024
// objects. The layer's anti-entropy log is never trimmed, so it grows by
// one record per iteration.
void BM_StorageWrite(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  constexpr int kObjects = 1024;
  Simulator sim;
  Network network(&sim, NetworkConfig{});
  network.AddNode(kStorageNode);
  FaastCache cache;
  StorageConfig config;
  config.mode = CoherenceMode::kWriteBack;
  StorageLayer storage(&sim, &network, &cache, config, kStorageNode);
  std::vector<std::string> names;
  for (int i = 0; i < instances; ++i) {
    names.push_back(StrFormat("w%d", i));
    network.AddNode(names.back());
    cache.AddInstance(names.back());
    storage.OnInstanceJoin(names.back());
  }
  sim.Run();  // the joins' catch-up replays
  struct Write {
    std::string object;
    std::string home;
    std::vector<std::string> replicas;
  };
  std::vector<Write> writes;
  for (int i = 0; i < kObjects; ++i) {
    Write write;
    write.object = StrFormat("color-%d___out", i);
    write.home = InstanceName(*cache.HomeInstanceId(write.object));
    const auto at = static_cast<std::size_t>(
        std::find(names.begin(), names.end(), write.home) - names.begin());
    for (std::size_t r = 1; r <= 2; ++r) {
      write.replicas.push_back(names[(at + r) % names.size()]);
    }
    writes.push_back(std::move(write));
  }
  const std::uint64_t flushes_before = storage.stats().flushes;
  std::size_t i = 0;
  for (auto _ : state) {
    const Write& write = writes[i++ % writes.size()];
    benchmark::DoNotOptimize(storage.OnWrite(write.home, write.home,
                                             write.object, 4 * kKiB,
                                             std::nullopt, write.replicas,
                                             sim.Now()));
    sim.Run();
  }
  if (storage.stats().flushes - flushes_before !=
      static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a write did not flush exactly once");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StorageWrite)->ArgName("instances")->Arg(4)->Arg(32);

// One planner solve (docs/PLANNER.md) over `range(0)` colors on 32
// instances: harmonic loads with two hot head colors (one over the split
// threshold), seeded random placements and cache bytes, and every
// sixteenth color dirty.
void BM_PlannerSolve(benchmark::State& state) {
  const int colors = static_cast<int>(state.range(0));
  Rng rng(42);
  PlacementSnapshot snapshot;
  for (int i = 0; i < 32; ++i) {
    snapshot.instances.push_back(InternInstance(StrFormat("w%d", i)));
  }
  for (int c = 0; c < colors; ++c) {
    ColorObservation obs;
    obs.color = StrFormat("color-%05d", c);
    obs.load_ewma = (c < 2 ? 0.25 * colors : 10.0) / (1.0 + c % 97);
    obs.cache_bytes = static_cast<Bytes>(rng.NextBelow(1 << 20));
    obs.dirty_bytes = c % 16 == 0 ? static_cast<Bytes>(rng.NextBelow(1 << 16))
                                  : 0;
    obs.placement = snapshot.instances[rng.NextBelow(32)];
    snapshot.colors.push_back(std::move(obs));
  }
  const RebalancePlanner planner{PlannerConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Solve(snapshot));
  }
  state.SetItemsProcessed(state.iterations() * colors);
}
BENCHMARK(BM_PlannerSolve)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// A warmed write-back platform shaped like the ledger's hot_planner_writes:
// 32 workers, Zipf 1.2 over `colors` colors, 5% writes, stopped mid-run so
// dirty write-back bytes remain. No planner runs, so placements are Least
// Assigned's own.
struct WarmPlannerPlatform {
  explicit WarmPlannerPlatform(int colors)
      : spec(Spec(colors)),
        platform(&sim, PolicyKind::kLeastAssigned, spec.seed, Config()) {
    platform.AddWorkers(32);
    platform.load_balancer().set_color_stats_enabled(true);
    driver = std::make_unique<OpenLoopDriver>(
        &platform, MakeArrivalProcess(spec.arrival, 1),
        InvocationMix(spec.mix), spec.driver, 2);
    driver->Start();
    sim.RunUntil(SimTime::FromSeconds(15));
  }

  static WorkloadSpec Spec(int colors) {
    WorkloadSpec spec;
    spec.arrival.rate_per_sec = 1000;
    spec.mix.color_count = colors;
    spec.mix.zipf_theta = 1.2;
    spec.mix.write_fraction = 0.05;
    spec.driver.duration = SimTime::FromSeconds(20);
    spec.seed = 1;
    return spec;
  }
  static PlatformConfig Config() {
    PlatformConfig config = DefaultWorkloadPlatformConfig();
    config.storage.mode = CoherenceMode::kWriteBack;
    return config;
  }

  WorkloadSpec spec;
  Simulator sim;
  FaasPlatform platform;
  std::unique_ptr<OpenLoopDriver> driver;
};

// One snapshot collection on the warmed platform.
void BM_PlannerCollect(benchmark::State& state) {
  WarmPlannerPlatform warm(static_cast<int>(state.range(0)));
  SnapshotCollector collector(PlannerConfig{}.ewma_beta);
  std::size_t colors_seen = 0;
  for (auto _ : state) {
    colors_seen = collector.Collect(warm.platform).colors.size();
  }
  state.counters["colors_seen"] = static_cast<double>(colors_seen);
  state.counters["dirty_mib"] = static_cast<double>(
      warm.platform.storage_layer()->total_dirty_bytes()) / kMiB;
}
BENCHMARK(BM_PlannerCollect)->Arg(4096)->Unit(benchmark::kMicrosecond);

// One solve of the snapshot BM_PlannerCollect takes: the ledger's mix of
// slots (Zipf loads on Least Assigned's placements, a color hot enough to
// split), which BM_PlannerSolve's random placements do not have.
void BM_PlannerRound(benchmark::State& state) {
  WarmPlannerPlatform warm(static_cast<int>(state.range(0)));
  const PlacementSnapshot snapshot =
      SnapshotCollector(PlannerConfig{}.ewma_beta).Collect(warm.platform);
  const RebalancePlanner planner{PlannerConfig{}};
  std::size_t moves = 0;
  for (auto _ : state) {
    const Plan plan = planner.Solve(snapshot);
    moves = plan.moves.size() + plan.splits.size() + plan.merges.size();
    benchmark::DoNotOptimize(moves);
  }
  state.counters["colors_seen"] = static_cast<double>(snapshot.colors.size());
  state.counters["plan_entries"] = static_cast<double>(moves);
}
BENCHMARK(BM_PlannerRound)->Arg(4096)->Unit(benchmark::kMicrosecond);

// One group-domain telemetry mark (docs/PERF.md, "Measured: telemetry
// mark"): the session's refresh, which exports the platform, its 2-router
// tier and the driver into the registry, plus TimeSeriesSampler::Sample
// over the tracked series. The platform is warmed by 2 s of diurnal
// traffic at a sharded_diurnal group's share of the load (3000 rps over 8
// groups). Each iteration first records 8 values into each of the
// platform's six latency histograms, so every window holds fresh values;
// the series rings fill after 4096 marks and wrap from then on.
void BM_TelemetryMark(benchmark::State& state) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        DefaultWorkloadPlatformConfig());
  platform.AddWorkers(8);
  RouterTierConfig tier_config;
  tier_config.routers = 2;
  RouterTier tier(&platform, tier_config);
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kDiurnal;
  spec.arrival.rate_per_sec = 375;
  spec.arrival.period_seconds = 10;
  spec.arrival.amplitude = 0.8;
  spec.mix.color_count = 512;
  spec.driver.duration = SimTime::FromSeconds(2);
  OpenLoopDriver driver(&platform, MakeArrivalProcess(spec.arrival, 1),
                        InvocationMix(spec.mix), spec.driver, 2);
  WorkloadObsConfig obs;
  obs.sample_every = SimTime::FromMillis(100);
  const WorkloadTelemetry telemetry =
      BeginTelemetry(obs, &sim, &platform, &tier, &driver);
  driver.Start();
  sim.Run();
  std::vector<LatencyHistogram*> histograms;
  for (const char* name :
       {"faas.latency.end_to_end_ns", "faas.latency.route_ns",
        "faas.latency.queue_ns", "faas.latency.fetch_ns",
        "faas.latency.compute_ns", "faas.latency.store_ns"}) {
    histograms.push_back(&telemetry.metrics->histogram(name));
  }
  // Log-uniform latencies between 1 us and about 1 s.
  Rng rng(7);
  std::vector<std::uint64_t> values(4096);
  for (std::uint64_t& v : values) {
    v = std::uint64_t{1000} << rng.NextBelow(20);
    v += rng.NextBelow(v);
  }
  TimeSeriesSampler& sampler = *telemetry.series;
  SimTime mark = sampler.next_mark();
  std::size_t next_value = 0;
  for (auto _ : state) {
    for (LatencyHistogram* histogram : histograms) {
      for (int k = 0; k < 8; ++k) {
        histogram->Record(values[next_value++ % values.size()]);
      }
    }
    sampler.Sample(mark);
    mark = sampler.next_mark();
    benchmark::DoNotOptimize(mark);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryMark);

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

// The console reporter, also keeping each google-benchmark run's wall
// time per iteration for BENCH_core.json.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Iteration && run.iterations > 0) {
        ns_per_iteration.emplace_back(
            run.benchmark_name(), run.real_accumulated_time * 1e9 /
                                      static_cast<double>(run.iterations));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<std::pair<std::string, double>> ns_per_iteration;
};

// Returns false when the sharded engine's digests diverge across shard
// counts (a determinism regression).
bool WriteBenchCoreJson(
    const std::vector<std::pair<std::string, double>>& micro) {
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
  for (const auto& [name, ns] : micro) {
    json.BeginObject();
    json.Key("name");
    json.String("micro_ns_per_iteration");
    json.Key("benchmark");
    json.String(name);
    json.Key("value");
    json.Double(ns);
    json.EndObject();
  }
  json.BeginObject();
  json.Key("name");
  json.String("events_per_sec");
  json.Key("value");
  json.Double(events_per_sec);
  json.EndObject();
  std::printf("\nevents_per_sec: %.3e\n", events_per_sec);

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
  palette::RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return palette::WriteBenchCoreJson(reporter.ns_per_iteration) ? 0 : 1;
}
