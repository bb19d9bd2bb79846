// Figure 6a — Cache effectiveness in the Social Network benchmark:
// aggregate in-memory hit ratio across all instances as the number of
// function workers grows, comparing Oblivious routing with Palette's Bucket
// Hashing color scheduling (colors = object ids, §6.1).
//
// Paper result to match: Oblivious stays flat (~4%) from 1 to 24 workers;
// Palette grows from ~4% to ~24% — near-perfect cache partitioning.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/faas/platform.h"
#include "src/sim/simulator.h"
#include "src/socialnet/content.h"
#include "src/socialnet/social_graph.h"
#include "src/socialnet/webapp_sim.h"
#include "src/socialnet/workload.h"

namespace palette {
namespace {

// PALETTE_TRACE=1: replay a slice of the trace through the full simulated
// FaaS platform and emit per-invocation lifecycle spans. The hit-ratio
// table above uses the lightweight cache-only replay (RunWebAppExperiment),
// which has no notion of time; this path exercises the same coloring on
// the event-driven platform so route/queue/fetch/compute/store spans exist.
void MaybeTraceReplay(const std::vector<CacheAccess>& trace) {
  if (!TraceRequested()) {
    return;
  }
  constexpr int kWorkers = 12;
  constexpr std::size_t kRequests = 2000;

  Simulator sim;
  PlatformConfig platform_config;
  platform_config.cache.per_instance_capacity = 128 * kMiB;
  FaasPlatform platform(&sim, PolicyKind::kBucketHashing, /*seed=*/5,
                        platform_config);
  platform.AddWorkers(kWorkers);
  TraceRecorder recorder;
  platform.set_trace_recorder(&recorder);

  // Each access is one colored invocation reading its object (the §6.1
  // coloring: color = object id). Arrivals are paced so worker queues form
  // and drain, giving every span phase non-trivial mass. Object names get
  // a "<color>___<key>" hash-key prefix; translation makes the object's
  // cache home the instance its color routes to, so the first access per
  // object misses to storage and later ones hit locally.
  const std::size_t n = std::min(kRequests, trace.size());
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const CacheAccess& access = trace[i];
    sim.At(SimTime::FromMicros(static_cast<std::int64_t>(1000 * i)),
           [&platform, &access, &completed, i]() {
             InvocationSpec spec;
             spec.function = "get_object";
             spec.color = access.key;
             spec.cpu_ops = 2e6;
             const std::string raw =
                 access.key + std::string(kHashKeyToken) + access.key;
             spec.inputs.push_back(ObjectRef{
                 platform.TranslateObjectName(raw), access.size});
             // A small per-request response object so the store phase is
             // exercised (rendered page fragment, kept in the cache).
             spec.outputs.push_back(ObjectRef{
                 platform.TranslateObjectName(
                     access.key + std::string(kHashKeyToken) +
                     StrFormat("resp%zu", i)),
                 64 * 1024});
             platform.Invoke(std::move(spec),
                             [&completed](const InvocationResult&) {
                               ++completed;
                             });
           });
  }
  sim.Run();

  const auto totals = recorder.Totals();
  const double e2e = totals.end_to_end.seconds();
  const double sum = totals.PhaseSum().seconds();
  const double err = e2e > 0 ? std::abs(sum - e2e) / e2e : 0.0;
  std::printf(
      "\nreplayed %llu invocations on %d workers (simulated %.3f s)\n",
      static_cast<unsigned long long>(completed), kWorkers,
      sim.Now().seconds());
  std::printf("span-sum check: phases %.6f s vs end-to-end %.6f s "
              "(%.4f%% apart): %s\n",
              sum, e2e, 100 * err, err <= 0.01 ? "OK" : "FAIL");
  WriteBenchTrace(recorder, "fig06a_socialnet_hit_ratio");
  std::printf(
      "cache: %llu local hits, %llu remote hits, %llu misses; "
      "%llu hints honored\n",
      static_cast<unsigned long long>(platform.cache().local_hits()),
      static_cast<unsigned long long>(platform.cache().remote_hits()),
      static_cast<unsigned long long>(platform.cache().misses()),
      static_cast<unsigned long long>(
          platform.load_balancer().hints_honored()));
}

void Run() {
  std::printf("== Figure 6a: Social Network aggregate cache hit ratio ==\n");

  const SocialGraph graph{};  // Reed98-scale defaults
  const SocialContent content(graph);
  const SocialWorkloadConfig workload{};  // 72K requests, Zipf 0.9
  const auto trace = GenerateSocialTrace(content, workload);
  const auto stats = ComputeTraceStats(trace);
  std::printf(
      "trace: %llu requests, %llu accesses, %llu unique objects, %s unique "
      "bytes\n\n",
      static_cast<unsigned long long>(workload.request_count),
      static_cast<unsigned long long>(stats.accesses),
      static_cast<unsigned long long>(stats.unique_objects),
      FormatBytes(stats.unique_bytes).c_str());

  TablePrinter table;
  table.AddRow({"workers", "palette_bh_hit%", "oblivious_hit%",
                "palette_imbalance", "aggregate_cache"});
  for (int workers : {1, 2, 6, 12, 24}) {
    WebAppConfig palette;
    palette.policy = PolicyKind::kBucketHashing;
    palette.workers = workers;
    palette.use_colors = true;

    WebAppConfig oblivious = palette;
    oblivious.policy = PolicyKind::kObliviousRandom;
    oblivious.use_colors = false;

    const auto p = RunWebAppExperiment(trace, palette);
    const auto o = RunWebAppExperiment(trace, oblivious);
    table.AddRow({StrFormat("%d", workers),
                  StrFormat("%.1f", 100 * p.hit_ratio),
                  StrFormat("%.1f", 100 * o.hit_ratio),
                  StrFormat("%.2f", p.routing_imbalance),
                  FormatBytes(static_cast<Bytes>(workers) *
                              palette.per_instance_cache_bytes)});
  }
  table.Print();
  MaybeTraceReplay(trace);
}

}  // namespace
}  // namespace palette

int main() {
  palette::Run();
  return 0;
}
