// Shared configuration for the figure-reproduction benches so that every
// experiment runs against the same modeled cluster (§7 Setup): single-vCPU
// workers, 1 Gbps-throttled network, 8 GB Faa$T cache per instance,
// intermediate data kept in memory only.
#ifndef PALETTE_BENCH_BENCH_UTIL_H_
#define PALETTE_BENCH_BENCH_UTIL_H_

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/dag/dag_executor.h"
#include "src/dag/serverful_scheduler.h"
#include "src/obs/trace.h"
#include "src/workload/sharded_run.h"

namespace palette {

// ---------------------------------------------------------------------------
// Opt-in lifecycle tracing (docs/OBSERVABILITY.md). Benches that support it
// check TraceRequested() — set PALETTE_TRACE=1 (any value except "0") to
// record per-invocation spans and write TRACE_<bench>.json in the working
// directory. Off by default: the benches' timed loops then run with the
// recorder pointer null, i.e. zero instrumentation work.
// ---------------------------------------------------------------------------

inline bool TraceRequested() {
  const char* value = std::getenv("PALETTE_TRACE");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

inline std::string TracePath(const std::string& bench_name) {
  return "TRACE_" + bench_name + ".json";
}

// Writes the recorder's Chrome trace to TRACE_<bench>.json and prints the
// aggregate phase breakdown. Returns the path written, empty on failure.
inline std::string WriteBenchTrace(const TraceRecorder& recorder,
                                   const std::string& bench_name) {
  const std::string path = TracePath(bench_name);
  if (!recorder.WriteChromeTrace(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return std::string();
  }
  std::printf("\n%s", recorder.PhaseBreakdownTable().c_str());
  std::printf(
      "trace: %zu invocations, %zu fetches -> %s (load in Perfetto or "
      "chrome://tracing)\n",
      recorder.invocation_count(), recorder.fetch_count(), path.c_str());
  return path;
}

// CPU rating for the Dask-style (Python-level) experiments. The paper's
// tasks spend seconds on 60M "ops"; ~30M ops/s makes a 60M-op task ~2 s,
// which balances against a 256 MB transfer at 1 Gbps (~2.1 s) exactly as
// Fig. 8a intends ("balanced computation and network transfer times").
inline constexpr double kDaskOpsPerSecond = 30e6;

// CPU rating for the NumS experiments (BLAS-level kernels).
inline constexpr double kNumsOpsPerSecond = 1e9;

inline PlatformConfig DaskPlatformConfig() {
  PlatformConfig config;
  config.cpu_ops_per_second = kDaskOpsPerSecond;
  config.network.bandwidth_bits_per_sec = 1e9;
  config.cache.per_instance_capacity = 8 * kGiB;
  // Faa$T caches remote reads locally (read-side caching; §5.1 only rules
  // out push-side replication), so repeated reads of a peer's object from
  // the same instance hit locally after the first fetch.
  config.cache.replicate_on_remote_hit = true;
  // The serverless prototype serializes every object on the critical path
  // (§7.2.2 Finding 5); ~400 MB/s matches Python pickle rates and produces
  // the residual serverless-vs-serverful gap the paper reports.
  config.serialization_bytes_per_second = 400e6;
  return config;
}

inline PlatformConfig NumsPlatformConfig() {
  PlatformConfig config = DaskPlatformConfig();
  config.cpu_ops_per_second = kNumsOpsPerSecond;
  // NumS streams each operand block to a consumer once; caching remote
  // reads would overflow the 8 GB shards on MMM-16GB (2 operands = 32 GB)
  // and evict the workers' own produced blocks.
  config.cache.replicate_on_remote_hit = false;
  return config;
}

inline ServerfulConfig ServerfulConfigFor(const PlatformConfig& platform,
                                          int workers) {
  ServerfulConfig config;
  config.workers = workers;
  config.cpu_ops_per_second = platform.cpu_ops_per_second;
  config.network = platform.network;
  return config;
}

// The Ray-like baseline for the NumS experiments: overlapped communication
// and no dispatch/serialization tax (a serverful cluster), but no data
// affinity in placement — NumS's Ray device mapping does not carry block
// locations into the cluster scheduler (§7.2.4 / Fig. 10b).
inline ServerfulConfig RayConfigFor(const PlatformConfig& platform,
                                    int workers) {
  ServerfulConfig config = ServerfulConfigFor(platform, workers);
  config.locality_aware = false;
  return config;
}

inline DagRunConfig MakeDagRun(PolicyKind policy, ColoringKind coloring,
                               int workers, const PlatformConfig& platform,
                               std::uint64_t seed = 1) {
  DagRunConfig config;
  config.policy = policy;
  config.coloring = coloring;
  config.workers = workers;
  config.seed = seed;
  config.platform = platform;
  return config;
}

// Shard invariance (docs/PERF.md, "Parallel engine"): runs one sharded cell
// at --shards 1 and 4 (run.profile.shards) and returns both runs. Clears
// `*ok`, naming `cell` on stderr, unless both runs' books close and the
// runs agree on the samples and engine digests and on every RunCounters
// field.
inline std::array<WorkloadRunResult, 2> RunShardInvariantCell(
    const char* cell, const WorkloadSpec& spec, PolicyKind policy,
    int workers, ShardedWorkloadConfig config, const SloConfig& slo,
    const PlatformConfig& platform, bool* ok) {
  std::array<WorkloadRunResult, 2> runs;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    config.shards = i == 0 ? 1 : 4;
    runs[i] = RunShardedWorkload(spec, policy, workers, config, slo, platform);
  }
  if (!runs[0].books_close || !runs[1].books_close ||
      runs[0].samples_digest != runs[1].samples_digest ||
      runs[0].engine_digest != runs[1].engine_digest ||
      !(runs[0].counters == runs[1].counters)) {
    std::fprintf(stderr,
                 "FAIL: %s: books do not close, or --shards 1 and 4 "
                 "diverged\n",
                 cell);
    *ok = false;
  }
  return runs;
}

}  // namespace palette

#endif  // PALETTE_BENCH_BENCH_UTIL_H_
