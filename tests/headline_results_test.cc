// Regression guard for the reproduction's headline results: scaled-down
// versions of the paper's key findings, pinned as assertions so a code
// change that silently breaks a figure fails CI, not just the benches.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/core/load_model.h"
#include "src/socialnet/content.h"
#include "src/socialnet/social_graph.h"
#include "src/socialnet/webapp_sim.h"
#include "src/socialnet/workload.h"
#include "src/taskbench/taskbench.h"
#include "src/dag/dag_executor.h"
#include "src/dag/serverful_scheduler.h"
#include "src/tpch/tpch.h"

namespace palette {
namespace {

PlatformConfig DaskLikePlatform() {
  PlatformConfig config;
  config.cpu_ops_per_second = 30e6;
  config.serialization_bytes_per_second = 400e6;
  config.cache.replicate_on_remote_hit = true;
  return config;
}

DagRunConfig MakeRunConfig(PolicyKind policy, ColoringKind coloring, int workers) {
  DagRunConfig config;
  config.policy = policy;
  config.coloring = coloring;
  config.workers = workers;
  config.platform = DaskLikePlatform();
  return config;
}

// Fig. 6a headline: "Palette improves hit ratios by 6x" over oblivious at
// scale. Scaled down (smaller trace) we still require >= 3x.
TEST(HeadlineResults, SocialNetworkHitRatioMultiplier) {
  const SocialGraph graph{};
  const SocialContent content(graph);
  SocialWorkloadConfig workload;
  workload.request_count = 12000;
  const auto trace = GenerateSocialTrace(content, workload);

  WebAppConfig palette;
  palette.policy = PolicyKind::kBucketHashing;
  palette.workers = 24;
  WebAppConfig oblivious = palette;
  oblivious.policy = PolicyKind::kObliviousRandom;
  oblivious.use_colors = false;

  const double p = RunWebAppExperiment(trace, palette).hit_ratio;
  const double o = RunWebAppExperiment(trace, oblivious).hit_ratio;
  EXPECT_GT(p, 3.0 * o) << "palette " << p << " vs oblivious " << o;
}

// Fig. 8a headline: Palette LA cuts Task Bench runtime by ~46% vs
// oblivious. Require >= 25% on the summed scaled-down suite.
TEST(HeadlineResults, TaskBenchRuntimeReduction) {
  TaskBenchConfig tb;
  tb.width = 8;
  tb.timesteps = 6;
  tb.cpu_ops_per_task = 60e6;
  tb.output_bytes = 64 * kMiB;

  double oblivious_total = 0;
  double palette_total = 0;
  for (TaskBenchPattern pattern :
       {TaskBenchPattern::kStencil1d, TaskBenchPattern::kFft,
        TaskBenchPattern::kNearest}) {
    const Dag dag = MakeTaskBenchDag(pattern, tb);
    oblivious_total +=
        RunDagOnFaas(dag, MakeRunConfig(PolicyKind::kObliviousRandom,
                              ColoringKind::kNone, 4))
            .makespan.seconds();
    palette_total += RunDagOnFaas(dag, MakeRunConfig(PolicyKind::kLeastAssigned,
                                           ColoringKind::kChain, 4))
                         .makespan.seconds();
  }
  EXPECT_LT(palette_total, 0.75 * oblivious_total);
}

// Fig. 9 headline: Palette moves several times fewer bytes than RR.
TEST(HeadlineResults, TpchNetworkBytesRatio) {
  TpchConfig tpch;
  tpch.table_bytes = 1 * kGiB;
  tpch.block_bytes = 256 * kMiB;
  const Dag dag = MakeTpchQueryDag(9, tpch);
  const auto rr = RunDagOnFaas(
      dag, MakeRunConfig(PolicyKind::kObliviousRoundRobin, ColoringKind::kNone, 16));
  const auto la = RunDagOnFaas(
      dag, MakeRunConfig(PolicyKind::kLeastAssigned, ColoringKind::kVirtualWorker, 16));
  EXPECT_GT(static_cast<double>(rr.cluster_remote_bytes),
            2.0 * static_cast<double>(la.cluster_remote_bytes));
}

// Fig. 5 headline: 16,384 buckets keep relative max load <= 2 for >= 1,000
// colors (the constants the implementation hard-codes).
TEST(HeadlineResults, BucketHashingLoadBound) {
  Rng rng(42);
  for (std::uint64_t instances : {20ull, 100ull}) {
    const double load =
        MeanBucketHashingLoad(/*colors=*/10000, instances,
                              /*buckets=*/16384, /*runs=*/5, rng);
    EXPECT_LE(load, 2.0) << instances << " instances";
  }
}

// Table 1 headline: LA balances best, CH worst, BH between.
TEST(HeadlineResults, PolicyLoadBalanceOrdering) {
  const auto imbalance_of = [](PolicyKind kind) {
    PaletteLoadBalancer lb(MakePolicy(kind, 1));
    InstanceTable ids;
    for (int i = 0; i < 16; ++i) {
      const std::string name = StrFormat("w%d", i);
      lb.AddInstance(name, ids.Intern(name));
    }
    for (int c = 0; c < 4000; ++c) {
      lb.Route(Color(StrFormat("color%d", c)));
    }
    return lb.RoutingImbalance();
  };
  const double ch = imbalance_of(PolicyKind::kConsistentHashing);
  const double bh = imbalance_of(PolicyKind::kBucketHashing);
  const double la = imbalance_of(PolicyKind::kLeastAssigned);
  EXPECT_LT(la, bh + 1e-9);
  EXPECT_LT(bh, ch);
  EXPECT_NEAR(la, 1.0, 0.01);
}

// Fig. 7 headline: the same-color/chain crossover exists and sits between
// the extremes of the sweep.
TEST(HeadlineResults, FanoutCrossover) {
  const auto run = [](double cpu_ops, ColoringKind coloring) {
    const Dag dag = MakeFanoutDag(10, 256 * kMiB, cpu_ops);
    DagRunConfig config = MakeRunConfig(PolicyKind::kLeastAssigned, coloring, 10);
    return RunDagOnFaas(dag, config).makespan.seconds();
  };
  const double low = static_cast<double>(1ULL << 20);
  const double high = static_cast<double>(1ULL << 30);
  EXPECT_LT(run(low, ColoringKind::kSameColor),
            run(low, ColoringKind::kChain));
  EXPECT_GT(run(high, ColoringKind::kSameColor),
            run(high, ColoringKind::kChain));
}

}  // namespace
}  // namespace palette
