// Property tests over randomized DAGs: invariants the serverless executor,
// serverful scheduler, and oracle must hold for *every* graph, not just the
// handcrafted ones.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/dag/dag_executor.h"
#include "src/dag/oracle_scheduler.h"
#include "src/dag/serverful_scheduler.h"

namespace palette {
namespace {

// Deterministic random layered DAG: 4-7 layers, 2-6 tasks each, random
// edges from the previous two layers, mixed sizes and CPU costs.
Dag MakeRandomDag(std::uint64_t seed) {
  Rng rng(seed);
  Dag dag;
  std::vector<int> previous;
  std::vector<int> before_previous;
  const int layers = 4 + static_cast<int>(rng.NextBelow(4));
  for (int layer = 0; layer < layers; ++layer) {
    std::vector<int> current;
    const int width = 2 + static_cast<int>(rng.NextBelow(5));
    for (int i = 0; i < width; ++i) {
      std::vector<int> deps;
      for (int p : previous) {
        if (rng.NextBernoulli(0.5)) {
          deps.push_back(p);
        }
      }
      for (int p : before_previous) {
        if (rng.NextBernoulli(0.15)) {
          deps.push_back(p);
        }
      }
      const double ops = 1e6 * static_cast<double>(1 + rng.NextBelow(50));
      const Bytes bytes = kMiB * (1 + rng.NextBelow(32));
      current.push_back(dag.AddTask(StrFormat("l%d_%d", layer, i), ops, bytes,
                                    std::move(deps)));
    }
    before_previous = std::move(previous);
    previous = std::move(current);
  }
  return dag;
}

class ExecutorProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static DagRunConfig Config(PolicyKind policy, ColoringKind coloring) {
    DagRunConfig config;
    config.policy = policy;
    config.coloring = coloring;
    config.workers = 4;
    config.platform.cpu_ops_per_second = 1e8;
    return config;
  }
};

TEST_P(ExecutorProperty, AccountsEveryEdgeExactlyOnce) {
  const Dag dag = MakeRandomDag(GetParam());
  const auto result = RunDagOnFaas(
      dag, Config(PolicyKind::kLeastAssigned, ColoringKind::kChain));
  // Every DAG edge is one input fetch: local, remote, or (never here,
  // since all producers run first) a storage miss.
  EXPECT_EQ(result.local_hits + result.remote_hits + result.misses,
            static_cast<std::uint64_t>(dag.edge_count()));
  EXPECT_EQ(result.misses, 0u);
}

TEST_P(ExecutorProperty, MakespanBoundedBelowByCriticalPath) {
  const Dag dag = MakeRandomDag(GetParam());
  const auto config = Config(PolicyKind::kLeastAssigned, ColoringKind::kChain);
  const auto result = RunDagOnFaas(dag, config);
  const double cp_seconds =
      dag.CriticalPathOps() / config.platform.cpu_ops_per_second;
  EXPECT_GE(result.makespan.seconds(), cp_seconds - 1e-9);
}

TEST_P(ExecutorProperty, CompletionTimesRespectDependencies) {
  const Dag dag = MakeRandomDag(GetParam());
  const auto result = RunDagOnFaas(
      dag, Config(PolicyKind::kLeastAssigned, ColoringKind::kVirtualWorker));
  for (const auto& task : dag.tasks()) {
    for (int dep : task.deps) {
      EXPECT_LT(result.task_completion[static_cast<std::size_t>(dep)],
                result.task_completion[static_cast<std::size_t>(task.id)])
          << task.name;
    }
  }
}

TEST_P(ExecutorProperty, DeterministicAcrossRuns) {
  const Dag dag = MakeRandomDag(GetParam());
  const auto config = Config(PolicyKind::kBucketHashing, ColoringKind::kChain);
  const auto a = RunDagOnFaas(dag, config);
  const auto b = RunDagOnFaas(dag, config);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.local_hits, b.local_hits);
  EXPECT_EQ(a.network_bytes, b.network_bytes);
}

TEST_P(ExecutorProperty, SameColorNeverFetchesRemote) {
  const Dag dag = MakeRandomDag(GetParam());
  const auto result = RunDagOnFaas(
      dag, Config(PolicyKind::kLeastAssigned, ColoringKind::kSameColor));
  EXPECT_EQ(result.remote_hits, 0u);
  EXPECT_EQ(result.network_bytes, 0u);
}

TEST_P(ExecutorProperty, ServerfulDrainsWithConsistentAccounting) {
  const Dag dag = MakeRandomDag(GetParam());
  ServerfulConfig config;
  config.workers = 4;
  config.cpu_ops_per_second = 1e8;
  const auto result = RunServerful(dag, config);
  EXPECT_EQ(result.local_inputs + result.remote_inputs,
            static_cast<std::uint64_t>(dag.edge_count()));
  for (int id = 0; id < dag.size(); ++id) {
    EXPECT_GE(result.assignment[id], 0);
    EXPECT_LT(result.assignment[id], config.workers);
  }
  // Dependencies complete before their consumers.
  for (const auto& task : dag.tasks()) {
    for (int dep : task.deps) {
      EXPECT_LE(result.task_completion[static_cast<std::size_t>(dep)],
                result.task_completion[static_cast<std::size_t>(task.id)]);
    }
  }
}

TEST_P(ExecutorProperty, OracleNeverBelowCriticalPath) {
  const Dag dag = MakeRandomDag(GetParam());
  OracleConfig config;
  config.workers = 4;
  config.cpu_ops_per_second = 1e8;
  const auto result = RunOracle(dag, config);
  const double cp = dag.CriticalPathOps() / config.cpu_ops_per_second;
  EXPECT_GE(result.makespan.seconds(), cp - 1e-9);
}

TEST_P(ExecutorProperty, MoreWorkersNeverHurtServerfulMuch) {
  const Dag dag = MakeRandomDag(GetParam());
  ServerfulConfig narrow;
  narrow.workers = 1;
  narrow.cpu_ops_per_second = 1e8;
  ServerfulConfig wide = narrow;
  wide.workers = 8;
  const auto one = RunServerful(dag, narrow);
  const auto eight = RunServerful(dag, wide);
  // Extra workers may add transfers, but a reasonable scheduler should not
  // be dramatically slower than fully-serial execution.
  EXPECT_LE(eight.makespan.seconds(), one.makespan.seconds() * 1.25);
}

TEST_P(ExecutorProperty, PlatformNameTranslationLeavesExecutorsUnchanged) {
  // The executors translate object names at submission; the platform's
  // dispatch-time translation must not translate them again.
  const Dag dag = MakeRandomDag(GetParam());
  DagRunConfig off = Config(PolicyKind::kLeastAssigned, ColoringKind::kChain);
  DagRunConfig on = off;
  on.platform.translate_object_names = true;

  const DagRunResult a = RunDagOnFaas(dag, off);
  const DagRunResult b = RunDagOnFaas(dag, on);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.local_hits, b.local_hits);
  EXPECT_EQ(a.remote_hits, b.remote_hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.network_bytes, b.network_bytes);
  EXPECT_EQ(a.cluster_remote_bytes, b.cluster_remote_bytes);
  EXPECT_EQ(a.distinct_colors, b.distinct_colors);
  EXPECT_EQ(a.routing_imbalance, b.routing_imbalance);
  EXPECT_EQ(a.task_completion, b.task_completion);

  const std::vector<DagJob> jobs = {{&dag, SimTime()},
                                    {&dag, SimTime::FromMillis(10)}};
  const SharedRunResult shared_a = RunDagsOnSharedPlatform(jobs, off);
  const SharedRunResult shared_b = RunDagsOnSharedPlatform(jobs, on);
  EXPECT_EQ(shared_a.job_latency, shared_b.job_latency);
  EXPECT_EQ(shared_a.total_makespan, shared_b.total_makespan);
  EXPECT_EQ(shared_a.cluster_remote_bytes, shared_b.cluster_remote_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace palette
