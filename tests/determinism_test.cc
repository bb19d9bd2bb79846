// Determinism regression suite for the allocation-free event core and the
// interned-id routing path.
//
// The simulator's contract is a deterministic total order on events
// ((time, seq), with past events clamped to now), and every policy's
// tie-breaks are defined on instance *names*, not interned id values — so
// running the identical scenario twice, in the same process, must produce
// bit-identical outcomes even though the second run sees a registry
// pre-populated by the first (different numeric ids). This pins down the
// property the PR's refactors must preserve: pooled-heap ordering matches
// the old binary heap, and no code path depends on id assignment order.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/table_printer.h"
#include "src/dag/dag_executor.h"
#include "src/taskbench/taskbench.h"

namespace palette {
namespace {

struct RunFingerprint {
  double makespan_seconds = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t misses = 0;
  Bytes network_bytes = 0;
  double routing_imbalance = 0;
  std::vector<std::int64_t> task_completion_ns;

  bool operator==(const RunFingerprint&) const = default;
};

// Runs the fig02-style scenario (Task Bench stencil on a small cluster)
// once and captures everything observable about the run.
RunFingerprint RunScenario(PolicyKind policy, std::uint64_t seed) {
  TaskBenchConfig tb;
  tb.width = 8;
  tb.timesteps = 6;
  tb.cpu_ops_per_task = 60e6;
  tb.output_bytes = 16 * kMiB;
  const Dag dag = MakeTaskBenchDag(TaskBenchPattern::kStencil1d, tb);

  DagRunConfig config;
  config.policy = policy;
  config.coloring = IsLocalityAware(policy) ? ColoringKind::kChain
                                            : ColoringKind::kNone;
  config.workers = 4;
  config.seed = seed;
  const DagRunResult result = RunDagOnFaas(dag, config);

  RunFingerprint fp;
  fp.makespan_seconds = result.makespan.seconds();
  fp.local_hits = result.local_hits;
  fp.remote_hits = result.remote_hits;
  fp.misses = result.misses;
  fp.network_bytes = result.network_bytes;
  fp.routing_imbalance = result.routing_imbalance;
  fp.task_completion_ns.reserve(result.task_completion.size());
  for (const SimTime t : result.task_completion) {
    fp.task_completion_ns.push_back(t.nanos());
  }
  return fp;
}

class DeterminismPerPolicyTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(DeterminismPerPolicyTest, SameScenarioTwiceIsBitIdentical) {
  const PolicyKind policy = GetParam();
  const RunFingerprint first = RunScenario(policy, /*seed=*/11);
  const RunFingerprint second = RunScenario(policy, /*seed=*/11);
  EXPECT_EQ(first, second) << "policy " << PolicyKindId(policy)
                           << " diverged between identical runs";
  // Every per-task completion time must match exactly — a single reordered
  // event in the pooled heap would shift at least one of these.
  ASSERT_EQ(first.task_completion_ns.size(), second.task_completion_ns.size());
  for (std::size_t i = 0; i < first.task_completion_ns.size(); ++i) {
    ASSERT_EQ(first.task_completion_ns[i], second.task_completion_ns[i])
        << "task " << i;
  }
}

TEST_P(DeterminismPerPolicyTest, DifferentSeedsAreIndependent) {
  // Running an unrelated seed in between must not perturb a replay — the
  // policies may share the global intern registry but no mutable state.
  const PolicyKind policy = GetParam();
  const RunFingerprint before = RunScenario(policy, /*seed=*/21);
  RunScenario(policy, /*seed=*/22);
  const RunFingerprint replay = RunScenario(policy, /*seed=*/21);
  EXPECT_EQ(before, replay);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, DeterminismPerPolicyTest,
    ::testing::ValuesIn(AllPolicyKinds()),
    [](const ::testing::TestParamInfo<PolicyKind>& param_info) {
      return std::string(PolicyKindId(param_info.param));
    });

TEST(DeterminismTest, ExecutedEventCountsMatchAcrossRuns) {
  // The total number of simulator events is part of the determinism
  // contract too (it would catch dropped or duplicated events that happen
  // to produce the same final times).
  TaskBenchConfig tb;
  tb.width = 4;
  tb.timesteps = 4;
  const Dag dag = MakeTaskBenchDag(TaskBenchPattern::kStencil1d, tb);
  auto run = [&dag] {
    Simulator sim;
    FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, /*seed=*/3);
    platform.AddWorkers(4);
    for (const DagTask& task : dag.tasks()) {
      InvocationSpec spec;
      spec.function = "t";
      spec.cpu_ops = task.cpu_ops;
      platform.Invoke(std::move(spec), nullptr);
    }
    sim.Run();
    return sim.executed_events();
  };
  const std::uint64_t first = run();
  const std::uint64_t second = run();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace palette
