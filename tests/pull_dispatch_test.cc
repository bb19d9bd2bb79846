// Pull dispatch tests: late binding from per-color pending queues,
// locality-aware claim ordering, budget-gated stealing, cached homes that
// follow placement changes, and the fault paths that return
// claimed-but-unstarted work to its color queue. Also
// the dispatch-path bugfix sweep riding along: drain-candidate tie-breaks
// by interned InstanceId, and RetryPolicy backoff saturation at extreme
// configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/common/table_printer.h"
#include "src/core/plan.h"
#include "src/faas/platform.h"
#include "src/faas/retry_policy.h"
#include "src/sim/simulator.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

PlatformConfig PullConfig(FaasDispatchMode mode) {
  PlatformConfig config;
  config.cpu_ops_per_second = 1e9;
  config.serialization_bytes_per_second = 0;
  config.dispatch_latency = SimTime::FromMillis(1);
  config.cold_start = SimTime();
  config.dispatch_mode = mode;
  return config;
}

InvocationSpec Colored(const std::string& color, double cpu_ops) {
  InvocationSpec spec;
  spec.function = "f";
  spec.color = Color(color);
  spec.cpu_ops = cpu_ops;
  return spec;
}

// Finds a color whose cache-ring home AND load-balancer placement both
// land on `want` once both workers are live, so the other worker is
// unambiguously foreign for it. Placement is forced by running one
// warm-up invocation while `want` is the only worker.
std::string ForeignProofColor(Simulator* sim, FaasPlatform* platform,
                              const std::string& want,
                              const std::string& other) {
  const InstanceId want_id = InternInstance(want);
  for (int i = 0; i < 64; ++i) {
    const std::string color = StrFormat("pin%d", i);
    if (platform->cache().HomeInstanceId(color) == want_id) {
      bool done = false;
      platform->Invoke(Colored(color, 1e3),
                       [&](const InvocationResult& r) {
                         done = true;
                         EXPECT_EQ(r.instance, want);
                       });
      sim->Run();
      EXPECT_TRUE(done);
      platform->AddWorker(other);
      if (platform->cache().HomeInstanceId(color) == want_id) {
        return color;
      }
      platform->RemoveWorker(other);
    }
  }
  ADD_FAILURE() << "no color homed on " << want << " found";
  return "";
}

TEST(FaasDispatchModeTest, ParseAndFormat) {
  EXPECT_EQ(FaasDispatchModeId(FaasDispatchMode::kPush), "push");
  EXPECT_EQ(FaasDispatchModeId(FaasDispatchMode::kPull), "pull");
  FaasDispatchMode mode;
  EXPECT_TRUE(ParseFaasDispatchMode("pull", &mode));
  EXPECT_EQ(mode, FaasDispatchMode::kPull);
  EXPECT_TRUE(ParseFaasDispatchMode("push", &mode));
  EXPECT_EQ(mode, FaasDispatchMode::kPush);
  EXPECT_FALSE(ParseFaasDispatchMode("steal", &mode));
  EXPECT_FALSE(ParseFaasDispatchMode("hybrid", &mode));
  EXPECT_EQ(mode, FaasDispatchMode::kPush);
}

TEST(PullDispatchTest, EveryInvocationIsPulledAndBooksClose) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        PullConfig(FaasDispatchMode::kPull));
  platform.AddWorkers(4);
  int completed = 0;
  for (int i = 0; i < 24; ++i) {
    platform.Invoke(Colored(StrFormat("c%d", i % 6), 1e6),
                    [&](const InvocationResult&) { ++completed; });
  }
  sim.Run();
  EXPECT_EQ(completed, 24);
  // Pull mode never hard-binds at route time: every completion came
  // through a claim.
  EXPECT_EQ(platform.counters().pulls, 24u);
  EXPECT_EQ(platform.PendingTotal(), 0u);
  EXPECT_TRUE(platform.counters().BooksClose());
}

TEST(PullDispatchTest, ColorStaysOnItsHomeWorkerWhileHomeKeepsUp) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        PullConfig(FaasDispatchMode::kPull));
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  // Sequential submissions with the home always free: all of them must
  // run on the home even though w1 idles right next to the queue.
  std::set<std::string> instances;
  for (int i = 0; i < 6; ++i) {
    platform.Invoke(Colored(color, 1e6), [&](const InvocationResult& r) {
      instances.insert(r.instance);
    });
    sim.Run();
  }
  EXPECT_EQ(instances, (std::set<std::string>{"w0"}));
  EXPECT_EQ(platform.counters().steals, 0u);
}

TEST(PullDispatchTest, HotForeignColorIsStolenAndPriced) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 1;
  config.steal_min_depth = 2;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  // Occupy the home with a 1 s job, then burst two 10 ms jobs of the same
  // color. The queue goes hot (depth 2), w1 is idle and foreign: it
  // steals the FRONT job. The remainder is depth 1 — below the steal
  // threshold — so it waits for the home and runs there after the long
  // job, proving a steal takes exactly one claim, not the whole queue.
  platform.Invoke(Colored(color, 1e9), nullptr);
  std::vector<std::string> ran_on;
  for (int i = 0; i < 2; ++i) {
    InvocationSpec spec = Colored(color, 1e7);
    spec.inputs.push_back(ObjectRef{StrFormat("%s___in%d", color.c_str(), i),
                                    3 * kMiB});
    platform.Invoke(std::move(spec), [&](const InvocationResult& r) {
      ran_on.push_back(r.instance);
    });
  }
  sim.Run();
  ASSERT_EQ(ran_on.size(), 2u);
  EXPECT_EQ(ran_on[0], "w1");  // stolen: completes while the home grinds
  EXPECT_EQ(ran_on[1], "w0");  // waited for its home
  EXPECT_EQ(platform.counters().steals, 1u);
  // The steal price is booked: the stolen attempt's input bytes.
  EXPECT_EQ(platform.counters().steal_bytes, 3u * kMiB);
}

TEST(PullDispatchTest, StealBudgetZeroDisablesStealing) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 0;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  platform.Invoke(Colored(color, 1e9), nullptr);
  std::set<std::string> instances;
  for (int i = 0; i < 4; ++i) {
    platform.Invoke(Colored(color, 1e7), [&](const InvocationResult& r) {
      instances.insert(r.instance);
    });
  }
  sim.Run();
  // The queue was hot and w1 idled through it all; with the budget at
  // zero the work waited for its home anyway.
  EXPECT_EQ(instances, (std::set<std::string>{"w0"}));
  EXPECT_EQ(platform.counters().steals, 0u);
  EXPECT_EQ(platform.counters().submitted, platform.counters().completed);
}

TEST(PullDispatchTest, ShallowForeignQueueWaitsForItsHome) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 4;
  config.steal_min_depth = 3;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  // Depth 2 < steal_min_depth 3: not hot enough to steal.
  platform.Invoke(Colored(color, 1e9), nullptr);
  std::set<std::string> instances;
  for (int i = 0; i < 2; ++i) {
    platform.Invoke(Colored(color, 1e7), [&](const InvocationResult& r) {
      instances.insert(r.instance);
    });
  }
  sim.Run();
  EXPECT_EQ(instances, (std::set<std::string>{"w0"}));
  EXPECT_EQ(platform.counters().steals, 0u);
}

// ---------------------------------------------------------------------------
// Fault matrix: claimed-but-unstarted work must return to its color queue
// and the books must close in every cell.

TEST(PullDispatchFaultTest, CrashDuringClaimWindowRequeuesWithoutRetry) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.pull_claim_latency = SimTime::FromMillis(10);
  config.retry.max_attempts = 3;  // a burned attempt would show up here
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  // The claim handoff starts at t=1ms (dispatch) and lands at t=11ms.
  // Crash the claimer mid-window: the attempt was never started, so it
  // goes back to the FRONT of its color queue — no retry budget burned —
  // and the survivor claims it.
  std::string ran_on;
  platform.Invoke(Colored(color, 1e6),
                  [&](const InvocationResult& r) { ran_on = r.instance; });
  sim.After(SimTime::FromMillis(5), [&]() { platform.CrashWorker("w0"); });
  sim.Run();
  EXPECT_EQ(ran_on, "w1");
  EXPECT_EQ(platform.counters().retries, 0u);
  EXPECT_EQ(platform.counters().dropped, 0u);
  EXPECT_EQ(platform.counters().abandoned, 0u);
  EXPECT_EQ(platform.counters().submitted, platform.counters().completed);
}

TEST(PullDispatchFaultTest, RemoveWorkerMidPullRequeuesPendingAndClaimed) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.pull_claim_latency = SimTime::FromMillis(10);
  config.steal_min_depth = 10;  // isolate requeue order from stealing
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  // Three jobs: #0 is mid-claim toward w0 when the scale-in lands, #1 and
  // #2 still sit in the color queue. The survivor becomes the color's
  // ring home at removal and claims #1 immediately; #0's in-flight claim
  // bounces back to the FRONT of the queue, so it runs before #2 — a
  // back-of-queue requeue would finish {1, 2, 0} instead.
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    platform.Invoke(Colored(color, 1e6),
                    [&, i](const InvocationResult& r) {
                      order.push_back(i);
                      EXPECT_EQ(r.instance, "w1");
                    });
  }
  sim.After(SimTime::FromMillis(5), [&]() { platform.RemoveWorker("w0"); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(platform.counters().retries, 0u);
  EXPECT_EQ(platform.counters().submitted, platform.counters().completed);
}

TEST(PullDispatchFaultTest, LastWorkerGoneFailsPendingAndClaimed) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.pull_claim_latency = SimTime::FromMillis(10);
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");

  // One job mid-claim, one still pending. With no workers left there is
  // nothing to requeue toward: both book as dropped, nothing leaks.
  platform.Invoke(Colored("c", 1e6), nullptr);
  platform.Invoke(Colored("c", 1e6), nullptr);
  sim.After(SimTime::FromMillis(5), [&]() { platform.CrashWorker("w0"); });
  sim.Run();
  EXPECT_EQ(platform.counters().completed, 0u);
  EXPECT_EQ(platform.counters().dropped, 2u);
  EXPECT_EQ(platform.PendingTotal(), 0u);
  EXPECT_EQ(platform.counters().submitted, platform.counters().dropped);
}

TEST(PullDispatchFaultTest, ApplyPlanRacingStealKeepsBooksClosed) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 2;
  config.steal_min_depth = 2;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());
  platform.AddWorker("w2");

  // Hot queue on w0 with steals in flight toward the idle workers; while
  // they run, a planner round re-places the color onto w2. Late binding
  // must absorb the move: every job completes exactly once.
  platform.Invoke(Colored(color, 1e9), nullptr);
  int completed = 0;
  for (int i = 0; i < 6; ++i) {
    platform.Invoke(Colored(color, 1e7),
                    [&](const InvocationResult&) { ++completed; });
  }
  sim.After(SimTime::FromMillis(3), [&]() {
    Plan plan;
    plan.moves.push_back(
        PlanMove{color, InternInstance("w0"), InternInstance("w2")});
    platform.ApplyPlan(plan);
  });
  sim.Run();
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(platform.PendingTotal(), 0u);
  EXPECT_TRUE(platform.counters().BooksClose());
}

// ---------------------------------------------------------------------------
// Cached homes: the matcher keeps each pending color's home until the load
// balancer's placement_version() moves. In each case below a color waits
// below the steal threshold while an idle worker looks on, so the matcher
// has cached its old home; then the home moves to that idle worker. The
// next match must see the new home and claim as home. A stale home would
// instead make the deeper queue a foreign color to steal from.

PlatformConfig HomeCacheConfig() {
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 1;
  config.steal_min_depth = 2;
  return config;
}

TEST(PullHomeInvalidationTest, PlanMoveReHomesAWaitingColor) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        HomeCacheConfig());
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  std::vector<std::string> ran_on;
  const auto record = [&](const InvocationResult& r) {
    ran_on.push_back(r.instance);
  };
  platform.Invoke(Colored(color, 1e9), nullptr);  // occupies w0 for 1 s
  platform.Invoke(Colored(color, 1e7), record);   // waits for w0
  sim.RunUntil(sim.Now() + SimTime::FromMillis(5));
  ASSERT_EQ(platform.PendingTotal(), 1u);

  Plan plan;
  plan.moves.push_back(
      PlanMove{color, InternInstance("w0"), InternInstance("w1")});
  platform.ApplyPlan(plan);
  platform.Invoke(Colored(color, 1e7), record);
  sim.Run();
  EXPECT_EQ(ran_on, (std::vector<std::string>{"w1", "w1"}));
  EXPECT_EQ(platform.counters().steals, 0u);
}

TEST(PullHomeInvalidationTest, ObservedRouteReHomesAWaitingColor) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        HomeCacheConfig());
  platform.AddWorker("w0");
  platform.AddWorker("w1");
  // A routing tier places every attempt; with color stats on, the
  // platform's balancer learns each routed placement (ObserveRoute).
  platform.load_balancer().set_color_stats_enabled(true);
  InstanceId routed_to = InternInstance("w0");
  platform.set_router(
      [&routed_to](const std::optional<Color>&, std::uint64_t, int) {
        return std::optional<RoutedTarget>(RoutedTarget{routed_to, 0});
      });

  std::vector<std::string> ran_on;
  const auto record = [&](const InvocationResult& r) {
    ran_on.push_back(r.instance);
  };
  platform.Invoke(Colored("observed", 1e9), nullptr);  // placed on w0
  platform.Invoke(Colored("observed", 1e7), record);   // waits for w0
  sim.RunUntil(sim.Now() + SimTime::FromMillis(5));
  ASSERT_EQ(platform.PendingTotal(), 1u);

  routed_to = InternInstance("w1");  // the tier re-places the color
  platform.Invoke(Colored("observed", 1e7), record);
  sim.Run();
  EXPECT_EQ(ran_on, (std::vector<std::string>{"w1", "w1"}));
  EXPECT_EQ(platform.counters().steals, 0u);
}

TEST(PullHomeInvalidationTest, FirstPlacementReHomesARingHomedColor) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        HomeCacheConfig());
  platform.AddWorker("w0");
  platform.AddWorker("w1");
  // A routing tier without color stats: the platform's balancer places
  // nothing, so every color's home is its cache-ring home.
  const InstanceId w0 = InternInstance("w0");
  const InstanceId w1 = InternInstance("w1");
  platform.set_router([w0](const std::optional<Color>&, std::uint64_t, int) {
    return std::optional<RoutedTarget>(RoutedTarget{w0, 0});
  });
  std::string color;
  for (int i = 0; color.empty() && i < 64; ++i) {
    const std::string candidate = StrFormat("ring%d", i);
    if (platform.cache().HomeInstanceId(candidate) == w1) {
      color = candidate;
    }
  }
  ASSERT_FALSE(color.empty());

  std::vector<std::string> ran_on;
  const auto record = [&](const InvocationResult& r) {
    ran_on.push_back(r.instance);
  };
  platform.Invoke(Colored(color, 1e9), nullptr);  // its ring home w1 claims
  platform.Invoke(Colored(color, 1e7), record);   // waits for w1
  sim.RunUntil(sim.Now() + SimTime::FromMillis(5));
  ASSERT_EQ(platform.PendingTotal(), 1u);

  // Object-name translation, as the DAG executor runs it, inserts the
  // color into the Least-Assigned table: both workers hold no colors, so
  // the first by name, w0, gets it.
  ASSERT_EQ(platform.load_balancer().ResolveColor(color), "w0");
  platform.Invoke(Colored(color, 1e7), record);
  sim.Run();
  EXPECT_EQ(ran_on, (std::vector<std::string>{"w0", "w0"}));
  EXPECT_EQ(platform.counters().steals, 0u);
}

// ---------------------------------------------------------------------------
// Whole-run determinism: pull claims happen in simulator callbacks over
// ordered structures, so identical scenarios replay bit-identically, on
// one shard and across shard counts.

ShardedRunResult PullShardedCell(int shards) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 300;
  spec.driver.duration = SimTime::FromSeconds(2);
  spec.mix.color_count = 48;
  spec.mix.zipf_theta = 0.9;
  spec.seed = 13;
  ShardedWorkloadConfig config;
  config.groups = 2;
  config.shards = shards;
  config.routers_per_group = 2;
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(250);
  PlatformConfig platform_config = DefaultWorkloadPlatformConfig();
  platform_config.dispatch_mode = FaasDispatchMode::kPull;
  return RunShardedWorkload(spec, PolicyKind::kLeastAssigned,
                            /*total_workers=*/8, config, slo,
                            platform_config, nullptr);
}

TEST(PullDispatchDeterminismTest, RepeatRunsAreBitIdentical) {
  WorkloadSpec spec;
  spec.arrival.rate_per_sec = 200;
  spec.driver.duration = SimTime::FromSeconds(2);
  spec.mix.color_count = 32;
  spec.seed = 5;
  SloConfig slo;
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.dispatch_mode = FaasDispatchMode::kPull;
  const WorkloadRunResult a =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 6, slo, config);
  const WorkloadRunResult b =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 6, slo, config);
  EXPECT_GT(a.counters.platform.pulls, 0u);
  EXPECT_EQ(a.samples_digest, b.samples_digest);
  EXPECT_EQ(a.counters.platform.pulls, b.counters.platform.pulls);
  EXPECT_EQ(a.counters.platform.steals, b.counters.platform.steals);
  EXPECT_EQ(a.counters.platform.steal_bytes, b.counters.platform.steal_bytes);
}

TEST(PullDispatchDeterminismTest, ShardCountsAgreeUnderPull) {
  const ShardedRunResult one = PullShardedCell(1);
  const ShardedRunResult four = PullShardedCell(4);
  EXPECT_GT(one.counters.platform.pulls, 0u);
  EXPECT_TRUE(one.books_close);
  EXPECT_TRUE(four.books_close);
  EXPECT_EQ(one.samples_digest, four.samples_digest);
  EXPECT_EQ(one.engine_digest, four.engine_digest);
  EXPECT_EQ(one.sim_events, four.sim_events);
  EXPECT_EQ(one.counters.platform.pulls, four.counters.platform.pulls);
  EXPECT_EQ(one.counters.platform.steals, four.counters.platform.steals);
  EXPECT_EQ(one.counters.platform.steal_bytes,
            four.counters.platform.steal_bytes);
}

// ---------------------------------------------------------------------------
// Golden pins for the claim schedule. The determinism tests above compare a
// tree only against itself, so a change to claim order (class precedence,
// oldest-head-first, the steal tie-breaks, the budget gate) would pass them.
// These cells pin a bursty pull run's outcome to fixed values over the steal
// knobs, with and without a sprayed router tier, plus crashes inside the
// claim window and planner rounds re-placing colors while steals are in
// flight. The values were recorded from the matcher that resolved every
// pending color's home once per idle worker per pass, before it was
// rewritten to resolve each home once per match; both must agree exactly.

enum class PinFault { kNone, kCrashInClaimWindow, kPlanRacingSteal };

struct PinCell {
  const char* name;
  int steal_budget;
  std::size_t steal_min_depth;
  int routers;  // 0 = the platform's own load balancer
  PinFault fault;
  std::uint64_t samples_digest;
  std::uint64_t pulls;
  std::uint64_t steals;
  Bytes steal_bytes;
};

WorkloadRunResult RunPinCell(const PinCell& cell) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 1000;
  spec.arrival.burst_multiplier = 4;
  spec.arrival.mean_on_seconds = 0.1;
  spec.arrival.mean_off_seconds = 0.3;
  spec.driver.duration = SimTime::FromSeconds(1);
  spec.mix.color_count = 64;
  spec.seed = 29;
  SloConfig slo;
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.dispatch_mode = FaasDispatchMode::kPull;
  config.steal_budget = cell.steal_budget;
  config.steal_min_depth = cell.steal_min_depth;
  FaultSchedule faults;
  PlannerConfig planner;
  planner.plan_every = SimTime();
  if (cell.fault == PinFault::kCrashInClaimWindow) {
    // A long claim handoff keeps most claims in flight when the crashes
    // land, so claimed-but-unstarted work bounces back to its queue.
    config.pull_claim_latency = SimTime::FromMillis(5);
    for (int i = 0; i < 3; ++i) {
      faults.Add(FaultEvent{SimTime::FromMillis(150 + 250 * i),
                            FaultKind::kCrash, StrFormat("w%d", 2 * i + 1)});
      faults.Add(FaultEvent{SimTime::FromMillis(300 + 250 * i),
                            FaultKind::kRestart, StrFormat("w%d", 2 * i + 1)});
    }
  } else if (cell.fault == PinFault::kPlanRacingSteal) {
    planner.plan_every = SimTime::FromMillis(50);
    planner.seed = spec.seed;
  }
  const PlannerConfig* planner_ptr = planner.enabled() ? &planner : nullptr;
  if (cell.routers == 0) {
    return RunWorkload(spec, PolicyKind::kLeastAssigned, 8, slo, config,
                       &faults, nullptr, planner_ptr);
  }
  RouterTierConfig tier;
  tier.routers = cell.routers;
  tier.dispatch = DispatchMode::kSpray;
  return RunRouterWorkload(spec, PolicyKind::kLeastAssigned, 8, tier, slo,
                           config, &faults, nullptr, planner_ptr);
}

constexpr PinFault kPinNone = PinFault::kNone;
constexpr PinFault kPinCrash = PinFault::kCrashInClaimWindow;
constexpr PinFault kPinPlan = PinFault::kPlanRacingSteal;

const PinCell kPinCells[] = {
    // name, budget, min_depth, routers, fault,
    //   samples_digest, pulls, steals, steal_bytes
    {"pull/lb/b0/d1", 0, 1, 0, kPinNone,
     4979222103533363743ull, 1012, 0, 0},
    {"pull/lb/b0/d2", 0, 2, 0, kPinNone,
     4979222103533363743ull, 1012, 0, 0},
    {"pull/lb/b0/d8", 0, 8, 0, kPinNone,
     4979222103533363743ull, 1012, 0, 0},
    {"pull/lb/b1/d1", 1, 1, 0, kPinNone,
     13352358983132749183ull, 1012, 150, 24848321},
    {"pull/lb/b1/d2", 1, 2, 0, kPinNone,
     7503074940992965750ull, 1012, 77, 14030397},
    {"pull/lb/b1/d8", 1, 8, 0, kPinNone,
     14111546647360574272ull, 1012, 47, 6671930},
    {"pull/lb/b4/d1", 4, 1, 0, kPinNone,
     5444681217069365906ull, 1012, 358, 62257658},
    {"pull/lb/b4/d2", 4, 2, 0, kPinNone,
     6236314131512314131ull, 1012, 130, 19698760},
    {"pull/lb/b4/d8", 4, 8, 0, kPinNone,
     7286849322613602497ull, 1012, 59, 9775667},
    {"pull/spray8/b0/d1", 0, 1, 8, kPinNone,
     9162359929286371410ull, 1012, 0, 0},
    {"pull/spray8/b0/d2", 0, 2, 8, kPinNone,
     9162359929286371410ull, 1012, 0, 0},
    {"pull/spray8/b0/d8", 0, 8, 8, kPinNone,
     9162359929286371410ull, 1012, 0, 0},
    {"pull/spray8/b1/d1", 1, 1, 8, kPinNone,
     9364379708114595911ull, 1012, 145, 29639809},
    {"pull/spray8/b1/d2", 1, 2, 8, kPinNone,
     1940561586749071427ull, 1012, 109, 17238609},
    {"pull/spray8/b1/d8", 1, 8, 8, kPinNone,
     1408743707046998531ull, 1012, 65, 13094019},
    {"pull/spray8/b4/d1", 4, 1, 8, kPinNone,
     6924276812296503597ull, 1012, 414, 66589545},
    {"pull/spray8/b4/d2", 4, 2, 8, kPinNone,
     13435622187883100840ull, 1012, 195, 33443796},
    {"pull/spray8/b4/d8", 4, 8, 8, kPinNone,
     4573581208069495634ull, 1012, 92, 16452222},
    {"pull/lb/b1/d2/crash", 1, 2, 0, kPinCrash,
     4304978121742042414ull, 1015, 107, 13504030},
    {"pull/spray8/b4/d1/crash", 4, 1, 8, kPinCrash,
     11354543297391243961ull, 1013, 278, 43540560},
    {"pull/lb/b4/d1/plan", 4, 1, 0, kPinPlan,
     14229613929874179597ull, 1012, 330, 52446128},
    {"pull/lb/b1/d2/plan", 1, 2, 0, kPinPlan,
     5198164955365676883ull, 1012, 54, 5916795},
};

TEST(PullMatcherGoldenTest, ClaimScheduleMatchesPinnedValues) {
  for (const PinCell& cell : kPinCells) {
    SCOPED_TRACE(cell.name);
    const WorkloadRunResult r = RunPinCell(cell);
    EXPECT_TRUE(r.counters.platform.BooksClose());
    EXPECT_EQ(r.samples_digest, cell.samples_digest);
    EXPECT_EQ(r.counters.platform.pulls, cell.pulls);
    EXPECT_EQ(r.counters.platform.steals, cell.steals);
    EXPECT_EQ(r.counters.platform.steal_bytes, cell.steal_bytes);
    if (cell.fault == kPinCrash) {
      // A bounced claim is claimed again: the crashes did hit the window.
      EXPECT_GT(r.counters.platform.pulls, r.counters.platform.submitted);
    } else if (cell.fault == kPinPlan) {
      EXPECT_GT(r.counters.planner_moves, 0u);
      EXPECT_GT(r.counters.platform.steals, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden claim schedules, per invocation: which worker claimed it, whether
// that claim was a steal, and when it completed. The matcher serves a call
// from the idle homes alone when no unowned work waits and no steal is
// possible, and walks every idle worker otherwise; these cells drive the
// paths where that short walk must hand over to the full walk, or must
// not. The workload mix never submits uncolored work, so each cell builds
// the platform directly. A router pins every route hint to one worker and
// the balancer places nothing, so every home is a cache-ring home. Worker
// names are unique to a cell and interned at its start, so their ids (the
// claim order) do not depend on which tests ran first. Every invocation
// reads its own input from storage, so two claims landing at once contend
// for the storage link and their order shows in the completion times.
// The values were recorded from the matcher that walked a snapshot of
// every idle worker on every call.

class ClaimScheduleCell {
 public:
  // `workers` join in the order given, after `intern_order` fixed their
  // ids; route hints all name `hint`.
  ClaimScheduleCell(PlatformConfig config,
                    const std::vector<std::string>& intern_order,
                    const std::vector<std::string>& workers,
                    const std::string& hint)
      : platform_(&sim_, PolicyKind::kLeastAssigned, 1, config) {
    for (const std::string& name : intern_order) {
      InternInstance(name);
    }
    const InstanceId hint_id = InternInstance(hint);
    platform_.set_router(
        [hint_id](const std::optional<Color>&, std::uint64_t, int) {
          return std::optional<RoutedTarget>(RoutedTarget{hint_id, 0});
        });
    for (const std::string& name : workers) {
      platform_.AddWorker(name);
    }
  }

  Simulator& sim() { return sim_; }
  FaasPlatform& platform() { return platform_; }

  // Submits the next invocation; uncolored when `color` is empty.
  void Submit(const std::string& color, double cpu_ops) {
    const std::size_t index = outcomes_.size();
    outcomes_.emplace_back("-");
    InvocationSpec spec;
    spec.function = "f";
    if (!color.empty()) {
      spec.color = Color(color);
    }
    spec.cpu_ops = cpu_ops;
    spec.inputs.push_back(ObjectRef{StrFormat("in%zu", index), 256 * kKiB});
    platform_.Invoke(std::move(spec), [this, index](const InvocationResult& r) {
      outcomes_[index] =
          StrFormat("%s%s@%lld", r.instance.c_str(), r.stolen ? "*" : "",
                    static_cast<long long>(r.completed.nanos()));
    });
  }
  void SubmitAt(SimTime at, const std::string& color, double cpu_ops) {
    sim_.At(at, [this, color = std::string(color), cpu_ops]() {
      Submit(color, cpu_ops);
    });
  }

  // Runs to the end; "<index>:<claimer>[*]@<completed ns>" per invocation,
  // * marking a steal.
  std::string Run() {
    sim_.Run();
    EXPECT_TRUE(platform_.counters().BooksClose());
    EXPECT_EQ(platform_.PendingTotal(), 0u);
    std::string schedule;
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
      schedule += StrFormat("%s%zu:%s", i == 0 ? "" : " ", i,
                            outcomes_[i].c_str());
    }
    return schedule;
  }

 private:
  Simulator sim_;
  FaasPlatform platform_;
  std::vector<std::string> outcomes_;
};

// The first color "<prefix>N" whose ring home is `home` among `members`
// and, when `later` is given, `later_home` among `later`.
std::string RingColor(const std::string& prefix,
                      const std::vector<std::string>& members,
                      const std::string& home,
                      const std::vector<std::string>& later = {},
                      const std::string& later_home = "") {
  FaastCache ring;
  for (const std::string& name : members) {
    ring.AddInstance(name);
  }
  FaastCache later_ring;
  for (const std::string& name : later) {
    later_ring.AddInstance(name);
  }
  for (int i = 0; i < 4096; ++i) {
    const std::string color = StrFormat("%s%d", prefix.c_str(), i);
    if (ring.HomeInstanceId(color) == InternInstance(home) &&
        (later.empty() ||
         later_ring.HomeInstanceId(color) == InternInstance(later_home))) {
      return color;
    }
  }
  ADD_FAILURE() << "no color for " << home;
  return "";
}

TEST(PullClaimScheduleGoldenTest, UnownedWorkBesideColoredWork) {
  // Stealing is off, so only uncolored work (unowned: its claim robs no
  // home) makes a worker without home work claim anything.
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 0;
  const std::vector<std::string> workers = {"un_w0", "un_w1", "un_w2",
                                            "un_w3"};
  ClaimScheduleCell cell(config, workers, workers, "un_w0");
  const std::string a = RingColor("una", workers, "un_w0");
  const std::string b = RingColor("unb", workers, "un_w1");
  const std::string c = RingColor("unc", workers, "un_w2");
  cell.Submit(a, 2e8);  // both homes busy for 200 ms
  cell.Submit(b, 2e8);
  for (int i = 0; i < 3; ++i) {
    cell.Submit(a, 1e7);
    cell.Submit("", 5e6);
    cell.Submit(b, 1e7);
    cell.Submit(c, 8e6);
  }
  for (int i = 0; i < 4; ++i) {
    cell.SubmitAt(SimTime::FromMillis(30 + 7 * i), "", 3e6);
    cell.SubmitAt(SimTime::FromMillis(32 + 7 * i), c, 4e6);
  }
  EXPECT_EQ(cell.Run(),
            "0:un_w0@203347152 1:un_w1@205444304 2:un_w0@215694304 "
            "3:un_w2@12541456 4:un_w1@217791456 5:un_w2@22888608 "
            "6:un_w0@228041456 7:un_w3@14638608 8:un_w1@230138608 "
            "9:un_w2@33235760 10:un_w0@240388608 11:un_w3@21985760 "
            "12:un_w1@242485760 13:un_w2@43582912 14:un_w3@36347152 "
            "15:un_w2@49930064 16:un_w3@43347152 17:un_w2@56277216 "
            "18:un_w3@51027216 19:un_w2@62624368 20:un_w3@57374368 "
            "21:un_w2@68971520");
  EXPECT_EQ(cell.platform().counters().steals, 0u);
}

// Two hot colors queue deep behind their busy homes while two workers
// idle; the budget decides how much of the backlog they may steal.
std::string DeepForeignQueues(const std::string& prefix, int steal_budget) {
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = steal_budget;
  config.steal_min_depth = 2;
  std::vector<std::string> workers;
  for (int i = 0; i < 4; ++i) {
    workers.push_back(StrFormat("%s_w%d", prefix.c_str(), i));
  }
  ClaimScheduleCell cell(config, workers, workers, workers[0]);
  const std::string a = RingColor(prefix + "a", workers, workers[0]);
  const std::string b = RingColor(prefix + "b", workers, workers[1]);
  const std::string d = RingColor(prefix + "d", workers, workers[3]);
  cell.Submit(a, 2e8);
  cell.Submit(b, 2e8);
  cell.Submit(a, 5e7);  // the first steal holds the budget for 50 ms
  for (int i = 0; i < 5; ++i) {
    cell.Submit(a, 1e7);
    cell.Submit(b, 1e7);
  }
  // Home work for an idle worker arrives while the backlog waits: with the
  // budget held, each arrival is matched by a call no steal can come from.
  for (int i = 0; i < 4; ++i) {
    cell.SubmitAt(SimTime::FromMillis(5 + 9 * i), d, 2e6);
  }
  return cell.Run();
}

TEST(PullClaimScheduleGoldenTest, DeepForeignQueuesWithBudgetFree) {
  EXPECT_EQ(DeepForeignQueues("dqf", 2),
            "0:dqf_w0@203347152 1:dqf_w1@205444304 2:dqf_w2*@57541456 "
            "3:dqf_w3*@19638608 4:dqf_w3*@45027216 5:dqf_w3*@61721520 "
            "6:dqf_w2*@69888608 7:dqf_w3*@74068672 8:dqf_w2*@82235760 "
            "9:dqf_w3*@86415824 10:dqf_w2*@94582912 11:dqf_w0@215694304 "
            "12:dqf_w1@217791456 13:dqf_w3@23985760 14:dqf_w3@28332912 "
            "15:dqf_w3@32680064 16:dqf_w3@49374368");
}

TEST(PullClaimScheduleGoldenTest, DeepForeignQueuesWithBudgetExhausted) {
  EXPECT_EQ(DeepForeignQueues("dqx", 1),
            "0:dqx_w0@203347152 1:dqx_w1@205444304 2:dqx_w2*@57541456 "
            "3:dqx_w2*@69888608 4:dqx_w2*@82235760 5:dqx_w2*@94582912 "
            "6:dqx_w2*@106930064 7:dqx_w2*@119277216 8:dqx_w2*@131624368 "
            "9:dqx_w2*@143971520 10:dqx_w2*@156318672 11:dqx_w0@215694304 "
            "12:dqx_w1@217791456 13:dqx_w3@11638608 14:dqx_w3@19347152 "
            "15:dqx_w3@28347152 16:dqx_w3@37347152");
}

TEST(PullClaimScheduleGoldenTest, TwoIdleHomesClaimInIdOrderNotJoinOrder) {
  // th_b interns before th_a but joins after it. When th_z leaves, its two
  // waiting colors re-home onto th_a and th_b, both idle, and one match
  // serves both: th_b (the smaller id) claims first, so its input fetch
  // wins the storage link.
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 0;
  const std::vector<std::string> workers = {"th_a", "th_b", "th_z", "th_h"};
  ClaimScheduleCell cell(config, {"th_b", "th_a", "th_z", "th_h"}, workers,
                         "th_h");
  const std::vector<std::string> after = {"th_a", "th_b", "th_h"};
  const std::string p = RingColor("thp", workers, "th_z", after, "th_a");
  const std::string q = RingColor("thq", workers, "th_z", after, "th_b");
  cell.Submit(p, 3e7);  // th_z runs until 31 ms; the rest waits for it
  for (int i = 0; i < 2; ++i) {
    cell.Submit(p, 1e6);
    cell.Submit(q, 1e6);
  }
  cell.sim().At(SimTime::FromMillis(10),
                [&cell]() { cell.platform().RemoveWorker("th_z"); });
  EXPECT_EQ(cell.Run(),
            "0:th_z@33347152 1:th_a@15444304 2:th_b@13347152 "
            "3:th_a@19638608 4:th_b@17541456");
}

TEST(PullClaimScheduleGoldenTest,
     IdleWorkerRejoinsUnderItsNameWhileItsColorsWait) {
  // re_e leaves while idle, its colors queue behind busy homes until it
  // rejoins under the same name (and InstanceId), then it claims them as
  // home. Later it leaves with a claim in its handoff window and rejoins
  // before the handoff lands: the rejoined worker claims again, and the
  // old handoff, bound to the departed incarnation, goes back to the head
  // of its color queue as if its claimer had died.
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 0;
  config.pull_claim_latency = SimTime::FromMillis(5);
  const std::vector<std::string> workers = {"re_e", "re_b", "re_z"};
  ClaimScheduleCell cell(config, workers, workers, "re_z");
  const std::string e = RingColor("ree", workers, "re_e");
  cell.Submit(RingColor("rez", workers, "re_z"), 1e8);
  cell.Submit(RingColor("reb", workers, "re_b"), 1e8);
  FaasPlatform& platform = cell.platform();
  cell.sim().At(SimTime::FromMillis(5),
                [&platform]() { platform.RemoveWorker("re_e"); });
  for (int i = 0; i < 3; ++i) {
    cell.SubmitAt(SimTime::FromMillis(6), e, 1e6);
  }
  cell.sim().At(SimTime::FromMillis(10),
                [&platform]() { platform.AddWorker("re_e"); });
  // Claimed at 46 ms, the handoff lands at 51 ms.
  cell.SubmitAt(SimTime::FromMillis(45), e, 1e6);
  cell.sim().At(SimTime::FromMillis(47),
                [&platform]() { platform.RemoveWorker("re_e"); });
  cell.SubmitAt(SimTime::FromMillis(47), e, 1e6);
  cell.SubmitAt(SimTime::FromMillis(47), e, 1e6);
  cell.sim().At(SimTime::FromMillis(49),
                [&platform]() { platform.AddWorker("re_e"); });
  EXPECT_EQ(cell.Run(),
            "0:re_z@108297152 1:re_b@110394304 2:re_e@18297152 "
            "3:re_e@26594304 4:re_e@34891456 5:re_e@65594304 "
            "6:re_e@57297152 7:re_e@73891456");
}

TEST(PullRejoinTest, NoFifoFillsWhileItsWorkerRuns) {
  // rf_e leaves with a claim in its handoff window and rejoins under its
  // name before the handoff lands, then claims again. Under pull a handoff
  // to a worker that is not running starts at once, so a FIFO that holds
  // work at an event boundary means a claim landed on a running worker:
  // the matcher took the worker for idle while it ran.
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 0;
  config.pull_claim_latency = SimTime::FromMillis(5);
  const std::vector<std::string> workers = {"rf_e", "rf_b", "rf_z"};
  ClaimScheduleCell cell(config, workers, workers, "rf_z");
  const std::string e = RingColor("rfe", workers, "rf_e");
  cell.Submit(RingColor("rfz", workers, "rf_z"), 1e8);
  cell.Submit(RingColor("rfb", workers, "rf_b"), 1e8);
  FaasPlatform& platform = cell.platform();
  cell.SubmitAt(SimTime::FromMillis(45), e, 1e6);
  cell.sim().At(SimTime::FromMillis(47),
                [&platform]() { platform.RemoveWorker("rf_e"); });
  cell.SubmitAt(SimTime::FromMillis(47), e, 1e6);
  cell.SubmitAt(SimTime::FromMillis(47), e, 1e6);
  cell.sim().At(SimTime::FromMillis(49),
                [&platform]() { platform.AddWorker("rf_e"); });
  std::size_t worst_depth = 0;
  for (int us = 40000; us <= 90000; us += 250) {
    cell.sim().At(SimTime::FromMicros(us), [&platform, &worst_depth]() {
      worst_depth =
          std::max(worst_depth, platform.WorkerQueueDepth("rf_e"));
    });
  }
  cell.Run();
  EXPECT_EQ(worst_depth, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: drain-candidate ties resolve by interned InstanceId (join
// order — stable across rebuilds and shard counts), not by name order.

TEST(DrainCandidateTest, EqualDepthTiesResolveBySmallestInstanceId) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        PullConfig(FaasDispatchMode::kPush));
  // Join order deliberately disagrees with lexicographic name order:
  // "drain_b" joins first, so it has the smallest InstanceId of the
  // three, while "drain_a" sorts first by name.
  platform.AddWorker("drain_b");
  platform.AddWorker("drain_a");
  platform.AddWorker("drain_c");
  EXPECT_EQ(platform.DrainCandidateWorker(), "drain_b");
}

// ---------------------------------------------------------------------------
// Satellite: RetryPolicy backoff must saturate, not overflow, at extreme
// multiplier / attempt / cap configs.

TEST(RetryPolicyTest, NormalBackoffIsExactWithoutJitter) {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = SimTime::FromMillis(5);
  policy.multiplier = 2.0;
  policy.max_backoff = SimTime::FromSeconds(2);
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_EQ(policy.BackoffFor(1, rng).millis(), 5.0);
  EXPECT_EQ(policy.BackoffFor(3, rng).millis(), 20.0);
}

TEST(RetryPolicyTest, DeepAttemptCountClampsToMaxBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 2000;
  policy.initial_backoff = SimTime::FromMillis(1);
  policy.multiplier = 10.0;
  policy.max_backoff = SimTime::FromSeconds(2);
  policy.jitter = 0.0;
  Rng rng(1);
  // 1ms * 10^999 wildly overflows both double precision and int64 if
  // computed naively; the loop caps at max_backoff first.
  EXPECT_EQ(policy.BackoffFor(1000, rng).nanos(),
            SimTime::FromSeconds(2).nanos());
}

TEST(RetryPolicyTest, ExtremeConfigSaturatesAtSimTimeMax) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff = SimTime::FromSeconds(1);
  policy.multiplier = 1e12;
  policy.max_backoff = SimTime::Max();  // no cap short of the clock limit
  policy.jitter = 0.0;
  Rng rng(1);
  const SimTime backoff = policy.BackoffFor(10, rng);
  // Converting a double >= 2^63 to int64 is UB; the clamp must land
  // exactly on SimTime::Max(), never wrap negative.
  EXPECT_EQ(backoff.nanos(), SimTime::Max().nanos());
  EXPECT_GE(backoff.nanos(), 0);
}

TEST(RetryPolicyTest, JitterOnNearMaxCapStaysInRange) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = SimTime::Max();
  policy.multiplier = 2.0;
  policy.max_backoff = SimTime::Max();
  policy.jitter = 1.0;  // scales by up to 2.0 — the overflowing edge
  Rng rng(7);
  for (int i = 1; i < 10; ++i) {
    const SimTime backoff = policy.BackoffFor(i, rng);
    EXPECT_GE(backoff.nanos(), 0);
    EXPECT_LE(backoff.nanos(), SimTime::Max().nanos());
  }
}

}  // namespace
}  // namespace palette
