// Pull/hybrid dispatch tests: late binding from per-color pending queues,
// locality-aware claim ordering, budget-gated stealing, and the fault
// paths that return claimed-but-unstarted work to its color queue. Also
// the dispatch-path bugfix sweep riding along: drain-candidate tie-breaks
// by interned InstanceId, and RetryPolicy backoff saturation at extreme
// configs.
#include <gtest/gtest.h>

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
  for (int i = 0; i < 64; ++i) {
    const std::string color = StrFormat("pin%d", i);
    if (platform->cache().HomeInstance(color) == want) {
      bool done = false;
      platform->Invoke(Colored(color, 1e3),
                       [&](const InvocationResult& r) {
                         done = true;
                         EXPECT_EQ(r.instance, want);
                       });
      sim->Run();
      EXPECT_TRUE(done);
      platform->AddWorker(other);
      if (platform->cache().HomeInstance(color) == want) {
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
  EXPECT_EQ(FaasDispatchModeId(FaasDispatchMode::kHybrid), "hybrid");
  FaasDispatchMode mode;
  EXPECT_TRUE(ParseFaasDispatchMode("pull", &mode));
  EXPECT_EQ(mode, FaasDispatchMode::kPull);
  EXPECT_TRUE(ParseFaasDispatchMode("hybrid", &mode));
  EXPECT_EQ(mode, FaasDispatchMode::kHybrid);
  EXPECT_TRUE(ParseFaasDispatchMode("push", &mode));
  EXPECT_EQ(mode, FaasDispatchMode::kPush);
  EXPECT_FALSE(ParseFaasDispatchMode("steal", &mode));
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

TEST(PullDispatchTest, HybridPushesToIdleHomeAndPullsWhenBusy) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        PullConfig(FaasDispatchMode::kHybrid));
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());
  const std::uint64_t pulls_before = platform.counters().pulls;

  // Idle home: hybrid binds eagerly — no pull.
  bool done = false;
  platform.Invoke(Colored(color, 1e6), [&](const InvocationResult& r) {
    done = true;
    EXPECT_EQ(r.instance, "w0");
  });
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(platform.counters().pulls, pulls_before);

  // Busy home: the route becomes a hint and the work is claimed — still
  // by the home once it frees up (w1 stays foreign, depth below the
  // steal threshold).
  platform.Invoke(Colored(color, 1e8), nullptr);
  std::string ran_on;
  platform.Invoke(Colored(color, 1e6),
                  [&](const InvocationResult& r) { ran_on = r.instance; });
  sim.Run();
  EXPECT_EQ(ran_on, "w0");
  EXPECT_GT(platform.counters().pulls, pulls_before);
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
// These cells pin a bursty pull/hybrid run's outcome to fixed values over
// the steal knobs, with and without a sprayed router tier, plus a crash
// inside the claim window and planner rounds re-placing colors while steals
// are in flight. The values were recorded from the matcher that resolved
// every pending color's home once per idle worker per pass, before it was
// rewritten to resolve each home once per match; both must agree exactly.

enum class PinFault { kNone, kCrashInClaimWindow, kPlanRacingSteal };

struct PinCell {
  const char* name;
  FaasDispatchMode mode;
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
  config.dispatch_mode = cell.mode;
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

constexpr FaasDispatchMode kPinPull = FaasDispatchMode::kPull;
constexpr FaasDispatchMode kPinHybrid = FaasDispatchMode::kHybrid;
constexpr PinFault kPinNone = PinFault::kNone;
constexpr PinFault kPinCrash = PinFault::kCrashInClaimWindow;
constexpr PinFault kPinPlan = PinFault::kPlanRacingSteal;

const PinCell kPinCells[] = {
    // name, mode, budget, min_depth, routers, fault,
    //   samples_digest, pulls, steals, steal_bytes
    {"pull/lb/b0/d1", kPinPull, 0, 1, 0, kPinNone,
     4979222103533363743ull, 1012, 0, 0},
    {"pull/lb/b0/d2", kPinPull, 0, 2, 0, kPinNone,
     4979222103533363743ull, 1012, 0, 0},
    {"pull/lb/b0/d8", kPinPull, 0, 8, 0, kPinNone,
     4979222103533363743ull, 1012, 0, 0},
    {"pull/lb/b1/d1", kPinPull, 1, 1, 0, kPinNone,
     13352358983132749183ull, 1012, 150, 24848321},
    {"pull/lb/b1/d2", kPinPull, 1, 2, 0, kPinNone,
     7503074940992965750ull, 1012, 77, 14030397},
    {"pull/lb/b1/d8", kPinPull, 1, 8, 0, kPinNone,
     14111546647360574272ull, 1012, 47, 6671930},
    {"pull/lb/b4/d1", kPinPull, 4, 1, 0, kPinNone,
     5444681217069365906ull, 1012, 358, 62257658},
    {"pull/lb/b4/d2", kPinPull, 4, 2, 0, kPinNone,
     6236314131512314131ull, 1012, 130, 19698760},
    {"pull/lb/b4/d8", kPinPull, 4, 8, 0, kPinNone,
     7286849322613602497ull, 1012, 59, 9775667},
    {"pull/spray8/b0/d1", kPinPull, 0, 1, 8, kPinNone,
     9162359929286371410ull, 1012, 0, 0},
    {"pull/spray8/b0/d2", kPinPull, 0, 2, 8, kPinNone,
     9162359929286371410ull, 1012, 0, 0},
    {"pull/spray8/b0/d8", kPinPull, 0, 8, 8, kPinNone,
     9162359929286371410ull, 1012, 0, 0},
    {"pull/spray8/b1/d1", kPinPull, 1, 1, 8, kPinNone,
     9364379708114595911ull, 1012, 145, 29639809},
    {"pull/spray8/b1/d2", kPinPull, 1, 2, 8, kPinNone,
     1940561586749071427ull, 1012, 109, 17238609},
    {"pull/spray8/b1/d8", kPinPull, 1, 8, 8, kPinNone,
     1408743707046998531ull, 1012, 65, 13094019},
    {"pull/spray8/b4/d1", kPinPull, 4, 1, 8, kPinNone,
     6924276812296503597ull, 1012, 414, 66589545},
    {"pull/spray8/b4/d2", kPinPull, 4, 2, 8, kPinNone,
     13435622187883100840ull, 1012, 195, 33443796},
    {"pull/spray8/b4/d8", kPinPull, 4, 8, 8, kPinNone,
     4573581208069495634ull, 1012, 92, 16452222},
    {"hybrid/lb/b0/d1", kPinHybrid, 0, 1, 0, kPinNone,
     10016615640055509762ull, 734, 0, 0},
    {"hybrid/lb/b0/d2", kPinHybrid, 0, 2, 0, kPinNone,
     10016615640055509762ull, 734, 0, 0},
    {"hybrid/lb/b0/d8", kPinHybrid, 0, 8, 0, kPinNone,
     10016615640055509762ull, 734, 0, 0},
    {"hybrid/lb/b1/d1", kPinHybrid, 1, 1, 0, kPinNone,
     14595555598056145773ull, 751, 121, 20272529},
    {"hybrid/lb/b1/d2", kPinHybrid, 1, 2, 0, kPinNone,
     6905971768020244680ull, 754, 76, 13771825},
    {"hybrid/lb/b1/d8", kPinHybrid, 1, 8, 0, kPinNone,
     17050935018343751855ull, 747, 47, 6403450},
    {"hybrid/lb/b4/d1", kPinHybrid, 4, 1, 0, kPinNone,
     9217006758641703050ull, 814, 248, 35548207},
    {"hybrid/lb/b4/d2", kPinHybrid, 4, 2, 0, kPinNone,
     17904154256396353323ull, 790, 124, 20989256},
    {"hybrid/lb/b4/d8", kPinHybrid, 4, 8, 0, kPinNone,
     13118355278893565575ull, 759, 59, 9561368},
    {"hybrid/spray8/b0/d1", kPinHybrid, 0, 1, 8, kPinNone,
     64573191973845852ull, 976, 0, 0},
    {"hybrid/spray8/b0/d2", kPinHybrid, 0, 2, 8, kPinNone,
     64573191973845852ull, 976, 0, 0},
    {"hybrid/spray8/b0/d8", kPinHybrid, 0, 8, 8, kPinNone,
     64573191973845852ull, 976, 0, 0},
    {"hybrid/spray8/b1/d1", kPinHybrid, 1, 1, 8, kPinNone,
     14664147301329794281ull, 980, 151, 26513518},
    {"hybrid/spray8/b1/d2", kPinHybrid, 1, 2, 8, kPinNone,
     3474743523156864337ull, 979, 111, 17988873},
    {"hybrid/spray8/b1/d8", kPinHybrid, 1, 8, 8, kPinNone,
     15594644069961948429ull, 979, 65, 13094019},
    {"hybrid/spray8/b4/d1", kPinHybrid, 4, 1, 8, kPinNone,
     9970791074529688582ull, 987, 394, 64145759},
    {"hybrid/spray8/b4/d2", kPinHybrid, 4, 2, 8, kPinNone,
     818011393994902398ull, 978, 188, 33436506},
    {"hybrid/spray8/b4/d8", kPinHybrid, 4, 8, 8, kPinNone,
     11311923845282348544ull, 979, 92, 16452222},
    {"pull/lb/b1/d2/crash", kPinPull, 1, 2, 0, kPinCrash,
     4304978121742042414ull, 1015, 107, 13504030},
    {"hybrid/spray8/b4/d2/crash", kPinHybrid, 4, 2, 8, kPinCrash,
     3585752834852481729ull, 1014, 254, 42342796},
    {"pull/lb/b4/d1/plan", kPinPull, 4, 1, 0, kPinPlan,
     14229613929874179597ull, 1012, 330, 52446128},
    {"hybrid/lb/b1/d2/plan", kPinHybrid, 1, 2, 0, kPinPlan,
     4127480576585630029ull, 784, 54, 7442643},
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
