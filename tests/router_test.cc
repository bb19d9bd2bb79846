// Tests for the scale-out routing tier (src/router): dispatch modes,
// eventually-consistent membership views, misroute forward-and-correct,
// router-replica faults, and whole-run determinism through
// RunRouterWorkload.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/common/table_printer.h"
#include "src/faas/platform.h"
#include "src/obs/trace.h"
#include "src/router/router_tier.h"
#include "src/sim/simulator.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

PlatformConfig QuickConfig() {
  PlatformConfig config;
  config.cpu_ops_per_second = 1e9;
  config.serialization_bytes_per_second = 0;
  config.cold_start = SimTime();
  config.dispatch_latency = SimTime();
  return config;
}

InvocationSpec Spec(const std::string& color) {
  InvocationSpec spec;
  spec.function = "f";
  spec.color = Color(color);
  spec.cpu_ops = 1e6;
  return spec;
}

TEST(RouterTierTest, ParseAndFormatDispatchMode) {
  EXPECT_EQ(DispatchModeId(DispatchMode::kColorPartition), "color");
  EXPECT_EQ(DispatchModeId(DispatchMode::kSpray), "spray");
  DispatchMode mode;
  EXPECT_TRUE(ParseDispatchMode("spray", &mode));
  EXPECT_EQ(mode, DispatchMode::kSpray);
  EXPECT_TRUE(ParseDispatchMode("color", &mode));
  EXPECT_EQ(mode, DispatchMode::kColorPartition);
  EXPECT_FALSE(ParseDispatchMode("hash", &mode));
}

TEST(RouterTierTest, StaleViewForwardsExactlyOnce) {
  // A replica whose view lags the membership log routes to a crashed
  // worker once; the tier detects the misroute, syncs the view, and
  // forwards to the re-colored live instance — all within attempt 1.
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, /*seed=*/1,
                        QuickConfig());
  platform.AddWorkers(2);
  RouterTierConfig tier_config;
  tier_config.routers = 1;
  tier_config.sync_lag = SimTime::FromSeconds(3600);  // never, in this test
  tier_config.hop_latency = SimTime();
  RouterTier tier(&platform, tier_config);

  std::string first_instance;
  ASSERT_TRUE(tier.Invoke(Spec("c"), [&](const InvocationResult& r) {
                    first_instance = r.instance;
                  }).has_value());
  sim.Run();
  ASSERT_FALSE(first_instance.empty());
  EXPECT_EQ(tier.misroutes(), 0u);

  platform.CrashWorker(first_instance);
  EXPECT_EQ(tier.membership_updates(), 1u);

  InvocationResult second;
  ASSERT_TRUE(tier.Invoke(Spec("c"), [&](const InvocationResult& r) {
                    second = r;
                  }).has_value());
  sim.Run();
  EXPECT_EQ(tier.misroutes(), 1u);
  EXPECT_EQ(tier.forwards(), 1u);
  EXPECT_EQ(tier.stale_routes(), 1u);
  EXPECT_EQ(second.attempts, 1);  // forwarding is not a platform retry
  EXPECT_EQ(second.router, 0);
  EXPECT_NE(second.instance, first_instance);
  EXPECT_GT(tier.recolored(), 0u);

  // The misroute synced the view, so the next route is clean even though
  // the scheduled lag tick has still not fired.
  ASSERT_TRUE(tier.Invoke(Spec("c"), nullptr).has_value());
  sim.Run();
  EXPECT_EQ(tier.misroutes(), 1u);
  EXPECT_EQ(tier.stale_routes(), 1u);
}

TEST(RouterTierTest, SyncLagZeroNeverMisroutes) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, /*seed=*/1,
                        QuickConfig());
  platform.AddWorkers(2);
  RouterTierConfig tier_config;
  tier_config.routers = 2;
  tier_config.sync_lag = SimTime();
  RouterTier tier(&platform, tier_config);

  std::string first_instance;
  tier.Invoke(Spec("c"), [&](const InvocationResult& r) {
    first_instance = r.instance;
  });
  sim.Run();
  platform.CrashWorker(first_instance);

  std::string second_instance;
  ASSERT_TRUE(tier.Invoke(Spec("c"), [&](const InvocationResult& r) {
                    second_instance = r.instance;
                  }).has_value());
  sim.Run();
  EXPECT_EQ(tier.misroutes(), 0u);
  EXPECT_EQ(tier.stale_routes(), 0u);
  EXPECT_NE(second_instance, first_instance);
  EXPECT_FALSE(second_instance.empty());
}

TEST(RouterTierTest, ColorPartitionIsSticky) {
  // Every invocation of a color meets the same replica and thus the same
  // instance, regardless of how many replicas the tier runs.
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, /*seed=*/1,
                        QuickConfig());
  platform.AddWorkers(4);
  RouterTierConfig tier_config;
  tier_config.routers = 4;
  tier_config.dispatch = DispatchMode::kColorPartition;
  RouterTier tier(&platform, tier_config);

  std::set<std::string> instances;
  std::set<std::int32_t> routers;
  for (int i = 0; i < 20; ++i) {
    tier.Invoke(Spec("hot"), [&](const InvocationResult& r) {
      instances.insert(r.instance);
      routers.insert(r.router);
    });
  }
  sim.Run();
  EXPECT_EQ(instances.size(), 1u);
  EXPECT_EQ(routers.size(), 1u);
  EXPECT_EQ(tier.routes(), 20u);
}

TEST(RouterTierTest, SprayDivergesForStatefulPolicy) {
  // Under spray, replicas running a stateful policy (least-assigned) each
  // see a different traffic slice, so their independently-built color
  // assignments disagree and one color lands on multiple instances.
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, /*seed=*/1,
                        QuickConfig());
  platform.AddWorkers(2);
  RouterTierConfig tier_config;
  tier_config.routers = 2;
  tier_config.dispatch = DispatchMode::kSpray;
  RouterTier tier(&platform, tier_config);

  // Skew replica r0's assignment counts with a padding color, then send a
  // hot color through both replicas.
  tier.Invoke(Spec("pad"), nullptr);  // r0: pad -> its least-assigned
  std::set<std::string> instances;
  for (int i = 0; i < 4; ++i) {
    tier.Invoke(Spec("hot"), [&](const InvocationResult& r) {
      instances.insert(r.instance);
    });
  }
  sim.Run();
  EXPECT_GE(instances.size(), 2u);
}

TEST(RouterTierTest, SprayIsHarmlessForStatelessPolicy) {
  // Consistent hashing computes the same color->instance map on every
  // replica (shared policy seed), so spraying cannot split a color.
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kConsistentHashing, /*seed=*/1,
                        QuickConfig());
  platform.AddWorkers(4);
  RouterTierConfig tier_config;
  tier_config.routers = 4;
  tier_config.dispatch = DispatchMode::kSpray;
  RouterTier tier(&platform, tier_config);

  std::set<std::string> instances;
  std::set<std::int32_t> routers;
  for (int i = 0; i < 12; ++i) {
    tier.Invoke(Spec("hot"), [&](const InvocationResult& r) {
      instances.insert(r.instance);
      routers.insert(r.router);
    });
  }
  sim.Run();
  EXPECT_EQ(instances.size(), 1u);  // one placement...
  EXPECT_GT(routers.size(), 1u);    // ...despite many replicas routing it
}

TEST(RouterTierTest, HopLatencyIsChargedPerAttempt) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, /*seed=*/1,
                        QuickConfig());
  platform.AddWorkers(1);
  RouterTierConfig tier_config;
  tier_config.routers = 1;
  tier_config.hop_latency = SimTime::FromMillis(5);
  RouterTier tier(&platform, tier_config);

  InvocationResult result;
  tier.Invoke(Spec("c"), [&](const InvocationResult& r) { result = r; });
  sim.Run();
  EXPECT_GE((result.dispatched - result.submitted).millis(), 5.0);
}

TEST(RouterTierTest, RouterCrashFailsOverAndRestartResyncs) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, /*seed=*/1,
                        QuickConfig());
  platform.AddWorkers(4);
  RouterTierConfig tier_config;
  tier_config.routers = 2;
  tier_config.dispatch = DispatchMode::kColorPartition;
  tier_config.sync_lag = SimTime();
  RouterTier tier(&platform, tier_config);

  std::int32_t owner = -1;
  tier.Invoke(Spec("hot"), [&](const InvocationResult& r) {
    owner = r.router;
  });
  sim.Run();
  ASSERT_GE(owner, 0);

  // Crash the replica that owns the color: the ring re-partitions and the
  // survivor takes over.
  ASSERT_TRUE(tier.CrashRouter(StrFormat("r%d", owner)));
  EXPECT_FALSE(tier.CrashRouter(StrFormat("r%d", owner)));  // no-op repeat
  EXPECT_EQ(tier.live_router_count(), 1);
  std::int32_t failover = -1;
  ASSERT_TRUE(tier.Invoke(Spec("hot"), [&](const InvocationResult& r) {
                    failover = r.router;
                  }).has_value());
  sim.Run();
  EXPECT_EQ(failover, 1 - owner);

  // Membership changes during the outage reach the replica on restart.
  platform.CrashWorker("w3");
  ASSERT_TRUE(tier.RestartRouter(StrFormat("r%d", owner)));
  EXPECT_EQ(tier.live_router_count(), 2);
  EXPECT_EQ(tier.RouterView(owner).instance_ids().size(), 3u);

  // With every replica down the tier refuses new work.
  tier.CrashRouter("r0");
  tier.CrashRouter("r1");
  EXPECT_FALSE(tier.Invoke(Spec("hot"), nullptr).has_value());
  EXPECT_FALSE(tier.RestartRouter("nope"));
}

TEST(RouterTierTest, FaultScheduleDrivesRouterFaults) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, /*seed=*/1,
                        QuickConfig());
  platform.AddWorkers(2);
  RouterTierConfig tier_config;
  tier_config.routers = 2;
  RouterTier tier(&platform, tier_config);

  FaultSchedule faults;
  faults.Add({SimTime::FromSeconds(1), FaultKind::kRouterCrash, "r1"});
  faults.Add({SimTime::FromSeconds(2), FaultKind::kRouterRestart, "r1"});
  faults.InstallOn(&sim, &platform, &tier);

  bool down_mid_run = false;
  sim.At(SimTime::FromMillis(1500), [&tier, &down_mid_run]() {
    down_mid_run = !tier.RouterUp(1);
  });
  sim.Run();
  EXPECT_TRUE(down_mid_run);
  EXPECT_TRUE(tier.RouterUp(1));
  EXPECT_EQ(tier.live_router_count(), 2);
}

TEST(RouterTierTest, ExportMetricsPublishesRouterFamily) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, /*seed=*/1,
                        QuickConfig());
  platform.AddWorkers(2);
  RouterTierConfig tier_config;
  tier_config.routers = 2;
  RouterTier tier(&platform, tier_config);
  for (int i = 0; i < 6; ++i) {
    tier.Invoke(Spec(StrFormat("c%d", i)), nullptr);
  }
  sim.Run();

  MetricsRegistry metrics;
  tier.ExportMetrics(&metrics);
  EXPECT_EQ(metrics.counter("router.routes").value(), 6u);
  EXPECT_EQ(metrics.counter("router.misroutes").value(), 0u);
  EXPECT_EQ(metrics.gauge("router.live").value(), 2.0);
  EXPECT_EQ(metrics.counter("router.r0.routed").value() +
                metrics.counter("router.r1.routed").value(),
            6u);
}

TEST(RouterWorkloadTest, SameSeedSameSpecIsBitIdentical) {
  // Whole-run determinism through the tier: churn, retries, view lag,
  // and a router crash/restart all replay identically under one seed.
  WorkloadSpec spec;
  spec.arrival.rate_per_sec = 200;
  spec.mix.color_count = 32;
  spec.driver.duration = SimTime::FromSeconds(3);
  spec.seed = 7;

  PlatformConfig platform_config = DefaultWorkloadPlatformConfig();
  platform_config.retry.max_attempts = 3;

  RouterTierConfig tier_config;
  tier_config.routers = 4;
  tier_config.dispatch = DispatchMode::kColorPartition;
  tier_config.sync_lag = SimTime::FromMillis(50);

  FaultSchedule faults;
  faults.Add({SimTime::FromMillis(500), FaultKind::kCrash, "w1"});
  faults.Add({SimTime::FromMillis(1200), FaultKind::kRestart, "w1"});
  faults.Add({SimTime::FromMillis(800), FaultKind::kRouterCrash, "r2"});
  faults.Add({SimTime::FromMillis(1600), FaultKind::kRouterRestart, "r2"});

  const WorkloadRunResult a =
      RunRouterWorkload(spec, PolicyKind::kLeastAssigned, /*workers=*/4,
                        tier_config, SloConfig{}, platform_config, &faults);
  const WorkloadRunResult b =
      RunRouterWorkload(spec, PolicyKind::kLeastAssigned, /*workers=*/4,
                        tier_config, SloConfig{}, platform_config, &faults);

  EXPECT_EQ(a.samples_digest, b.samples_digest);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.counters.router_routes, b.counters.router_routes);
  EXPECT_EQ(a.counters.router_stale_routes, b.counters.router_stale_routes);
  EXPECT_EQ(a.counters.router_misroutes, b.counters.router_misroutes);
  EXPECT_EQ(a.counters.router_forwards, b.counters.router_forwards);

  // Books close even through misroute forwarding and router churn.
  EXPECT_TRUE(a.counters.platform.BooksClose());
  EXPECT_GT(a.counters.router_routes, 0u);
  // The 50 ms view lag after the worker crash is long enough at 200 rps
  // that some routes are decided on a stale view.
  EXPECT_GT(a.counters.router_stale_routes, 0u);

  // A different seed perturbs the run.
  WorkloadSpec other = spec;
  other.seed = 8;
  const WorkloadRunResult c =
      RunRouterWorkload(other, PolicyKind::kLeastAssigned, /*workers=*/4,
                        tier_config, SloConfig{}, platform_config, &faults);
  EXPECT_NE(a.samples_digest, c.samples_digest);
}

TEST(RouterWorkloadTest, SprayRunsAndKeepsBooksClosed) {
  WorkloadSpec spec;
  spec.arrival.rate_per_sec = 150;
  spec.mix.color_count = 16;
  spec.driver.duration = SimTime::FromSeconds(2);
  spec.seed = 3;

  RouterTierConfig tier_config;
  tier_config.routers = 4;
  tier_config.dispatch = DispatchMode::kSpray;

  const WorkloadRunResult r = RunRouterWorkload(
      spec, PolicyKind::kLeastAssigned, /*workers=*/4, tier_config,
      SloConfig{}, DefaultWorkloadPlatformConfig(), nullptr);
  EXPECT_TRUE(r.counters.platform.BooksClose());
  EXPECT_GT(r.counters.platform.completed, 0u);
  EXPECT_EQ(r.counters.router_misroutes, 0u);  // no churn, views never stale
}

TEST(RouterTierTest, TraceSpansPartitionUnderRetryAndMisrouteForward) {
  // The hardest path for the trace invariant: an invocation can be
  // misrouted on a stale view (forwarded, not retried), crash mid-compute
  // (a real platform retry with backoff), and still every recorded trace
  // must partition [submitted, completed] exactly into the five phase
  // spans — no gap for the forward hop, the backoff, or the re-dispatch.
  Simulator sim;
  PlatformConfig config = QuickConfig();
  config.retry.max_attempts = 4;
  config.retry.initial_backoff = SimTime::FromMillis(5);
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, /*seed=*/3,
                        config);
  platform.AddWorkers(4);
  TraceRecorder recorder;
  platform.set_trace_recorder(&recorder);

  RouterTierConfig tier_config;
  tier_config.routers = 2;
  tier_config.sync_lag = SimTime::FromSeconds(3600);  // views go stale
  tier_config.hop_latency = SimTime::FromMicros(50);
  RouterTier tier(&platform, tier_config);

  int completed = 0;
  auto done = [&](const InvocationResult&) { ++completed; };
  // Pin color views into both replicas, then crash a routed-to worker so
  // later routes misroute-forward AND in-flight attempts retry.
  std::string crashed;
  for (int i = 0; i < 8; ++i) {
    InvocationSpec spec = Spec(StrFormat("c%d", i % 4));
    spec.cpu_ops = 5e6;
    ASSERT_TRUE(tier.Invoke(std::move(spec), [&](const InvocationResult& r) {
                      done(r);
                      if (crashed.empty()) {
                        crashed = r.instance;
                      }
                    }).has_value());
  }
  sim.Run();
  ASSERT_FALSE(crashed.empty());

  // In-flight work on the crashed worker at crash time gets retried; the
  // stale replicas keep routing its colors there and forward on arrival.
  for (int i = 0; i < 12; ++i) {
    InvocationSpec spec = Spec(StrFormat("c%d", i % 4));
    spec.cpu_ops = 5e6;
    ASSERT_TRUE(tier.Invoke(std::move(spec), done).has_value());
    if (i == 2) {
      platform.CrashWorker(crashed);
    }
  }
  sim.Run();

  // Completion callbacks fire only for successes; crash casualties that
  // exhausted their retry budget are booked as abandoned/dropped.
  const std::uint64_t finished =
      platform.counters().completed + platform.counters().dropped +
      platform.counters().abandoned;
  EXPECT_EQ(finished, 20u);
  EXPECT_EQ(static_cast<std::uint64_t>(completed),
            platform.counters().completed);
  EXPECT_GT(tier.forwards(), 0u);           // misroute-forward happened
  EXPECT_GT(platform.counters().retries, 0u);  // and a real retry happened
  EXPECT_EQ(recorder.invocation_count(),
            static_cast<std::size_t>(completed));  // completions only

  for (const InvocationTrace& t : recorder.invocations()) {
    // Timestamps are monotone through the pipeline...
    EXPECT_LE(t.submitted.nanos(), t.dispatched.nanos()) << "id " << t.id;
    EXPECT_LE(t.dispatched.nanos(), t.fetch_start.nanos()) << "id " << t.id;
    EXPECT_LE(t.fetch_start.nanos(), t.inputs_ready.nanos()) << "id " << t.id;
    EXPECT_LE(t.inputs_ready.nanos(), t.compute_done.nanos()) << "id " << t.id;
    EXPECT_LE(t.compute_done.nanos(), t.completed.nanos()) << "id " << t.id;
    // ...and the five spans sum to end-to-end exactly, per invocation.
    const std::int64_t sum = (t.dispatched - t.submitted).nanos() +
                             (t.fetch_start - t.dispatched).nanos() +
                             (t.inputs_ready - t.fetch_start).nanos() +
                             (t.compute_done - t.inputs_ready).nanos() +
                             (t.completed - t.compute_done).nanos();
    EXPECT_EQ(sum, (t.completed - t.submitted).nanos()) << "id " << t.id;
    EXPECT_GE(t.router, 0) << "id " << t.id;  // all traffic used the tier
  }
  const auto totals = recorder.Totals();
  EXPECT_EQ(totals.PhaseSum().nanos(), totals.end_to_end.nanos());
}

TEST(RouterTierTest, HopChargedOncePerAttemptUnderRetryForwardAndPullClaim) {
  // Double-charge audit for the dispatch path: every attempt must cross
  // the tier exactly once — one routes_ bump, one RouterHopTrace, one
  // tier-hop charge — even when the attempt is misroute-forwarded on a
  // stale view, retried after a crash, and late-bound by a pull claim
  // (the claim re-binds the worker but must NOT re-route or record a
  // second hop). And the five trace spans must still partition
  // [submitted, completed] exactly: the claim wait lands in the queue
  // span, not in a gap.
  Simulator sim;
  PlatformConfig config = QuickConfig();
  config.retry.max_attempts = 4;
  config.retry.initial_backoff = SimTime::FromMillis(5);
  config.dispatch_mode = FaasDispatchMode::kPull;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, /*seed=*/3,
                        config);
  platform.AddWorkers(4);
  TraceRecorder recorder;
  platform.set_trace_recorder(&recorder);

  RouterTierConfig tier_config;
  tier_config.routers = 2;
  tier_config.sync_lag = SimTime::FromSeconds(3600);  // views go stale
  tier_config.hop_latency = SimTime::FromMicros(50);
  RouterTier tier(&platform, tier_config);
  tier.set_trace_recorder(&recorder);

  int completed = 0;
  auto done = [&](const InvocationResult&) { ++completed; };
  std::string crashed;
  for (int i = 0; i < 8; ++i) {
    InvocationSpec spec = Spec(StrFormat("c%d", i % 4));
    spec.cpu_ops = 5e6;
    ASSERT_TRUE(tier.Invoke(std::move(spec), [&](const InvocationResult& r) {
                      done(r);
                      if (crashed.empty()) {
                        crashed = r.instance;
                      }
                    }).has_value());
  }
  sim.Run();
  ASSERT_FALSE(crashed.empty());

  // Crash mid-run: under pull's late binding nothing is bound at submit
  // time, so the crash has to land while the claimed work is actually
  // executing on the doomed worker to force a real retry.
  for (int i = 0; i < 12; ++i) {
    InvocationSpec spec = Spec(StrFormat("c%d", i % 4));
    spec.cpu_ops = 5e6;
    ASSERT_TRUE(tier.Invoke(std::move(spec), done).has_value());
  }
  sim.After(SimTime::FromMillis(7),
            [&]() { platform.CrashWorker(crashed); });
  sim.Run();

  EXPECT_GT(platform.counters().pulls, 0u);     // late binding actually ran
  EXPECT_GT(platform.counters().retries, 0u);   // and a real retry happened

  // Strict hop accounting. Every attempt is one tier route: total routes
  // equals first attempts (= submissions) plus retry attempts. Forwards
  // stay inside their attempt — they must not mint a second route or a
  // second hop trace.
  EXPECT_EQ(tier.routes(),
            platform.counters().submitted + platform.counters().retries);
  EXPECT_EQ(recorder.router_hop_count(), tier.routes());
  std::set<std::pair<std::uint64_t, int>> hop_keys;
  for (const RouterHopTrace& hop : recorder.router_hops()) {
    EXPECT_TRUE(hop_keys.emplace(hop.invocation_id, hop.attempt).second)
        << "duplicate hop for invocation " << hop.invocation_id
        << " attempt " << hop.attempt;
  }

  for (const InvocationTrace& t : recorder.invocations()) {
    EXPECT_LE(t.submitted.nanos(), t.dispatched.nanos()) << "id " << t.id;
    EXPECT_LE(t.dispatched.nanos(), t.fetch_start.nanos()) << "id " << t.id;
    EXPECT_LE(t.fetch_start.nanos(), t.inputs_ready.nanos()) << "id " << t.id;
    EXPECT_LE(t.inputs_ready.nanos(), t.compute_done.nanos()) << "id " << t.id;
    EXPECT_LE(t.compute_done.nanos(), t.completed.nanos()) << "id " << t.id;
    const std::int64_t sum = (t.dispatched - t.submitted).nanos() +
                             (t.fetch_start - t.dispatched).nanos() +
                             (t.inputs_ready - t.fetch_start).nanos() +
                             (t.compute_done - t.inputs_ready).nanos() +
                             (t.completed - t.compute_done).nanos();
    EXPECT_EQ(sum, (t.completed - t.submitted).nanos()) << "id " << t.id;
    EXPECT_GE(t.router, 0) << "id " << t.id;
  }
  const auto totals = recorder.Totals();
  EXPECT_EQ(totals.PhaseSum().nanos(), totals.end_to_end.nanos());
}

}  // namespace
}  // namespace palette
