// Failure-injection tests: the paper's central robustness claim is that
// colors are hints — membership churn, lost instances, and forgotten
// mappings degrade locality but never correctness. These tests inject
// those events mid-run and assert the system keeps serving.
#include <gtest/gtest.h>

#include "src/common/table_printer.h"
#include "src/faas/platform.h"
#include "src/sim/simulator.h"

namespace palette {
namespace {

PlatformConfig TestConfig() {
  PlatformConfig config;
  config.cpu_ops_per_second = 1e9;
  config.serialization_bytes_per_second = 0;
  return config;
}

TEST(FailureInjectionTest, WorkerRemovalMidRunDropsOnlyItsQueue) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, TestConfig());
  platform.AddWorkers(4);

  int completed = 0;
  // 40 colored invocations across 8 colors.
  for (int i = 0; i < 40; ++i) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = StrFormat("c%d", i % 8);
    spec.cpu_ops = 1e8;  // 100 ms each
    platform.Invoke(std::move(spec),
                    [&](const InvocationResult&) { ++completed; });
  }
  // Remove one worker shortly after start; in-flight requests on it are
  // dropped (the instance died), everything else completes.
  sim.At(SimTime::FromMillis(50), [&]() { platform.RemoveWorker("w1"); });
  sim.Run();
  EXPECT_GT(completed, 0);
  EXPECT_LT(completed, 41);
  // Every invocation is accounted for: either it completed or the platform
  // counted it dropped with the dead worker (exported as
  // "faas.invocations_dropped"). Nothing vanishes silently.
  EXPECT_GT(platform.counters().dropped, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(completed) +
                platform.counters().dropped,
            40u);
  // New work after the removal routes fine — never to the dead worker.
  bool served = false;
  InvocationSpec spec;
  spec.function = "f";
  spec.color = "c1";
  spec.cpu_ops = 1e6;
  platform.Invoke(std::move(spec), [&](const InvocationResult& r) {
    served = true;
    EXPECT_NE(r.instance, "w1");
  });
  sim.Run();
  EXPECT_TRUE(served);
}

TEST(FailureInjectionTest, LostCacheStateBecomesMissesNotErrors) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, TestConfig());
  platform.AddWorkers(3);
  platform.SeedStorageObject("blue___data", 4 * kMiB);

  // Producer writes blue___data to its instance.
  InvocationSpec producer;
  producer.function = "produce";
  producer.color = "blue";
  producer.cpu_ops = 1e6;
  producer.outputs.push_back(
      ObjectRef{platform.TranslateObjectName("blue___data"), 4 * kMiB});
  std::string producer_instance;
  platform.Invoke(std::move(producer), [&](const InvocationResult& r) {
    producer_instance = r.instance;
  });
  sim.Run();
  ASSERT_FALSE(producer_instance.empty());

  // The producing instance dies; its cache shard evaporates.
  platform.RemoveWorker(producer_instance);

  // A consumer colored blue is re-routed (its instance is gone) and its
  // read falls back to backing storage — a miss, not a failure.
  InvocationSpec consumer;
  consumer.function = "consume";
  consumer.color = "blue";
  consumer.cpu_ops = 1e6;
  consumer.inputs.push_back(
      ObjectRef{platform.TranslateObjectName("blue___data"), 4 * kMiB});
  InvocationResult result;
  bool done = false;
  platform.Invoke(std::move(consumer), [&](const InvocationResult& r) {
    result = r;
    done = true;
  });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.misses + result.remote_hits + result.local_hits, 1);
  EXPECT_NE(result.instance, producer_instance);
}

TEST(FailureInjectionTest, AllWorkersRemovedThenRestored) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kBucketHashing, 1, TestConfig());
  platform.AddWorkers(2);
  platform.RemoveWorker("w0");
  platform.RemoveWorker("w1");

  InvocationSpec spec;
  spec.function = "f";
  spec.color = "c";
  EXPECT_FALSE(platform.Invoke(std::move(spec), nullptr).has_value());

  platform.AddWorker("w_new");
  bool served = false;
  InvocationSpec retry;
  retry.function = "f";
  retry.color = "c";
  retry.cpu_ops = 1e6;
  platform.Invoke(std::move(retry), [&](const InvocationResult& r) {
    served = true;
    EXPECT_EQ(r.instance, "w_new");
  });
  sim.Run();
  EXPECT_TRUE(served);
}

TEST(FailureInjectionTest, RapidChurnUnderLoadStillDrains) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, TestConfig());
  platform.AddWorkers(4);

  int completed = 0;
  int submitted = 0;
  // Steady arrivals for 10 simulated seconds.
  for (int i = 0; i < 200; ++i) {
    sim.At(SimTime::FromMillis(i * 50.0), [&, i]() {
      InvocationSpec spec;
      spec.function = "f";
      spec.color = StrFormat("c%d", i % 16);
      spec.cpu_ops = 2e7;
      if (platform
              .Invoke(std::move(spec),
                      [&](const InvocationResult&) { ++completed; })
              .has_value()) {
        ++submitted;
      }
    });
  }
  // Churn: remove and re-add workers every second.
  for (int s = 1; s <= 8; ++s) {
    sim.At(SimTime::FromSeconds(s), [&, s]() {
      if (s % 2 == 1) {
        platform.RemoveWorker(StrFormat("w%d", s % 4));
      } else {
        platform.AddWorker(StrFormat("w%d", (s - 1) % 4));
      }
    });
  }
  sim.Run();
  // Dropped in-flight work on removed instances is allowed; the vast
  // majority completes and nothing deadlocks.
  EXPECT_GT(completed, submitted * 3 / 4);
  // The drop counter closes the books: submitted = completed + dropped
  // once the simulator drains.
  EXPECT_EQ(static_cast<std::uint64_t>(completed) +
                platform.counters().dropped,
            static_cast<std::uint64_t>(submitted));
}

PlatformConfig RetryConfig(int max_attempts = 4) {
  PlatformConfig config = TestConfig();
  config.retry.max_attempts = max_attempts;
  config.retry.initial_backoff = SimTime::FromMillis(5);
  config.retry.multiplier = 2.0;
  config.retry.jitter = 0.2;
  return config;
}

TEST(FailureInjectionTest, CrashWithRetryClosesBooksWithNothingDropped) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, RetryConfig());
  platform.AddWorkers(4);

  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = StrFormat("c%d", i % 8);
    spec.cpu_ops = 1e8;  // 100 ms each
    platform.Invoke(std::move(spec),
                    [&](const InvocationResult&) { ++completed; });
  }
  // Hard crash mid-run: the victim's queue AND its running attempt die.
  sim.At(SimTime::FromMillis(50), [&]() { platform.CrashWorker("w1"); });
  sim.Run();

  // With retries enabled and three surviving workers, every lost attempt
  // is re-executed: nothing dropped, nothing abandoned, and the books
  // close as submitted = completed (+ 0 + 0).
  EXPECT_EQ(platform.counters().submitted, 40u);
  EXPECT_EQ(completed, 40);
  EXPECT_EQ(platform.counters().dropped, 0u);
  EXPECT_EQ(platform.counters().abandoned, 0u);
  EXPECT_GT(platform.counters().retries, 0u);
  EXPECT_TRUE(platform.counters().BooksClose());
}

TEST(FailureInjectionTest, RetriedColoredInvocationLandsOnRemappedInstance) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, RetryConfig());
  platform.AddWorker("w0");
  platform.AddWorker("w1");

  // Pin down where "red" maps before the failure.
  const auto sticky = platform.load_balancer().ResolveColor("red");
  ASSERT_TRUE(sticky.has_value());
  const std::string survivor = *sticky == "w0" ? "w1" : "w0";

  // Two red invocations: the first occupies the sticky instance for 500 ms,
  // the second queues behind it.
  std::vector<InvocationResult> results;
  for (int i = 0; i < 2; ++i) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = "red";
    spec.cpu_ops = 5e8;
    platform.Invoke(std::move(spec), [&](const InvocationResult& r) {
      results.push_back(r);
    });
  }
  // The sticky instance crashes while both are on it.
  sim.At(SimTime::FromMillis(100), [&]() { platform.CrashWorker(*sticky); });
  sim.Run();

  // Failure-aware re-coloring re-homed "red", so the retried hints land on
  // the survivor — not on a dead route, not dropped.
  ASSERT_EQ(results.size(), 2u);
  for (const InvocationResult& r : results) {
    EXPECT_EQ(r.instance, survivor);
    EXPECT_GT(r.attempts, 1);
  }
  EXPECT_GT(platform.load_balancer().recolored(), 0u);
  EXPECT_EQ(platform.counters().dropped, 0u);
  EXPECT_EQ(platform.counters().abandoned, 0u);
}

TEST(FailureInjectionTest, DeadlineTimeoutRefundsWorkerCompute) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        TestConfig());  // retries disabled
  platform.AddWorker("w0");

  // A pays the 100 ms cold start + 1 ms dispatch, then computes 1 s — but
  // its 300 ms deadline (armed at submission) fires mid-compute.
  InvocationSpec a;
  a.function = "slow";
  a.color = "c";
  a.cpu_ops = 1e9;
  a.deadline = SimTime::FromMillis(300);
  bool a_completed = false;
  platform.Invoke(std::move(a),
                  [&](const InvocationResult&) { a_completed = true; });

  // B arrives behind A. Without the CPU refund it would wait out A's full
  // booking (~1.1 s); with the refund it starts right at A's timeout.
  SimTime b_done;
  sim.At(SimTime::FromMillis(150), [&]() {
    InvocationSpec b;
    b.function = "fast";
    b.color = "c";
    b.cpu_ops = 1e6;  // 1 ms
    platform.Invoke(std::move(b),
                    [&](const InvocationResult& r) { b_done = r.completed; });
  });
  sim.Run();

  EXPECT_FALSE(a_completed);
  EXPECT_EQ(platform.counters().timeouts, 1u);
  // Retries are disabled, so the timed-out invocation is dropped and the
  // books still close.
  EXPECT_EQ(platform.counters().dropped, 1u);
  EXPECT_EQ(platform.counters().submitted, 2u);
  EXPECT_EQ(platform.counters().completed, 1u);
  // B finished just after the 300 ms timeout, not after A's 1 s booking.
  EXPECT_GT(b_done, SimTime::FromMillis(300));
  EXPECT_LT(b_done, SimTime::FromMillis(400));
}

TEST(FailureInjectionTest, AbandonedAfterMaxAttemptsClosesBooks) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        RetryConfig(/*max_attempts=*/2));
  platform.AddWorker("w0");

  bool completed = false;
  InvocationSpec spec;
  spec.function = "f";
  spec.color = "c";
  spec.cpu_ops = 1e9;  // 1 s
  platform.Invoke(std::move(spec),
                  [&](const InvocationResult&) { completed = true; });
  // The only worker crashes and never comes back: attempt 1 dies with it,
  // attempt 2 finds no instances. Budget exhausted -> abandoned.
  sim.At(SimTime::FromMillis(50), [&]() { platform.CrashWorker("w0"); });
  sim.Run();

  EXPECT_FALSE(completed);
  EXPECT_EQ(platform.counters().retries, 1u);
  EXPECT_EQ(platform.counters().abandoned, 1u);
  EXPECT_EQ(platform.counters().dropped, 0u);
  EXPECT_TRUE(platform.counters().BooksClose());
}

}  // namespace
}  // namespace palette
