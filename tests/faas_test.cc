// Tests for the FaaS platform: invocation life cycle, cache/network
// integration, name translation, and the scale controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/faas/platform.h"
#include "src/faas/scale_controller.h"
#include "src/sim/simulator.h"

namespace palette {
namespace {

PlatformConfig FastConfig() {
  PlatformConfig config;
  config.cpu_ops_per_second = 1e9;
  config.dispatch_latency = SimTime::FromMillis(1);
  config.cold_start = SimTime::FromMillis(100);
  config.serialization_bytes_per_second = 0;  // isolate stages in tests
  return config;
}

TEST(FaasPlatformTest, WorkerManagement) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, FastConfig());
  platform.AddWorkers(3);
  EXPECT_EQ(platform.worker_count(), 3u);
  EXPECT_EQ(platform.WorkerNames(),
            (std::vector<std::string>{"w0", "w1", "w2"}));
  platform.RemoveWorker("w1");
  EXPECT_EQ(platform.worker_count(), 2u);
}

TEST(FaasPlatformTest, InvokeWithoutWorkersFails) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, FastConfig());
  InvocationSpec spec;
  spec.function = "f";
  EXPECT_FALSE(platform.Invoke(std::move(spec), nullptr).has_value());
}

TEST(FaasPlatformTest, ColdStartPaidOncePerWorker) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, FastConfig());
  platform.AddWorker("w0");

  std::vector<InvocationResult> results;
  for (int i = 0; i < 2; ++i) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = "c";  // same color -> same worker
    spec.cpu_ops = 1e6;  // 1 ms
    platform.Invoke(std::move(spec), [&](const InvocationResult& r) {
      results.push_back(r);
    });
  }
  sim.Run();
  ASSERT_EQ(results.size(), 2u);
  // One invocation paid 1ms dispatch + 100ms cold start, the other only the
  // 1ms dispatch (completion order may differ from submission order).
  std::vector<double> dispatched = {results[0].dispatched.millis(),
                                    results[1].dispatched.millis()};
  std::sort(dispatched.begin(), dispatched.end());
  EXPECT_NEAR(dispatched[0], 1.0, 1e-6);
  EXPECT_NEAR(dispatched[1], 101.0, 1e-6);
}

TEST(FaasPlatformTest, ComputeTimeMatchesOpsRate) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, FastConfig());
  platform.AddWorker("w0");
  InvocationSpec spec;
  spec.function = "f";
  spec.color = "c";
  spec.cpu_ops = 5e8;  // 0.5 s at 1e9 ops/s
  InvocationResult result;
  platform.Invoke(std::move(spec),
                  [&](const InvocationResult& r) { result = r; });
  sim.Run();
  EXPECT_NEAR((result.compute_done - result.inputs_ready).seconds(), 0.5,
              1e-6);
}

TEST(FaasPlatformTest, PaletteOutputIsLocalNextReadIsLocalHit) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, FastConfig());
  platform.AddWorkers(4);

  // Producer colored "blue" writes blue___obj; consumer colored "blue"
  // reads it back: the object must be a local hit.
  InvocationSpec producer;
  producer.function = "produce";
  producer.color = "blue";
  producer.cpu_ops = 1e6;
  producer.outputs.push_back(
      ObjectRef{platform.TranslateObjectName("blue___obj"), kMiB});
  bool produced = false;
  platform.Invoke(std::move(producer), [&](const InvocationResult&) {
    produced = true;
    InvocationSpec consumer;
    consumer.function = "consume";
    consumer.color = "blue";
    consumer.cpu_ops = 1e6;
    consumer.inputs.push_back(
        ObjectRef{platform.TranslateObjectName("blue___obj"), kMiB});
    platform.Invoke(std::move(consumer), [&](const InvocationResult& r) {
      EXPECT_EQ(r.local_hits, 1);
      EXPECT_EQ(r.remote_hits, 0);
      EXPECT_EQ(r.misses, 0);
      EXPECT_EQ(r.network_bytes, 0u);
    });
  });
  sim.Run();
  EXPECT_TRUE(produced);
  EXPECT_EQ(platform.counters().completed, 2u);
}

TEST(FaasPlatformTest, DifferentColorsCauseRemoteHit) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, FastConfig());
  platform.AddWorkers(4);

  InvocationSpec producer;
  producer.function = "produce";
  producer.color = "red";
  producer.cpu_ops = 1e6;
  producer.outputs.push_back(
      ObjectRef{platform.TranslateObjectName("red___obj"), kMiB});
  int remote_hits = 0;
  platform.Invoke(std::move(producer), [&](const InvocationResult&) {
    InvocationSpec consumer;
    consumer.function = "consume";
    consumer.color = "green";  // LA assigns a different instance
    consumer.cpu_ops = 1e6;
    consumer.inputs.push_back(
        ObjectRef{platform.TranslateObjectName("red___obj"), kMiB});
    platform.Invoke(std::move(consumer), [&](const InvocationResult& r) {
      remote_hits = r.remote_hits;
      EXPECT_GT(r.network_bytes, 0u);
    });
  });
  sim.Run();
  EXPECT_EQ(remote_hits, 1);
}

TEST(FaasPlatformTest, MissFetchesFromStorage) {
  Simulator sim;
  auto config = FastConfig();
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  platform.SeedStorageObject("dataset", 10 * kMiB);

  InvocationSpec spec;
  spec.function = "f";
  spec.color = "c";
  spec.cpu_ops = 1e6;
  spec.inputs.push_back(ObjectRef{"dataset", 10 * kMiB});
  InvocationResult result;
  platform.Invoke(std::move(spec),
                  [&](const InvocationResult& r) { result = r; });
  sim.Run();
  EXPECT_EQ(result.misses, 1);
  EXPECT_EQ(result.network_bytes, 10 * kMiB);
  // Miss fill: a second read of the same object on the same worker is local.
  InvocationSpec again;
  again.function = "f";
  again.color = "c";
  again.cpu_ops = 1e6;
  again.inputs.push_back(ObjectRef{"dataset", 10 * kMiB});
  InvocationResult second;
  platform.Invoke(std::move(again),
                  [&](const InvocationResult& r) { second = r; });
  sim.Run();
  EXPECT_EQ(second.local_hits, 1);
  EXPECT_EQ(second.misses, 0);
}

TEST(FaasPlatformTest, SerializationTaxExtendsCompute) {
  Simulator sim;
  auto config = FastConfig();
  config.serialization_bytes_per_second = 1e9;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");

  InvocationSpec spec;
  spec.function = "f";
  spec.color = "c";
  spec.cpu_ops = 0;
  spec.outputs.push_back(
      ObjectRef{platform.TranslateObjectName("c___big"), 500'000'000});
  InvocationResult result;
  platform.Invoke(std::move(spec),
                  [&](const InvocationResult& r) { result = r; });
  sim.Run();
  // 500 MB at 1 GB/s serialization = 0.5 s of extra CPU time.
  EXPECT_NEAR((result.compute_done - result.inputs_ready).seconds(), 0.5,
              1e-3);
}

TEST(FaasPlatformTest, SingleVcpuSerializesConcurrentInvocations) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, FastConfig());
  platform.AddWorker("w0");
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = "c";
    spec.cpu_ops = 1e9;  // 1 s each
    platform.Invoke(std::move(spec), [&](const InvocationResult& r) {
      completions.push_back(r.completed);
    });
  }
  sim.Run();
  ASSERT_EQ(completions.size(), 3u);
  // Back-to-back on one vCPU: roughly 1s, 2s, 3s (plus dispatch+cold start).
  EXPECT_NEAR((completions[1] - completions[0]).seconds(), 1.0, 1e-3);
  EXPECT_NEAR((completions[2] - completions[1]).seconds(), 1.0, 1e-3);
}

TEST(FaasPlatformTest, QueueDepthVisibleUnderBacklogAndZeroAfterDrain) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, FastConfig());
  platform.AddWorker("w0");

  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = "c";  // same color -> all four land on w0
    spec.cpu_ops = 1e7;  // 10 ms each on the single-vCPU worker
    platform.Invoke(std::move(spec),
                    [&](const InvocationResult&) { ++completed; });
  }
  // All four dispatch at 1 ms (the first also pays the 100 ms cold start
  // before reaching the worker). Shortly after dispatch, one invocation is
  // running and at least two more are parked in the FIFO.
  std::size_t mid_run_depth = 0;
  sim.At(SimTime::FromMillis(2), [&]() {
    mid_run_depth = platform.WorkerQueueDepth("w0");
  });
  sim.Run();
  EXPECT_GE(mid_run_depth, 2u);
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(platform.WorkerQueueDepth("w0"), 0u);
  EXPECT_EQ(platform.WorkerQueueDepth("no-such-worker"), 0u);
}

TEST(FaasPlatformTest, ExactlyOneColdStartPerWarmWorker) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, FastConfig());
  platform.AddWorkers(3);

  // Two rounds over three colors: least-assigned spreads the colors across
  // all three workers, so every worker runs at least two invocations.
  int completed = 0;
  for (int round = 0; round < 2; ++round) {
    for (const char* color : {"a", "b", "c"}) {
      InvocationSpec spec;
      spec.function = "f";
      spec.color = color;
      spec.cpu_ops = 1e6;
      platform.Invoke(std::move(spec),
                      [&](const InvocationResult&) { ++completed; });
    }
  }
  sim.Run();
  EXPECT_EQ(completed, 6);
  for (const std::string& name : platform.WorkerNames()) {
    EXPECT_EQ(platform.WorkerColdStarts(name), 1u) << name;
  }
  EXPECT_EQ(platform.counters().cold_starts, 3u);
  EXPECT_EQ(platform.WorkerColdStarts("no-such-worker"), 0u);
}

// A worker that leaves and rejoins under its name keeps its interned id,
// but its cache shard is a new one: empty, with no evictions carried over.
TEST(FaasPlatformTest, RejoinedWorkerKeepsItsIdAndStartsWithAnEmptyShard) {
  Simulator sim;
  PlatformConfig config = FastConfig();
  config.cache.per_instance_capacity = 2 * kMiB;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const InstanceId id = InternInstance("w0");
  // Three 1 MiB outputs homed on w0 overflow its 2 MiB shard once.
  for (int i = 0; i < 3; ++i) {
    InvocationSpec spec;
    spec.function = "produce";
    spec.color = "c";
    spec.cpu_ops = 1e6;
    spec.outputs.push_back(ObjectRef{"w0___obj" + std::to_string(i), kMiB});
    platform.Invoke(std::move(spec), nullptr);
  }
  sim.Run();
  ASSERT_EQ(platform.cache().shard_evictions(id), 1u);
  ASSERT_EQ(platform.cache().shard_used_bytes(id), 2 * kMiB);

  platform.RemoveWorker("w0");
  platform.AddWorker("w0");
  EXPECT_EQ(InternInstance("w0"), id);
  EXPECT_TRUE(platform.HasWorkerId(id));
  EXPECT_EQ(platform.cache().shard_used_bytes(id), 0u);
  EXPECT_EQ(platform.cache().shard_evictions(id), 0u);
  EXPECT_EQ(platform.cache().total_evictions(), 0u);
}

TEST(ScaleControllerTest, ScalesOutUnderLoad) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, FastConfig());
  platform.AddWorkers(1);
  ScaleControllerConfig config;
  config.min_workers = 1;
  config.max_workers = 8;
  ScaleController controller(&platform, config);
  for (int i = 0; i < 20; ++i) {
    controller.OnInvocationSubmitted();
  }
  EXPECT_GT(controller.Evaluate(), 0);
  EXPECT_GT(platform.worker_count(), 1u);
}

TEST(ScaleControllerTest, ScalesInWhenIdle) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, FastConfig());
  platform.AddWorkers(4);
  ScaleControllerConfig config;
  config.min_workers = 1;
  ScaleController controller(&platform, config);
  EXPECT_LT(controller.Evaluate(), 0);
  EXPECT_EQ(platform.worker_count(), 3u);
}

TEST(ScaleControllerTest, RespectsBounds) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, FastConfig());
  platform.AddWorkers(2);
  ScaleControllerConfig config;
  config.min_workers = 2;
  config.max_workers = 2;
  ScaleController controller(&platform, config);
  for (int i = 0; i < 100; ++i) {
    controller.OnInvocationSubmitted();
  }
  EXPECT_EQ(controller.Evaluate(), 0);
  for (int i = 0; i < 100; ++i) {
    controller.OnInvocationCompleted();
  }
  EXPECT_EQ(controller.Evaluate(), 0);
  EXPECT_EQ(platform.worker_count(), 2u);
}

}  // namespace
}  // namespace palette
