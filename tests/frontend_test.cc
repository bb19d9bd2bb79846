// Tests for the multi-application frontend: per-app isolation of color
// namespaces and caches, with a shared physical network.
#include <gtest/gtest.h>

#include "src/common/table_printer.h"
#include "src/faas/frontend.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace palette {
namespace {

PlatformConfig QuickConfig() {
  PlatformConfig config;
  config.cpu_ops_per_second = 1e9;
  config.serialization_bytes_per_second = 0;
  config.cold_start = SimTime();
  return config;
}

TEST(FrontendTest, RegisterAndEnumerate) {
  Simulator sim;
  FaasFrontend frontend(&sim);
  EXPECT_TRUE(frontend.RegisterApp("shop", PolicyKind::kLeastAssigned, 2,
                                   QuickConfig()));
  EXPECT_TRUE(frontend.RegisterApp("feed", PolicyKind::kBucketHashing, 3,
                                   QuickConfig()));
  EXPECT_FALSE(frontend.RegisterApp("shop", PolicyKind::kLeastAssigned, 2));
  EXPECT_EQ(frontend.AppNames(), (std::vector<std::string>{"feed", "shop"}));
  EXPECT_TRUE(frontend.HasApp("shop"));
  EXPECT_FALSE(frontend.HasApp("nope"));
  EXPECT_EQ(frontend.App("shop").worker_count(), 2u);
  EXPECT_EQ(frontend.App("feed").worker_count(), 3u);
}

TEST(FrontendTest, WorkerNamesAreAppScoped) {
  Simulator sim;
  FaasFrontend frontend(&sim);
  frontend.RegisterApp("a", PolicyKind::kLeastAssigned, 2, QuickConfig());
  frontend.RegisterApp("b", PolicyKind::kLeastAssigned, 2, QuickConfig());
  EXPECT_EQ(frontend.App("a").WorkerNames(),
            (std::vector<std::string>{"a/w0", "a/w1"}));
  EXPECT_EQ(frontend.App("b").WorkerNames(),
            (std::vector<std::string>{"b/w0", "b/w1"}));
}

TEST(FrontendTest, ColorNamespacesAreIsolated) {
  // The same color in two applications routes independently — no shared
  // color state.
  Simulator sim;
  FaasFrontend frontend(&sim);
  frontend.RegisterApp("a", PolicyKind::kLeastAssigned, 4, QuickConfig());
  frontend.RegisterApp("b", PolicyKind::kLeastAssigned, 4, QuickConfig());

  const auto route_a = frontend.App("a").load_balancer().Route(Color("user1"));
  const auto route_b = frontend.App("b").load_balancer().Route(Color("user1"));
  ASSERT_TRUE(route_a.has_value());
  ASSERT_TRUE(route_b.has_value());
  EXPECT_EQ(route_a->substr(0, 2), "a/");
  EXPECT_EQ(route_b->substr(0, 2), "b/");
}

TEST(FrontendTest, CachesAreIsolated) {
  // Identical object names in different apps never alias.
  Simulator sim;
  FaasFrontend frontend(&sim);
  frontend.RegisterApp("a", PolicyKind::kLeastAssigned, 1, QuickConfig());
  frontend.RegisterApp("b", PolicyKind::kLeastAssigned, 1, QuickConfig());
  frontend.App("a").cache().PutLocal(InternInstance("a/w0"), "object", 64);
  EXPECT_EQ(
      frontend.App("a").cache().Get(InternInstance("a/w0"), "object").outcome,
      CacheOutcome::kLocalHit);
  EXPECT_EQ(
      frontend.App("b").cache().Get(InternInstance("b/w0"), "object").outcome,
      CacheOutcome::kMiss);
}

TEST(FrontendTest, InvocationsRunEndToEnd) {
  Simulator sim;
  FaasFrontend frontend(&sim);
  frontend.RegisterApp("a", PolicyKind::kLeastAssigned, 2, QuickConfig());
  frontend.RegisterApp("b", PolicyKind::kObliviousRandom, 2, QuickConfig());

  int completed = 0;
  for (const char* app : {"a", "b", "a", "b"}) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = "c";
    spec.cpu_ops = 1e6;
    EXPECT_TRUE(frontend.Invoke(app, std::move(spec),
                                [&](const InvocationResult&) { ++completed; })
                    .has_value());
  }
  EXPECT_FALSE(frontend.Invoke("missing", InvocationSpec{}, nullptr)
                   .has_value());
  sim.Run();
  EXPECT_EQ(completed, 4);
}

TEST(FrontendTest, PerAppBooksCloseUnderFailures) {
  // The accounting identity holds per application, including one that
  // loses a worker mid-run (queued attempts dropped, retries off), and a
  // frontend Invoke for an unknown app enters nobody's books.
  Simulator sim;
  FaasFrontend frontend(&sim);
  auto config = QuickConfig();
  config.cpu_ops_per_second = 1e6;  // 1 ms of sim time per 1e3 ops
  frontend.RegisterApp("a", PolicyKind::kLeastAssigned, 2, config);
  frontend.RegisterApp("b", PolicyKind::kLeastAssigned, 2, config);

  const int kPerApp = 40;
  for (int i = 0; i < kPerApp; ++i) {
    for (const char* app : {"a", "b"}) {
      InvocationSpec spec;
      spec.function = "f";
      spec.color = Color(StrFormat("c%d", i % 4));
      spec.cpu_ops = 5e4;  // 50 ms each: a backlog builds on both workers
      ASSERT_TRUE(frontend.Invoke(app, std::move(spec), nullptr).has_value());
    }
  }
  EXPECT_FALSE(frontend.Invoke("ghost", InvocationSpec{}, nullptr)
                   .has_value());
  EXPECT_EQ(frontend.unknown_app_rejections(), 1u);

  // Remove one of app a's workers while its queue is still deep.
  sim.At(SimTime::FromMillis(120),
         [&frontend]() { frontend.App("a").RemoveWorker("a/w0"); });
  sim.Run();

  const PlatformCounters books_a = frontend.BooksOf("a");
  const PlatformCounters books_b = frontend.BooksOf("b");
  EXPECT_EQ(books_a.submitted, static_cast<std::uint64_t>(kPerApp));
  EXPECT_EQ(books_b.submitted, static_cast<std::uint64_t>(kPerApp));
  EXPECT_TRUE(books_a.BooksClose());
  EXPECT_TRUE(books_b.BooksClose());
  EXPECT_GT(books_a.dropped, 0u);  // the removal stranded queued attempts
  EXPECT_EQ(books_b.dropped, 0u);
  EXPECT_EQ(books_b.completed, static_cast<std::uint64_t>(kPerApp));
  EXPECT_TRUE(frontend.AllBooksClosed());
  EXPECT_EQ(frontend.BooksOf("ghost").submitted, 0u);
}

TEST(FrontendTest, ExportAppMetricsIsPrefixedPerApp) {
  Simulator sim;
  FaasFrontend frontend(&sim);
  frontend.RegisterApp("a", PolicyKind::kLeastAssigned, 2, QuickConfig());
  frontend.RegisterApp("b", PolicyKind::kLeastAssigned, 2, QuickConfig());
  for (int i = 0; i < 3; ++i) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = "c";
    spec.cpu_ops = 1e6;
    frontend.Invoke("a", std::move(spec), nullptr);
  }
  sim.Run();

  MetricsRegistry metrics;
  frontend.ExportMetrics(&metrics);
  EXPECT_EQ(metrics.counter("app.a.faas.invocations.submitted").value(), 3u);
  EXPECT_EQ(metrics.counter("app.a.faas.invocations.completed").value(), 3u);
  EXPECT_EQ(metrics.counter("app.b.faas.invocations.submitted").value(), 0u);
  // Per-worker families carry the prefix too.
  EXPECT_EQ(metrics.counter("app.a.worker.a/w0.cold_starts").value() +
                metrics.counter("app.a.worker.a/w1.cold_starts").value(),
            frontend.App("a").counters().cold_starts);
  // The snapshots agree with the books.
  const PlatformCounters books = frontend.BooksOf("a");
  EXPECT_EQ(metrics.counter("app.a.faas.invocations.submitted").value(),
            books.submitted);
}

TEST(FrontendTest, SharedNetworkCausesCrossAppContention) {
  // Isolation covers colors and caches — not the physical network. A large
  // transfer by app `a` into a node slows app `b`'s storage fetch if they
  // contend on the storage NIC; both apps read from storage simultaneously,
  // and the second transfer queues behind the first.
  Simulator sim;
  FaasFrontend frontend(&sim);
  auto config = QuickConfig();
  config.dispatch_latency = SimTime();
  frontend.RegisterApp("a", PolicyKind::kLeastAssigned, 1, config);
  frontend.RegisterApp("b", PolicyKind::kLeastAssigned, 1, config);
  frontend.App("a").SeedStorageObject("big_a", 125'000'000);  // 1 s at 1 Gbps
  frontend.App("b").SeedStorageObject("big_b", 125'000'000);

  SimTime done_b;
  InvocationSpec spec_a;
  spec_a.function = "fa";
  spec_a.color = "c";
  spec_a.inputs.push_back(ObjectRef{"big_a", 125'000'000});
  frontend.Invoke("a", std::move(spec_a), nullptr);

  InvocationSpec spec_b;
  spec_b.function = "fb";
  spec_b.color = "c";
  spec_b.inputs.push_back(ObjectRef{"big_b", 125'000'000});
  frontend.Invoke("b", std::move(spec_b),
                  [&](const InvocationResult& r) { done_b = r.completed; });
  sim.Run();
  // b's 1-second fetch queued behind a's on the storage egress: ~2 s total.
  EXPECT_GT(done_b.seconds(), 1.9);
}

}  // namespace
}  // namespace palette
