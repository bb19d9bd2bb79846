// Tests for src/obs: metrics registry, log-bucketed histogram accuracy,
// lifecycle trace recording, Chrome trace-event export, the platform
// integration (spans partition end-to-end latency exactly), and the live
// telemetry pipeline (time-series sampler, alert engine, Prometheus
// exposition — docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table_printer.h"
#include "src/faas/platform.h"
#include "src/obs/alerts.h"
#include "src/obs/metrics.h"
#include "src/obs/prometheus.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace palette {
namespace {

TEST(CounterTest, IncrementAddSet) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Set(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(GaugeTest, SetAdd) {
  Gauge g;
  g.Set(2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(LatencyHistogramTest, SummariesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v : {10u, 20u, 30u, 40u}) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 100u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 40u);
  EXPECT_DOUBLE_EQ(h.mean(), 25.0);
}

TEST(LatencyHistogramTest, EmptyHistogramIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  // Values below one sub-bucket range (16) land in singleton buckets, so
  // quantiles are exact there.
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 16; ++v) {
    h.Record(v);
  }
  EXPECT_LE(h.Quantile(0.0), 1.0);
  EXPECT_NEAR(h.Quantile(1.0), 15.0, 1.0);
}

TEST(LatencyHistogramTest, QuantilesWithinRelativeErrorBound) {
  // Against the exact percentile over the same (heavy-tailed) samples, the
  // log-linear estimate must stay within the 1/16 sub-bucket resolution
  // (plus interpolation slack).
  Rng rng(42);
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // Exponent spread over ~6 decades, like ns-scale latencies.
    const double v = std::pow(10.0, 3.0 + 6.0 * rng.NextDouble());
    const auto value = static_cast<std::uint64_t>(v);
    h.Record(value);
    samples.push_back(static_cast<double>(value));
  }
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = Percentile(samples, 100 * q);
    const double estimate = h.Quantile(q);
    EXPECT_NEAR(estimate, exact, 0.08 * exact) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, QuantileClampedToObservedRange) {
  LatencyHistogram h;
  h.Record(1000);
  h.Record(1001);
  EXPECT_GE(h.Quantile(0.0), 1000.0);
  EXPECT_LE(h.Quantile(1.0), 1001.0);
}

TEST(LatencyHistogramTest, ExactModeMatchesTruePercentiles) {
  LatencyHistogram h;
  h.set_retain_samples(true);
  for (std::uint64_t v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  ASSERT_EQ(h.samples().size(), 100u);
  // With retained samples the quantile is rank-interpolated, not bucketed.
  EXPECT_NEAR(h.Quantile(0.50), 50.5, 0.51);
  EXPECT_NEAR(h.Quantile(0.99), 99.01, 0.5);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
}

TEST(MetricsRegistryTest, HandsOutStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("a");
  a.Increment();
  // Force rehash/new allocations; the earlier reference must stay valid.
  for (int i = 0; i < 1000; ++i) {
    registry.counter(StrFormat("c%d", i));
  }
  a.Increment();
  EXPECT_EQ(registry.counter("a").value(), 2u);
  EXPECT_TRUE(registry.HasMetric("a"));
  EXPECT_FALSE(registry.HasMetric("nope"));
  EXPECT_EQ(registry.size(), 1001u);
}

TEST(MetricsRegistryTest, TableListsAllKindsNameSorted) {
  MetricsRegistry registry;
  registry.counter("z.count").Set(3);
  registry.gauge("a.gauge").Set(1.5);
  registry.histogram("m.hist").Record(100);
  const std::string table = registry.ToTable();
  const auto a = table.find("a.gauge");
  const auto m = table.find("m.hist");
  const auto z = table.find("z.count");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
}

TEST(MetricsRegistryTest, JsonExportIsWellFormed) {
  MetricsRegistry registry;
  registry.counter("faas.invocations").Set(12);
  registry.gauge("lb.imbalance").Set(1.25);
  auto& h = registry.histogram("lat_ns");
  h.Record(10);
  h.Record(30);

  JsonWriter json;
  json.BeginObject();
  registry.AppendJson(&json);
  json.EndObject();
  const std::string& out = json.str();
  EXPECT_NE(out.find("\"counters\""), std::string::npos);
  EXPECT_NE(out.find("\"faas.invocations\":12"), std::string::npos);
  EXPECT_NE(out.find("\"gauges\""), std::string::npos);
  EXPECT_NE(out.find("\"histograms\""), std::string::npos);
  EXPECT_NE(out.find("\"count\":2"), std::string::npos);
  EXPECT_NE(out.find("\"p99\""), std::string::npos);
}

InvocationTrace MakeTrace(std::uint64_t id, std::int64_t base_us) {
  InvocationTrace t;
  t.id = id;
  t.function = "f";
  t.instance = "w0";
  t.submitted = SimTime::FromMicros(base_us);
  t.dispatched = SimTime::FromMicros(base_us + 100);
  t.fetch_start = SimTime::FromMicros(base_us + 150);
  t.inputs_ready = SimTime::FromMicros(base_us + 500);
  t.compute_done = SimTime::FromMicros(base_us + 2500);
  t.completed = SimTime::FromMicros(base_us + 2600);
  return t;
}

TEST(TraceRecorderTest, PhaseTotalsPartitionEndToEnd) {
  TraceRecorder recorder;
  recorder.RecordInvocation(MakeTrace(1, 0));
  recorder.RecordInvocation(MakeTrace(2, 5000));
  const auto totals = recorder.Totals();
  EXPECT_EQ(totals.invocations, 2u);
  EXPECT_EQ(totals.PhaseSum().nanos(), totals.end_to_end.nanos());
  EXPECT_EQ(totals.end_to_end.micros(), 2 * 2600);
  EXPECT_EQ(totals.route.micros(), 2 * 100);
  EXPECT_EQ(totals.queue.micros(), 2 * 50);
  EXPECT_EQ(totals.fetch.micros(), 2 * 350);
  EXPECT_EQ(totals.compute.micros(), 2 * 2000);
  EXPECT_EQ(totals.store.micros(), 2 * 100);
}

TEST(TraceRecorderTest, BreakdownTableNamesEveryPhase) {
  TraceRecorder recorder;
  recorder.RecordInvocation(MakeTrace(1, 0));
  const std::string table = recorder.PhaseBreakdownTable();
  for (const char* phase :
       {"route", "queue", "fetch", "compute", "store", "end_to_end"}) {
    EXPECT_NE(table.find(phase), std::string::npos) << phase;
  }
}

TEST(TraceRecorderTest, ChromeTraceJsonHasSpansAndMetadata) {
  TraceRecorder recorder;
  InvocationTrace t = MakeTrace(7, 0);
  t.color = "c1";
  t.cold_start = SimTime::FromMicros(80);
  recorder.RecordInvocation(t);
  recorder.RecordFetch(FetchTrace{7, "w0", "c1___obj", FetchSource::kRemote,
                                  4096, SimTime::FromMicros(150),
                                  SimTime::FromMicros(500)});
  const std::string json = recorder.ToChromeTraceJson();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\""), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* name :
       {"\"route\"", "\"queue\"", "\"fetch\"", "\"compute\"", "\"store\"",
        "\"cold_start\"", "\"process_name\"", "\"thread_name\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_NE(json.find("\"c1___obj\""), std::string::npos);
  EXPECT_NE(json.find("\"remote\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceRecorderTest, ClearResetsEverything) {
  TraceRecorder recorder;
  recorder.RecordInvocation(MakeTrace(1, 0));
  recorder.RecordFetch(FetchTrace{});
  recorder.Clear();
  EXPECT_EQ(recorder.invocation_count(), 0u);
  EXPECT_EQ(recorder.fetch_count(), 0u);
  EXPECT_EQ(recorder.Totals().invocations, 0u);
}

// --- Platform integration -------------------------------------------------

PlatformConfig ObsTestConfig() {
  PlatformConfig config;
  config.cpu_ops_per_second = 1e9;
  config.serialization_bytes_per_second = 0;
  return config;
}

TEST(PlatformObservabilityTest, RecordsOneTracePerInvocation) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, ObsTestConfig());
  platform.AddWorkers(2);
  TraceRecorder recorder;
  MetricsRegistry metrics;
  platform.set_trace_recorder(&recorder);
  platform.set_metrics(&metrics);

  constexpr int kInvocations = 12;
  int completed = 0;
  for (int i = 0; i < kInvocations; ++i) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = StrFormat("c%d", i % 4);
    spec.cpu_ops = 1e6;
    spec.inputs.push_back(
        ObjectRef{platform.TranslateObjectName(
                      StrFormat("c%d___in%d", i % 4, i)),
                  1 * kMiB});
    spec.outputs.push_back(
        ObjectRef{platform.TranslateObjectName(
                      StrFormat("c%d___out%d", i % 4, i)),
                  1 * kMiB});
    platform.Invoke(std::move(spec),
                    [&](const InvocationResult&) { ++completed; });
  }
  sim.Run();
  EXPECT_EQ(completed, kInvocations);
  ASSERT_EQ(recorder.invocation_count(),
            static_cast<std::size_t>(kInvocations));
  // One input each -> one fetch span each.
  EXPECT_EQ(recorder.fetch_count(), static_cast<std::size_t>(kInvocations));

  // The five phases partition [submitted, completed] for EVERY invocation —
  // not just in aggregate.
  for (const InvocationTrace& t : recorder.invocations()) {
    const std::int64_t sum = (t.dispatched - t.submitted).nanos() +
                             (t.fetch_start - t.dispatched).nanos() +
                             (t.inputs_ready - t.fetch_start).nanos() +
                             (t.compute_done - t.inputs_ready).nanos() +
                             (t.completed - t.compute_done).nanos();
    EXPECT_EQ(sum, (t.completed - t.submitted).nanos()) << "id " << t.id;
  }
  const auto totals = recorder.Totals();
  EXPECT_EQ(totals.PhaseSum().nanos(), totals.end_to_end.nanos());

  // Live metrics recorded the same population.
  EXPECT_EQ(metrics.counter("faas.invocations").value(),
            static_cast<std::uint64_t>(kInvocations));
  EXPECT_EQ(metrics.histogram("faas.latency.end_to_end_ns").count(),
            static_cast<std::uint64_t>(kInvocations));
  EXPECT_GT(metrics.histogram("faas.latency.fetch_ns").sum(), 0u);
}

TEST(PlatformObservabilityTest, ExportMetricsSnapshotsAllLayers) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, ObsTestConfig());
  platform.AddWorkers(2);

  int completed = 0;
  for (int i = 0; i < 6; ++i) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = StrFormat("c%d", i % 2);
    spec.cpu_ops = 1e6;
    spec.outputs.push_back(
        ObjectRef{platform.TranslateObjectName(
                      StrFormat("c%d___o%d", i % 2, i)),
                  64 * 1024});
    platform.Invoke(std::move(spec),
                    [&](const InvocationResult&) { ++completed; });
  }
  sim.Run();
  ASSERT_EQ(completed, 6);

  MetricsRegistry metrics;
  platform.ExportMetrics(&metrics);
  EXPECT_EQ(metrics.counter("faas.invocations.completed").value(), 6u);
  EXPECT_EQ(metrics.counter("faas.cold_starts.total").value(), 2u);
  EXPECT_EQ(metrics.counter("lb.routed.total").value(), 6u);
  EXPECT_EQ(metrics.counter("lb.hints_honored").value(), 6u);
  EXPECT_EQ(metrics.counter("lb.hint_failures").value(), 0u);
  EXPECT_EQ(metrics.counter("cache.put_bytes").value(), 6u * 64 * 1024);
  EXPECT_TRUE(metrics.HasMetric("lb.routing_imbalance"));
  EXPECT_TRUE(metrics.HasMetric("cache.evictions"));
  EXPECT_TRUE(metrics.HasMetric("net.remote_bytes"));
  EXPECT_TRUE(metrics.HasMetric("net.queue_delay_ns"));
  for (const std::string& name : platform.WorkerNames()) {
    EXPECT_EQ(metrics.counter(
                  StrFormat("worker.%s.cold_starts", name.c_str())).value(),
              1u);
    EXPECT_TRUE(metrics.HasMetric(
        StrFormat("worker.%s.queue_depth", name.c_str())));
    EXPECT_TRUE(metrics.HasMetric(
        StrFormat("cache.shard.%s.used_bytes", name.c_str())));
    EXPECT_TRUE(metrics.HasMetric(
        StrFormat("net.%s.bytes_in", name.c_str())));
  }
}

TEST(PlatformObservabilityTest, ColorStatsOptIn) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, ObsTestConfig());
  platform.AddWorkers(2);
  platform.load_balancer().set_color_stats_enabled(true);

  int completed = 0;
  for (int i = 0; i < 9; ++i) {
    InvocationSpec spec;
    spec.function = "f";
    spec.color = StrFormat("c%d", i % 3);
    spec.cpu_ops = 1e5;
    platform.Invoke(std::move(spec),
                    [&](const InvocationResult&) { ++completed; });
  }
  sim.Run();
  ASSERT_EQ(completed, 9);
  const auto& counts = platform.load_balancer().color_counts();
  ASSERT_EQ(counts.size(), 3u);
  for (const auto& [color, n] : counts) {
    EXPECT_EQ(n, 3u) << color;
  }
}

TEST(PlatformObservabilityTest, TracingOffRecordsNothing) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, ObsTestConfig());
  platform.AddWorkers(1);
  // No recorder, no metrics attached: the run must complete normally and
  // the LB's plain counters still work.
  int completed = 0;
  InvocationSpec spec;
  spec.function = "f";
  spec.color = "c";
  spec.cpu_ops = 1e6;
  platform.Invoke(std::move(spec),
                  [&](const InvocationResult&) { ++completed; });
  sim.Run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(platform.trace_recorder(), nullptr);
  EXPECT_EQ(platform.load_balancer().hints_honored(), 1u);
  EXPECT_FALSE(platform.load_balancer().color_stats_enabled());
  EXPECT_TRUE(platform.load_balancer().color_counts().empty());
}

// ---------------------------------------------------------------------------
// Histogram windowing and merge (the sampler's raw material).

TEST(LatencyHistogramTest, MergeFromAddsBucketwise) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 1; i <= 50; ++i) {
    a.Record(static_cast<std::uint64_t>(i) * 1000);
    b.Record(static_cast<std::uint64_t>(i) * 1000 + 500000);
  }
  const std::uint64_t sum_before = a.sum() + b.sum();
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.sum(), sum_before);
  EXPECT_EQ(a.min(), 1000u);
  EXPECT_EQ(a.max(), 550000u);
  // The merged median must land between the two inputs' medians.
  const double merged_p50 = a.Quantile(0.50);
  EXPECT_GE(merged_p50, 1000.0);
  EXPECT_LE(merged_p50, 550000.0);
}

TEST(LatencyHistogramTest, MergeFromEmptyIsIdentity) {
  LatencyHistogram a;
  a.Record(42);
  LatencyHistogram empty;
  a.MergeFrom(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
  EXPECT_EQ(a.max(), 42u);
  empty.MergeFrom(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.min(), 42u);
}

TEST(LatencyHistogramTest, DeltaQuantileSeesOnlyTheWindow) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(100);  // old regime: fast
  }
  LatencyHistogram::Snapshot base = h.TakeSnapshot();
  for (int i = 0; i < 100; ++i) {
    h.Record(1000000);  // new regime: slow
  }
  // The cumulative median straddles both regimes; the windowed one sees
  // only the slow values.
  const LatencyHistogram::WindowQuantiles window = h.AdvanceWindow(&base);
  EXPECT_EQ(window.count, 100u);
  EXPECT_GE(window.p50, 900000.0);
  EXPECT_LE(h.Quantile(0.50), window.p50);
}

TEST(LatencyHistogramTest, DeltaQuantileEmptyWindowIsZero) {
  LatencyHistogram h;
  h.Record(5000);
  LatencyHistogram::Snapshot base = h.TakeSnapshot();
  const LatencyHistogram::WindowQuantiles window = h.AdvanceWindow(&base);
  EXPECT_EQ(window.count, 0u);
  EXPECT_EQ(window.p50, 0.0);
  EXPECT_EQ(window.p99, 0.0);
}

TEST(LatencyHistogramTest, QuantileEdgePins) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.Quantile(0.0), 0.0);
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_EQ(empty.Quantile(1.0), 0.0);

  LatencyHistogram one;
  one.Record(12345);
  // A single observation answers itself at every quantile — the bucket
  // interpolation must never wander outside [min, max].
  EXPECT_EQ(one.Quantile(0.0), 12345.0);
  EXPECT_EQ(one.Quantile(0.5), 12345.0);
  EXPECT_EQ(one.Quantile(1.0), 12345.0);

  LatencyHistogram two;
  two.Record(1000);
  two.Record(8000);
  EXPECT_EQ(two.Quantile(0.0), 1000.0);
  EXPECT_EQ(two.Quantile(1.0), 8000.0);
  const double mid = two.Quantile(0.5);
  EXPECT_GE(mid, 1000.0);
  EXPECT_LE(mid, 8000.0);
}

TEST(MetricsRegistryTest, MergeFromFoldsAllKinds) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("shared").Set(10);
  b.counter("shared").Set(32);
  b.counter("only_b").Set(7);
  // Gauges resolve last-writer by sim time; ties go to `other`.
  a.gauge("level").SetAt(1.0, SimTime::FromMillis(5));
  b.gauge("level").SetAt(2.0, SimTime::FromMillis(3));
  a.gauge("tied").SetAt(1.0, SimTime::FromMillis(5));
  b.gauge("tied").SetAt(2.0, SimTime::FromMillis(5));
  a.histogram("h").Record(100);
  b.histogram("h").Record(300);
  b.histogram("h_only_b").Record(1);

  a.MergeFrom(b);
  EXPECT_EQ(a.counter("shared").value(), 42u);
  EXPECT_EQ(a.counter("only_b").value(), 7u);
  EXPECT_EQ(a.gauge("level").value(), 1.0);  // a wrote later
  EXPECT_EQ(a.gauge("tied").value(), 2.0);   // tie -> other
  EXPECT_EQ(a.histogram("h").count(), 2u);
  EXPECT_EQ(a.histogram("h").min(), 100u);
  EXPECT_EQ(a.histogram("h").max(), 300u);
  EXPECT_EQ(a.histogram("h_only_b").count(), 1u);
}

// ---------------------------------------------------------------------------
// Time-series sampler: windows, tracking, ring, flush, merge, CSV.

TEST(TimeSeriesSamplerTest, CounterWindowsBecomeRates) {
  TimeSeriesConfig config;
  config.interval = SimTime::FromMillis(100);
  TimeSeriesSampler sampler(config);
  MetricsRegistry metrics;
  sampler.set_source(&metrics);

  metrics.counter("faas.invocations.submitted").Set(5);
  sampler.Sample(SimTime::FromMillis(100));
  metrics.counter("faas.invocations.submitted").Set(8);
  sampler.Sample(SimTime::FromMillis(200));

  const TimeSeries* s = sampler.Find("faas.invocations.submitted.rate");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind(), SeriesKind::kRate);
  ASSERT_EQ(s->size(), 2u);
  EXPECT_EQ(s->At(0).t, SimTime::FromMillis(100));
  EXPECT_DOUBLE_EQ(s->At(0).value, 50.0);  // 5 events / 0.1 s
  EXPECT_DOUBLE_EQ(s->At(0).weight, 5.0);
  EXPECT_DOUBLE_EQ(s->At(1).value, 30.0);
  EXPECT_DOUBLE_EQ(s->At(1).weight, 3.0);
  EXPECT_EQ(sampler.samples_taken(), 2u);
  EXPECT_EQ(sampler.next_mark(), SimTime::FromMillis(300));
}

TEST(TimeSeriesSamplerTest, CounterDecreaseClampsToZeroDelta) {
  TimeSeriesConfig config;
  config.interval = SimTime::FromMillis(100);
  TimeSeriesSampler sampler(config);
  MetricsRegistry metrics;
  sampler.set_source(&metrics);
  metrics.counter("faas.x").Set(10);
  sampler.Sample(SimTime::FromMillis(100));
  metrics.counter("faas.x").Set(4);  // snapshot-style counter reset
  sampler.Sample(SimTime::FromMillis(200));
  const TimeSeries* s = sampler.Find("faas.x.rate");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->size(), 2u);
  EXPECT_EQ(s->At(1).value, 0.0);
  EXPECT_EQ(s->At(1).weight, 0.0);
}

TEST(TimeSeriesSamplerTest, GaugeAndHistogramWindows) {
  TimeSeriesConfig config;
  config.interval = SimTime::FromMillis(100);
  TimeSeriesSampler sampler(config);
  MetricsRegistry metrics;
  sampler.set_source(&metrics);

  metrics.gauge("lb.routing_imbalance").Set(1.5);
  LatencyHistogram& h = metrics.histogram("faas.latency.end_to_end_ns");
  for (int i = 0; i < 100; ++i) {
    h.Record(1000000);
  }
  sampler.Sample(SimTime::FromMillis(100));
  for (int i = 0; i < 50; ++i) {
    h.Record(9000000);
  }
  metrics.gauge("lb.routing_imbalance").Set(2.5);
  sampler.Sample(SimTime::FromMillis(200));

  const TimeSeries* g = sampler.Find("lb.routing_imbalance");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->kind(), SeriesKind::kGauge);
  ASSERT_EQ(g->size(), 2u);
  EXPECT_DOUBLE_EQ(g->At(0).value, 1.5);
  EXPECT_DOUBLE_EQ(g->At(1).value, 2.5);
  EXPECT_DOUBLE_EQ(g->At(1).weight, 1.0);

  const TimeSeries* p50 = sampler.Find("faas.latency.end_to_end_ns.p50");
  const TimeSeries* p99 = sampler.Find("faas.latency.end_to_end_ns.p99");
  const TimeSeries* rate = sampler.Find("faas.latency.end_to_end_ns.rate");
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p99, nullptr);
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(p50->kind(), SeriesKind::kQuantile);
  ASSERT_EQ(p50->size(), 2u);
  // First window: all values ~1 ms. Second window sees only the 9 ms
  // tail, not the cumulative mix.
  EXPECT_NEAR(p50->At(0).value, 1e6, 1e6 * 0.07);
  EXPECT_DOUBLE_EQ(p50->At(0).weight, 100.0);
  EXPECT_GT(p50->At(1).value, 8e6);
  EXPECT_DOUBLE_EQ(p50->At(1).weight, 50.0);
  EXPECT_DOUBLE_EQ(rate->At(1).value, 500.0);  // 50 / 0.1 s
}

TEST(TimeSeriesSamplerTest, PerWorkerFamiliesAreNotTracked) {
  TimeSeriesSampler sampler;
  MetricsRegistry metrics;
  sampler.set_source(&metrics);
  metrics.counter("worker.g0w1.routed").Set(10);
  metrics.counter("cache.shard.w0.used_bytes").Set(10);
  metrics.counter("net.w3.bytes_in").Set(10);
  metrics.counter("faas.invocations.submitted").Set(1);
  sampler.Sample(SimTime::FromMillis(100));
  EXPECT_EQ(sampler.Find("worker.g0w1.routed.rate"), nullptr);
  EXPECT_EQ(sampler.Find("cache.shard.w0.used_bytes.rate"), nullptr);
  EXPECT_EQ(sampler.Find("net.w3.bytes_in.rate"), nullptr);
  EXPECT_NE(sampler.Find("faas.invocations.submitted.rate"), nullptr);
  EXPECT_EQ(sampler.series_count(), 1u);
}

TEST(TimeSeriesSamplerTest, RingKeepsNewestAndCountsDropped) {
  TimeSeriesConfig config;
  config.interval = SimTime::FromMillis(100);
  config.ring_capacity = 4;
  TimeSeriesSampler sampler(config);
  MetricsRegistry metrics;
  sampler.set_source(&metrics);
  for (int i = 1; i <= 6; ++i) {
    metrics.counter("faas.x").Set(static_cast<std::uint64_t>(i));
    sampler.Sample(SimTime::FromMillis(100 * i));
  }
  const TimeSeries* s = sampler.Find("faas.x.rate");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->size(), 4u);
  EXPECT_EQ(s->dropped(), 2u);
  EXPECT_EQ(s->At(0).t, SimTime::FromMillis(300));  // oldest survivor
  EXPECT_EQ(s->At(3).t, SimTime::FromMillis(600));
  // FindMark on an evicted point answers nothing; on a survivor, itself.
  EXPECT_EQ(s->FindMark(SimTime::FromMillis(100)), nullptr);
  ASSERT_NE(s->FindMark(SimTime::FromMillis(400)), nullptr);
  EXPECT_EQ(s->FindMark(SimTime::FromMillis(400))->t,
            SimTime::FromMillis(400));
}

TEST(TimeSeriesSamplerTest, FlushUpToEmitsIdleTail) {
  TimeSeriesConfig config;
  config.interval = SimTime::FromMillis(100);
  TimeSeriesSampler sampler(config);
  MetricsRegistry metrics;
  sampler.set_source(&metrics);
  metrics.counter("faas.x").Set(5);
  sampler.Sample(SimTime::FromMillis(100));
  sampler.FlushUpTo(SimTime::FromMillis(400));
  const TimeSeries* s = sampler.Find("faas.x.rate");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(s->At(i).t, SimTime::FromMillis(100 * (i + 1)));
    EXPECT_EQ(s->At(i).value, 0.0) << i;  // idle windows carry no delta
    EXPECT_EQ(s->At(i).weight, 0.0) << i;
  }
  // Idempotent at the horizon: nothing left to flush.
  sampler.FlushUpTo(SimTime::FromMillis(400));
  EXPECT_EQ(s->size(), 4u);
  EXPECT_EQ(sampler.next_mark(), SimTime::FromMillis(500));
}

TEST(TimeSeriesSamplerTest, MergeFromFoldsAlignedWindows) {
  TimeSeriesConfig config;
  config.interval = SimTime::FromMillis(100);
  TimeSeriesSampler a(config);
  TimeSeriesSampler b(config);
  MetricsRegistry ma;
  MetricsRegistry mb;
  a.set_source(&ma);
  b.set_source(&mb);

  ma.counter("faas.x").Set(10);
  ma.histogram("faas.h").Record(1000);  // weight 1 @ value 1000
  mb.counter("faas.x").Set(30);
  mb.counter("faas.only_b").Set(5);
  for (int i = 0; i < 3; ++i) {
    mb.histogram("faas.h").Record(4000);  // weight 3 @ value ~4000
  }
  a.Sample(SimTime::FromMillis(100));
  b.Sample(SimTime::FromMillis(100));

  a.MergeFrom(b);
  const TimeSeries* rate = a.Find("faas.x.rate");
  ASSERT_NE(rate, nullptr);
  ASSERT_EQ(rate->size(), 1u);
  EXPECT_DOUBLE_EQ(rate->At(0).value, 400.0);  // (10+30)/0.1s
  EXPECT_DOUBLE_EQ(rate->At(0).weight, 40.0);

  const TimeSeries* only_b = a.Find("faas.only_b.rate");
  ASSERT_NE(only_b, nullptr);  // missing series copied wholesale
  EXPECT_DOUBLE_EQ(only_b->At(0).weight, 5.0);

  const TimeSeries* p50 = a.Find("faas.h.p50");
  ASSERT_NE(p50, nullptr);
  ASSERT_EQ(p50->size(), 1u);
  // Count-weighted mean of the per-sampler medians: (1000*1 + ~4000*3)/4
  // ~= 3250 (the 4000 side lands wherever its log bucket interpolates).
  EXPECT_DOUBLE_EQ(p50->At(0).weight, 4.0);
  EXPECT_NEAR(p50->At(0).value, 3250.0, 3250.0 * 0.1);
}

TEST(TimeSeriesSamplerTest, ToCsvHeaderAndStability) {
  TimeSeriesConfig config;
  config.interval = SimTime::FromMillis(100);
  auto drive = [&config]() {
    TimeSeriesSampler sampler(config);
    MetricsRegistry metrics;
    sampler.set_source(&metrics);
    metrics.counter("faas.b").Set(2);
    metrics.counter("faas.a").Set(1);
    sampler.Sample(SimTime::FromMillis(100));
    metrics.counter("faas.a").Set(3);
    sampler.Sample(SimTime::FromMillis(200));
    return sampler.ToCsv();
  };
  const std::string csv = drive();
  EXPECT_EQ(csv.find("series,kind,t_ns,value,weight\n"), 0u);
  // Sorted by series name, then time.
  const std::size_t a1 = csv.find("faas.a.rate,rate,100000000,");
  const std::size_t a2 = csv.find("faas.a.rate,rate,200000000,");
  const std::size_t b1 = csv.find("faas.b.rate,rate,100000000,");
  ASSERT_NE(a1, std::string::npos);
  ASSERT_NE(a2, std::string::npos);
  ASSERT_NE(b1, std::string::npos);
  EXPECT_LT(a1, a2);
  EXPECT_LT(a2, b1);
  EXPECT_EQ(csv.back(), '\n');
  // Same drive, same bytes.
  EXPECT_EQ(csv, drive());
}

TEST(SparklineTest, RendersShape) {
  EXPECT_EQ(Sparkline({}, 10), "");
  EXPECT_EQ(Sparkline({1, 2, 3}, 0), "");
  // Constant input has zero span: everything sits on the lowest block.
  EXPECT_EQ(Sparkline({5, 5, 5}, 3), "▁▁▁");
  // A ramp must end on the full block and start on the lowest.
  const std::string ramp = Sparkline({0, 1, 2, 3, 4, 5, 6, 7}, 8);
  EXPECT_EQ(ramp.substr(0, 3), "▁");
  EXPECT_EQ(ramp.substr(ramp.size() - 3), "█");
  // Width clamps to the value count (no padding invented).
  EXPECT_EQ(Sparkline({1.0, 2.0}, 10).size(), 2 * 3u);
}

// ---------------------------------------------------------------------------
// Alert engine: threshold streaks, burn rate, log format, DSL.

namespace alerts {

// Drives a gauge series through the sampler at 100 ms marks.
TimeSeriesSampler DriveGauge(const std::vector<double>& levels) {
  TimeSeriesConfig config;
  config.interval = SimTime::FromMillis(100);
  TimeSeriesSampler sampler(config);
  MetricsRegistry metrics;
  sampler.set_source(&metrics);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    metrics.gauge("lb.routing_imbalance").Set(levels[i]);
    sampler.Sample(SimTime::FromMillis(100 * (i + 1)));
  }
  sampler.set_source(nullptr);
  return sampler;
}

}  // namespace alerts

TEST(AlertEngineTest, ThresholdFiresAfterStreakAndClears) {
  // for_windows=2, clear_windows=2: the 2nd violating window fires, the
  // 2nd healthy window clears.
  AlertRule rule;
  rule.name = "imbalance";
  rule.series = "lb.routing_imbalance";
  rule.cmp = AlertCmp::kGreater;
  rule.threshold = 3.0;
  rule.for_windows = 2;
  rule.clear_windows = 2;
  AlertEngine engine({rule});
  const TimeSeriesSampler sampler =
      alerts::DriveGauge({1, 5, 5, 5, 1, 1, 1});
  engine.Run(sampler);

  EXPECT_EQ(engine.fired_count(), 1u);
  EXPECT_EQ(engine.cleared_count(), 1u);
  EXPECT_TRUE(engine.ActiveAlerts().empty());
  ASSERT_EQ(engine.log().size(), 2u);
  EXPECT_EQ(engine.log()[0].t, SimTime::FromMillis(300));  // 2nd bad window
  EXPECT_TRUE(engine.log()[0].fired);
  EXPECT_EQ(engine.log()[1].t, SimTime::FromMillis(600));  // 2nd good window
  EXPECT_FALSE(engine.log()[1].fired);
  EXPECT_EQ(engine.ToLogLines(),
            "t_ns=300000000 rule=imbalance state=FIRE value=5 threshold=3\n"
            "t_ns=600000000 rule=imbalance state=CLEAR value=1 threshold=3\n");
}

TEST(AlertEngineTest, ShortBlipBelowForWindowsNeverFires) {
  AlertRule rule;
  rule.name = "imbalance";
  rule.series = "lb.routing_imbalance";
  rule.cmp = AlertCmp::kGreater;
  rule.threshold = 3.0;
  rule.for_windows = 3;
  AlertEngine engine({rule});
  const TimeSeriesSampler sampler =
      alerts::DriveGauge({1, 5, 5, 1, 5, 5, 1});
  engine.Run(sampler);
  EXPECT_EQ(engine.fired_count(), 0u);
  EXPECT_TRUE(engine.log().empty());
}

TEST(AlertEngineTest, StillActiveAtEndOfRun) {
  AlertRule rule;
  rule.name = "imbalance";
  rule.series = "lb.routing_imbalance";
  rule.cmp = AlertCmp::kGreater;
  rule.threshold = 3.0;
  rule.for_windows = 2;
  AlertEngine engine({rule});
  const TimeSeriesSampler sampler = alerts::DriveGauge({1, 5, 5, 5});
  engine.Run(sampler);
  EXPECT_EQ(engine.fired_count(), 1u);
  EXPECT_EQ(engine.cleared_count(), 0u);
  ASSERT_EQ(engine.ActiveAlerts().size(), 1u);
  EXPECT_EQ(engine.ActiveAlerts()[0], "imbalance");
  // Run() replays idempotently: a second pass reproduces the same log.
  const std::string first = engine.ToLogLines();
  engine.Run(sampler);
  EXPECT_EQ(engine.ToLogLines(), first);
}

TEST(AlertEngineTest, BurnRateRuleUsesWindowWeights) {
  // bad/total by window weight: counters drive both series.
  TimeSeriesConfig config;
  config.interval = SimTime::FromMillis(100);
  TimeSeriesSampler sampler(config);
  MetricsRegistry metrics;
  sampler.set_source(&metrics);
  // Window fractions: 0/100, 30/100, 30/100, 0/100, 0/100.
  const int bad_per_window[] = {0, 30, 30, 0, 0};
  std::uint64_t bad = 0;
  std::uint64_t total = 0;
  for (int i = 0; i < 5; ++i) {
    bad += static_cast<std::uint64_t>(bad_per_window[i]);
    total += 100;
    metrics.counter("faas.errors").Set(bad);
    metrics.counter("faas.done").Set(total);
    sampler.Sample(SimTime::FromMillis(100 * (i + 1)));
  }
  sampler.set_source(nullptr);

  AlertRule rule;
  rule.name = "burn";
  rule.kind = AlertKind::kBurnRate;
  rule.series = "faas.errors.rate";
  rule.total_series = "faas.done.rate";
  rule.threshold = 10.0;  // multiple of budget
  rule.budget = 0.01;     // fires when bad/total > 0.1
  rule.for_windows = 2;
  rule.clear_windows = 2;
  AlertEngine engine({rule});
  engine.Run(sampler);
  EXPECT_EQ(engine.fired_count(), 1u);
  EXPECT_EQ(engine.cleared_count(), 1u);
  ASSERT_EQ(engine.log().size(), 2u);
  EXPECT_EQ(engine.log()[0].t, SimTime::FromMillis(300));
  EXPECT_DOUBLE_EQ(engine.log()[0].value, 0.3);
  EXPECT_EQ(engine.log()[1].t, SimTime::FromMillis(500));
  // The log prints the effective threshold budget * multiple.
  EXPECT_NE(engine.ToLogLines().find("threshold=0.1"), std::string::npos);
}

TEST(AlertParseTest, ThresholdForms) {
  std::vector<std::string> errors;
  const std::vector<AlertRule> rules = ParseAlertRules(
      "p99=faas.latency.end_to_end_ns.p99>25ms:2:4;"
      "lb.routing_imbalance>1.5;"
      "slow=faas.latency.route_ns.p50>200us;"
      "low=driver.completed.rate<10:5",
      &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(rules.size(), 4u);

  EXPECT_EQ(rules[0].name, "p99");
  EXPECT_EQ(rules[0].series, "faas.latency.end_to_end_ns.p99");
  EXPECT_EQ(rules[0].kind, AlertKind::kThreshold);
  EXPECT_EQ(rules[0].cmp, AlertCmp::kGreater);
  EXPECT_DOUBLE_EQ(rules[0].threshold, 25e6);  // 25 ms in ns
  EXPECT_EQ(rules[0].for_windows, 2);
  EXPECT_EQ(rules[0].clear_windows, 4);

  // Unnamed rule: the whole spec is the name.
  EXPECT_EQ(rules[1].name, "lb.routing_imbalance>1.5");
  EXPECT_DOUBLE_EQ(rules[1].threshold, 1.5);

  EXPECT_DOUBLE_EQ(rules[2].threshold, 200e3);  // 200 us in ns

  EXPECT_EQ(rules[3].cmp, AlertCmp::kLess);
  EXPECT_EQ(rules[3].for_windows, 5);
  EXPECT_EQ(rules[3].clear_windows, 5);  // defaults to for_windows
}

TEST(AlertParseTest, BurnRateForm) {
  std::vector<std::string> errors;
  const std::vector<AlertRule> rules = ParseAlertRules(
      "b=burn:faas.errors.rate/faas.done.rate>14:3:6@0.02", &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].kind, AlertKind::kBurnRate);
  EXPECT_EQ(rules[0].series, "faas.errors.rate");
  EXPECT_EQ(rules[0].total_series, "faas.done.rate");
  EXPECT_DOUBLE_EQ(rules[0].threshold, 14.0);
  EXPECT_DOUBLE_EQ(rules[0].budget, 0.02);
  EXPECT_EQ(rules[0].for_windows, 3);
  EXPECT_EQ(rules[0].clear_windows, 6);
}

TEST(AlertParseTest, MalformedRulesReportErrors) {
  std::vector<std::string> errors;
  const std::vector<AlertRule> rules = ParseAlertRules(
      "nope;>5;a>;x>1:0;burn:a>2;faas.ok.rate>1; ;", &errors);
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].series, "faas.ok.rate");
  EXPECT_EQ(errors.size(), 5u);
  for (const std::string& e : errors) {
    EXPECT_EQ(e.find("bad alert rule: "), 0u) << e;
  }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

TEST(PrometheusTest, NameSanitization) {
  EXPECT_EQ(PrometheusName("faas.latency.route_ns"),
            "palette_faas_latency_route_ns");
  EXPECT_EQ(PrometheusName("lb.color-table"), "palette_lb_color_table");
}

TEST(PrometheusTest, ExpositionIsWellFormed) {
  MetricsRegistry metrics;
  metrics.counter("faas.invocations.submitted").Set(42);
  metrics.gauge("lb.routing_imbalance").Set(1.25);
  LatencyHistogram& h = metrics.histogram("faas.latency.end_to_end_ns");
  for (int i = 1; i <= 100; ++i) {
    h.Record(static_cast<std::uint64_t>(i) * 1000);
  }
  const std::string text = ToPrometheusText(metrics);

  // Counters: HELP/TYPE then the _total sample.
  EXPECT_NE(text.find("# TYPE palette_faas_invocations_submitted_total "
                      "counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("palette_faas_invocations_submitted_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP palette_faas_invocations_submitted_total"),
            std::string::npos);
  // Gauges.
  EXPECT_NE(text.find("# TYPE palette_lb_routing_imbalance gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("palette_lb_routing_imbalance 1.25\n"),
            std::string::npos);
  // Histograms render as summaries with quantile labels + _sum/_count.
  EXPECT_NE(text.find("# TYPE palette_faas_latency_end_to_end_ns summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("palette_faas_latency_end_to_end_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("palette_faas_latency_end_to_end_ns_count 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("palette_faas_latency_end_to_end_ns_sum"),
            std::string::npos);
  EXPECT_EQ(text.back(), '\n');

  // No duplicate TYPE lines: each family declared exactly once.
  std::size_t type_count = 0;
  for (std::size_t pos = text.find("# TYPE palette_lb_routing_imbalance ");
       pos != std::string::npos;
       pos = text.find("# TYPE palette_lb_routing_imbalance ", pos + 1)) {
    ++type_count;
  }
  EXPECT_EQ(type_count, 1u);
}

TEST(PrometheusTest, SanitizedCollisionsEmitOnce) {
  MetricsRegistry metrics;
  metrics.counter("a.b").Set(1);
  metrics.counter("a_b").Set(2);  // sanitizes to the same family
  const std::string text = ToPrometheusText(metrics);
  // Count sample lines (line-start matches), not the HELP/TYPE mentions.
  std::size_t samples = 0;
  for (std::size_t pos = text.find("\npalette_a_b_total ");
       pos != std::string::npos;
       pos = text.find("\npalette_a_b_total ", pos + 1)) {
    ++samples;
  }
  EXPECT_EQ(samples, 1u);
}

}  // namespace
}  // namespace palette
