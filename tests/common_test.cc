// Unit tests for src/common: types, RNG, distributions, stats, tables,
// inline callbacks, instance interning, the thread pool, and JSON output.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/distributions.h"
#include "src/common/inline_function.h"
#include "src/common/instance_id.h"
#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table_printer.h"
#include "src/common/thread_pool.h"
#include "src/common/types.h"

namespace palette {
namespace {

TEST(SimTimeTest, ConversionsRoundTrip) {
  const SimTime t = SimTime::FromSeconds(1.5);
  EXPECT_EQ(t.nanos(), 1'500'000'000);
  EXPECT_DOUBLE_EQ(t.seconds(), 1.5);
  EXPECT_DOUBLE_EQ(t.millis(), 1500.0);
  EXPECT_DOUBLE_EQ(SimTime::FromMillis(2.5).micros(), 2500.0);
  EXPECT_EQ(SimTime::FromMicros(7).nanos(), 7000);
}

TEST(SimTimeTest, ArithmeticAndOrdering) {
  const SimTime a = SimTime::FromSeconds(1);
  const SimTime b = SimTime::FromSeconds(2);
  EXPECT_LT(a, b);
  EXPECT_EQ((a + b).seconds(), 3.0);
  EXPECT_EQ((b - a).seconds(), 1.0);
  SimTime c = a;
  c += b;
  EXPECT_EQ(c.seconds(), 3.0);
  EXPECT_GT(SimTime::Max(), b);
}

TEST(SimTimeTest, DefaultIsZero) {
  EXPECT_EQ(SimTime().nanos(), 0);
}

TEST(SimTimeTest, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::FromSeconds(2).ToString(), "2.000s");
  EXPECT_EQ(SimTime::FromMillis(3).ToString(), "3.000ms");
  EXPECT_EQ(SimTime::FromMicros(4).ToString(), "4.000us");
  EXPECT_EQ(SimTime::FromNanos(5).ToString(), "5ns");
}

TEST(TransferDurationTest, MatchesBandwidthMath) {
  // 1 GB at 1 GB/s = 1 s.
  EXPECT_NEAR(TransferDuration(1'000'000'000, 1e9).seconds(), 1.0, 1e-9);
  // 125 MB at 1 Gbps (125 MB/s) = 1 s.
  EXPECT_NEAR(TransferDuration(125'000'000, 1e9 / 8).seconds(), 1.0, 1e-9);
  EXPECT_EQ(TransferDuration(1, 0.0), SimTime::Max());
}

TEST(ComputeDurationTest, MatchesRateMath) {
  EXPECT_NEAR(ComputeDuration(60e6, 30e6).seconds(), 2.0, 1e-9);
  EXPECT_EQ(ComputeDuration(1, 0.0), SimTime::Max());
}

TEST(FormatBytesTest, Suffixes) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2 * kKiB), "2.0KiB");
  EXPECT_EQ(FormatBytes(256 * kMiB), "256.0MiB");
  EXPECT_EQ(FormatBytes(8 * kGiB), "8.0GiB");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.NextBelow(kBuckets)];
  }
  for (int count : counts) {
    EXPECT_NEAR(count, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(9);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += rng.NextBernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(17);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(ZipfTest, ProbabilitiesSumToOne) {
  const ZipfDistribution zipf(100, 0.9);
  double sum = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    sum += zipf.ProbabilityOfRank(k);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ZipfTest, RankZeroIsMostPopular) {
  const ZipfDistribution zipf(1000, 0.9);
  EXPECT_GT(zipf.ProbabilityOfRank(0), zipf.ProbabilityOfRank(1));
  EXPECT_GT(zipf.ProbabilityOfRank(1), zipf.ProbabilityOfRank(100));
}

TEST(ZipfTest, SamplingMatchesSkew) {
  const ZipfDistribution zipf(100, 0.9);
  Rng rng(21);
  std::vector<int> counts(100, 0);
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kSamples),
              zipf.ProbabilityOfRank(0), 0.01);
  EXPECT_GT(counts[0], counts[50]);
}

TEST(ZipfTest, SingleElementAlwaysSampled) {
  const ZipfDistribution zipf(1, 0.9);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

TEST(DiscreteDistributionTest, RespectsWeights) {
  const DiscreteDistribution dist({{1.0, 3.0}, {2.0, 1.0}});
  Rng rng(13);
  int ones = 0;
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    if (dist.Sample(rng) == 1.0) {
      ++ones;
    }
  }
  EXPECT_NEAR(ones / static_cast<double>(kSamples), 0.75, 0.02);
}

TEST(QuantileDistributionTest, InterpolatesBetweenPoints) {
  const QuantileDistribution dist({{0.0, 0.0}, {0.5, 10.0}, {1.0, 30.0}});
  EXPECT_DOUBLE_EQ(dist.ValueAtQuantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(dist.ValueAtQuantile(0.25), 5.0);
  EXPECT_DOUBLE_EQ(dist.ValueAtQuantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(dist.ValueAtQuantile(0.75), 20.0);
  EXPECT_DOUBLE_EQ(dist.ValueAtQuantile(1.0), 30.0);
}

TEST(QuantileDistributionTest, SamplesWithinRange) {
  const QuantileDistribution dist({{0.0, 1.0}, {1.0, 9.0}});
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double v = dist.Sample(rng);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 9.0);
  }
}

TEST(RunningStatsTest, MeanMinMax) {
  RunningStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    stats.Add(v);
  }
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
}

TEST(RunningStatsTest, VarianceMatchesClosedForm) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(v);
  }
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStatsTest, EmptyAndSingleSampleAreSafe) {
  RunningStats stats;
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  stats.Add(5.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.stderr_mean(), 0.0);
}

TEST(PercentileTest, InterpolatesRanks) {
  const std::vector<double> samples = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(samples, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(PercentileTest, ClampsOutOfRangeRanks) {
  // The defensive contract in stats.h: p is clamped into [0, 100] and NaN
  // maps to 0, so callers with computed ranks never read out of bounds.
  const std::vector<double> samples = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(samples, -10), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 150), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, std::nan("")), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({}, -10), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({}, std::nan("")), 0.0);
}

TEST(PercentilesTest, BatchedRanksMatchSingleCalls) {
  const std::vector<double> samples = {5, 1, 3, 2, 4};  // unsorted input
  const std::vector<double> out =
      Percentiles(samples, {0, 25, 50, 100, -5, 250});
  ASSERT_EQ(out.size(), 6u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_DOUBLE_EQ(out[2], 3.0);
  EXPECT_DOUBLE_EQ(out[3], 5.0);
  EXPECT_DOUBLE_EQ(out[4], 1.0);  // clamped to p0
  EXPECT_DOUBLE_EQ(out[5], 5.0);  // clamped to p100
}

TEST(PercentilesTest, EmptyInputYieldsZerosPerRank) {
  const std::vector<double> out = Percentiles({}, {50, 99, 99.9});
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.0, 0.0}));
  EXPECT_TRUE(Percentiles({1.0}, {}).empty());
}

// The sort-based lookup Percentile and Percentiles used before they
// selected: sort a copy, then interpolate between the two closest ranks.
double SortedPercentileReference(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) {
    return samples[0];
  }
  const double clamped = std::isnan(p) || p < 0 ? 0.0 : std::min(p, 100.0);
  const double rank =
      (clamped / 100.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

TEST(PercentilesTest, SelectionEqualsSortedLookup) {
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE(trial);
    // Sizes from 1; every third trial draws from 5 values, so ties abound.
    const std::size_t n = 1 + rng.NextBelow(trial < 100 ? 8 : 300);
    std::vector<double> samples(n);
    for (double& v : samples) {
      v = trial % 3 == 0 ? static_cast<double>(rng.NextBelow(5))
                         : rng.NextDouble() * 1000;
    }
    // The ends, ranks that land on a sample exactly, and random ranks in
    // random order (Percentiles selects in ascending rank order).
    std::vector<double> ps = {0, 100, 50, 99.9, 25};
    for (int i = 0; i < 4; ++i) {
      ps.push_back(rng.NextDouble() * 100);
    }
    const std::vector<double> batch = Percentiles(samples, ps);
    ASSERT_EQ(batch.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const double want = SortedPercentileReference(samples, ps[i]);
      EXPECT_EQ(Percentile(samples, ps[i]), want) << "p" << ps[i];
      EXPECT_EQ(batch[i], want) << "p" << ps[i];
    }
  }
}

TEST(RelativeMaxLoadTest, UniformIsOne) {
  EXPECT_DOUBLE_EQ(RelativeMaxLoad({3, 3, 3}), 1.0);
  EXPECT_DOUBLE_EQ(RelativeMaxLoad({0, 0, 6}), 3.0);
  EXPECT_DOUBLE_EQ(RelativeMaxLoad({}), 0.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table;
  table.AddRow({"name", "value"});
  table.AddRow({"x", "10"});
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("w%d", 7), "w7");
  EXPECT_EQ(StrFormat("%.2f%%", 12.345), "12.35%");
  EXPECT_EQ(StrFormat("%s/%s", "a", "b"), "a/b");
}

// StrFormat before it formatted into a stack buffer: measure, then format
// into the sized string.
std::string TwoPassFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string result(needed > 0 ? static_cast<std::size_t>(needed) : 0, '\0');
  if (needed > 0) {
    std::vsnprintf(result.data(), result.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return result;
}

TEST(StrFormatTest, OutputsPastTheStackBufferMatchTwoPassFormatting) {
  // Every length up to twice the one-pass buffer, then far past it.
  for (std::size_t length = 0; length <= 5000;
       length += length < 600 ? 1 : 1100) {
    const std::string body(length, 'x');
    const std::string one_pass = StrFormat("<%s|%zu>", body.c_str(), length);
    EXPECT_EQ(one_pass, TwoPassFormat("<%s|%zu>", body.c_str(), length));
    EXPECT_EQ(one_pass.size(), length + 3 + std::to_string(length).size());
  }
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(InlineFunctionTest, InvokesStoredCallable) {
  int calls = 0;
  InlineFunction<64> fn([&calls] { ++calls; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(calls, 2);
}

TEST(InlineFunctionTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  InlineFunction<64> fn([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  InlineFunction<64> moved(std::move(fn));
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_EQ(counter.use_count(), 2);  // moved, not copied
  moved();
  EXPECT_EQ(*counter, 1);
  moved.Reset();
  EXPECT_EQ(counter.use_count(), 1);  // capture destroyed
}

TEST(InlineFunctionTest, MoveAssignReplacesExistingCallable) {
  auto a = std::make_shared<int>(0);
  auto b = std::make_shared<int>(0);
  InlineFunction<64> fn([a] { ++*a; });
  InlineFunction<64> other([b] { ++*b; });
  fn = std::move(other);
  EXPECT_EQ(a.use_count(), 1);  // old capture destroyed on assignment
  fn();
  EXPECT_EQ(*b, 1);
  EXPECT_EQ(*a, 0);
}

TEST(InstanceRegistryTest, InternIsIdempotentAndRoundTrips) {
  const InstanceId id = InternInstance("common-test-wA");
  EXPECT_EQ(InternInstance("common-test-wA"), id);
  EXPECT_EQ(InstanceName(id), "common-test-wA");
  EXPECT_NE(InternInstance("common-test-wB"), id);
}

TEST(InstanceRegistryTest, FindDoesNotIntern) {
  const auto& registry = InstanceRegistry::Global();
  EXPECT_FALSE(registry.Find("common-test-never-interned").has_value());
  const InstanceId id = InternInstance("common-test-wC");
  const auto found = registry.Find("common-test-wC");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, id);
}

TEST(InstanceRegistryTest, ConcurrentInternAgreesOnIds) {
  // All threads intern the same names; every thread must observe the same
  // id for a given name.
  constexpr int kNames = 64;
  std::vector<std::vector<InstanceId>> seen(4,
                                            std::vector<InstanceId>(kNames));
  ParallelFor(4, 4, [&seen](std::size_t t) {
    for (int i = 0; i < kNames; ++i) {
      seen[t][static_cast<std::size_t>(i)] =
          InternInstance(StrFormat("common-test-conc-%d", i));
    }
  });
  for (std::size_t t = 1; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t], seen[0]);
  }
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> counts(kN);
  ParallelFor(kN, 4, [&counts](std::size_t i) { ++counts[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WaitAllowsReuse) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&done] { ++done; });
    }
    pool.Wait();
  }
  EXPECT_EQ(done.load(), 30);
}

TEST(ThreadPoolTest, ZeroThreadsSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(JsonWriterTest, EmitsValidNestedDocument) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name");
  json.String("a\"b\\c\n");
  json.Key("values");
  json.BeginArray();
  json.Int(-3);
  json.UInt(7);
  json.Bool(true);
  json.EndArray();
  json.Key("pi");
  json.Double(0.5);
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"values\":[-3,7,true],"
            "\"pi\":0.5}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.BeginArray();
  json.Double(std::nan(""));
  json.EndArray();
  EXPECT_EQ(json.str(), "[null]");
}

}  // namespace
}  // namespace palette
