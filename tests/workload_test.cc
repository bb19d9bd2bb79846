// Tests for src/workload: arrival-process statistics and determinism, mix
// popularity churn, the open-loop driver's accounting, SLO scoring edge
// cases, bit-identical end-to-end reproducibility, and the harness goldens
// that pin every digest and counter the three harness entry points report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/mix.h"
#include "src/obs/alerts.h"
#include "src/obs/timeseries.h"
#include "src/workload/sharded_run.h"
#include "src/workload/slo.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

// Draws arrivals until `horizon` and returns the count.
std::uint64_t CountArrivals(ArrivalProcess& process, SimTime horizon) {
  std::uint64_t count = 0;
  while (process.Next() < horizon) {
    ++count;
  }
  return count;
}

TEST(ArrivalTest, KindIdsRoundTrip) {
  for (ArrivalKind kind :
       {ArrivalKind::kDeterministic, ArrivalKind::kPoisson,
        ArrivalKind::kMmpp, ArrivalKind::kDiurnal}) {
    ArrivalKind parsed;
    ASSERT_TRUE(ParseArrivalKind(ArrivalKindId(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  ArrivalKind unused;
  EXPECT_FALSE(ParseArrivalKind("bogus", &unused));
}

TEST(ArrivalTest, DeterministicProcessIsExact) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDeterministic;
  spec.rate_per_sec = 200;
  auto process = MakeArrivalProcess(spec, 7);
  // Arrival k at exactly k/rate, k starting at 1: 5 ms spacing, no float
  // drift.
  EXPECT_EQ(process->Next(), SimTime::FromMillis(5));
  EXPECT_EQ(process->Next(), SimTime::FromMillis(10));
  EXPECT_EQ(process->Next(), SimTime::FromMillis(15));
  // Arrivals in [0, 10 s) are k = 1..1999; three already consumed.
  EXPECT_EQ(CountArrivals(*process, SimTime::FromSeconds(10)), 1996u);
}

TEST(ArrivalTest, SameSeedSameStreamDifferentSeedDiverges) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kMmpp,
                           ArrivalKind::kDiurnal}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate_per_sec = 500;
    auto a = MakeArrivalProcess(spec, 42);
    auto b = MakeArrivalProcess(spec, 42);
    auto c = MakeArrivalProcess(spec, 43);
    bool diverged = false;
    for (int i = 0; i < 2000; ++i) {
      const SimTime ta = a->Next();
      ASSERT_EQ(ta, b->Next()) << ArrivalKindId(kind) << " arrival " << i;
      diverged |= ta != c->Next();
    }
    EXPECT_TRUE(diverged) << ArrivalKindId(kind);
  }
}

TEST(ArrivalTest, ArrivalsAreNonDecreasing) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kMmpp,
                           ArrivalKind::kDiurnal}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate_per_sec = 1000;
    auto process = MakeArrivalProcess(spec, 3);
    SimTime prev;
    for (int i = 0; i < 5000; ++i) {
      const SimTime t = process->Next();
      ASSERT_GE(t, prev) << ArrivalKindId(kind) << " arrival " << i;
      prev = t;
    }
  }
}

TEST(ArrivalTest, PoissonEmpiricalRateMatchesConfigured) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_sec = 400;
  auto process = MakeArrivalProcess(spec, 11);
  const double seconds = 200;
  const auto count =
      CountArrivals(*process, SimTime::FromSeconds(seconds));
  const double empirical = static_cast<double>(count) / seconds;
  // 80k expected arrivals; +-5% is ~13 sigma for a fixed seed.
  EXPECT_NEAR(empirical, 400, 400 * 0.05);
}

TEST(ArrivalTest, MmppLongRunRateIsNormalizedToMean) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kMmpp;
  spec.rate_per_sec = 300;
  spec.burst_multiplier = 10;
  spec.mean_on_seconds = 0.5;
  spec.mean_off_seconds = 2.0;
  auto process = MakeArrivalProcess(spec, 19);
  const double seconds = 500;  // many on/off cycles
  const auto count =
      CountArrivals(*process, SimTime::FromSeconds(seconds));
  const double empirical = static_cast<double>(count) / seconds;
  // Duty-cycle-weighted mean must come back to rate_per_sec (+-10%: the
  // state process adds variance beyond Poisson).
  EXPECT_NEAR(empirical, 300, 300 * 0.10);
}

TEST(ArrivalTest, MmppIsBurstierThanPoisson) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kMmpp;
  spec.rate_per_sec = 200;
  spec.burst_multiplier = 16;
  auto process = MakeArrivalProcess(spec, 5);
  // Count arrivals per 100 ms bucket; a bursty stream has a much larger
  // bucket-count variance-to-mean ratio than Poisson (which has ~1).
  std::vector<double> buckets(600, 0.0);
  const SimTime horizon = SimTime::FromSeconds(60);
  for (SimTime t = process->Next(); t < horizon; t = process->Next()) {
    buckets[static_cast<std::size_t>(t.nanos() / 100'000'000)] += 1;
  }
  double mean = 0;
  for (double b : buckets) {
    mean += b;
  }
  mean /= static_cast<double>(buckets.size());
  double var = 0;
  for (double b : buckets) {
    var += (b - mean) * (b - mean);
  }
  var /= static_cast<double>(buckets.size());
  EXPECT_GT(var / mean, 3.0);
}

TEST(ArrivalTest, DiurnalPeakAndTroughFollowTheCurve) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDiurnal;
  spec.rate_per_sec = 500;
  spec.period_seconds = 40;
  spec.amplitude = 0.8;
  auto process = MakeArrivalProcess(spec, 23);
  // rate(t) = 500 * (1 + 0.8 sin(2 pi t / 40)): the first quarter-period
  // [0, 10) sits on the rising crest, the third quarter [20, 30) in the
  // trough. Average over 5 periods to tame sampling noise.
  double peak = 0;
  double trough = 0;
  const SimTime horizon = SimTime::FromSeconds(5 * 40);
  for (SimTime t = process->Next(); t < horizon; t = process->Next()) {
    const double phase_s =
        static_cast<double>(t.nanos() % 40'000'000'000LL) / 1e9;
    if (phase_s < 10) {
      peak += 1;
    } else if (phase_s >= 20 && phase_s < 30) {
      trough += 1;
    }
  }
  // Quarter-period integrals of the curve: peak ~ 1 + 0.8*(2/pi) = 1.51x
  // the mean, trough ~ 0.49x. Require a conservative 2x separation.
  EXPECT_GT(peak, 2.0 * trough);
}

TEST(MixTest, ZipfChurnRotatesTheHotSet) {
  MixConfig config;
  config.color_count = 64;
  config.zipf_theta = 0.9;
  config.churn_interval = SimTime::FromSeconds(10);
  config.churn_step = 8;
  const InvocationMix mix(config);

  const std::uint32_t hot_before = mix.ColorIdForRank(0, SimTime());
  const std::uint32_t hot_after =
      mix.ColorIdForRank(0, SimTime::FromSeconds(10));
  EXPECT_NE(hot_before, hot_after);
  // Within one churn interval the mapping is stable.
  EXPECT_EQ(hot_before, mix.ColorIdForRank(0, SimTime::FromSeconds(9)));

  // Empirically: the pre-churn hot color loses its traffic share after
  // the rotation.
  Rng rng(99);
  std::map<std::uint32_t, int> before;
  std::map<std::uint32_t, int> after;
  for (int i = 0; i < 20000; ++i) {
    before[mix.Sample(SimTime(), rng).color_id]++;
    after[mix.Sample(SimTime::FromSeconds(10), rng).color_id]++;
  }
  // Zipf(0.9) over 64 colors puts ~21% of mass on rank 0.
  EXPECT_GT(before[hot_before], 20000 / 10);
  EXPECT_GT(after[hot_after], 20000 / 10);
  EXPECT_LT(after[hot_before], before[hot_before] / 4);
}

TEST(MixTest, NoChurnMeansStableMapping) {
  MixConfig config;
  config.color_count = 16;
  config.churn_interval = SimTime();  // disabled
  const InvocationMix mix(config);
  EXPECT_EQ(mix.ColorIdForRank(3, SimTime()),
            mix.ColorIdForRank(3, SimTime::FromSeconds(3600)));
}

TEST(MixTest, ObjectSizesAreDeterministicAndWithinQuantiles) {
  MixConfig config;
  const InvocationMix mix(config);
  const Bytes lo = static_cast<Bytes>(config.size_quantiles.front().value);
  const Bytes hi = static_cast<Bytes>(config.size_quantiles.back().value);
  bool varied = false;
  for (std::uint32_t color = 0; color < 32; ++color) {
    for (std::uint64_t obj = 0; obj < config.objects_per_color; ++obj) {
      const Bytes size = mix.ObjectSize(color, obj);
      EXPECT_EQ(size, mix.ObjectSize(color, obj));  // same identity, same size
      EXPECT_GE(size, lo);
      EXPECT_LE(size, hi);
      varied |= size != mix.ObjectSize(0, 0);
    }
  }
  EXPECT_TRUE(varied);
}

TEST(MixTest, FunctionMixFollowsWeights) {
  MixConfig config;
  config.functions = {{"fast", 3.0, 1e6}, {"slow", 1.0, 1e7}};
  const InvocationMix mix(config);
  Rng rng(7);
  int fast = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const MixedInvocation inv = mix.Sample(SimTime(), rng);
    if (inv.function_index == 0) {
      ++fast;
      EXPECT_EQ(inv.spec.function, "fast");
    }
  }
  EXPECT_NEAR(static_cast<double>(fast) / draws, 0.75, 0.02);
}

TEST(SloTest, EmptySamplesScoreZeroSafely) {
  const SloReport report =
      ScoreSlo({}, SloConfig{}, SimTime::FromSeconds(10), 100);
  EXPECT_EQ(report.submitted, 0u);
  EXPECT_EQ(report.scored, 0u);
  EXPECT_EQ(report.p99_ms, 0.0);
  EXPECT_FALSE(report.MeetsSlo());
  EXPECT_EQ(SamplesDigest({}), SamplesDigest({}));
}

TEST(SloTest, GoodputCountsOnlyWithinDeadline) {
  std::vector<InvocationSample> samples;
  for (int i = 0; i < 10; ++i) {
    InvocationSample s;
    s.intended_start = SimTime::FromMillis(100 * i);
    // 5 fast (10 ms), 5 slow (500 ms).
    s.completed = s.intended_start +
                  (i < 5 ? SimTime::FromMillis(10) : SimTime::FromMillis(500));
    s.status = SampleStatus::kCompleted;
    s.local_hits = 1;
    samples.push_back(s);
  }
  SloConfig config;
  config.deadline = SimTime::FromMillis(100);
  const SloReport report =
      ScoreSlo(samples, config, SimTime::FromSeconds(1), 10);
  EXPECT_EQ(report.scored, 10u);
  EXPECT_DOUBLE_EQ(report.goodput_fraction, 0.5);
  EXPECT_DOUBLE_EQ(report.goodput_rps, 5.0);
  EXPECT_DOUBLE_EQ(report.local_hit_ratio, 1.0);
  EXPECT_FALSE(report.MeetsSlo());  // p99 ~ 500 ms > 100 ms
}

TEST(SloTest, WarmupSamplesExcludedFromScoringButCounted) {
  std::vector<InvocationSample> samples;
  for (int i = 0; i < 4; ++i) {
    InvocationSample s;
    s.intended_start = SimTime::FromMillis(500 * i);  // 0, 0.5, 1.0, 1.5 s
    s.completed = s.intended_start + SimTime::FromMillis(i < 2 ? 900 : 10);
    s.status = SampleStatus::kCompleted;
    samples.push_back(s);
  }
  SloConfig config;
  config.warmup = SimTime::FromSeconds(1);
  const SloReport report =
      ScoreSlo(samples, config, SimTime::FromSeconds(2), 2);
  EXPECT_EQ(report.submitted, 4u);
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.scored, 2u);  // the two slow warmup samples are excluded
  EXPECT_LT(report.p99_ms, 11);
  EXPECT_TRUE(report.MeetsSlo());
}

TEST(SloTest, SweepReportsHighestPassingRate) {
  const std::vector<double> rates = {100, 200, 400};
  const RateSweepResult result = SweepRates(rates, [](double rate) {
    SloReport report;
    report.scored = 1;
    report.deadline_ms = 100;
    report.p99_ms = rate <= 200 ? 50 : 5000;  // knee between 200 and 400
    return report;
  });
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_DOUBLE_EQ(result.max_sustainable_rps, 200);
}

TEST(SloTest, DigestIsOrderAndFieldSensitive) {
  InvocationSample a;
  a.intended_start = SimTime::FromMillis(1);
  a.completed = SimTime::FromMillis(2);
  a.color_id = 3;
  a.status = SampleStatus::kCompleted;
  InvocationSample b = a;
  b.color_id = 4;
  EXPECT_NE(SamplesDigest({a, b}), SamplesDigest({b, a}));
  InvocationSample c = a;
  c.misses = 1;
  EXPECT_NE(SamplesDigest({a}), SamplesDigest({c}));
}

TEST(WorkloadRunTest, OpenLoopAccountingClosesTheBooks) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kPoisson;
  spec.arrival.rate_per_sec = 300;
  spec.mix.color_count = 32;
  spec.driver.duration = SimTime::FromSeconds(4);
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(500);
  const WorkloadRunResult run =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo,
                  DefaultWorkloadPlatformConfig());
  EXPECT_GT(run.report.submitted, 1000u);
  EXPECT_EQ(run.report.submitted,
            run.report.completed + run.report.rejected + run.report.dropped);
  EXPECT_EQ(run.report.dropped, run.counters.platform.dropped);
  EXPECT_EQ(run.samples.size(), run.report.submitted);
  EXPECT_GT(run.report.p50_ms, 0);
  // Healthy platform, no churn: nothing dropped or rejected.
  EXPECT_EQ(run.report.dropped, 0u);
  EXPECT_EQ(run.report.rejected, 0u);
}

TEST(WorkloadRunTest, IdenticalSpecsReproduceBitIdenticalSamples) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 250;
  spec.mix.color_count = 64;
  spec.mix.churn_interval = SimTime::FromSeconds(1);
  spec.driver.duration = SimTime::FromSeconds(3);
  spec.seed = 77;
  const SloConfig slo;
  const PlatformConfig config = DefaultWorkloadPlatformConfig();
  const WorkloadRunResult a =
      RunWorkload(spec, PolicyKind::kBucketHashing, 4, slo, config);
  const WorkloadRunResult b =
      RunWorkload(spec, PolicyKind::kBucketHashing, 4, slo, config);
  EXPECT_GT(a.samples.size(), 100u);
  EXPECT_EQ(a.samples_digest, b.samples_digest);
  EXPECT_EQ(a.sim_events, b.sim_events);

  // A different seed must actually change the stream.
  WorkloadSpec reseeded = spec;
  reseeded.seed = 78;
  const WorkloadRunResult c =
      RunWorkload(reseeded, PolicyKind::kBucketHashing, 4, slo, config);
  EXPECT_NE(a.samples_digest, c.samples_digest);
}

std::vector<std::string> FaultWorkers(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(StrFormat("w%d", i));
  }
  return out;
}

TEST(FaultScheduleTest, FromMtbfIsDeterministicPerSeed) {
  MtbfConfig config;
  config.mtbf = SimTime::FromSeconds(1);
  config.mttr = SimTime::FromMillis(500);
  config.end = SimTime::FromSeconds(10);
  const auto workers = FaultWorkers(4);
  const FaultSchedule a = FaultSchedule::FromMtbf(config, workers, 42);
  const FaultSchedule b = FaultSchedule::FromMtbf(config, workers, 42);
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].worker, b.events()[i].worker);
  }
  // A different seed must actually move the failures.
  const FaultSchedule c = FaultSchedule::FromMtbf(config, workers, 43);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = !(a.events()[i].at == c.events()[i].at) ||
              a.events()[i].worker != c.events()[i].worker;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultScheduleTest, FromMtbfRespectsWindowAndMembership) {
  MtbfConfig config;
  config.mtbf = SimTime::FromMillis(500);
  config.mttr = SimTime::FromSeconds(1);
  config.start = SimTime::FromSeconds(2);
  config.end = SimTime::FromSeconds(8);
  const auto workers = FaultWorkers(3);
  const FaultSchedule schedule = FaultSchedule::FromMtbf(config, workers, 7);
  ASSERT_GT(schedule.size(), 0u);
  EXPECT_EQ(schedule.CountOf(FaultKind::kCrash),
            schedule.CountOf(FaultKind::kRestart));
  SimTime prev;
  for (const FaultEvent& event : schedule.events()) {
    EXPECT_GE(event.at, prev);  // sorted
    prev = event.at;
    EXPECT_TRUE(std::find(workers.begin(), workers.end(), event.worker) !=
                workers.end());
    if (event.kind == FaultKind::kCrash) {
      // Crashes stay inside the window; restarts may trail past `end`.
      EXPECT_GE(event.at, config.start);
      EXPECT_LT(event.at, config.end);
    }
  }
  // No worker is hit again while it is still down.
  std::map<std::string, SimTime> down_until;
  for (const FaultEvent& event : schedule.events()) {
    if (event.kind == FaultKind::kCrash) {
      const auto it = down_until.find(event.worker);
      if (it != down_until.end()) {
        EXPECT_GE(event.at, it->second);
      }
      down_until[event.worker] = event.at + config.mttr;
    }
  }
}

TEST(FaultScheduleTest, ChurnRunWithRetriesClosesBooksReproducibly) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kPoisson;
  spec.arrival.rate_per_sec = 300;
  spec.mix.color_count = 32;
  // ~10 ms compute at 300 rps over 4 workers keeps utilization around
  // 0.75, so each crash reliably catches running + queued invocations.
  spec.mix.functions[0].cpu_ops = 1e7;
  spec.driver.duration = SimTime::FromSeconds(4);
  spec.seed = 5;
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(500);
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.retry.max_attempts = 4;

  MtbfConfig mtbf;
  mtbf.mtbf = SimTime::FromMillis(500);
  mtbf.mttr = SimTime::FromMillis(300);
  mtbf.start = SimTime::FromSeconds(1);
  mtbf.end = SimTime::FromSeconds(3);
  const FaultSchedule faults =
      FaultSchedule::FromMtbf(mtbf, FaultWorkers(4), 9);
  ASSERT_GT(faults.CountOf(FaultKind::kCrash), 0u);

  const WorkloadRunResult a = RunWorkload(
      spec, PolicyKind::kLeastAssigned, 4, slo, config, &faults);
  // Books close under churn + retry, and with enough attempts nothing is
  // dropped or abandoned — crashes only cost latency.
  EXPECT_TRUE(a.counters.platform.BooksClose());
  EXPECT_EQ(a.counters.platform.dropped, 0u);
  EXPECT_EQ(a.counters.platform.abandoned, 0u);
  EXPECT_GT(a.counters.platform.retries, 0u);
  EXPECT_GT(a.counters.recolored, 0u);

  // The whole faulted run is bit-reproducible.
  const WorkloadRunResult b = RunWorkload(
      spec, PolicyKind::kLeastAssigned, 4, slo, config, &faults);
  EXPECT_EQ(a.samples_digest, b.samples_digest);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.counters.platform.retries, b.counters.platform.retries);
}

TEST(WorkloadRunTest, StickyPoliciesBeatObliviousOnHitRatio) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kPoisson;
  spec.arrival.rate_per_sec = 400;
  spec.mix.color_count = 64;
  spec.mix.objects_per_color = 2;
  spec.driver.duration = SimTime::FromSeconds(5);
  SloConfig slo;
  slo.warmup = SimTime::FromSeconds(1);
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.cache.per_instance_capacity = 16 * kMiB;
  const WorkloadRunResult sticky =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo, config);
  const WorkloadRunResult oblivious =
      RunWorkload(spec, PolicyKind::kObliviousRandom, 4, slo, config);
  EXPECT_GT(sticky.report.local_hit_ratio,
            oblivious.report.local_hit_ratio + 0.2);
}

// ---------------------------------------------------------------------------
// Live telemetry determinism (docs/OBSERVABILITY.md): sampling must be
// invisible to the simulation, and the sampled artifacts themselves must
// be seed-reproducible and shard-count-invariant.

namespace {

WorkloadSpec TelemetrySpec() {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 300;
  spec.mix.color_count = 64;
  spec.mix.zipf_theta = 0.9;
  spec.driver.duration = SimTime::FromSeconds(3);
  spec.seed = 19;
  return spec;
}

}  // namespace

TEST(TelemetryTest, SamplingOnDoesNotChangeTheRun) {
  const WorkloadSpec spec = TelemetrySpec();
  const SloConfig slo;
  const PlatformConfig config = DefaultWorkloadPlatformConfig();
  const WorkloadRunResult off =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 8, slo, config);

  WorkloadObsConfig obs;
  obs.sample_every = SimTime::FromMillis(100);
  const WorkloadRunResult on = RunWorkload(
      spec, PolicyKind::kLeastAssigned, 8, slo, config, nullptr, &obs);

  // The clock observer adds zero events: digests and event counts are
  // bit-identical with the sampler on or off.
  EXPECT_EQ(on.samples_digest, off.samples_digest);
  EXPECT_EQ(on.sim_events, off.sim_events);
  EXPECT_FALSE(off.telemetry.enabled());
  ASSERT_TRUE(on.telemetry.enabled());
  EXPECT_GT(on.telemetry.series->series_count(), 0u);
  EXPECT_GE(on.telemetry.series->samples_taken(), 30u);
  // The run closed its books on the mark grid: the last window reaches
  // the nominal duration.
  EXPECT_GE(on.telemetry.series->last_mark(), spec.driver.duration);
}

TEST(TelemetryTest, TimeSeriesCsvIsSeedReproducible) {
  const WorkloadSpec spec = TelemetrySpec();
  const SloConfig slo;
  const PlatformConfig config = DefaultWorkloadPlatformConfig();
  WorkloadObsConfig obs;
  obs.sample_every = SimTime::FromMillis(100);
  std::vector<std::string> errors;
  obs.alert_rules =
      ParseAlertRules("submit=driver.submitted.rate>0:1:1", &errors);
  ASSERT_TRUE(errors.empty());

  const WorkloadRunResult a = RunWorkload(
      spec, PolicyKind::kLeastAssigned, 8, slo, config, nullptr, &obs);
  const WorkloadRunResult b = RunWorkload(
      spec, PolicyKind::kLeastAssigned, 8, slo, config, nullptr, &obs);
  ASSERT_TRUE(a.telemetry.enabled());
  ASSERT_TRUE(b.telemetry.enabled());
  EXPECT_EQ(a.telemetry.series->ToCsv(), b.telemetry.series->ToCsv());
  ASSERT_NE(a.telemetry.alerts, nullptr);
  // Traffic flows, so the submit-rate rule fires; both logs match byte
  // for byte.
  EXPECT_GE(a.telemetry.alerts->fired_count(), 1u);
  EXPECT_EQ(a.telemetry.alerts->ToLogLines(),
            b.telemetry.alerts->ToLogLines());
}

TEST(TelemetryTest, ShardedTelemetryBitIdenticalAcrossShardCounts) {
  const WorkloadSpec spec = TelemetrySpec();
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(500);
  auto run = [&](int shards) {
    ShardedWorkloadConfig config;
    config.groups = 4;
    config.shards = shards;
    config.routers_per_group = 2;
    config.hop = SimTime::FromMillis(2);
    config.obs.sample_every = SimTime::FromMillis(250);
    std::vector<std::string> errors;
    config.obs.alert_rules =
        ParseAlertRules("submit=driver.submitted.rate>0:1:1", &errors);
    EXPECT_TRUE(errors.empty());
    return RunShardedWorkload(spec, PolicyKind::kLeastAssigned,
                              /*total_workers=*/16, config, slo,
                              DefaultWorkloadPlatformConfig());
  };
  const ShardedRunResult one = run(1);
  const ShardedRunResult four = run(4);
  ASSERT_TRUE(one.telemetry.enabled());
  ASSERT_TRUE(four.telemetry.enabled());
  // Same simulation (digest invariance) and the same telemetry artifacts:
  // the per-domain series merge in fixed domain order on a shared mark
  // grid, so CSV and alert log match byte for byte.
  EXPECT_EQ(one.samples_digest, four.samples_digest);
  EXPECT_EQ(one.engine_digest, four.engine_digest);
  EXPECT_EQ(one.telemetry.series->ToCsv(), four.telemetry.series->ToCsv());
  ASSERT_NE(one.telemetry.alerts, nullptr);
  EXPECT_GE(one.telemetry.alerts->fired_count(), 1u);
  EXPECT_EQ(one.telemetry.alerts->ToLogLines(),
            four.telemetry.alerts->ToLogLines());
  // And sampling stays invisible in the sharded engine too.
  ShardedWorkloadConfig plain;
  plain.groups = 4;
  plain.shards = 2;
  plain.routers_per_group = 2;
  plain.hop = SimTime::FromMillis(2);
  const ShardedRunResult off = RunShardedWorkload(
      spec, PolicyKind::kLeastAssigned, 16, plain, slo,
      DefaultWorkloadPlatformConfig());
  EXPECT_EQ(off.samples_digest, one.samples_digest);
  EXPECT_EQ(off.engine_digest, one.engine_digest);
  EXPECT_EQ(off.sim_events, one.sim_events);
}

TEST(TelemetryTest, MergedClusterRegistryMatchesDriverBooks) {
  const WorkloadSpec spec = TelemetrySpec();
  SloConfig slo;
  ShardedWorkloadConfig config;
  config.groups = 2;
  config.shards = 2;
  config.routers_per_group = 0;
  config.obs.sample_every = SimTime::FromMillis(500);
  const ShardedRunResult run = RunShardedWorkload(
      spec, PolicyKind::kLeastAssigned, 8, config, slo,
      DefaultWorkloadPlatformConfig());
  ASSERT_TRUE(run.telemetry.enabled());
  ASSERT_NE(run.telemetry.metrics, nullptr);
  // The merged registry's cluster totals agree with the run's books.
  EXPECT_EQ(run.telemetry.metrics->counter("driver.submitted").value(),
            run.driver_submitted);
  EXPECT_EQ(run.telemetry.metrics->counter("faas.invocations.submitted")
                .value(),
            run.counters.platform.submitted);
  EXPECT_EQ(run.telemetry.metrics->counter("faas.invocations.completed")
                .value(),
            run.counters.platform.completed);
  EXPECT_TRUE(run.books_close);
}

}  // namespace

// ---------------------------------------------------------------------------
// Harness golden runs: the digests, event counts and counters the harness
// result structs carry, pinned per cell. A refactor of the harness or of
// its counter plumbing must reproduce every value bit for bit.

namespace {

WorkloadSpec GoldenSpec() {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 900;
  spec.mix.color_count = 64;
  // ~15 ms of compute per invocation keeps 8 workers about 70% busy, so
  // bursts queue, deadlines bite and crashes catch running work.
  spec.mix.functions[0].cpu_ops = 1.5e7;
  spec.driver.duration = SimTime::FromSeconds(3);
  spec.seed = 23;
  return spec;
}

// A run's fingerprint as "key=value" tokens. Zero counters are left out, so
// a golden lists what its cell exercised and a counter that turns non-zero
// shows up as an extra key.
class Fingerprint {
 public:
  void Add(const std::string& key, std::uint64_t value) {
    if (value != 0) {
      tokens_[key] = std::to_string(value);
    }
  }
  void AddHex(const std::string& key, std::uint64_t value) {
    tokens_[key] = StrFormat("%016llx", static_cast<unsigned long long>(value));
  }
  void AddDouble(const std::string& key, double value) {
    if (value != 0) {
      tokens_[key] = StrFormat("%.17g", value);
    }
  }
  void AddStorage(const StorageStats& s) {
    Add("st.writes_total", s.writes_total);
    Add("st.writes_durable", s.writes_durable);
    Add("st.writes_lost", s.writes_lost);
    Add("st.write_bytes", s.write_bytes);
    Add("st.flushes", s.flushes);
    Add("st.dirty_bytes_flushed", s.dirty_bytes_flushed);
    Add("st.dirty_bytes_lost", s.dirty_bytes_lost);
    Add("st.coherence_syncs", s.coherence_syncs);
    Add("st.coherence_bytes", s.coherence_bytes);
    Add("st.stale_reads", s.stale_reads);
    Add("st.max_served_staleness_ns",
        static_cast<std::uint64_t>(s.max_served_staleness_ns));
    Add("st.ae_records", s.ae_records);
    Add("st.ae_applied", s.ae_applied);
    Add("st.ae_invalidations", s.ae_invalidations);
    Add("st.ae_refreshes", s.ae_refreshes);
    Add("st.ae_refresh_bytes", s.ae_refresh_bytes);
    Add("st.tier_fast_reads", s.tier_fast_reads);
    Add("st.tier_slow_reads", s.tier_slow_reads);
    Add("st.tier_promotions", s.tier_promotions);
    Add("st.tier_demotions", s.tier_demotions);
    Add("st.tier_promoted_bytes", s.tier_promoted_bytes);
    Add("st.tier_demoted_bytes", s.tier_demoted_bytes);
  }

  std::string str() const {
    std::string out;
    for (const auto& [key, value] : tokens_) {
      out += (out.empty() ? "" : " ") + key + "=" + value;
    }
    return out;
  }
  const std::map<std::string, std::string>& tokens() const { return tokens_; }

 private:
  std::map<std::string, std::string> tokens_;
};

// Compares `actual` against a recorded golden key by key.
void ExpectGolden(const Fingerprint& actual, const std::string& golden) {
  std::map<std::string, std::string> expected;
  std::size_t start = 0;
  while (start < golden.size()) {
    std::size_t end = golden.find(' ', start);
    if (end == std::string::npos) {
      end = golden.size();
    }
    const std::string token = golden.substr(start, end - start);
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      expected[token.substr(0, eq)] = token.substr(eq + 1);
    }
    start = end + 1;
  }
  for (const auto& [key, value] : expected) {
    const auto it = actual.tokens().find(key);
    EXPECT_EQ(it == actual.tokens().end() ? "0" : it->second, value) << key;
  }
  for (const auto& [key, value] : actual.tokens()) {
    EXPECT_TRUE(expected.count(key) > 0) << "unpinned " << key << "=" << value;
  }
  if (::testing::Test::HasFailure()) {
    std::printf("actual: %s\n", actual.str().c_str());
  }
}

// The RunCounters keys both result shapes carried before RunCounters
// existed; sharded runs pass with_router_lb = false because their results
// did not record the router, timeout or re-coloring counters.
void AddCounters(const RunCounters& c, bool with_router_lb, Fingerprint* f) {
  f->Add("submitted", c.platform.submitted);
  f->Add("completed", c.platform.completed);
  f->Add("dropped", c.platform.dropped);
  f->Add("abandoned", c.platform.abandoned);
  f->Add("retries", c.platform.retries);
  f->Add("cold_starts", c.platform.cold_starts);
  f->Add("pulls", c.platform.pulls);
  f->Add("steals", c.platform.steals);
  f->Add("steal_bytes", c.platform.steal_bytes);
  f->Add("planner_rounds", c.platform.planner_rounds);
  f->Add("planner_moved_bytes", c.platform.planner_moved_bytes);
  f->Add("planner_moves", c.planner_moves);
  f->Add("planner_splits", c.planner_splits);
  f->Add("planner_merges", c.planner_merges);
  f->AddStorage(c.storage);
  if (with_router_lb) {
    f->Add("timeouts", c.platform.timeouts);
    f->Add("recolored", c.recolored);
    f->Add("router_routes", c.router_routes);
    f->Add("router_stale_routes", c.router_stale_routes);
    f->Add("router_misroutes", c.router_misroutes);
    f->Add("router_forwards", c.router_forwards);
    f->Add("router_recolored", c.router_recolored);
  }
}

Fingerprint Fp(const WorkloadRunResult& r) {
  Fingerprint f;
  f.AddHex("digest", r.samples_digest);
  f.Add("events", r.sim_events);
  f.Add("samples", r.samples.size());
  AddCounters(r.counters, true, &f);
  f.Add("plan_rounds", r.plan_rounds.size());
  f.AddDouble("routing_imbalance", r.routing_imbalance);
  return f;
}

// The keys the sharded golden was recorded with: the front-door books and
// the engine's digest and epochs, but no sample book or planner trajectory.
Fingerprint ShardedFp(const WorkloadRunResult& r) {
  Fingerprint f;
  f.AddHex("digest", r.samples_digest);
  f.AddHex("engine_digest", r.engine_digest);
  f.Add("events", r.sim_events);
  f.Add("epochs", r.epochs);
  f.Add("driver_submitted", r.driver_submitted);
  f.Add("driver_completed", r.driver_completed);
  f.Add("rejections", r.rejections);
  f.Add("books_close", r.books_close ? 1 : 0);
  AddCounters(r.counters, false, &f);
  return f;
}

constexpr const char* kGoldenDirectPush =
    "cold_starts=8 completed=1122 digest=53f59482e6432c91"
    " events=4488 routing_imbalance=1.875222816399287 samples=1122"
    " submitted=1122";
constexpr const char* kGoldenDirectPull =
    "cold_starts=8 completed=1122 digest=16feb884c35a01ab"
    " events=5610 pulls=1122 routing_imbalance=1.875222816399287"
    " samples=1122 steal_bytes=39897099 steals=230 submitted=1122";
constexpr const char* kGoldenRouterPush =
    "cold_starts=8 completed=1122 digest=2c935a362d9a7b14"
    " events=4488 router_routes=1122 samples=1122 submitted=1122";
constexpr const char* kGoldenRouterPull =
    "cold_starts=8 completed=1122 digest=55ebf198314b2b86"
    " events=5610 pulls=1122 router_routes=1122 samples=1122"
    " steal_bytes=61455017 steals=331 submitted=1122";
constexpr const char* kGoldenSharded =
    "books_close=1 cold_starts=16 completed=1122"
    " digest=c2ad0a51e9f620d0 driver_completed=1122"
    " driver_submitted=1122 engine_digest=6b9bcaf037205cf2"
    " epochs=2206 events=7854 pulls=1122 steal_bytes=25258514"
    " steals=168 submitted=1122";
constexpr const char* kGoldenPlanner =
    "cold_starts=8 completed=1122 digest=a014a847d3890fcd"
    " events=4510 plan_rounds=5 planner_moved_bytes=4285029"
    " planner_moves=20 planner_rounds=5"
    " routing_imbalance=1.3903743315508021 samples=1122"
    " submitted=1122";
constexpr const char* kGoldenWriteBack =
    "cold_starts=8 completed=1122 digest=938b5f56f0357d7c"
    " events=6248 routing_imbalance=2.5525846702317292 samples=1122"
    " st.ae_applied=1759 st.ae_invalidations=67 st.ae_records=220"
    " st.coherence_bytes=152433 st.coherence_syncs=1"
    " st.dirty_bytes_flushed=36204420 st.flushes=216"
    " st.write_bytes=36204420 st.writes_durable=220"
    " st.writes_total=220 submitted=1122";
constexpr const char* kGoldenCrashRestart =
    "abandoned=379 cold_starts=10 completed=743"
    " digest=499cb2e3e11b9eb2 events=8556 recolored=15 retries=831"
    " routing_imbalance=2.9370199692780337 samples=1122"
    " submitted=1122 timeouts=1206";

PlatformConfig GoldenPlatform(FaasDispatchMode mode) {
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.dispatch_mode = mode;
  return config;
}

TEST(HarnessGoldenTest, DirectPushAndPull) {
  const SloConfig slo;
  ExpectGolden(Fp(RunWorkload(GoldenSpec(), PolicyKind::kLeastAssigned, 8,
                              slo, GoldenPlatform(FaasDispatchMode::kPush))),
               kGoldenDirectPush);
  ExpectGolden(Fp(RunWorkload(GoldenSpec(), PolicyKind::kLeastAssigned, 8,
                              slo, GoldenPlatform(FaasDispatchMode::kPull))),
               kGoldenDirectPull);
}

TEST(HarnessGoldenTest, RouterSprayPushAndPull) {
  const SloConfig slo;
  RouterTierConfig tier;
  tier.routers = 4;
  tier.dispatch = DispatchMode::kSpray;
  ExpectGolden(
      Fp(RunRouterWorkload(GoldenSpec(), PolicyKind::kLeastAssigned, 8, tier,
                           slo, GoldenPlatform(FaasDispatchMode::kPush))),
      kGoldenRouterPush);
  ExpectGolden(
      Fp(RunRouterWorkload(GoldenSpec(), PolicyKind::kLeastAssigned, 8, tier,
                           slo, GoldenPlatform(FaasDispatchMode::kPull))),
      kGoldenRouterPull);
}

TEST(HarnessGoldenTest, ShardedAtOneAndTwoShards) {
  const SloConfig slo;
  ShardedWorkloadConfig config;
  config.groups = 4;
  config.routers_per_group = 2;
  config.hop = SimTime::FromMillis(1);
  for (const int shards : {1, 2}) {
    config.shards = shards;
    SCOPED_TRACE(shards);
    ExpectGolden(
        ShardedFp(RunShardedWorkload(
            GoldenSpec(), PolicyKind::kLeastAssigned, 16, config, slo,
            GoldenPlatform(FaasDispatchMode::kPull))),
        kGoldenSharded);
  }
}

TEST(HarnessGoldenTest, PlannerOn) {
  const SloConfig slo;
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  ExpectGolden(Fp(RunWorkload(GoldenSpec(), PolicyKind::kLeastAssigned, 8,
                              slo, GoldenPlatform(FaasDispatchMode::kPush),
                              nullptr, nullptr, &planner)),
               kGoldenPlanner);
}

TEST(HarnessGoldenTest, WriteBackStorage) {
  const SloConfig slo;
  WorkloadSpec spec = GoldenSpec();
  spec.mix.write_fraction = 0.2;
  PlatformConfig config = GoldenPlatform(FaasDispatchMode::kPush);
  config.storage.mode = CoherenceMode::kWriteBack;
  ExpectGolden(
      Fp(RunWorkload(spec, PolicyKind::kLeastAssigned, 8, slo, config)),
      kGoldenWriteBack);
}

TEST(HarnessGoldenTest, WorkerCrashRestart) {
  const SloConfig slo;
  PlatformConfig config = GoldenPlatform(FaasDispatchMode::kPush);
  config.retry.max_attempts = 3;
  config.default_deadline = SimTime::FromMillis(150);
  FaultSchedule faults;
  faults.Add({SimTime::FromMillis(500), FaultKind::kCrash, "w1"});
  faults.Add({SimTime::FromMillis(900), FaultKind::kRestart, "w1"});
  faults.Add({SimTime::FromMillis(1200), FaultKind::kCrash, "w5"});
  faults.Add({SimTime::FromMillis(1600), FaultKind::kRestart, "w5"});
  ExpectGolden(Fp(RunWorkload(GoldenSpec(), PolicyKind::kLeastAssigned, 8,
                              slo, config, &faults)),
               kGoldenCrashRestart);
}

// ---------------------------------------------------------------------------
// One source of truth: every RunCounters field equals the registry counter
// the same run exported, in all three harness topologies.

// Each RunCounters field next to its registry name.
std::vector<std::pair<std::string, std::uint64_t>> RegistryNamed(
    const RunCounters& c) {
  const StorageStats& s = c.storage;
  return {
      {"faas.invocations.submitted", c.platform.submitted},
      {"faas.invocations.completed", c.platform.completed},
      {"faas.invocations_dropped", c.platform.dropped},
      {"faas.invocations_abandoned", c.platform.abandoned},
      {"faas.retries", c.platform.retries},
      {"faas.timeouts", c.platform.timeouts},
      {"faas.cold_starts.total", c.platform.cold_starts},
      {"faas.pulls", c.platform.pulls},
      {"faas.steals", c.platform.steals},
      {"faas.steal_bytes", c.platform.steal_bytes},
      {"planner.rounds", c.platform.planner_rounds},
      {"planner.moved_bytes", c.platform.planner_moved_bytes},
      {"lb.recolored", c.recolored},
      {"lb.planner_moves", c.planner_moves},
      {"lb.planner_splits", c.planner_splits},
      {"planner.merges", c.planner_merges},
      {"router.routes", c.router_routes},
      {"router.stale_routes", c.router_stale_routes},
      {"router.misroutes", c.router_misroutes},
      {"router.forwards", c.router_forwards},
      {"router.recolored", c.router_recolored},
      {"storage.writes_total", s.writes_total},
      {"storage.writes_durable", s.writes_durable},
      {"storage.writes_lost", s.writes_lost},
      {"storage.write_bytes", s.write_bytes},
      {"storage.flushes", s.flushes},
      {"storage.dirty_bytes_flushed", s.dirty_bytes_flushed},
      {"storage.dirty_bytes_lost", s.dirty_bytes_lost},
      {"storage.coherence_syncs", s.coherence_syncs},
      {"storage.coherence_bytes", s.coherence_bytes},
      {"storage.stale_reads", s.stale_reads},
      // A maximum, not a sum: the sharded registry fold adds it up across
      // groups. Write-back never serves stale reads, so both read zero.
      {"storage.max_served_staleness_ns",
       static_cast<std::uint64_t>(s.max_served_staleness_ns)},
      {"storage.ae.records", s.ae_records},
      {"storage.ae.applied", s.ae_applied},
      {"storage.ae.invalidations", s.ae_invalidations},
      {"storage.ae.refreshes", s.ae_refreshes},
      {"storage.ae.refresh_bytes", s.ae_refresh_bytes},
      {"storage.tier.fast_reads", s.tier_fast_reads},
      {"storage.tier.slow_reads", s.tier_slow_reads},
      {"storage.tier.promotions", s.tier_promotions},
      {"storage.tier.demotions", s.tier_demotions},
      {"storage.tier.promoted_bytes", s.tier_promoted_bytes},
      {"storage.tier.demoted_bytes", s.tier_demoted_bytes},
  };
}

void ExpectCountersMatchRegistry(const RunCounters& counters,
                                 const WorkloadTelemetry& telemetry) {
  ASSERT_TRUE(telemetry.enabled());
  MetricsRegistry& registry = *telemetry.metrics;
  for (const auto& [name, value] : RegistryNamed(counters)) {
    if (name.rfind("router.", 0) == 0 && !registry.HasMetric(name)) {
      // Direct runs have no tier to export router.*; theirs stay zero.
      EXPECT_EQ(value, 0u) << name;
      continue;
    }
    ASSERT_TRUE(registry.HasMetric(name)) << name;
    EXPECT_EQ(registry.counter(name).value(), value) << name;
  }
  // Not vacuous: the runs below exercise every layer.
  EXPECT_GT(counters.platform.pulls, 0u);
  EXPECT_GT(counters.platform.retries, 0u);
  EXPECT_GT(counters.platform.planner_rounds, 0u);
  EXPECT_GT(counters.recolored, 0u);
  EXPECT_GT(counters.storage.writes_total, 0u);
}

// The front-door books: the registry's driver.* counters equal the
// result's, read after the drain like every other counter.
void ExpectBooksMatchRegistry(const WorkloadRunResult& run) {
  ASSERT_TRUE(run.telemetry.enabled());
  MetricsRegistry& registry = *run.telemetry.metrics;
  for (const char* name :
       {"driver.submitted", "driver.completed", "driver.rejected"}) {
    ASSERT_TRUE(registry.HasMetric(name)) << name;
  }
  EXPECT_EQ(registry.counter("driver.submitted").value(),
            run.driver_submitted);
  EXPECT_EQ(registry.counter("driver.completed").value(),
            run.driver_completed);
  EXPECT_EQ(registry.counter("driver.rejected").value(), run.rejections);
  EXPECT_TRUE(run.books_close);
}

PlatformConfig SourceOfTruthPlatform() {
  PlatformConfig config = GoldenPlatform(FaasDispatchMode::kPull);
  config.retry.max_attempts = 3;
  config.storage.mode = CoherenceMode::kWriteBack;
  return config;
}

WorkloadSpec SourceOfTruthSpec() {
  WorkloadSpec spec = GoldenSpec();
  spec.mix.write_fraction = 0.2;
  return spec;
}

TEST(RunCountersTest, DirectAndRouterRunsMatchTheirRegistry) {
  const SloConfig slo;
  WorkloadObsConfig obs;
  obs.sample_every = SimTime::FromMillis(100);
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  FaultSchedule faults;
  faults.Add({SimTime::FromMillis(500), FaultKind::kCrash, "w1"});
  faults.Add({SimTime::FromMillis(900), FaultKind::kRestart, "w1"});

  const WorkloadRunResult direct = RunWorkload(
      SourceOfTruthSpec(), PolicyKind::kLeastAssigned, 8, slo,
      SourceOfTruthPlatform(), &faults, &obs, &planner);
  ExpectCountersMatchRegistry(direct.counters, direct.telemetry);
  ExpectBooksMatchRegistry(direct);

  RouterTierConfig tier;
  tier.routers = 4;
  tier.dispatch = DispatchMode::kSpray;
  const WorkloadRunResult routed = RunRouterWorkload(
      SourceOfTruthSpec(), PolicyKind::kLeastAssigned, 8, tier, slo,
      SourceOfTruthPlatform(), &faults, &obs, &planner);
  ExpectCountersMatchRegistry(routed.counters, routed.telemetry);
  ExpectBooksMatchRegistry(routed);
  EXPECT_GT(routed.counters.router_routes, 0u);
}

TEST(RunCountersTest, DirectRunRejectingEveryInvocationClosesItsBooks) {
  const SloConfig slo;
  WorkloadObsConfig obs;
  obs.sample_every = SimTime::FromMillis(100);
  // No workers: the load balancer has nowhere to route, so the platform
  // refuses every invocation and the driver books each one as rejected.
  const WorkloadRunResult run =
      RunWorkload(GoldenSpec(), PolicyKind::kLeastAssigned, /*workers=*/0,
                  slo, GoldenPlatform(FaasDispatchMode::kPush), nullptr,
                  &obs);
  EXPECT_GT(run.driver_submitted, 0u);
  EXPECT_EQ(run.rejections, run.driver_submitted);
  EXPECT_EQ(run.counters.platform.submitted, 0u);
  EXPECT_EQ(run.driver_completed, 0u);
  EXPECT_TRUE(run.books_close);
  ExpectBooksMatchRegistry(run);
}

TEST(RunCountersTest, ShardedRunMatchesItsMergedRegistry) {
  const SloConfig slo;
  ShardedWorkloadConfig config;
  config.groups = 4;
  config.shards = 2;
  config.routers_per_group = 2;
  config.hop = SimTime::FromMillis(1);
  config.obs.sample_every = SimTime::FromMillis(100);
  config.planner.plan_every = SimTime::FromMillis(500);
  std::vector<ShardedFault> faults;
  for (int g = 0; g < config.groups; ++g) {
    const std::string worker = StrFormat("g%dw1", g);
    faults.push_back({g, {SimTime::FromMillis(500), FaultKind::kCrash,
                          worker}});
    faults.push_back({g, {SimTime::FromMillis(900), FaultKind::kRestart,
                          worker}});
  }
  const ShardedRunResult run = RunShardedWorkload(
      SourceOfTruthSpec(), PolicyKind::kLeastAssigned, 16, config, slo,
      SourceOfTruthPlatform(), &faults);
  // The fold keeps the router tier's counters too.
  ExpectCountersMatchRegistry(run.counters, run.telemetry);
  ExpectBooksMatchRegistry(run);
  EXPECT_GT(run.counters.router_routes, 0u);
  EXPECT_TRUE(run.books_close);
}

}  // namespace
}  // namespace palette
