// Metrics registry for the Palette reproduction (§7-style evaluation).
//
// The benches and the platform need cheap always-on counters plus latency
// distributions that do not retain per-sample state: a sweep executes
// millions of invocations, and keeping every latency sample alive would
// dwarf the simulation state itself. LatencyHistogram therefore buckets
// values log-linearly (powers of two split into 16 linear sub-buckets,
// HdrHistogram-style), which answers p50/p95/p99 with bounded (< ~6%)
// relative error from a fixed 1.5 KB footprint. An opt-in exact mode
// retains raw samples for tests that want to pin the estimator against
// true percentiles.
//
// Metrics are owned by the registry and handed out as stable references
// (deque storage), so hot paths resolve a metric once at setup and bump a
// plain integer per event — no name hashing per increment.
#ifndef PALETTE_SRC_OBS_METRICS_H_
#define PALETTE_SRC_OBS_METRICS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/string_hash.h"
#include "src/common/types.h"

namespace palette {

class JsonWriter;

// Monotonic event count ("faas.cold_starts", "cache.local_hits", ...).
class Counter {
 public:
  void Increment() { ++value_; }
  void Add(std::uint64_t n) { value_ += n; }
  void Set(std::uint64_t n) { value_ = n; }  // snapshot-style export
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Last-written point-in-time value ("lb.color_table_bytes", queue depth).
// Writers that know the sim clock stamp the write via SetAt so cross-
// registry merges (MergeFrom) can resolve "last writer" by sim time
// instead of merge order.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void SetAt(double v, SimTime at) {
    value_ = v;
    updated_at_ = at;
  }
  void Add(double v) { value_ += v; }
  double value() const { return value_; }
  SimTime updated_at() const { return updated_at_; }

 private:
  double value_ = 0;
  SimTime updated_at_;
};

// Log-bucketed latency/size histogram: p50/p95/p99 without retaining
// samples. Values are non-negative integers (nanoseconds or bytes).
class LatencyHistogram {
 public:
  // 16 linear sub-buckets per power-of-two octave covers [0, 2^63) with
  // bounded 1/16 (~6%) relative quantile error.
  static constexpr std::uint32_t kSubBucketBits = 4;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBucketBits;

  LatencyHistogram() : buckets_(BucketCount(), 0) {}

  void Record(std::uint64_t value);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ > 0 ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }

  // Quantile estimate for q in [0, 1]: linear interpolation inside the
  // containing bucket, clamped to the observed [min, max]. Edge contract:
  // an empty histogram answers 0, q=0 answers min(), q=1 answers max(),
  // and a single-bucket population never interpolates outside [min, max].
  double Quantile(double q) const;

  // Bucket-wise accumulation of another histogram (count/sum add, min/max
  // fold, retained samples append when this side retains). The basis of
  // MetricsRegistry::MergeFrom: per-group latency histograms add into one
  // cluster distribution with no quantile-of-quantile approximation.
  void MergeFrom(const LatencyHistogram& other);

  // Cumulative state capture for windowed readings: a window is the
  // bucket-wise difference between the histogram and a snapshot, which is
  // what a periodic sampler reports per mark. A default-constructed
  // snapshot (empty bucket vector) is the zero baseline.
  struct Snapshot {
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    // The AdvanceWindow call this baseline was left at (0: none yet);
    // kNoWindow for a TakeSnapshot copy.
    std::uint64_t window = 0;
  };
  static constexpr std::uint64_t kNoWindow = UINT64_MAX;
  Snapshot TakeSnapshot() const {
    return Snapshot{buckets_, count_, kNoWindow};
  }
  // The window since `*since`: its value count, and its p50 and p99 by
  // linear interpolation inside the bucket that holds each rank, floored
  // at the window's first non-empty bucket (the cumulative min/max may lie
  // outside the window); 0 when the window recorded nothing. Then moves
  // `*since` to the current state in place.
  //
  // The histogram tracks the bucket range written since the last call, so
  // when `*since` is where that call left it, the scan and the copy cover
  // that range alone. Any other baseline (a TakeSnapshot copy, one left
  // behind by a second reader) takes one full scan and copy. Either way
  // the answer equals a full scan of the bucket deltas. A baseline belongs
  // to the one histogram it was taken from.
  struct WindowQuantiles {
    std::uint64_t count = 0;
    double p50 = 0;
    double p99 = 0;
  };
  WindowQuantiles AdvanceWindow(Snapshot* since) const;

  // Exact mode: retain raw samples so Quantile() answers from a sorted
  // copy instead of the buckets. For tests and small-N offline analysis.
  // Enabling it mid-population leaves earlier values bucket-only, so
  // Quantile() falls back to the buckets until samples exist.
  void set_retain_samples(bool retain) { retain_samples_ = retain; }
  bool retains_samples() const { return retain_samples_; }
  const std::vector<std::uint64_t>& samples() const { return samples_; }

  static constexpr std::size_t BucketCount() {
    // Octaves 0..63, kSubBuckets each; low octaves alias but stay distinct
    // slots for simplicity of the index math.
    return 64 * kSubBuckets;
  }
  // Inclusive bounds of bucket `index`'s value range.
  static std::uint64_t BucketLowerBound(std::size_t index);
  static std::uint64_t BucketUpperBound(std::size_t index);

 private:
  static std::size_t BucketIndex(std::uint64_t value);
  // Widens the written range to buckets [lo, hi].
  void Touch(std::size_t lo, std::size_t hi) {
    window_lo_ = std::min(window_lo_, lo);
    window_hi_ = std::max(window_hi_, hi + 1);
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  bool retain_samples_ = false;
  std::vector<std::uint64_t> samples_;
  // Window bookkeeping for AdvanceWindow, which readers call through a
  // const histogram: every bucket written since its last call lies in
  // [window_lo_, window_hi_) (empty when lo >= hi), and window_ counts the
  // calls. It changes no reading of the distribution itself.
  mutable std::size_t window_lo_ = BucketCount();
  mutable std::size_t window_hi_ = 0;
  mutable std::uint64_t window_ = 0;
};

// Named metrics for one run. Not thread-safe: each simulation cell owns its
// registry, mirroring the sweep runner's share-nothing design.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  bool HasMetric(std::string_view name) const;
  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Folds `other` into this registry: counters add, gauges resolve last-
  // writer by sim time (ties go to `other`, so folding per-group
  // registries in domain order is deterministic), histograms add
  // bucket-wise. This is how RunShardedWorkload aggregates per-group
  // registries into one cluster registry without name prefixes.
  void MergeFrom(const MetricsRegistry& other);

  // Name-sorted read access (exporters: Prometheus text, the sampler).
  std::vector<std::pair<std::string, const Counter*>> SortedCounters() const;
  std::vector<std::pair<std::string, const Gauge*>> SortedGauges() const;
  std::vector<std::pair<std::string, const LatencyHistogram*>>
  SortedHistograms() const;

  // Renders every metric, name-sorted, as a two/five-column table.
  std::string ToTable() const;

  // Appends {"counters": {...}, "gauges": {...}, "histograms": {...}} to an
  // open JSON object. Histograms export count/sum/min/max/p50/p95/p99.
  void AppendJson(JsonWriter* json) const;

 private:
  // Name -> metric; finds take a std::string_view without building a key.
  template <typename T>
  using Index =
      std::unordered_map<std::string, T*, TransparentStringHash,
                         std::equal_to<>>;
  template <typename T>
  T& GetOrCreate(std::string_view name, std::deque<T>* store,
                 Index<T>* index);

  // Deques keep references stable across inserts.
  std::deque<Counter> counter_store_;
  std::deque<Gauge> gauge_store_;
  std::deque<LatencyHistogram> histogram_store_;
  Index<Counter> counters_;
  Index<Gauge> gauges_;
  Index<LatencyHistogram> histograms_;
};

// Writes a source's snapshot-style exports (the ExportMetrics family) into
// a registry through slots bound on first use. A source writes the same
// metrics in the same order at every telemetry mark, so a writer kept
// across marks turns each write into a compare and a store: no name is
// hashed, formatted or copied. A slot remembers the name it was bound
// under by address and length; a write under another name (the sequence
// changed: a source appeared, a router joined) re-binds that slot by name.
// Names must therefore stay put while the writer lives: string literals,
// or strings the source owns. Formatted per-call names go through
// registry() instead.
class MetricWriter {
 public:
  explicit MetricWriter(MetricsRegistry* registry) : registry_(registry) {}

  MetricsRegistry* registry() const { return registry_; }
  // Starts a pass: the next writes reuse the slots from the first on.
  void Rewind() {
    next_counter_ = 0;
    next_gauge_ = 0;
  }
  void SetCounter(std::string_view name, std::uint64_t value) {
    Bind(name, &counters_, &next_counter_)->Set(value);
  }
  void SetGauge(std::string_view name, double value, SimTime at) {
    Bind(name, &gauges_, &next_gauge_)->SetAt(value, at);
  }

 private:
  template <typename T>
  struct Slot {
    const char* name;
    std::size_t size;
    T* metric;
  };
  template <typename T>
  T* Bind(std::string_view name, std::vector<Slot<T>>* slots,
          std::size_t* next);

  MetricsRegistry* registry_;
  std::vector<Slot<Counter>> counters_;
  std::vector<Slot<Gauge>> gauges_;
  std::size_t next_counter_ = 0;
  std::size_t next_gauge_ = 0;
};

template <typename T>
T* MetricWriter::Bind(std::string_view name, std::vector<Slot<T>>* slots,
                      std::size_t* next) {
  if (*next == slots->size()) {
    slots->push_back(Slot<T>{nullptr, 0, nullptr});
  }
  Slot<T>& slot = (*slots)[(*next)++];
  if (slot.name != name.data() || slot.size != name.size()) {
    slot = Slot<T>{name.data(), name.size(), nullptr};
    if constexpr (std::is_same_v<T, Counter>) {
      slot.metric = &registry_->counter(name);
    } else {
      slot.metric = &registry_->gauge(name);
    }
  }
  return slot.metric;
}

}  // namespace palette

#endif  // PALETTE_SRC_OBS_METRICS_H_
