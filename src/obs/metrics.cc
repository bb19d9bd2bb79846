#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "src/common/json_writer.h"
#include "src/common/table_printer.h"

namespace palette {

void LatencyHistogram::Record(std::uint64_t value) {
  if (count_ == 0 || value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
  ++count_;
  sum_ += value;
  const std::size_t index = BucketIndex(value);
  ++buckets_[index];
  Touch(index, index);
  if (retain_samples_) {
    samples_.push_back(value);
  }
}

std::size_t LatencyHistogram::BucketIndex(std::uint64_t value) {
  // Octave = position of the highest set bit; sub-bucket = the next
  // kSubBucketBits bits below it. Values below kSubBuckets land in the
  // low linear range where octave == sub-bucket resolution.
  if (value < kSubBuckets) {
    return static_cast<std::size_t>(value);
  }
  const std::uint32_t octave =
      63u - static_cast<std::uint32_t>(std::countl_zero(value));
  const std::uint64_t sub = (value >> (octave - kSubBucketBits)) - kSubBuckets;
  return static_cast<std::size_t>(octave) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

std::uint64_t LatencyHistogram::BucketLowerBound(std::size_t index) {
  if (index < kSubBuckets) {
    return index;
  }
  const std::uint64_t octave = index / kSubBuckets;
  const std::uint64_t sub = index % kSubBuckets;
  return (std::uint64_t{1} << octave) +
         (sub << (octave - kSubBucketBits));
}

std::uint64_t LatencyHistogram::BucketUpperBound(std::size_t index) {
  if (index < kSubBuckets) {
    return index;
  }
  const std::uint64_t octave = index / kSubBuckets;
  return BucketLowerBound(index) + (std::uint64_t{1} << (octave -
                                                         kSubBucketBits)) - 1;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Exact-mode fast path — only when samples actually exist. Retention
  // enabled after values were already recorded (or populated via
  // MergeFrom from a bucket-only source) leaves samples_ empty; the
  // buckets still hold the full population, so fall through to them
  // instead of indexing an empty vector.
  if (retain_samples_ && !samples_.empty()) {
    std::vector<std::uint64_t> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return static_cast<double>(sorted[lo]) +
           frac * static_cast<double>(sorted[hi] - sorted[lo]);
  }
  // Endpoint pins: interpolation would otherwise answer bucket bounds, but
  // the true extremes are known exactly.
  if (q <= 0.0) {
    return static_cast<double>(min());
  }
  if (q >= 1.0) {
    return static_cast<double>(max_);
  }
  // Walk buckets to the one containing the target rank, then interpolate
  // linearly within its value range.
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    if (static_cast<double>(seen + buckets_[i]) >= target) {
      const double into =
          std::max(0.0, target - static_cast<double>(seen));
      const double frac = into / static_cast<double>(buckets_[i]);
      const double lo = static_cast<double>(BucketLowerBound(i));
      const double hi = static_cast<double>(BucketUpperBound(i)) + 1.0;
      const double estimate = lo + frac * (hi - lo);
      return std::clamp(estimate, static_cast<double>(min()),
                        static_cast<double>(max_));
    }
    seen += buckets_[i];
  }
  return static_cast<double>(max_);
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0 || other.min_ < min_) {
    min_ = other.min_;
  }
  if (other.max_ > max_) {
    max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  // Every value `other` holds lies in [other.min_, other.max_], and bucket
  // indices grow with the value.
  Touch(BucketIndex(other.min_), BucketIndex(other.max_));
  if (retain_samples_ && !other.samples_.empty()) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }
}

LatencyHistogram::WindowQuantiles LatencyHistogram::AdvanceWindow(
    Snapshot* since) const {
  assert(since->buckets.empty() || since->buckets.size() == buckets_.size());
  // Outside [lo, hi) the deltas are zero: on the tracked baseline every
  // bucket written since lies inside the range, and the full scan covers
  // every bucket.
  const bool tracked = since->window == window_;
  const std::size_t lo = tracked ? window_lo_ : 0;
  const std::size_t hi = tracked ? window_hi_ : buckets_.size();
  WindowQuantiles out;
  out.count = count_ - since->count;
  if (out.count > 0) {
    // One ascending pass resolves both ranks (the p50 rank never exceeds
    // the p99 one), each by the arithmetic of a lone single-rank scan.
    const double target50 = 0.50 * static_cast<double>(out.count);
    const double target99 = 0.99 * static_cast<double>(out.count);
    std::uint64_t seen = 0;
    double window_lo = 0.0;
    bool have_lo = false;
    bool have50 = false;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t delta =
          buckets_[i] - (since->buckets.empty() ? 0 : since->buckets[i]);
      if (delta == 0) {
        continue;
      }
      if (!have_lo) {
        window_lo = static_cast<double>(BucketLowerBound(i));
        have_lo = true;
      }
      const double reach = static_cast<double>(seen + delta);
      const auto interpolate = [&](double target) {
        const double into = std::max(0.0, target - static_cast<double>(seen));
        const double frac = into / static_cast<double>(delta);
        const double bucket_lo = static_cast<double>(BucketLowerBound(i));
        const double bucket_hi =
            static_cast<double>(BucketUpperBound(i)) + 1.0;
        return std::max(bucket_lo + frac * (bucket_hi - bucket_lo),
                        window_lo);
      };
      if (!have50 && reach >= target50) {
        out.p50 = interpolate(target50);
        have50 = true;
      }
      if (reach >= target99) {
        out.p99 = interpolate(target99);
        break;
      }
      seen += delta;
    }
  }
  // Move the baseline to now: outside [lo, hi) it already matches.
  since->buckets.resize(buckets_.size());
  std::copy(buckets_.begin() + static_cast<std::ptrdiff_t>(lo),
            buckets_.begin() + static_cast<std::ptrdiff_t>(std::max(lo, hi)),
            since->buckets.begin() + static_cast<std::ptrdiff_t>(lo));
  since->count = count_;
  since->window = ++window_;
  window_lo_ = buckets_.size();
  window_hi_ = 0;
  return out;
}

template <typename T>
T& MetricsRegistry::GetOrCreate(std::string_view name, std::deque<T>* store,
                                Index<T>* index) {
  const auto it = index->find(name);
  if (it != index->end()) {
    return *it->second;
  }
  store->emplace_back();
  T* metric = &store->back();
  index->emplace(std::string(name), metric);
  return *metric;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return GetOrCreate(name, &counter_store_, &counters_);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return GetOrCreate(name, &gauge_store_, &gauges_);
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  return GetOrCreate(name, &histogram_store_, &histograms_);
}

bool MetricsRegistry::HasMetric(std::string_view name) const {
  return counters_.contains(name) || gauges_.contains(name) ||
         histograms_.contains(name);
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counter(name).Add(c->value());
  }
  for (const auto& [name, g] : other.gauges_) {
    Gauge& mine = gauge(name);
    // Last writer by sim time; ties go to `other` so a fixed merge order
    // (front door, then groups in domain order) resolves deterministically.
    // A freshly created gauge carries time 0 and loses every tie.
    if (g->updated_at() >= mine.updated_at()) {
      mine.SetAt(g->value(), g->updated_at());
    }
  }
  for (const auto& [name, h] : other.histograms_) {
    histogram(name).MergeFrom(*h);
  }
}

namespace {

template <typename Map>
std::vector<std::pair<std::string, typename Map::mapped_type>> Sorted(
    const Map& map) {
  std::vector<std::pair<std::string, typename Map::mapped_type>> out(
      map.begin(), map.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace

std::vector<std::pair<std::string, const Counter*>>
MetricsRegistry::SortedCounters() const {
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : Sorted(counters_)) {
    out.emplace_back(name, c);
  }
  return out;
}

std::vector<std::pair<std::string, const Gauge*>>
MetricsRegistry::SortedGauges() const {
  std::vector<std::pair<std::string, const Gauge*>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : Sorted(gauges_)) {
    out.emplace_back(name, g);
  }
  return out;
}

std::vector<std::pair<std::string, const LatencyHistogram*>>
MetricsRegistry::SortedHistograms() const {
  std::vector<std::pair<std::string, const LatencyHistogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : Sorted(histograms_)) {
    out.emplace_back(name, h);
  }
  return out;
}

std::string MetricsRegistry::ToTable() const {
  // One row per metric, sorted by name across all kinds.
  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, c] : counters_) {
    rows.push_back({name, "counter",
                    StrFormat("%llu",
                              static_cast<unsigned long long>(c->value())),
                    "", "", ""});
  }
  for (const auto& [name, g] : gauges_) {
    rows.push_back({name, "gauge", StrFormat("%.6g", g->value()), "", "",
                    ""});
  }
  for (const auto& [name, h] : histograms_) {
    rows.push_back({name, "histogram",
                    StrFormat("n=%llu mean=%.4g",
                              static_cast<unsigned long long>(h->count()),
                              h->mean()),
                    StrFormat("%.4g", h->Quantile(0.50)),
                    StrFormat("%.4g", h->Quantile(0.95)),
                    StrFormat("%.4g", h->Quantile(0.99))});
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  TablePrinter table;
  table.AddRow({"metric", "type", "value", "p50", "p95", "p99"});
  for (auto& row : rows) {
    table.AddRow(std::move(row));
  }
  return table.ToString();
}

void MetricsRegistry::AppendJson(JsonWriter* json) const {
  json->Key("counters");
  json->BeginObject();
  for (const auto& [name, c] : Sorted(counters_)) {
    json->Key(name);
    json->UInt(c->value());
  }
  json->EndObject();
  json->Key("gauges");
  json->BeginObject();
  for (const auto& [name, g] : Sorted(gauges_)) {
    json->Key(name);
    json->Double(g->value());
  }
  json->EndObject();
  json->Key("histograms");
  json->BeginObject();
  for (const auto& [name, h] : Sorted(histograms_)) {
    json->Key(name);
    json->BeginObject();
    json->Key("count");
    json->UInt(h->count());
    json->Key("sum");
    json->UInt(h->sum());
    json->Key("min");
    json->UInt(h->min());
    json->Key("max");
    json->UInt(h->max());
    json->Key("mean");
    json->Double(h->mean());
    json->Key("p50");
    json->Double(h->Quantile(0.50));
    json->Key("p95");
    json->Double(h->Quantile(0.95));
    json->Key("p99");
    json->Double(h->Quantile(0.99));
    json->EndObject();
  }
  json->EndObject();
}

}  // namespace palette
