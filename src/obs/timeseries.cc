#include "src/obs/timeseries.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/json_writer.h"
#include "src/common/table_printer.h"

namespace palette {

std::string_view SeriesKindId(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kRate:
      return "rate";
    case SeriesKind::kGauge:
      return "gauge";
    case SeriesKind::kQuantile:
      return "quantile";
  }
  return "?";
}

TimeSeries::TimeSeries(std::string name, SeriesKind kind,
                       std::size_t capacity)
    : name_(std::move(name)),
      kind_(kind),
      capacity_(std::max<std::size_t>(1, capacity)) {}

namespace {

SeriesPoint CombinePoints(SeriesKind kind, const SeriesPoint& a,
                          const SeriesPoint& b) {
  SeriesPoint out;
  out.t = a.t;
  switch (kind) {
    case SeriesKind::kRate:
    case SeriesKind::kGauge:
      // Cluster totals: per-group rates and additive levels (queue depth,
      // bytes) sum. Non-additive gauges should stay per-group.
      out.value = a.value + b.value;
      out.weight = a.weight + b.weight;
      break;
    case SeriesKind::kQuantile: {
      // Count-weighted mean — an approximation of the cluster quantile,
      // but a deterministic one (exact cluster quantiles would need the
      // merged bucket deltas per window).
      const double w = a.weight + b.weight;
      out.value = w > 0 ? (a.value * a.weight + b.value * b.weight) / w : 0;
      out.weight = w;
      break;
    }
  }
  return out;
}

}  // namespace

void TimeSeries::Append(SeriesPoint point) {
  if (count_ < capacity_) {
    ring_.push_back(point);
    ++count_;
    return;
  }
  // Full: overwrite the oldest slot and advance the head.
  ring_[head_] = point;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void TimeSeries::MergeFrom(const TimeSeries& other) {
  bool aligned = kind_ == other.kind_ && count_ == other.count_;
  for (std::size_t i = 0; aligned && i < count_; ++i) {
    aligned = At(i).t == other.At(i).t;
  }
  if (aligned) {
    for (std::size_t i = 0; i < count_; ++i) {
      SeriesPoint& mine = ring_[(head_ + i) % ring_.size()];
      mine = CombinePoints(kind_, mine, other.At(i));
    }
    dropped_ = 0;
    return;
  }
  const std::vector<SeriesPoint> a = Points();
  const std::vector<SeriesPoint> b = other.Points();
  std::vector<SeriesPoint> merged;
  merged.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].t < b[j].t)) {
      merged.push_back(a[i++]);
    } else if (i >= a.size() || b[j].t < a[i].t) {
      merged.push_back(b[j++]);
    } else {
      merged.push_back(CombinePoints(kind_, a[i++], b[j++]));
    }
  }
  kind_ = other.kind_;
  ring_.clear();
  ring_.reserve(std::min(merged.size(), capacity_));
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
  for (const SeriesPoint& p : merged) {
    Append(p);
  }
}

const SeriesPoint& TimeSeries::At(std::size_t i) const {
  assert(i < count_);
  return ring_[(head_ + i) % ring_.size()];
}

std::vector<SeriesPoint> TimeSeries::Points() const {
  std::vector<SeriesPoint> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(At(i));
  }
  return out;
}

const SeriesPoint* TimeSeries::FindMark(SimTime t) const {
  // Points are appended in increasing mark order; binary search the ring
  // via the logical index.
  std::size_t lo = 0;
  std::size_t hi = count_;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (At(mid).t < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < count_ && At(lo).t == t) {
    return &At(lo);
  }
  return nullptr;
}

double TimeSeries::last() const { return count_ > 0 ? At(count_ - 1).value : 0; }

double TimeSeries::MinValue() const {
  double out = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    out = i == 0 ? At(i).value : std::min(out, At(i).value);
  }
  return out;
}

double TimeSeries::MaxValue() const {
  double out = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    out = i == 0 ? At(i).value : std::max(out, At(i).value);
  }
  return out;
}

double TimeSeries::MeanValue() const {
  if (count_ == 0) {
    return 0;
  }
  double sum = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    sum += At(i).value;
  }
  return sum / static_cast<double>(count_);
}

TimeSeriesSampler::TimeSeriesSampler(TimeSeriesConfig config)
    : config_(std::move(config)) {
  if (config_.interval < SimTime::FromNanos(1)) {
    config_.interval = SimTime::FromNanos(1);
  }
  next_mark_ = config_.interval;
}

bool TimeSeriesSampler::Tracked(const std::string& name) const {
  if (config_.family_prefixes.empty()) {
    return true;
  }
  for (const std::string& prefix : config_.family_prefixes) {
    if (name.size() >= prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      return true;
    }
  }
  return false;
}

TimeSeries& TimeSeriesSampler::SeriesFor(std::string_view name,
                                         SeriesKind kind) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    return *it->second;
  }
  series_.push_back(std::make_unique<TimeSeries>(std::string(name), kind,
                                                 config_.ring_capacity));
  TimeSeries* s = series_.back().get();
  index_.emplace(s->name(), s);
  return *s;
}

void TimeSeriesSampler::RebuildTracks() {
  // Resolve every tracked metric to its series (and baseline slot) once;
  // the per-mark path then walks plain pointer vectors with no string
  // concatenation, no map lookups, and no re-sorting. Registries only
  // grow (GetOrCreate never removes), so a size check is a complete
  // change detector. SortedX order fixes the track order, which fixes the
  // series creation order — identical to resolving inline every mark.
  counter_tracks_.clear();
  gauge_tracks_.clear();
  histogram_tracks_.clear();
  // Series names are built in one reused buffer.
  std::string key;
  const auto suffixed = [&key](const std::string& name, const char* suffix) {
    key.assign(name).append(suffix);
    return std::string_view(key);
  };
  for (const auto& [name, c] : source_->SortedCounters()) {
    if (!Tracked(name)) {
      continue;
    }
    // counter_last_/histogram_last_ nodes are stable across rehash, so
    // the cached pointers survive later insertions.
    TimeSeries* const rate = &SeriesFor(suffixed(name, ".rate"),
                                        SeriesKind::kRate);
    counter_tracks_.push_back(CounterTrack{c, rate, &counter_last_[rate]});
  }
  for (const auto& [name, g] : source_->SortedGauges()) {
    if (!Tracked(name)) {
      continue;
    }
    gauge_tracks_.push_back(
        GaugeTrack{g, &SeriesFor(name, SeriesKind::kGauge)});
  }
  for (const auto& [name, h] : source_->SortedHistograms()) {
    if (!Tracked(name)) {
      continue;
    }
    TimeSeries* const p50 =
        &SeriesFor(suffixed(name, ".p50"), SeriesKind::kQuantile);
    histogram_tracks_.push_back(HistogramTrack{
        h, p50, &SeriesFor(suffixed(name, ".p99"), SeriesKind::kQuantile),
        &SeriesFor(suffixed(name, ".rate"), SeriesKind::kRate),
        &histogram_last_[p50]});
  }
  tracked_source_ = source_;
  tracked_registry_size_ = source_->size();
}

void TimeSeriesSampler::Sample(SimTime mark) {
  if (refresh_) {
    refresh_();
  }
  if (source_ != nullptr) {
    if (source_ != tracked_source_ ||
        source_->size() != tracked_registry_size_) {
      RebuildTracks();
    }
    const double interval_s = config_.interval.seconds();
    for (CounterTrack& track : counter_tracks_) {
      const std::uint64_t value = track.counter->value();
      const std::uint64_t delta =
          value >= *track.last ? value - *track.last : 0;
      *track.last = value;
      track.series->Append({mark, static_cast<double>(delta) / interval_s,
                            static_cast<double>(delta)});
    }
    for (const GaugeTrack& track : gauge_tracks_) {
      track.series->Append({mark, track.gauge->value(), 1.0});
    }
    for (HistogramTrack& track : histogram_tracks_) {
      // Default-constructed baseline = zero snapshot: the first window
      // covers everything recorded so far. The baseline advances in place.
      const LatencyHistogram::WindowQuantiles window =
          track.histogram->AdvanceWindow(track.base);
      const auto delta_count = static_cast<double>(window.count);
      track.p50->Append({mark, window.p50, delta_count});
      track.p99->Append({mark, window.p99, delta_count});
      track.rate->Append({mark, delta_count / interval_s, delta_count});
    }
  }
  last_mark_ = mark;
  next_mark_ = SaturatingAdd(mark, config_.interval);
  ++samples_;
}

void TimeSeriesSampler::FlushUpTo(SimTime horizon) {
  while (next_mark_ <= horizon) {
    Sample(next_mark_);
  }
}

void TimeSeriesSampler::MergeFrom(const TimeSeriesSampler& other) {
  for (const TimeSeries* theirs : other.AllSeries()) {
    SeriesFor(theirs->name(), theirs->kind()).MergeFrom(*theirs);
  }
  samples_ = std::max(samples_, other.samples_);
  last_mark_ = std::max(last_mark_, other.last_mark_);
  next_mark_ = std::max(next_mark_, other.next_mark_);
}

const TimeSeries* TimeSeriesSampler::Find(std::string_view name) const {
  const auto it = index_.find(name);
  return it != index_.end() ? it->second : nullptr;
}

std::vector<const TimeSeries*> TimeSeriesSampler::AllSeries() const {
  std::vector<const TimeSeries*> out;
  out.reserve(series_.size());
  for (const auto& s : series_) {
    out.push_back(s.get());
  }
  std::sort(out.begin(), out.end(),
            [](const TimeSeries* a, const TimeSeries* b) {
              return a->name() < b->name();
            });
  return out;
}

std::string TimeSeriesSampler::ToCsv() const {
  std::string out = "series,kind,t_ns,value,weight\n";
  for (const TimeSeries* s : AllSeries()) {
    for (std::size_t i = 0; i < s->size(); ++i) {
      const SeriesPoint& p = s->At(i);
      out += StrFormat("%s,%s,%lld,%.9g,%.9g\n", s->name().c_str(),
                       std::string(SeriesKindId(s->kind())).c_str(),
                       static_cast<long long>(p.t.nanos()), p.value,
                       p.weight);
    }
  }
  return out;
}

void TimeSeriesSampler::AppendChromeCounterTracks(JsonWriter* json,
                                                  int pid) const {
  for (const TimeSeries* s : AllSeries()) {
    for (std::size_t i = 0; i < s->size(); ++i) {
      const SeriesPoint& p = s->At(i);
      json->BeginObject();
      json->Key("ph");
      json->String("C");
      json->Key("cat");
      json->String("telemetry");
      json->Key("name");
      json->String(s->name());
      json->Key("pid");
      json->Int(pid);
      json->Key("tid");
      json->Int(0);
      json->Key("ts");
      json->Double(p.t.micros());
      json->Key("args");
      json->BeginObject();
      json->Key("value");
      json->Double(p.value);
      json->EndObject();
      json->EndObject();
    }
  }
}

std::string Sparkline(const std::vector<double>& values, std::size_t width) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty() || width == 0) {
    return std::string();
  }
  // Downsample by averaging fixed strides so the line always fits.
  std::vector<double> cells;
  const std::size_t n = values.size();
  const std::size_t w = std::min(width, n);
  cells.reserve(w);
  for (std::size_t c = 0; c < w; ++c) {
    const std::size_t begin = c * n / w;
    const std::size_t end = std::max(begin + 1, (c + 1) * n / w);
    double sum = 0;
    for (std::size_t i = begin; i < end; ++i) {
      sum += values[i];
    }
    cells.push_back(sum / static_cast<double>(end - begin));
  }
  const auto [lo_it, hi_it] = std::minmax_element(cells.begin(), cells.end());
  const double lo = *lo_it;
  const double span = *hi_it - lo;
  std::string out;
  for (const double v : cells) {
    const int level =
        span > 0 ? std::clamp(static_cast<int>((v - lo) / span * 7.999), 0, 7)
                 : 0;
    out += kBlocks[level];
  }
  return out;
}

}  // namespace palette
