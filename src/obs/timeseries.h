// Sim-clock time series for the live telemetry pipeline
// (docs/OBSERVABILITY.md, "Time series").
//
// A TimeSeriesSampler turns a MetricsRegistry's cumulative state into
// ring-buffered windowed series: counter deltas become rates, gauges
// become levels, and histogram bucket deltas become per-window p50/p99.
// Sampling is driven by the simulator's *clock observer* (an event-free
// hook that fires at fixed marks on the sim clock, src/sim/simulator.h),
// so enabling telemetry adds zero events to the run — the event digests
// are bit-identical with sampling on or off.
//
// Sharded runs keep one sampler per domain, each observing its own event
// core; all samplers share the arithmetic mark grid (interval, 2*interval,
// ...), so after the run MergeFrom folds the per-domain series into
// cluster series by aligned window: rates and gauge levels add, window
// quantiles combine as count-weighted means. The fold happens in fixed
// domain order over deterministic per-domain series, so the merged CSV is
// bit-identical across --shards values.
#ifndef PALETTE_SRC_OBS_TIMESERIES_H_
#define PALETTE_SRC_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/obs/metrics.h"

namespace palette {

class JsonWriter;

enum class SeriesKind : std::uint8_t {
  kRate,      // counter delta / window length, per second
  kGauge,     // level at the window end
  kQuantile,  // histogram quantile over the window's values
};

std::string_view SeriesKindId(SeriesKind kind);

// One windowed observation: the window ends at `t` (a sampling mark).
// `weight` carries the merge semantics — the number of underlying events
// in the window (counter delta, histogram count delta; 1 for gauges) — so
// cluster merges can weight quantiles and tests can spot empty windows.
struct SeriesPoint {
  SimTime t;
  double value = 0;
  double weight = 0;
};

// A named ring-buffered series: the newest `capacity` points survive,
// older ones are dropped (dropped() counts them — no silent truncation).
class TimeSeries {
 public:
  TimeSeries(std::string name, SeriesKind kind, std::size_t capacity);

  const std::string& name() const { return name_; }
  SeriesKind kind() const { return kind_; }
  std::size_t size() const { return count_; }
  std::uint64_t dropped() const { return dropped_; }

  void Append(SeriesPoint point);
  // Folds `other` in window by window, matched on the mark: points at the
  // same mark combine (rates and gauges add, quantiles take the
  // weight-weighted mean), the rest interleave by mark. The result keeps
  // `other`'s kind, holds the newest capacity() points and counts only
  // the drops of this fold. Series on one mark grid fold in place.
  void MergeFrom(const TimeSeries& other);
  // Points oldest -> newest.
  std::vector<SeriesPoint> Points() const;
  const SeriesPoint& At(std::size_t i) const;  // 0 = oldest
  // Value of the point at mark `t`, or nullptr when the ring holds none.
  const SeriesPoint* FindMark(SimTime t) const;

  // Summary over the retained window (terminal dashboards).
  double last() const;
  double MinValue() const;
  double MaxValue() const;
  double MeanValue() const;

 private:
  std::string name_;
  SeriesKind kind_;
  std::vector<SeriesPoint> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest point
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
};

struct TimeSeriesConfig {
  // Window length; marks fire at interval, 2*interval, ... on the sim
  // clock. Clamped to >= 1ns.
  SimTime interval = SimTime::FromMillis(100);
  // Ring capacity per series.
  std::size_t ring_capacity = 4096;
  // Metric families to track; names outside these prefixes (notably the
  // per-worker worker.* / cache.shard.* / net.<w>.* series, whose
  // cardinality scales with the cluster) are skipped. Empty = track all.
  std::vector<std::string> family_prefixes = {
      "faas.", "lb.", "cache.local", "cache.remote", "cache.misses",
      "cache.evictions", "cache.put", "net.remote", "net.local",
      "net.queue", "router.r", "router.live", "router.routes",
      "router.stale", "router.misroutes", "router.forwards",
      "driver.", "engine."};
};

// Samples one MetricsRegistry into windowed series. Not thread-safe; in
// sharded runs each domain owns its own sampler (share-nothing, like the
// registries themselves).
class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(TimeSeriesConfig config = TimeSeriesConfig());

  const TimeSeriesConfig& config() const { return config_; }

  // The registry to observe. Must outlive the sampler's sampling phase.
  void set_source(const MetricsRegistry* registry) { source_ = registry; }
  // Runs before each snapshot — the place to refresh snapshot-style
  // counters (FaasPlatform::ExportMetrics). Must not schedule sim events.
  void set_refresh(std::function<void()> refresh) {
    refresh_ = std::move(refresh);
  }

  // Records the window ending at `mark`. Marks must be fed in increasing
  // order; the clock-observer hook guarantees that. Safe to call with no
  // source (records nothing but advances the mark).
  void Sample(SimTime mark);

  // Emits zero-delta windows for every remaining mark <= horizon — the
  // idle tail of a run where no events fire past the last arrival. Keeps
  // per-domain mark sets aligned for MergeFrom.
  void FlushUpTo(SimTime horizon);

  // Folds `other`'s series into this sampler window-by-window (matched on
  // the mark timestamp): rates and gauges add, quantiles combine as
  // weight-weighted means. Series missing locally are copied. Call after
  // both samplers stopped sampling.
  void MergeFrom(const TimeSeriesSampler& other);

  std::uint64_t samples_taken() const { return samples_; }
  SimTime last_mark() const { return last_mark_; }
  SimTime next_mark() const { return next_mark_; }

  const TimeSeries* Find(std::string_view name) const;
  // Name-sorted views of every series.
  std::vector<const TimeSeries*> AllSeries() const;
  std::size_t series_count() const { return series_.size(); }

  // CSV exposition: header "series,kind,t_ns,value,weight", rows sorted
  // by (series, t). Timestamps are integer nanoseconds and values print
  // via %.9g, so equal series render byte-identically.
  std::string ToCsv() const;

  // Appends one Chrome-trace counter event ("ph":"C") per point inside an
  // already-open traceEvents array: Perfetto renders each series as a
  // counter track. `pid` groups the tracks.
  void AppendChromeCounterTracks(JsonWriter* json, int pid) const;

 private:
  TimeSeries& SeriesFor(std::string_view name, SeriesKind kind);
  bool Tracked(const std::string& name) const;
  // Re-resolves the metric -> series tracks below from `source_`. Called
  // lazily from Sample() whenever the source pointer or the registry size
  // changes (registries only grow, so size is a complete change signal).
  void RebuildTracks();

  // Pre-resolved sampling tracks: the steady-state Sample() path walks
  // these instead of re-sorting metric names and re-concatenating series
  // keys at every mark.
  struct CounterTrack {
    const Counter* counter;
    TimeSeries* series;
    std::uint64_t* last;
  };
  struct GaugeTrack {
    const Gauge* gauge;
    TimeSeries* series;
  };
  struct HistogramTrack {
    const LatencyHistogram* histogram;
    TimeSeries* p50;
    TimeSeries* p99;
    TimeSeries* rate;
    LatencyHistogram::Snapshot* base;
  };

  TimeSeriesConfig config_;
  const MetricsRegistry* source_ = nullptr;
  std::function<void()> refresh_;
  SimTime next_mark_;
  SimTime last_mark_;
  std::uint64_t samples_ = 0;

  std::vector<std::unique_ptr<TimeSeries>> series_;
  // Keys view each series' own name, which never changes.
  std::unordered_map<std::string_view, TimeSeries*> index_;
  // Cumulative baselines from the previous mark, keyed by the series the
  // metric feeds (its .rate series; a histogram's .p50), which stands for
  // the metric's name. Node pointers into these maps are stable, so the
  // tracks below may cache them.
  std::unordered_map<const TimeSeries*, std::uint64_t> counter_last_;
  std::unordered_map<const TimeSeries*, LatencyHistogram::Snapshot>
      histogram_last_;

  std::vector<CounterTrack> counter_tracks_;
  std::vector<GaugeTrack> gauge_tracks_;
  std::vector<HistogramTrack> histogram_tracks_;
  const MetricsRegistry* tracked_source_ = nullptr;
  std::size_t tracked_registry_size_ = 0;
};

// Renders `values` as a unicode block sparkline of up to `width` cells
// (values are min-max normalized; empty input yields an empty string).
// The terminal face of `palette_cli monitor`.
std::string Sparkline(const std::vector<double>& values, std::size_t width);

}  // namespace palette

#endif  // PALETTE_SRC_OBS_TIMESERIES_H_
