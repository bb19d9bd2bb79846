#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

namespace palette {

void RunningStats::Add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  if (retain_) {
    samples_.push_back(value);
  }
}

double RunningStats::percentile(double p) const {
  if (!retain_ || samples_.empty()) {
    return 0.0;
  }
  return Percentile(samples_, p);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  if (count_ < 2) {
    return 0.0;
  }
  return stddev() / std::sqrt(static_cast<double>(count_));
}

namespace {

// Clamps a percentile rank into [0, 100]; NaN maps to 0 (the documented
// defensive contract in stats.h).
double ClampRank(double p) {
  if (std::isnan(p) || p < 0.0) {
    return 0.0;
  }
  return p > 100.0 ? 100.0 : p;
}

// The interpolated percentile at `p` by selection instead of a sort: the
// order statistic at floor(rank) by nth_element, the next one as the
// minimum above it, combined exactly as a lookup into the sorted samples
// would, so results are bit-identical. The first `*from` samples must be
// the `*from` smallest (partitioned off by an earlier call at a lower
// rank), so successive calls at ascending ranks select within a shrinking
// tail; each leaves `*from` at its own rank.
double SelectPercentile(std::vector<double>& samples, double p,
                        std::size_t* from) {
  const std::size_t n = samples.size();
  if (n == 1) {
    return samples[0];
  }
  const double rank = (ClampRank(p) / 100.0) * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  const auto begin = samples.begin();
  std::nth_element(begin + static_cast<std::ptrdiff_t>(*from),
                   begin + static_cast<std::ptrdiff_t>(lo), samples.end());
  *from = lo;
  const double lo_value = samples[lo];
  const double hi_value =
      hi == lo ? lo_value
               : *std::min_element(begin + static_cast<std::ptrdiff_t>(hi),
                                   samples.end());
  return lo_value + frac * (hi_value - lo_value);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::size_t from = 0;
  return SelectPercentile(samples, p, &from);
}

std::vector<double> Percentiles(std::vector<double> samples,
                                const std::vector<double>& ps) {
  std::vector<double> out(ps.size(), 0.0);
  if (samples.empty()) {
    return out;
  }
  // Select in ascending rank order; each selection narrows the next.
  std::vector<std::size_t> order(ps.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&ps](std::size_t a, std::size_t b) {
    return ClampRank(ps[a]) < ClampRank(ps[b]);
  });
  std::size_t from = 0;
  for (const std::size_t i : order) {
    out[i] = SelectPercentile(samples, ps[i], &from);
  }
  return out;
}

double RelativeMaxLoad(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  double sum = 0;
  double max = samples[0];
  for (double v : samples) {
    sum += v;
    max = std::max(max, v);
  }
  const double mean = sum / static_cast<double>(samples.size());
  return mean > 0 ? max / mean : 0.0;
}

}  // namespace palette
