// Lightweight statistics helpers used by the benchmark harnesses to report
// means, standard errors (the paper's bar plots show standard error) and
// percentiles across repeated runs.
#ifndef PALETTE_SRC_COMMON_STATS_H_
#define PALETTE_SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace palette {

// Accumulates samples online (Welford's algorithm) and answers summary
// queries. Percentile queries require the opt-in retained-sample mode
// (construct with retain_samples = true), which keeps every Add()ed value;
// the default mode holds O(1) state and answers percentile() with 0.
class RunningStats {
 public:
  RunningStats() = default;
  explicit RunningStats(bool retain_samples) : retain_(retain_samples) {}

  void Add(double value);

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  // Unbiased sample variance; 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  // Standard error of the mean.
  double stderr_mean() const;

  // Retained-sample mode.
  bool retains_samples() const { return retain_; }
  const std::vector<double>& samples() const { return samples_; }
  // Linear-interpolated percentile over the retained samples; `p` in
  // [0, 100]. Returns 0 when samples are not retained or none were added.
  double percentile(double p) const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
  bool retain_ = false;
  std::vector<double> samples_;
};

// Percentile of a sample set using linear interpolation between closest
// ranks. The input is copied and the two ranks the interpolation reads are
// selected (nth_element), not sorted; the result equals the sort-based one
// bit for bit. Defensive contract (the SLO scorer calls this on
// possibly-empty per-color buckets): an empty sample set returns 0; `p` is
// clamped to [0, 100], with NaN treated as 0 — so out-of-range ranks return
// min/max instead of reading out of bounds.
double Percentile(std::vector<double> samples, double p);

// Percentiles at each rank in `ps`, selecting in ascending rank order over
// one copy of `samples` (same interpolation and clamping as Percentile, and
// bit-identical to a sort-based lookup). Returns one value per entry
// of `ps`, in order; all zeros for empty input.
std::vector<double> Percentiles(std::vector<double> samples,
                                const std::vector<double>& ps);

// Relative maximum load: max(samples) / mean(samples). This is the load
// imbalance metric from Fig. 5 (maximum / average colors per instance).
// Returns 0 for empty input or zero mean.
double RelativeMaxLoad(const std::vector<double>& samples);

}  // namespace palette

#endif  // PALETTE_SRC_COMMON_STATS_H_
