#include "src/workload/slo.h"

#include <algorithm>
#include <vector>

#include "src/common/json_writer.h"
#include "src/common/stats.h"
#include "src/common/table_printer.h"

namespace palette {

SloReport ScoreSlo(const std::vector<InvocationSample>& samples,
                   const SloConfig& config, SimTime horizon,
                   double offered_rps) {
  SloReport report;
  report.deadline_ms = config.deadline.millis();
  report.offered_rps = offered_rps;
  const SimTime window = horizon - config.warmup;
  report.window_seconds = window.seconds() > 0 ? window.seconds() : 0;

  struct ColorBucket {
    std::vector<double> latencies_ms;
    std::uint64_t count = 0;
    std::uint64_t local = 0;
    std::uint64_t total_accesses = 0;
  };
  // Indexed by color_id: the mix draws ids below its color count.
  std::vector<ColorBucket> colors;

  std::vector<double> latencies_ms;
  std::uint64_t within_deadline = 0;
  std::uint64_t local = 0;
  std::uint64_t accesses = 0;
  for (const InvocationSample& s : samples) {
    ++report.submitted;
    if (s.status == SampleStatus::kRejected) {
      ++report.rejected;
      continue;
    }
    if (s.status != SampleStatus::kCompleted) {
      ++report.dropped;
      continue;
    }
    ++report.completed;
    if (s.intended_start < config.warmup) {
      continue;
    }
    const double latency_ms = s.latency().millis();
    latencies_ms.push_back(latency_ms);
    if (s.latency() <= config.deadline) {
      ++within_deadline;
    }
    local += s.local_hits;
    accesses += s.local_hits + s.remote_hits + s.misses;
    if (s.color_id >= colors.size()) {
      colors.resize(s.color_id + std::size_t{1});
    }
    ColorBucket& bucket = colors[s.color_id];
    ++bucket.count;
    bucket.latencies_ms.push_back(latency_ms);
    bucket.local += s.local_hits;
    bucket.total_accesses += s.local_hits + s.remote_hits + s.misses;
  }

  report.scored = latencies_ms.size();
  if (report.window_seconds > 0) {
    report.completed_rps =
        static_cast<double>(report.scored) / report.window_seconds;
    report.goodput_rps =
        static_cast<double>(within_deadline) / report.window_seconds;
  }
  if (report.scored > 0) {
    report.goodput_fraction =
        static_cast<double>(within_deadline) /
        static_cast<double>(report.scored);
    double sum = 0;
    double max = 0;
    for (double v : latencies_ms) {
      sum += v;
      max = std::max(max, v);
    }
    report.mean_ms = sum / static_cast<double>(report.scored);
    report.max_ms = max;
    const std::vector<double> ps =
        Percentiles(std::move(latencies_ms), {50, 95, 99, 99.9});
    report.p50_ms = ps[0];
    report.p95_ms = ps[1];
    report.p99_ms = ps[2];
    report.p999_ms = ps[3];
  }
  report.local_hit_ratio =
      accesses > 0 ? static_cast<double>(local) / static_cast<double>(accesses)
                   : 0;

  for (std::uint32_t color_id = 0; color_id < colors.size(); ++color_id) {
    ColorBucket& bucket = colors[color_id];
    if (bucket.count == 0) {
      continue;
    }
    ColorSlo c;
    c.color_id = color_id;
    c.count = bucket.count;
    c.p99_ms = Percentile(std::move(bucket.latencies_ms), 99);
    c.local_hit_ratio =
        bucket.total_accesses > 0
            ? static_cast<double>(bucket.local) /
                  static_cast<double>(bucket.total_accesses)
            : 0;
    report.per_color.push_back(c);
  }
  std::sort(report.per_color.begin(), report.per_color.end(),
            [](const ColorSlo& a, const ColorSlo& b) {
              return a.count != b.count ? a.count > b.count
                                        : a.color_id < b.color_id;
            });
  if (report.per_color.size() > config.top_colors) {
    report.per_color.resize(config.top_colors);
  }
  return report;
}

std::string SloReportTable(const SloReport& report) {
  TablePrinter table;
  table.AddRow({"metric", "value"});
  table.AddRow({"offered_rps", StrFormat("%.1f", report.offered_rps)});
  table.AddRow({"completed_rps", StrFormat("%.1f", report.completed_rps)});
  table.AddRow({"goodput_rps", StrFormat("%.1f", report.goodput_rps)});
  table.AddRow(
      {"goodput_fraction", StrFormat("%.4f", report.goodput_fraction)});
  table.AddRow({"p50_ms", StrFormat("%.3f", report.p50_ms)});
  table.AddRow({"p95_ms", StrFormat("%.3f", report.p95_ms)});
  table.AddRow({"p99_ms", StrFormat("%.3f", report.p99_ms)});
  table.AddRow({"p99.9_ms", StrFormat("%.3f", report.p999_ms)});
  table.AddRow({"max_ms", StrFormat("%.3f", report.max_ms)});
  table.AddRow(
      {"local_hit_ratio", StrFormat("%.4f", report.local_hit_ratio)});
  table.AddRow({"submitted", StrFormat("%llu", static_cast<unsigned long long>(
                                                   report.submitted))});
  table.AddRow({"completed", StrFormat("%llu", static_cast<unsigned long long>(
                                                   report.completed))});
  table.AddRow({"rejected", StrFormat("%llu", static_cast<unsigned long long>(
                                                  report.rejected))});
  table.AddRow({"dropped", StrFormat("%llu", static_cast<unsigned long long>(
                                                 report.dropped))});
  table.AddRow({"meets_slo (p99<=deadline)",
                report.MeetsSlo() ? "yes" : "no"});
  std::string out = table.ToString();

  if (!report.per_color.empty()) {
    TablePrinter per_color;
    per_color.AddRow({"color", "invocations", "p99_ms", "local_hit%"});
    for (const ColorSlo& c : report.per_color) {
      per_color.AddRow(
          {StrFormat("c%u", c.color_id),
           StrFormat("%llu", static_cast<unsigned long long>(c.count)),
           StrFormat("%.3f", c.p99_ms),
           StrFormat("%.1f", 100 * c.local_hit_ratio)});
    }
    out += "\n";
    out += per_color.ToString();
  }
  return out;
}

void AppendSloReportJson(const SloReport& report, JsonWriter* json) {
  json->BeginObject();
  json->Key("submitted");
  json->UInt(report.submitted);
  json->Key("completed");
  json->UInt(report.completed);
  json->Key("rejected");
  json->UInt(report.rejected);
  json->Key("dropped");
  json->UInt(report.dropped);
  json->Key("scored");
  json->UInt(report.scored);
  json->Key("offered_rps");
  json->Double(report.offered_rps);
  json->Key("completed_rps");
  json->Double(report.completed_rps);
  json->Key("goodput_rps");
  json->Double(report.goodput_rps);
  json->Key("goodput_fraction");
  json->Double(report.goodput_fraction);
  json->Key("mean_ms");
  json->Double(report.mean_ms);
  json->Key("p50_ms");
  json->Double(report.p50_ms);
  json->Key("p95_ms");
  json->Double(report.p95_ms);
  json->Key("p99_ms");
  json->Double(report.p99_ms);
  json->Key("p999_ms");
  json->Double(report.p999_ms);
  json->Key("max_ms");
  json->Double(report.max_ms);
  json->Key("local_hit_ratio");
  json->Double(report.local_hit_ratio);
  json->Key("deadline_ms");
  json->Double(report.deadline_ms);
  json->Key("window_seconds");
  json->Double(report.window_seconds);
  json->Key("meets_slo");
  json->Bool(report.MeetsSlo());
  json->Key("per_color");
  json->BeginArray();
  for (const ColorSlo& c : report.per_color) {
    json->BeginObject();
    json->Key("color_id");
    json->UInt(c.color_id);
    json->Key("count");
    json->UInt(c.count);
    json->Key("p99_ms");
    json->Double(c.p99_ms);
    json->Key("local_hit_ratio");
    json->Double(c.local_hit_ratio);
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

std::uint64_t SamplesDigest(const std::vector<InvocationSample>& samples) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const InvocationSample& s : samples) {
    mix(static_cast<std::uint64_t>(s.intended_start.nanos()));
    mix(static_cast<std::uint64_t>(s.completed.nanos()));
    mix(s.color_id);
    mix(s.function_index);
    mix(static_cast<std::uint64_t>(s.status));
    mix((static_cast<std::uint64_t>(s.local_hits) << 32) |
        (static_cast<std::uint64_t>(s.remote_hits) << 16) | s.misses);
  }
  return h;
}

RateSweepResult SweepRates(
    const std::vector<double>& rates,
    const std::function<SloReport(double rate)>& run_at_rate) {
  RateSweepResult result;
  result.points.reserve(rates.size());
  for (const double rate : rates) {
    RateSweepPoint point;
    point.offered_rps = rate;
    point.report = run_at_rate(rate);
    if (point.report.MeetsSlo()) {
      result.max_sustainable_rps =
          std::max(result.max_sustainable_rps, rate);
    }
    result.points.push_back(std::move(point));
  }
  return result;
}

}  // namespace palette
