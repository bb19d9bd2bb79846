#include "src/workload/mix.h"

#include <algorithm>
#include <cassert>

#include "src/common/table_printer.h"

namespace palette {

namespace {

// SplitMix64 finalizer; fans an object's identity out to a uniform u64 so
// per-object attributes are deterministic without any stored state.
std::uint64_t HashIdentity(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

InvocationMix::InvocationMix(MixConfig config)
    : config_(std::move(config)),
      zipf_(config_.color_count, config_.zipf_theta),
      sizes_(config_.size_quantiles) {
  assert(!config_.functions.empty());
  double total = 0;
  for (const MixConfig::FunctionSpec& fn : config_.functions) {
    assert(fn.weight >= 0);
    total += fn.weight;
  }
  assert(total > 0);
  double acc = 0;
  function_cdf_.reserve(config_.functions.size());
  for (const MixConfig::FunctionSpec& fn : config_.functions) {
    acc += fn.weight / total;
    function_cdf_.push_back(acc);
  }
  function_cdf_.back() = 1.0;
}

std::uint32_t InvocationMix::ColorIdForRank(std::uint64_t rank,
                                            SimTime now) const {
  std::uint64_t rotation = 0;
  if (config_.churn_interval.nanos() > 0 && config_.churn_step > 0) {
    const std::uint64_t epoch = static_cast<std::uint64_t>(now.nanos()) /
                                static_cast<std::uint64_t>(
                                    config_.churn_interval.nanos());
    rotation = epoch * config_.churn_step;
  }
  return static_cast<std::uint32_t>((rank + rotation) % config_.color_count);
}

Bytes InvocationMix::ObjectSize(std::uint32_t color_id,
                                std::uint64_t obj) const {
  const std::uint64_t h =
      HashIdentity((static_cast<std::uint64_t>(color_id) << 20) ^ obj);
  // 53-bit mantissa quotient gives u uniform in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return static_cast<Bytes>(sizes_.ValueAtQuantile(u));
}

MixedInvocation InvocationMix::Sample(SimTime now, Rng& rng) const {
  MixedInvocation out;
  out.color_id = ColorIdForRank(zipf_.Sample(rng), now);

  const double fn_draw = rng.NextDouble();
  const auto fn_it =
      std::lower_bound(function_cdf_.begin(), function_cdf_.end(), fn_draw);
  out.function_index = static_cast<std::uint16_t>(
      std::min<std::size_t>(fn_it - function_cdf_.begin(),
                            config_.functions.size() - 1));
  const MixConfig::FunctionSpec& fn = config_.functions[out.function_index];

  out.spec.function = fn.name;
  out.spec.color = StrFormat("c%u", out.color_id);
  out.spec.cpu_ops = fn.cpu_ops * (0.5 + rng.NextDouble());
  // "c<id>___<id>.<k>": the suffix repeats the color id, so after §5.1
  // translation rewrites the prefix to the routed worker ("w3___<id>.<k>"),
  // two colors homed on one worker still name distinct objects. At 4096
  // colors the longest name ("c4095___4095.3") fits the short-string
  // buffer, so naming allocates nothing.
  const auto object = [&](std::uint64_t obj) {
    return ObjectRef{StrFormat("c%u___%u.%llu", out.color_id, out.color_id,
                               static_cast<unsigned long long>(obj)),
                     ObjectSize(out.color_id, obj)};
  };
  for (int i = 0; i < config_.inputs_per_invocation; ++i) {
    out.spec.inputs.push_back(
        object(rng.NextBelow(config_.objects_per_color)));
  }
  if (config_.write_fraction > 0 &&
      rng.NextBernoulli(config_.write_fraction)) {
    out.spec.outputs.push_back(
        object(rng.NextBelow(config_.objects_per_color)));
  }
  return out;
}

}  // namespace palette
