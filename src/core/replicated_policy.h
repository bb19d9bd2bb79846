// Replicated colors — research extension.
//
// The paper's prototype assumes "a single active instance per color at any
// time" and explicitly defers the alternative: "lifting the restriction of
// one instance per color, which can prevent hot spots, but also diffuses
// locality" (§5 Scaling). This policy implements that design point so the
// hot-spot trade-off can be measured (see bench/ext_hot_colors.cc):
//
//   * each color maps to a *replica set* of k instances (its first k
//     distinct successors on a consistent-hash ring), and
//   * invocations of the color round-robin across the set.
//
// With k = 1 this degenerates to plain Consistent Hashing. Larger k caps
// the share of traffic any one instance can receive from a single viral
// color at 1/k, at the cost of k-way duplication of that color's cached
// state (locality diffusion).
#ifndef PALETTE_SRC_CORE_REPLICATED_POLICY_H_
#define PALETTE_SRC_CORE_REPLICATED_POLICY_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/string_hash.h"
#include "src/core/color_scheduling_policy.h"
#include "src/hash/consistent_hash_ring.h"

namespace palette {

struct ReplicatedColorConfig {
  // Replica set size per color (the maximum set size in adaptive mode).
  int replicas = 2;
  // Per-color round-robin cursors live in an LRU-capped table.
  std::size_t table_capacity = kDefaultColorTableCapacity;
  // Adaptive mode: replicate only *hot* colors. A color enters the hot
  // state when its share of recent requests exceeds hot_share_threshold
  // and leaves it only once the share drops below half the threshold
  // (hysteresis: a color oscillating around θ would otherwise flap its
  // replica set — and its cached state — every window). Counts decay by
  // halving every decay_interval routes, so a cooled-off color collapses
  // back to one instance.
  bool adaptive = false;
  double hot_share_threshold = 0.05;
  std::uint64_t decay_interval = 16384;
};

class ReplicatedColorPolicy : public PolicyBase {
 public:
  explicit ReplicatedColorPolicy(std::uint64_t seed,
                                 ReplicatedColorConfig config = {});

  std::optional<InstanceId> RouteColoredId(std::string_view color) override;
  void OnInstanceAdded(const std::string& instance, InstanceId id) override;
  void OnInstanceRemoved(const std::string& instance) override;
  std::size_t StateBytes() const override;
  std::string_view name() const override {
    return "Palette: Replicated Colors";
  }

  // The replica set a color currently maps to (<= `replicas` instances).
  std::vector<InstanceId> ReplicaSetOf(std::string_view color) const;

  // Writes to a replicated color land on the whole replica set (the
  // storage tier keeps the copies coherent synchronously; see
  // ColorSchedulingPolicy::WriteReplicaSetOf).
  std::vector<InstanceId> WriteReplicaSetOf(
      std::string_view color) const override {
    return ReplicaSetOf(color);
  }

  // Whether `color` currently counts as hot (always true when the policy
  // is non-adaptive). Exposed for tests.
  bool IsHot(std::string_view color) const;

 private:
  struct Entry {
    std::string color;
    std::uint32_t cursor = 0;
    std::uint64_t count = 0;  // decayed request count (adaptive mode)
    bool hot = false;         // hysteresis state: enter at θ, exit at θ/2
  };
  using List = std::list<Entry>;

  void MaybeDecay();

  ReplicatedColorConfig config_;
  ConsistentHashRing ring_;
  List lru_;
  std::unordered_map<std::string, List::iterator, TransparentStringHash,
                     std::equal_to<>>
      table_;
  std::uint64_t routes_since_decay_ = 0;
  std::uint64_t window_total_ = 0;  // decayed total across colors
  std::vector<InstanceId> replica_buffer_;  // scratch for ring walks
};

}  // namespace palette

#endif  // PALETTE_SRC_CORE_REPLICATED_POLICY_H_
