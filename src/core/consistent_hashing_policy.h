// Consistent Hashing color scheduling policy (§5, Table 1: "Hashing").
//
// I(c) = CH(c): the simplest mapping, needing no state beyond the instance
// list. Equivalent to random assignment of colors to instances, so load can
// be imbalanced — the trade-off Figs. 5 and 8 quantify. Consistent hashing
// (rather than modulo) minimizes invalidated mappings on membership changes.
#ifndef PALETTE_SRC_CORE_CONSISTENT_HASHING_POLICY_H_
#define PALETTE_SRC_CORE_CONSISTENT_HASHING_POLICY_H_

#include "src/core/color_scheduling_policy.h"
#include "src/hash/consistent_hash_ring.h"

namespace palette {

class ConsistentHashingPolicy : public PolicyBase {
 public:
  explicit ConsistentHashingPolicy(std::uint64_t seed);

  std::optional<InstanceId> RouteColoredId(std::string_view color) override;
  void OnInstanceAdded(const std::string& instance) override;
  void OnInstanceRemoved(const std::string& instance) override;
  std::size_t StateBytes() const override;
  std::string_view name() const override { return "Palette: Consistent Hashing"; }

 private:
  ConsistentHashRing ring_;
};

}  // namespace palette

#endif  // PALETTE_SRC_CORE_CONSISTENT_HASHING_POLICY_H_
