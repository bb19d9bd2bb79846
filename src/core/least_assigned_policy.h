// Least-Assigned (LA) Color Table policy (§5, Table 1).
//
// I(c) = LA[c]: an explicit color → instance table. A new color goes to the
// instance with the fewest assigned colors (deterministic tie-break); the
// mapping is remembered until evicted. The table is capped (default 16,384
// entries) with LRU eviction and color names are truncated at 32 bytes, so
// memory stays within ~512 KB per application. Because colors are hints,
// eviction affects only locality, never correctness (Fig. 6b quantifies the
// hit-ratio cost of re-assigning an evicted color).
//
// Membership changes: new instances naturally attract new colors (they have
// the least assigned); when an instance is removed its colors are
// immediately redistributed with the same least-assigned rule.
//
// Hot path: table entries store interned InstanceIds (4 bytes, integer
// hashing) instead of instance name strings, and lookups probe the table
// with the truncated string_view directly — the hit path allocates nothing.
//
// The table is the one sticky color table in src/core: CH-Bounded-Loads
// (bounded_load_policy.h) derives from this class and overrides only
// Place(), the rule that picks an instance for an unplaced color.
#ifndef PALETTE_SRC_CORE_LEAST_ASSIGNED_POLICY_H_
#define PALETTE_SRC_CORE_LEAST_ASSIGNED_POLICY_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "src/common/string_hash.h"
#include "src/core/color_scheduling_policy.h"

namespace palette {

struct LeastAssignedConfig {
  std::size_t table_capacity = kDefaultColorTableCapacity;
};

class LeastAssignedPolicy : public PolicyBase {
 public:
  explicit LeastAssignedPolicy(std::uint64_t seed,
                               LeastAssignedConfig config = {});

  std::optional<InstanceId> RouteColoredId(std::string_view color) override;
  void OnInstanceAdded(const std::string& instance) override;
  void OnInstanceRemoved(const std::string& instance) override;
  std::size_t StateBytes() const override;
  std::string_view name() const override { return "Palette: Least Assigned"; }

  // Plan+apply: the explicit color table makes LA fully plannable.
  bool supports_planning() const override { return true; }
  void ApplyPlan(const Plan& plan) override;
  std::optional<InstanceId> PeekColorId(std::string_view color) const override;
  void ObserveRoute(std::string_view color, InstanceId instance) override;

  std::size_t table_size() const { return table_.size(); }
  std::uint64_t evictions() const { return evictions_; }
  // Number of colors currently assigned to `instance`.
  std::size_t AssignedCount(const std::string& instance) const;
  // Current mapping for a (truncated) color, if still in the table.
  std::optional<std::string> LookupColor(std::string_view color) const;

 protected:
  // Chooses the instance for a color the table does not place: a new
  // color, a dormant entry's revival, or an entry whose instance left.
  // `key` is the truncated color. Least Assigned picks the instance with
  // the fewest assigned colors (deterministic tie-break: first in
  // name-sorted order); nullopt only when there are no instances.
  virtual std::optional<InstanceId> Place(std::string_view key);
  std::size_t CountOf(InstanceId id) const;

 private:
  struct Entry {
    std::string color;                       // truncated key
    InstanceId instance = kInvalidInstanceId;  // current assignment
  };
  using List = std::list<Entry>;

  void EvictLru();
  // Rewrites (or inserts) `color`'s table entry to point at `to`; counts
  // toward planner_moves_ only when `count_move` (split primaries do not).
  void RemapColor(std::string_view color, InstanceId to, bool count_move);

  std::size_t table_capacity_;
  List lru_;  // front = most recently used
  std::unordered_map<std::string, List::iterator, TransparentStringHash,
                     std::equal_to<>>
      table_;
  std::unordered_map<InstanceId, std::size_t> assigned_counts_;
  std::uint64_t evictions_ = 0;
};

}  // namespace palette

#endif  // PALETTE_SRC_CORE_LEAST_ASSIGNED_POLICY_H_
