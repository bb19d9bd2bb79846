// The Palette load balancer (Fig. 3).
//
// Sits between colored invocations and the application's instances: applies
// the application's chosen color scheduling policy, tracks per-instance
// routing counts, and receives membership updates from the scale controller.
// One PaletteLoadBalancer exists per application — the color namespace is
// application-scoped, so no state is shared across applications.
//
// The hot path is id-based: RouteId() returns an interned InstanceId and
// bumps a flat per-id counter (no string hashing per route). Route() remains
// as a string-returning shim for callers that want names.
#ifndef PALETTE_SRC_CORE_PALETTE_LOAD_BALANCER_H_
#define PALETTE_SRC_CORE_PALETTE_LOAD_BALANCER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/instance_id.h"
#include "src/common/string_hash.h"
#include "src/core/color.h"
#include "src/core/color_scheduling_policy.h"
#include "src/core/plan.h"

namespace palette {

class PaletteLoadBalancer {
 public:
  explicit PaletteLoadBalancer(std::unique_ptr<ColorSchedulingPolicy> policy);

  // Routes one invocation. `color` is the optional locality hint; nullopt
  // routes obliviously. Returns the chosen instance id, or nullopt when the
  // application currently has no instances.
  std::optional<InstanceId> RouteId(const std::optional<Color>& color);

  // String-returning shim over RouteId().
  std::optional<std::string> Route(const std::optional<Color>& color);

  // Scale controller integration.
  void AddInstance(const std::string& instance);
  void RemoveInstance(const std::string& instance);
  const std::vector<std::string>& instances() const { return instances_; }

  // Translates a color to the instance it maps to *without* recording an
  // invocation. Used for Faa$T object-name translation (§5.1): the LB
  // rewrites input/output color prefixes to instance names.
  std::optional<InstanceId> ResolveColorId(const Color& color);
  std::optional<std::string> ResolveColor(const Color& color);

  // Rewrites "<color>___rest" to "<instance>___rest" per §5.1. Names without
  // a hash-key prefix are returned unchanged.
  std::string TranslateObjectName(const std::string& object_name);

  ColorSchedulingPolicy& policy() { return *policy_; }
  const ColorSchedulingPolicy& policy() const { return *policy_; }

  std::uint64_t total_routed() const { return total_routed_; }
  std::uint64_t RoutedTo(const std::string& instance) const;
  std::uint64_t RoutedToId(InstanceId id) const;
  // max/avg invocations routed per instance; load-balance quality metric.
  double RoutingImbalance() const;

  // Hint-outcome counters (docs/OBSERVABILITY.md): a route either carried
  // a color the policy honored, carried no color (oblivious fallback
  // path), or carried a color the policy could not place (no instances —
  // the invocation fails).
  std::uint64_t hints_honored() const { return hints_honored_; }
  std::uint64_t unhinted_routed() const { return unhinted_routed_; }
  std::uint64_t hint_failures() const { return hint_failures_; }

  // Color mappings the policy explicitly remapped because their instance
  // left (failure-aware re-coloring; exported as "lb.recolored"). Retried
  // hints for those colors land on the re-mapped instance instead of
  // routing into a dead one.
  std::uint64_t recolored() const { return policy_->recolored(); }

  // Plan+apply (docs/PLANNER.md). Moves and merges rewrite the policy's
  // color table; splits are intercepted here: a split color's routes fan
  // out across a weighted replica set before the policy is consulted, so
  // splitting works for any planning-capable policy. Entries are applied
  // in the plan's fixed (color-sorted) order: merges, moves, splits.
  void ApplyPlan(const Plan& plan);
  bool supports_planning() const { return policy_->supports_planning(); }

  // Planned-migration counters, kept separate from recolored() so
  // failure-driven and planner-driven movement stay distinguishable
  // ("lb.planner_moves" / "lb.planner_splits" in metrics).
  std::uint64_t planner_moves() const { return policy_->planner_moves(); }
  std::uint64_t planner_splits() const { return planner_splits_; }
  std::uint64_t planner_merges() const { return planner_merges_; }

  // Passive learning for externally routed traffic (docs/PLANNER.md): a
  // route decided by a router replica's view landed `color` on `instance`.
  // Records the per-color count and teaches the policy's table the real
  // placement so a platform-side planner can snapshot it. No-op unless
  // color stats are enabled (the planner runtime enables them).
  void NoteExternalRoute(const Color& color, InstanceId instance);

  // Snapshot-side views (non-mutating; planner collector).
  std::optional<InstanceId> PeekColorId(std::string_view color) const;
  // PeekColorId and the split state in one probe: `primary` is what
  // PeekColorId answers, and `split_members` points at a split color's
  // replica set (null when the color is not split). The pointer is valid
  // while placement_version() does not move.
  struct ColorPlacement {
    std::optional<InstanceId> primary;
    const std::vector<InstanceId>* split_members = nullptr;
  };
  ColorPlacement PeekColorPlacement(std::string_view color) const;
  // Moves whenever PeekColorId may answer differently for some color, or
  // membership changed: every AddInstance/RemoveInstance call, every
  // split-table change in ApplyPlan, and every policy table mutation
  // (ColorSchedulingPolicy::placement_version). Never moves on a route
  // that hits an existing placement. Callers that cache a color's home
  // (the pull matcher) re-resolve it only when this moves.
  std::uint64_t placement_version() const {
    return placement_version_ + policy_->placement_version();
  }
  std::size_t split_count() const { return splits_.size(); }
  bool IsSplit(std::string_view color) const;
  // Current replica set of a split color (empty when not split).
  std::vector<InstanceId> SplitMembers(std::string_view color) const;

  // Opt-in per-color invocation counts. Off by default: the per-route
  // string map insert is exactly the cost the interned hot path removed,
  // so only tracing/debugging sessions should turn it on.
  void set_color_stats_enabled(bool enabled) {
    color_stats_enabled_ = enabled;
  }
  bool color_stats_enabled() const { return color_stats_enabled_; }
  const std::unordered_map<std::string, std::uint64_t>& color_counts() const {
    return color_counts_;
  }
  // Every entry of color_counts() in the order its color was first
  // counted. Counts are never erased, so the pointers stay valid for the
  // balancer's lifetime, and a reader that remembers how many entries it
  // has seen picks up only the colors first counted since.
  using ColorCount = std::pair<const std::string, std::uint64_t>;
  const std::vector<const ColorCount*>& counted_colors() const {
    return counted_colors_;
  }

 private:
  // A hot color sharded across a weighted replica set. Routing walks the
  // weights with a deterministic cursor: over any total_weight consecutive
  // routes each member receives exactly its weight's share.
  struct SplitEntry {
    std::vector<InstanceId> instances;
    std::vector<std::uint32_t> weights;  // parallel; each >= 1
    std::uint64_t cursor = 0;
    std::uint64_t total_weight = 0;
  };

  InstanceId PickSplitMember(SplitEntry& entry);
  void CountColor(const Color& color);

  std::unique_ptr<ColorSchedulingPolicy> policy_;
  std::vector<std::string> instances_;       // name-sorted
  std::vector<InstanceId> instance_ids_;     // parallel to instances_
  // Indexed by global InstanceId; grows on demand. Ids are dense, so this
  // stays a flat array bump instead of a hash lookup per route.
  std::vector<std::uint64_t> routed_counts_;
  std::uint64_t total_routed_ = 0;
  std::uint64_t hints_honored_ = 0;
  std::uint64_t unhinted_routed_ = 0;
  std::uint64_t hint_failures_ = 0;
  bool color_stats_enabled_ = false;
  std::unordered_map<std::string, std::uint64_t> color_counts_;
  std::vector<const ColorCount*> counted_colors_;  // first-counted order
  // Split table, keyed by truncated color. Checked before the policy on
  // every colored route; empty unless a planner installed splits.
  std::unordered_map<std::string, SplitEntry, TransparentStringHash,
                     std::equal_to<>>
      splits_;
  std::uint64_t planner_splits_ = 0;
  std::uint64_t planner_merges_ = 0;
  // This balancer's own share of placement_version(): membership calls
  // and split-table changes.
  std::uint64_t placement_version_ = 0;
};

}  // namespace palette

#endif  // PALETTE_SRC_CORE_PALETTE_LOAD_BALANCER_H_
