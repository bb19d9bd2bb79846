#include "src/core/palette_load_balancer.h"

#include <algorithm>
#include <cassert>

#include "src/cache/faast_cache.h"

namespace palette {

PaletteLoadBalancer::PaletteLoadBalancer(
    std::unique_ptr<ColorSchedulingPolicy> policy)
    : policy_(std::move(policy)) {
  assert(policy_ != nullptr);
}

std::optional<InstanceId> PaletteLoadBalancer::RouteId(
    const std::optional<Color>& color) {
  std::optional<InstanceId> instance;
  if (color.has_value() && !splits_.empty()) {
    const auto split_it = splits_.find(TruncateColor(*color));
    if (split_it != splits_.end()) {
      instance = PickSplitMember(split_it->second);
    }
  }
  if (!instance.has_value()) {
    instance = color.has_value() ? policy_->RouteColoredId(*color)
                                 : policy_->RouteUncoloredId();
  }
  if (instance.has_value()) {
    ++total_routed_;
    if (color.has_value()) {
      ++hints_honored_;
      if (color_stats_enabled_) {
        CountColor(*color);
      }
    } else {
      ++unhinted_routed_;
    }
    assert(*instance < slots_.size());  // policies route to members only
    ++slots_[*instance].routed;
  } else if (color.has_value()) {
    ++hint_failures_;
  }
  return instance;
}

std::optional<std::string> PaletteLoadBalancer::Route(
    const std::optional<Color>& color) {
  const auto id = RouteId(color);
  if (!id.has_value()) {
    return std::nullopt;
  }
  return MemberName(*id);
}

void PaletteLoadBalancer::AddInstance(const std::string& instance,
                                      InstanceId id) {
  ++placement_version_;
  const auto at = FindMember(instance);
  if (at != instance_ids_.end() && slots_[*at].name == instance) {
    return;
  }
  instance_ids_.insert(at, id);
  if (id >= slots_.size()) {
    slots_.resize(id + 1);
  }
  slots_[id].name = instance;
  policy_->OnInstanceAdded(instance, id);
}

void PaletteLoadBalancer::RemoveInstance(const std::string& instance) {
  ++placement_version_;
  const auto it = FindMember(instance);
  if (it == instance_ids_.end() || slots_[*it].name != instance) {
    return;
  }
  const InstanceId id = *it;
  // Ids are reused when a name rejoins, so the per-id routing
  // counter must die with the membership — otherwise a removed-then-re-added
  // instance starts with the dead incarnation's count (counter
  // bleed-through).
  slots_[id].routed = 0;
  instance_ids_.erase(it);
  // Prune the departed instance from split replica sets; a split that
  // loses all members collapses back to plain policy routing.
  for (auto split_it = splits_.begin(); split_it != splits_.end();) {
    SplitEntry& entry = split_it->second;
    for (std::size_t i = 0; i < entry.instances.size();) {
      if (entry.instances[i] == id) {
        entry.total_weight -= entry.weights[i];
        entry.instances.erase(entry.instances.begin() + i);
        entry.weights.erase(entry.weights.begin() + i);
      } else {
        ++i;
      }
    }
    if (entry.instances.empty()) {
      split_it = splits_.erase(split_it);
    } else {
      ++split_it;
    }
  }
  policy_->OnInstanceRemoved(instance);
}

std::optional<InstanceId> PaletteLoadBalancer::ResolveColorId(
    const Color& color) {
  if (!splits_.empty()) {
    // Object names of a split color translate to the primary (first,
    // heaviest-weighted) member, so the color's cached objects stay
    // findable at one home while routes fan out.
    const auto split_it = splits_.find(TruncateColor(color));
    if (split_it != splits_.end()) {
      return split_it->second.instances.front();
    }
  }
  return policy_->RouteColoredId(color);
}

std::optional<std::string> PaletteLoadBalancer::ResolveColor(
    const Color& color) {
  const auto id = ResolveColorId(color);
  if (!id.has_value()) {
    return std::nullopt;
  }
  return MemberName(*id);
}

std::string PaletteLoadBalancer::TranslateObjectName(
    const std::string& object_name) {
  const std::size_t pos = object_name.find(kHashKeyToken);
  if (pos == std::string::npos || pos == 0) {
    // No hash-key prefix, or an empty one ("___rest"): nothing to
    // translate. An empty color is not a hint, and resolving it would
    // fabricate an empty-color mapping in the policy's table.
    return object_name;
  }
  // Names with several separators ("a___b___c") split at the first one:
  // the prefix is "a", the rest ("___b___c") is carried through verbatim.
  const auto instance =
      ResolveColorId(object_name.substr(0, pos));
  if (!instance.has_value()) {
    // The prefix resolves to no instance (empty membership): leave the
    // name untranslated; the cache will hash it by its raw prefix.
    return object_name;
  }
  return MemberName(*instance) + object_name.substr(pos);
}

std::uint64_t PaletteLoadBalancer::RoutedToId(InstanceId id) const {
  return id < slots_.size() ? slots_[id].routed : 0;
}

std::uint64_t PaletteLoadBalancer::RoutedTo(const std::string& instance) const {
  const auto it = FindMember(instance);
  return it != instance_ids_.end() && slots_[*it].name == instance
             ? RoutedToId(*it)
             : 0;
}

std::vector<InstanceId>::const_iterator PaletteLoadBalancer::FindMember(
    const std::string& instance) const {
  return std::lower_bound(
      instance_ids_.begin(), instance_ids_.end(), instance,
      [this](InstanceId id, const std::string& name) {
        return slots_[id].name < name;
      });
}

InstanceId PaletteLoadBalancer::PickSplitMember(SplitEntry& entry) {
  assert(!entry.instances.empty());
  assert(entry.total_weight > 0);
  std::uint64_t slot = entry.cursor++ % entry.total_weight;
  for (std::size_t i = 0; i < entry.weights.size(); ++i) {
    if (slot < entry.weights[i]) {
      return entry.instances[i];
    }
    slot -= entry.weights[i];
  }
  return entry.instances.back();  // Unreachable with consistent weights.
}

void PaletteLoadBalancer::ApplyPlan(const Plan& plan) {
  // The policy sees the whole plan first: it re-homes moved and merged
  // colors and points split colors at their primary, so its table stays a
  // valid single-instance view underneath the split fan-out.
  policy_->ApplyPlan(plan);
  for (const PlanMerge& merge : plan.merges) {
    const auto split_it = splits_.find(TruncateColor(merge.color));
    if (split_it != splits_.end()) {
      splits_.erase(split_it);
      ++planner_merges_;
      ++placement_version_;
    }
  }
  for (const PlanSplit& split : plan.splits) {
    if (split.instances.empty() ||
        split.instances.size() != split.weights.size()) {
      continue;
    }
    // Keep only members that are still registered — a plan may race a
    // crash between snapshot and apply.
    SplitEntry entry;
    for (std::size_t i = 0; i < split.instances.size(); ++i) {
      if (std::find(instance_ids_.begin(), instance_ids_.end(),
                    split.instances[i]) == instance_ids_.end()) {
        continue;
      }
      entry.instances.push_back(split.instances[i]);
      const std::uint32_t weight = split.weights[i] > 0 ? split.weights[i] : 1;
      entry.weights.push_back(weight);
      entry.total_weight += weight;
    }
    if (entry.instances.size() < 2) {
      // Nothing left to fan out across; drop any stale split instead.
      const auto stale_it = splits_.find(TruncateColor(split.color));
      if (stale_it != splits_.end()) {
        splits_.erase(stale_it);
        ++placement_version_;
      }
      continue;
    }
    splits_[std::string(TruncateColor(split.color))] = std::move(entry);
    ++planner_splits_;
    ++placement_version_;
  }
}

void PaletteLoadBalancer::NoteExternalRoute(const Color& color,
                                            InstanceId instance) {
  if (!color_stats_enabled_) {
    return;
  }
  CountColor(color);
  policy_->ObserveRoute(color, instance);
}

void PaletteLoadBalancer::CountColor(const Color& color) {
  const auto [it, inserted] = color_counts_.try_emplace(color, 0);
  if (inserted) {
    counted_colors_.push_back(&*it);
  }
  ++it->second;
}

std::optional<InstanceId> PaletteLoadBalancer::PeekColorId(
    std::string_view color) const {
  return PeekColorPlacement(color).primary;
}

PaletteLoadBalancer::ColorPlacement PaletteLoadBalancer::PeekColorPlacement(
    std::string_view color) const {
  if (!splits_.empty()) {
    const auto split_it = splits_.find(TruncateColor(color));
    if (split_it != splits_.end()) {
      return {split_it->second.instances.front(),
              &split_it->second.instances};
    }
  }
  return {policy_->PeekColorId(color), nullptr};
}

bool PaletteLoadBalancer::IsSplit(std::string_view color) const {
  return splits_.find(TruncateColor(color)) != splits_.end();
}

std::vector<InstanceId> PaletteLoadBalancer::SplitMembers(
    std::string_view color) const {
  const auto split_it = splits_.find(TruncateColor(color));
  if (split_it == splits_.end()) {
    return {};
  }
  return split_it->second.instances;
}

double PaletteLoadBalancer::RoutingImbalance() const {
  if (instance_ids_.empty() || total_routed_ == 0) {
    return 0;
  }
  std::uint64_t max = 0;
  for (const InstanceId id : instance_ids_) {
    max = std::max(max, RoutedToId(id));
  }
  const double avg = static_cast<double>(total_routed_) /
                     static_cast<double>(instance_ids_.size());
  return static_cast<double>(max) / avg;
}

}  // namespace palette
