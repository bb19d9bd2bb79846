#include "src/core/least_assigned_policy.h"

#include <algorithm>
#include <cassert>

namespace palette {

LeastAssignedPolicy::LeastAssignedPolicy(std::uint64_t seed,
                                         LeastAssignedConfig config)
    : PolicyBase(seed), table_capacity_(config.table_capacity) {
  assert(table_capacity_ > 0);
}

std::optional<InstanceId> LeastAssignedPolicy::RouteColoredId(
    std::string_view color) {
  if (instance_ids().empty()) {
    return std::nullopt;
  }
  const std::string_view key = TruncateColor(color);
  auto it = table_.find(key);
  if (it != table_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    if (it->second->instance == kInvalidInstanceId) {
      // Mapping went dormant while no instances existed; reassign now.
      const auto revived = Place(key);
      assert(revived.has_value());
      it->second->instance = *revived;
      ++assigned_counts_[*revived];
      ++placement_version_;
    }
    return it->second->instance;
  }
  const auto target = Place(key);
  assert(target.has_value());
  if (table_.size() >= table_capacity_) {
    EvictLru();
  }
  lru_.push_front(Entry{std::string(key), *target});
  table_.emplace(lru_.front().color, lru_.begin());
  ++assigned_counts_[*target];
  ++placement_version_;
  return target;
}

void LeastAssignedPolicy::OnInstanceAdded(const std::string& instance) {
  PolicyBase::OnInstanceAdded(instance);
  assigned_counts_.try_emplace(InternInstance(instance), 0);
}

void LeastAssignedPolicy::OnInstanceRemoved(const std::string& instance) {
  PolicyBase::OnInstanceRemoved(instance);
  const auto removed = InstanceRegistry::Global().Find(instance);
  if (!removed.has_value()) {
    return;
  }
  assigned_counts_.erase(*removed);
  // Redistribute the removed instance's colors with the same policy,
  // walking from most- to least-recently used so hot colors get first pick
  // of the least-loaded instances. Each moved (or dormant-marked) entry is
  // a re-colored mapping: a retried hint will land on the new instance.
  for (auto& entry : lru_) {
    if (entry.instance != *removed) {
      continue;
    }
    ++recolored_;
    ++placement_version_;
    const auto target = Place(entry.color);
    if (!target.has_value()) {
      entry.instance = kInvalidInstanceId;  // No instances left; dormant.
      continue;
    }
    entry.instance = *target;
    ++assigned_counts_[*target];
  }
}

void LeastAssignedPolicy::RemapColor(std::string_view color, InstanceId to,
                                     bool count_move) {
  // Only remap onto live members — a plan computed against a snapshot may
  // race a crash; the stale entry is then left for failure re-coloring.
  if (assigned_counts_.find(to) == assigned_counts_.end()) {
    return;
  }
  const std::string_view key = TruncateColor(color);
  auto it = table_.find(key);
  if (it != table_.end()) {
    if (it->second->instance == to) {
      return;
    }
    auto old_it = assigned_counts_.find(it->second->instance);
    if (old_it != assigned_counts_.end() && old_it->second > 0) {
      --old_it->second;
    }
    it->second->instance = to;
  } else {
    if (table_.size() >= table_capacity_) {
      EvictLru();
    }
    lru_.push_front(Entry{std::string(key), to});
    table_.emplace(lru_.front().color, lru_.begin());
  }
  ++assigned_counts_[to];
  ++placement_version_;
  if (count_move) {
    ++planner_moves_;
  }
}

void LeastAssignedPolicy::ApplyPlan(const Plan& plan) {
  // Fixed order (plan.h): merges, then moves, then split primaries. The
  // policy keeps the single-instance view; the load balancer's split table
  // fans the split colors out above us.
  for (const PlanMerge& merge : plan.merges) {
    RemapColor(merge.color, merge.to, /*count_move=*/true);
  }
  for (const PlanMove& move : plan.moves) {
    RemapColor(move.color, move.to, /*count_move=*/true);
  }
  for (const PlanSplit& split : plan.splits) {
    if (!split.instances.empty()) {
      RemapColor(split.color, split.instances.front(), /*count_move=*/false);
    }
  }
}

void LeastAssignedPolicy::ObserveRoute(std::string_view color,
                                       InstanceId instance) {
  RemapColor(color, instance, /*count_move=*/false);
}

std::optional<InstanceId> LeastAssignedPolicy::PeekColorId(
    std::string_view color) const {
  const std::string_view key = TruncateColor(color);
  const auto it = table_.find(key);
  if (it == table_.end() || it->second->instance == kInvalidInstanceId) {
    return std::nullopt;
  }
  return it->second->instance;
}

std::size_t LeastAssignedPolicy::CountOf(InstanceId id) const {
  const auto it = assigned_counts_.find(id);
  return it == assigned_counts_.end() ? 0 : it->second;
}

std::optional<InstanceId> LeastAssignedPolicy::Place(
    std::string_view /*key*/) {
  std::optional<InstanceId> best;
  std::size_t best_count = 0;
  for (const InstanceId id : instance_ids()) {
    const std::size_t count = CountOf(id);
    if (!best.has_value() || count < best_count) {
      best = id;
      best_count = count;
    }
  }
  return best;
}

void LeastAssignedPolicy::EvictLru() {
  assert(!lru_.empty());
  const Entry& victim = lru_.back();
  auto count_it = assigned_counts_.find(victim.instance);
  if (count_it != assigned_counts_.end() && count_it->second > 0) {
    --count_it->second;
  }
  table_.erase(victim.color);
  lru_.pop_back();
  ++evictions_;
  ++placement_version_;
}

std::size_t LeastAssignedPolicy::AssignedCount(
    const std::string& instance) const {
  const auto id = InstanceRegistry::Global().Find(instance);
  return id.has_value() ? CountOf(*id) : 0;
}

std::optional<std::string> LeastAssignedPolicy::LookupColor(
    std::string_view color) const {
  const std::string_view key = TruncateColor(color);
  const auto it = table_.find(key);
  if (it == table_.end() || it->second->instance == kInvalidInstanceId) {
    return std::nullopt;
  }
  return InstanceName(it->second->instance);
}

std::size_t LeastAssignedPolicy::StateBytes() const {
  // Paper-accounting model (§5): truncated color key plus instance id per
  // entry — 16,384 entries at 32-byte colors stays near the 512 KB budget.
  return table_.size() * (kMaxColorBytes + 16);
}

}  // namespace palette
