#include "src/core/replicated_policy.h"

#include <algorithm>
#include <cassert>

namespace palette {

ReplicatedColorPolicy::ReplicatedColorPolicy(std::uint64_t seed,
                                             ReplicatedColorConfig config)
    : PolicyBase(seed),
      config_(config),
      ring_(kRingVirtualNodes, /*seed=*/seed ^ 0x5E7A11CAULL) {
  assert(config_.replicas >= 1);
  assert(config_.table_capacity > 0);
}

std::vector<std::string> ReplicatedColorPolicy::ReplicaSetOf(
    std::string_view color) const {
  return ring_.LookupN(TruncateColor(color),
                       static_cast<std::size_t>(config_.replicas));
}

bool ReplicatedColorPolicy::IsHot(std::string_view color) const {
  if (!config_.adaptive) {
    return true;
  }
  const std::string_view key = TruncateColor(color);
  const auto it = table_.find(key);
  return it != table_.end() && it->second->hot;
}

void ReplicatedColorPolicy::MaybeDecay() {
  if (!config_.adaptive ||
      ++routes_since_decay_ < config_.decay_interval) {
    return;
  }
  routes_since_decay_ = 0;
  window_total_ = 0;
  for (auto& entry : lru_) {
    entry.count /= 2;
    window_total_ += entry.count;
  }
}

std::optional<InstanceId> ReplicatedColorPolicy::RouteColoredId(
    std::string_view color) {
  if (instance_ids().empty()) {
    return std::nullopt;
  }
  const std::string_view key = TruncateColor(color);

  auto it = table_.find(key);
  if (it == table_.end()) {
    if (table_.size() >= config_.table_capacity) {
      const Entry& victim = lru_.back();
      window_total_ -= std::min(window_total_, victim.count);
      table_.erase(victim.color);
      lru_.pop_back();
    }
    lru_.push_front(Entry{std::string(key), 0, 0});
    it = table_.emplace(lru_.front().color, lru_.begin()).first;
  } else {
    lru_.splice(lru_.begin(), lru_, it->second);
  }
  ++it->second->count;
  ++window_total_;
  MaybeDecay();

  if (config_.adaptive && window_total_ > 0) {
    // Hysteresis: enter hot at share > θ, exit only below θ/2. Decay
    // halves every count and the window total together, so decay alone
    // never flips the state — only a real share change does.
    const double share = static_cast<double>(it->second->count) /
                         static_cast<double>(window_total_);
    if (!it->second->hot && share > config_.hot_share_threshold) {
      it->second->hot = true;
    } else if (it->second->hot &&
               share < config_.hot_share_threshold / 2) {
      it->second->hot = false;
    }
  }

  // Hot colors spread over the full replica set; cold ones keep one
  // instance (full locality). Non-adaptive mode treats everything as hot.
  const std::size_t set_size =
      IsHot(key) ? static_cast<std::size_t>(config_.replicas) : 1;
  ring_.LookupNIds(key, set_size, &replica_buffer_);
  assert(!replica_buffer_.empty());
  const std::uint32_t cursor = it->second->cursor++;
  return replica_buffer_[cursor % replica_buffer_.size()];
}

void ReplicatedColorPolicy::OnInstanceAdded(const std::string& instance) {
  PolicyBase::OnInstanceAdded(instance);
  ring_.AddMember(instance);
}

void ReplicatedColorPolicy::OnInstanceRemoved(const std::string& instance) {
  PolicyBase::OnInstanceRemoved(instance);
  ring_.RemoveMember(instance);
}

std::size_t ReplicatedColorPolicy::StateBytes() const {
  return table_.size() * (kMaxColorBytes + sizeof(std::uint32_t)) +
         ring_.member_count() * static_cast<std::size_t>(kRingVirtualNodes) *
             (sizeof(std::uint64_t) + 16);
}

}  // namespace palette
