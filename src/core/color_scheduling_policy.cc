#include "src/core/color_scheduling_policy.h"

#include <algorithm>
#include <cassert>

namespace palette {

void PolicyBase::OnInstanceAdded(const std::string& instance, InstanceId id) {
  auto it = std::lower_bound(instances_.begin(), instances_.end(), instance);
  if (it != instances_.end() && *it == instance) {
    return;
  }
  const auto index = it - instances_.begin();
  instances_.insert(it, instance);
  instance_ids_.insert(instance_ids_.begin() + index, id);
}

void PolicyBase::OnInstanceRemoved(const std::string& instance) {
  auto it = std::lower_bound(instances_.begin(), instances_.end(), instance);
  if (it != instances_.end() && *it == instance) {
    instance_ids_.erase(instance_ids_.begin() + (it - instances_.begin()));
    instances_.erase(it);
  }
}

std::optional<InstanceId> PolicyBase::RouteUncoloredId() {
  return RandomInstance();
}

std::optional<InstanceId> PolicyBase::RandomInstance() {
  if (instance_ids_.empty()) {
    return std::nullopt;
  }
  return instance_ids_[rng_.NextBelow(instance_ids_.size())];
}

std::optional<InstanceId> PolicyBase::MemberId(
    const std::string& instance) const {
  const auto it =
      std::lower_bound(instances_.begin(), instances_.end(), instance);
  if (it == instances_.end() || *it != instance) {
    return std::nullopt;
  }
  return instance_ids_[static_cast<std::size_t>(it - instances_.begin())];
}

const std::string& PolicyBase::MemberName(InstanceId id) const {
  const auto it = std::find(instance_ids_.begin(), instance_ids_.end(), id);
  assert(it != instance_ids_.end());
  return instances_[static_cast<std::size_t>(it - instance_ids_.begin())];
}

}  // namespace palette
