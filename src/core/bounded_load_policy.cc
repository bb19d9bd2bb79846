#include "src/core/bounded_load_policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace palette {

BoundedLoadPolicy::BoundedLoadPolicy(std::uint64_t seed,
                                     BoundedLoadConfig config)
    : LeastAssignedPolicy(seed, {config.table_capacity}),
      c_factor_(config.c_factor),
      ring_(kRingVirtualNodes, /*seed=*/seed ^ 0xB07D10ADULL) {
  assert(c_factor_ >= 1.0);
}

std::size_t BoundedLoadPolicy::CapacityPerInstance() const {
  if (instance_ids().empty()) {
    return 0;
  }
  const double average = static_cast<double>(table_size() + 1) /
                         static_cast<double>(instance_ids().size());
  return static_cast<std::size_t>(std::ceil(c_factor_ * average));
}

std::optional<InstanceId> BoundedLoadPolicy::Place(std::string_view key) {
  const std::size_t capacity = CapacityPerInstance();
  ring_.LookupNIds(key, instance_ids().size(), &walk_buffer_);
  for (const InstanceId candidate : walk_buffer_) {
    if (CountOf(candidate) < capacity) {
      return candidate;
    }
  }
  // Every instance at the cap (possible when the table is full of stale
  // mappings).
  return LeastAssignedPolicy::Place(key);
}

void BoundedLoadPolicy::OnInstanceAdded(const std::string& instance) {
  LeastAssignedPolicy::OnInstanceAdded(instance);
  ring_.AddMember(instance);
  // Existing mappings stay put (moving them would trade locality for
  // balance); the newcomer's spare capacity attracts new colors via the
  // capacity test.
}

void BoundedLoadPolicy::OnInstanceRemoved(const std::string& instance) {
  // Leave the ring first: the removed instance's colors then re-walk the
  // shrunken ring order, preserving the bounded-load invariant.
  ring_.RemoveMember(instance);
  LeastAssignedPolicy::OnInstanceRemoved(instance);
}

double BoundedLoadPolicy::RelativeMaxAssigned() const {
  if (instance_ids().empty() || table_size() == 0) {
    return 0;
  }
  std::size_t max = 0;
  std::size_t total = 0;
  for (const InstanceId id : instance_ids()) {
    const std::size_t count = CountOf(id);
    max = std::max(max, count);
    total += count;
  }
  const double avg = static_cast<double>(total) /
                     static_cast<double>(instance_ids().size());
  return avg > 0 ? static_cast<double>(max) / avg : 0;
}

std::size_t BoundedLoadPolicy::StateBytes() const {
  return LeastAssignedPolicy::StateBytes() +
         ring_.member_count() * static_cast<std::size_t>(kRingVirtualNodes) *
             (sizeof(std::uint64_t) + 16);
}

}  // namespace palette
