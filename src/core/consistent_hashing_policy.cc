#include "src/core/consistent_hashing_policy.h"

namespace palette {

ConsistentHashingPolicy::ConsistentHashingPolicy(std::uint64_t seed)
    : PolicyBase(seed),
      ring_(kRingVirtualNodes, /*seed=*/seed ^ 0xC0115EEDULL) {}

std::optional<InstanceId> ConsistentHashingPolicy::RouteColoredId(
    std::string_view color) {
  return ring_.LookupId(color);
}

void ConsistentHashingPolicy::OnInstanceAdded(const std::string& instance,
                                              InstanceId id) {
  PolicyBase::OnInstanceAdded(instance, id);
  ring_.AddMember(instance, id);
}

void ConsistentHashingPolicy::OnInstanceRemoved(const std::string& instance) {
  PolicyBase::OnInstanceRemoved(instance);
  // The ring remaps the removed member's arc to its successors implicitly;
  // with no per-color table there is no entry count to add to recolored_.
  ring_.RemoveMember(instance);
}

std::size_t ConsistentHashingPolicy::StateBytes() const {
  // The ring stores virtual-node positions per member; no per-color state.
  return ring_.member_count() * static_cast<std::size_t>(kRingVirtualNodes) *
         (sizeof(std::uint64_t) + 16);
}

}  // namespace palette
