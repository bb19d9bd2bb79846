#include "src/hash/consistent_hash_ring.h"

#include <algorithm>
#include <cassert>

#include "src/hash/hash.h"

namespace palette {

ConsistentHashRing::ConsistentHashRing(int virtual_nodes, std::uint64_t seed)
    : virtual_nodes_(virtual_nodes), seed_(seed) {}

bool ConsistentHashRing::AddMember(const std::string& member, InstanceId id) {
  if (member_index_.find(member) != member_index_.end()) {
    return false;
  }
  member_index_.emplace(member,
                        static_cast<std::uint32_t>(members_.size()));
  members_.push_back(Member{member, id});
  dirty_ = true;
  return true;
}

bool ConsistentHashRing::RemoveMember(const std::string& member) {
  const auto it = member_index_.find(member);
  if (it == member_index_.end()) {
    return false;
  }
  members_.erase(members_.begin() + it->second);
  // Indices above the removed slot shifted down; rebuild the index map
  // (membership churn is rare, lookups are the hot path).
  member_index_.clear();
  for (std::uint32_t i = 0; i < members_.size(); ++i) {
    member_index_.emplace(members_[i].name, i);
  }
  dirty_ = true;
  return true;
}

std::optional<InstanceId> ConsistentHashRing::MemberId(
    std::string_view member) const {
  const auto it = member_index_.find(member);
  if (it == member_index_.end()) {
    return std::nullopt;
  }
  return members_[it->second].id;
}

void ConsistentHashRing::RebuildIfDirty() const {
  if (!dirty_) {
    return;
  }
  ring_.clear();
  ring_.reserve(members_.size() * static_cast<std::size_t>(virtual_nodes_));
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    for (int i = 0; i < virtual_nodes_; ++i) {
      const std::uint64_t pos =
          Murmur3_64(members_[m].name, seed_ + static_cast<std::uint64_t>(i));
      ring_.push_back(VNode{pos, m});
    }
  }
  // stable_sort keeps insertion order among equal positions, so the
  // earlier-added member wins a collision; the duplicate is then dropped.
  std::stable_sort(ring_.begin(), ring_.end(),
                   [](const VNode& a, const VNode& b) { return a.pos < b.pos; });
  ring_.erase(std::unique(ring_.begin(), ring_.end(),
                          [](const VNode& a, const VNode& b) {
                            return a.pos == b.pos;
                          }),
              ring_.end());
  dirty_ = false;
}

std::size_t ConsistentHashRing::SuccessorIndex(std::uint64_t pos) const {
  assert(!ring_.empty());
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), pos,
      [](const VNode& node, std::uint64_t p) { return node.pos < p; });
  if (it == ring_.end()) {
    return 0;
  }
  return static_cast<std::size_t>(it - ring_.begin());
}

std::optional<InstanceId> ConsistentHashRing::LookupId(
    std::string_view key) const {
  if (members_.empty()) {
    return std::nullopt;
  }
  // Identity property (§5.1): a member name maps to itself.
  if (const auto it = member_index_.find(key); it != member_index_.end()) {
    return members_[it->second].id;
  }
  RebuildIfDirty();
  const std::size_t index = SuccessorIndex(Murmur3_64(key, seed_));
  return members_[ring_[index].member_index].id;
}

std::optional<std::string> ConsistentHashRing::Lookup(
    std::string_view key) const {
  if (members_.empty()) {
    return std::nullopt;
  }
  if (const auto it = member_index_.find(key); it != member_index_.end()) {
    return members_[it->second].name;
  }
  RebuildIfDirty();
  const std::size_t index = SuccessorIndex(Murmur3_64(key, seed_));
  return members_[ring_[index].member_index].name;
}

void ConsistentHashRing::LookupNIds(std::string_view key, std::size_t count,
                                    std::vector<InstanceId>* out) const {
  out->clear();
  if (members_.empty() || count == 0) {
    return;
  }
  RebuildIfDirty();
  count = std::min(count, members_.size());
  std::size_t index = SuccessorIndex(Murmur3_64(key, seed_));
  while (out->size() < count) {
    const InstanceId id = members_[ring_[index].member_index].id;
    if (std::find(out->begin(), out->end(), id) == out->end()) {
      out->push_back(id);
    }
    index = index + 1 == ring_.size() ? 0 : index + 1;
  }
}

}  // namespace palette
