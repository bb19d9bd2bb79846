// Consistent hashing ring with virtual nodes (Karger et al.), used by:
//   * the Consistent Hashing color scheduling policy (§5, Table 1), and
//   * the Faa$T-style cache to locate an object's home instance (§5.1).
//
// One property of the paper's design depends on: looking up a key that *is*
// a member name returns that member ("the consistent hashing function is the
// identity function when the argument is the name of one of the members of
// the ring", §5.1). The ring guarantees this by registering an exact-match
// table alongside the virtual-node ring.
//
// Representation: lookups are per-invocation while membership changes are
// rare scale events, so the ring is a flat position-sorted std::vector
// searched with binary search, rebuilt lazily after membership changes
// (previously a std::map with per-node allocation and pointer-chasing
// successor walks). Members carry interned InstanceIds so the routing hot
// path (LookupId/LookupNIds) never materializes name strings.
#ifndef PALETTE_SRC_HASH_CONSISTENT_HASH_RING_H_
#define PALETTE_SRC_HASH_CONSISTENT_HASH_RING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/instance_id.h"
#include "src/common/string_hash.h"

namespace palette {

// Virtual nodes per member of the policies' rings (and the default for
// every other ring).
inline constexpr int kRingVirtualNodes = 128;

class ConsistentHashRing {
 public:
  // `virtual_nodes` ring positions are created per member; more virtual
  // nodes smooth the key distribution at the cost of memory.
  explicit ConsistentHashRing(int virtual_nodes = kRingVirtualNodes,
                              std::uint64_t seed = 0x9A1E5EEDULL);

  // Adds a member. Returns false (no-op) if already present.
  bool AddMember(const std::string& member);

  // Removes a member. Returns false (no-op) if absent.
  bool RemoveMember(const std::string& member);

  bool Contains(const std::string& member) const;
  std::size_t member_count() const { return members_.size(); }
  std::vector<std::string> Members() const;

  // Maps a key to a member. If `key` equals a member name the result is that
  // member (identity property). Returns nullopt when the ring is empty.
  std::optional<std::string> Lookup(std::string_view key) const;

  // Id-returning Lookup for the routing hot path.
  std::optional<InstanceId> LookupId(std::string_view key) const;

  // Like Lookup but walks the ring to return up to `count` distinct members
  // (replica set order). Used by tests and by replication experiments.
  std::vector<std::string> LookupN(std::string_view key,
                                   std::size_t count) const;

  // Allocation-free LookupN: clears `*out` and appends up to `count`
  // distinct member ids in ring-successor order.
  void LookupNIds(std::string_view key, std::size_t count,
                  std::vector<InstanceId>* out) const;

 private:
  struct Member {
    std::string name;
    InstanceId id;
  };
  // Virtual node: ring position plus the index of its member in members_.
  struct VNode {
    std::uint64_t pos;
    std::uint32_t member_index;
  };

  // Rebuilds the sorted vnode vector if membership changed since the last
  // lookup. On the (astronomically unlikely) collision of two virtual-node
  // positions the earlier-added member wins, matching the previous
  // std::map::emplace semantics.
  void RebuildIfDirty() const;

  // Index of the first vnode with position >= pos, wrapping to 0 past the
  // end. Requires a non-empty, clean ring.
  std::size_t SuccessorIndex(std::uint64_t pos) const;

  int virtual_nodes_;
  std::uint64_t seed_;
  std::vector<Member> members_;  // insertion order (collision tie-break)
  std::unordered_map<std::string, std::uint32_t, TransparentStringHash,
                     std::equal_to<>>
      member_index_;             // name -> index into members_
  mutable std::vector<VNode> ring_;  // sorted by pos when !dirty_
  mutable bool dirty_ = false;
};

}  // namespace palette

#endif  // PALETTE_SRC_HASH_CONSISTENT_HASH_RING_H_
