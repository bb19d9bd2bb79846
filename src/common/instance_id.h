// Interned instance identifiers.
//
// Application instances are named by strings ("w0", "g1w17", ...) at the
// API surface, but the routing hot path — color tables, routed counts,
// worker maps — keys them by a dense InstanceId: ids hash as integers,
// compare in one instruction, and index flat per-instance tables.
//
// An InstanceTable assigns those ids. Whoever owns a set of instances owns
// the table: each FaasPlatform has one, and a standalone load balancer's
// caller keeps one beside it. Ids are assigned only where an instance
// joins, in join order starting at 0, and flow down with the membership
// notification as a (name, id) pair; the balancer, its policies, rings and
// the cache store that pair and never intern. So a run's ids, and every
// tie-break that compares them, depend on its own join order alone — never
// on what else the process built before it. The table is append-only: an
// instance that leaves and rejoins under its name keeps its id.
//
// A table is not shared across threads; each event-core domain owns the
// platforms, and so the tables, it drives. It holds one owner's instances
// (tens), and names are looked up on joins, leaves, storage replays and
// planner collects, never per route, so Find scans the names rather than
// keep a hash index, whose per-name nodes would cost every platform's
// set-up more allocations than the scan costs time.
#ifndef PALETTE_SRC_COMMON_INSTANCE_ID_H_
#define PALETTE_SRC_COMMON_INSTANCE_ID_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace palette {

using InstanceId = std::uint32_t;

inline constexpr InstanceId kInvalidInstanceId = 0xFFFFFFFFu;

class InstanceTable {
 public:
  // Returns the id for `name`, assigning the next one on first sight.
  InstanceId Intern(std::string_view name);

  // Returns the id for `name` if it was ever interned here; never assigns.
  std::optional<InstanceId> Find(std::string_view name) const;

  // Name for an id this table assigned. The reference is valid until the
  // next Intern.
  const std::string& NameOf(InstanceId id) const { return names_[id]; }

  std::size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;  // index == id
};

}  // namespace palette

#endif  // PALETTE_SRC_COMMON_INSTANCE_ID_H_
