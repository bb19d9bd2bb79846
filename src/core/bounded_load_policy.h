// Consistent Hashing with Bounded Loads — research extension.
//
// The paper's Consistent Hashing policy needs no per-color state but
// "produces load imbalance that can significantly impact the runtime of
// functions", citing Mirrokni, Thorup & Zadimoghaddam [57] for the fix.
// This policy implements that fix in Palette's setting, going beyond what
// the paper evaluates (it is NOT one of the paper's three policies):
//
//   * A color walks its consistent-hash ring order and settles on the
//     first instance whose assigned-color count is below the capacity
//     ceil(c_factor * average), guaranteeing max/avg <= c_factor.
//   * Settled mappings are remembered in Least Assigned's LRU-capped color
//     table (this class derives from it and overrides only Place()), so
//     routing stays sticky and plans, passive learning and eviction behave
//     exactly as under LA.
//   * On membership change only colors that must move do: mappings to
//     removed instances re-walk their ring order; everything else stays —
//     the property plain LA lacks, since LA's least-loaded choice ignores
//     the ring.
#ifndef PALETTE_SRC_CORE_BOUNDED_LOAD_POLICY_H_
#define PALETTE_SRC_CORE_BOUNDED_LOAD_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/least_assigned_policy.h"
#include "src/hash/consistent_hash_ring.h"

namespace palette {

struct BoundedLoadConfig {
  // Load cap factor c: an instance accepts a new color only while its
  // assigned count < ceil(c * average). Mirrokni et al. recommend small
  // constants; 1.25 keeps relative max load below 1.25 with short walks.
  double c_factor = 1.25;
  std::size_t table_capacity = kDefaultColorTableCapacity;
};

class BoundedLoadPolicy : public LeastAssignedPolicy {
 public:
  explicit BoundedLoadPolicy(std::uint64_t seed, BoundedLoadConfig config = {});

  void OnInstanceAdded(const std::string& instance) override;
  void OnInstanceRemoved(const std::string& instance) override;
  std::size_t StateBytes() const override;
  std::string_view name() const override {
    return "Palette: CH Bounded Loads";
  }

  // Relative maximum assigned-color load (max/avg); bounded by c_factor
  // whenever every instance's count is at the walk's mercy (i.e. table not
  // dominated by stale mappings). Planned remaps may exceed the walk's
  // bound until organic churn restores it.
  double RelativeMaxAssigned() const;

 protected:
  // First instance in `key`'s ring order with spare capacity (falls back
  // to Least Assigned's rule when every instance is at the cap).
  std::optional<InstanceId> Place(std::string_view key) override;

 private:
  std::size_t CapacityPerInstance() const;

  double c_factor_;
  ConsistentHashRing ring_;
  std::vector<InstanceId> walk_buffer_;  // scratch for ring walks
};

}  // namespace palette

#endif  // PALETTE_SRC_CORE_BOUNDED_LOAD_POLICY_H_
