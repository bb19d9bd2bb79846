// Bucket Hashing (BH) color scheduling policy (§5, Table 1).
//
// I(c) = BT[H_B(c)]: colors hash into a fixed set of B buckets (default
// 16,384, the Redis cluster slot count), and buckets are assigned to
// instances so as to balance the per-instance color load. The optimal
// assignment is NP-hard; a greedy "assign to the least-loaded instance"
// rule is a 2-approximation (Graham 1966).
//
// Per the paper, the load balancer tracks an approximate count of colors
// recently mapped to each bucket with a pair of HyperLogLog windows: a new
// sketch starts every 30 minutes and the previous window is retained. On
// each rebalance the two windows are merged and buckets are moved from the
// most- to the least-loaded instance until the relative maximum load
// (max/avg colors per instance) drops below a threshold (2.0, from Fig. 5).
//
// Hot path: RouteColoredId hashes the color string exactly once; the digest
// selects the bucket and (remixed) feeds the bucket's sketch. Bucket owners
// are interned InstanceIds, so routing never touches instance names.
#ifndef PALETTE_SRC_CORE_BUCKET_HASHING_POLICY_H_
#define PALETTE_SRC_CORE_BUCKET_HASHING_POLICY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/color_scheduling_policy.h"
#include "src/sketch/hyperloglog.h"

namespace palette {

struct BucketHashingConfig {
  std::size_t bucket_count = kDefaultBucketCount;
  // HLL precision per bucket; p=8 (256 registers, ~6.5% error, 256 B) keeps
  // total sketch memory at bucket_count * 256 B = 4 MiB per application.
  int hll_precision = 8;
  double rebalance_threshold = 2.0;
  // Safety valve for the rebalance loop.
  int max_moves_per_rebalance = 4096;
};

class BucketHashingPolicy : public PolicyBase {
 public:
  explicit BucketHashingPolicy(std::uint64_t seed,
                               BucketHashingConfig config = {});

  std::optional<InstanceId> RouteColoredId(std::string_view color) override;
  void OnInstanceAdded(const std::string& instance, InstanceId id) override;
  void OnInstanceRemoved(const std::string& instance) override;
  std::size_t StateBytes() const override;
  std::string_view name() const override { return "Palette: Bucket Hashing"; }

  // Rotates every bucket's HLL window; call on the 30-minute boundary.
  void RotateWindows();

  // Runs the greedy rebalance. Returns the number of bucket moves made.
  int Rebalance();

  // Relative maximum load (max/avg estimated colors per instance) under the
  // current assignment; 0 when no instances.
  double CurrentRelativeMaxLoad() const;

  std::size_t bucket_count() const { return buckets_.size(); }
  // Owner of bucket `b`; empty before any instance exists.
  const std::string& BucketOwner(std::size_t b) const;

 private:
  struct Bucket {
    InstanceId owner = kInvalidInstanceId;
    WindowedHyperLogLog colors;
    explicit Bucket(int precision) : colors(precision) {}
  };

  // Estimated color load per instance under the current assignment.
  std::unordered_map<InstanceId, double> InstanceLoads() const;
  // Reassigns bucket `index` to owner `to`, keeping the owner lists in sync.
  void MoveBucket(std::size_t index, InstanceId to);

  BucketHashingConfig config_;
  std::uint64_t bucket_hash_seed_;
  std::vector<Bucket> buckets_;
  // Owner -> indices of owned buckets, for O(1) donor selection.
  std::unordered_map<InstanceId, std::vector<std::size_t>> owner_lists_;
};

}  // namespace palette

#endif  // PALETTE_SRC_CORE_BUCKET_HASHING_POLICY_H_
