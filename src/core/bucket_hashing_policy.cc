#include "src/core/bucket_hashing_policy.h"

#include <algorithm>
#include <cassert>

#include "src/hash/hash.h"

namespace palette {

BucketHashingPolicy::BucketHashingPolicy(std::uint64_t seed,
                                         BucketHashingConfig config)
    : PolicyBase(seed), config_(config), bucket_hash_seed_(seed ^ 0xB0C4E7ULL) {
  assert(config_.bucket_count > 0);
  buckets_.reserve(config_.bucket_count);
  for (std::size_t i = 0; i < config_.bucket_count; ++i) {
    buckets_.emplace_back(config_.hll_precision);
  }
}

std::optional<InstanceId> BucketHashingPolicy::RouteColoredId(
    std::string_view color) {
  if (instance_ids().empty()) {
    return std::nullopt;
  }
  // One string hash per route: the digest picks the bucket; a remix of the
  // same digest feeds the sketch (remixed so the sketch's register-index
  // bits are independent of the bucket-index bits).
  const std::uint64_t digest = Murmur3_64(color, bucket_hash_seed_);
  Bucket& bucket = buckets_[digest % buckets_.size()];
  bucket.colors.AddHash(MixU64(digest));
  assert(bucket.owner != kInvalidInstanceId);
  return bucket.owner;
}

void BucketHashingPolicy::MoveBucket(std::size_t index, InstanceId to) {
  Bucket& bucket = buckets_[index];
  if (bucket.owner != kInvalidInstanceId) {
    auto& from_list = owner_lists_[bucket.owner];
    from_list.erase(std::find(from_list.begin(), from_list.end(), index));
  }
  bucket.owner = to;
  owner_lists_[to].push_back(index);
}

void BucketHashingPolicy::OnInstanceAdded(const std::string& instance,
                                          InstanceId added) {
  const bool first = instances().empty();
  PolicyBase::OnInstanceAdded(instance, added);
  owner_lists_.try_emplace(added);
  if (first) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      MoveBucket(i, added);
    }
    return;
  }
  // Pull buckets from the most-loaded owners until the newcomer holds its
  // fair share (by bucket count: colors hash uniformly into buckets, so
  // count is an unbiased load proxy when the sketches are cold; a later
  // Rebalance() refines the split with the measured color counts).
  const std::size_t target = buckets_.size() / instance_ids().size();
  while (owner_lists_.at(added).size() < target) {
    InstanceId donor = kInvalidInstanceId;
    std::size_t donor_size = 0;
    for (const InstanceId id : instance_ids()) {
      const std::size_t size = owner_lists_.at(id).size();
      if (id != added && size > donor_size) {
        donor = id;
        donor_size = size;
      }
    }
    if (donor == kInvalidInstanceId || donor_size <= target) {
      break;
    }
    MoveBucket(owner_lists_.at(donor).back(), added);
  }
}

void BucketHashingPolicy::OnInstanceRemoved(const std::string& instance) {
  const auto removed = MemberId(instance);
  PolicyBase::OnInstanceRemoved(instance);
  if (!removed.has_value()) {
    return;
  }
  auto it = owner_lists_.find(*removed);
  if (it == owner_lists_.end()) {
    return;
  }
  const std::vector<std::size_t> orphans = std::move(it->second);
  owner_lists_.erase(it);
  for (std::size_t index : orphans) {
    buckets_[index].owner = kInvalidInstanceId;
  }
  // Every orphaned bucket is re-homed below (or left unowned until an
  // instance appears): count each as a re-colored mapping at bucket
  // granularity — all colors hashing into the bucket move together.
  recolored_ += orphans.size();
  if (instance_ids().empty()) {
    return;
  }
  // Greedy: each orphan goes to the owner with the fewest buckets.
  for (std::size_t index : orphans) {
    InstanceId least = kInvalidInstanceId;
    std::size_t least_size = SIZE_MAX;
    for (const InstanceId id : instance_ids()) {
      const std::size_t size = owner_lists_.at(id).size();
      if (size < least_size) {
        least = id;
        least_size = size;
      }
    }
    MoveBucket(index, least);
  }
}

void BucketHashingPolicy::RotateWindows() {
  for (auto& bucket : buckets_) {
    bucket.colors.Rotate();
  }
}

std::unordered_map<InstanceId, double> BucketHashingPolicy::InstanceLoads()
    const {
  std::unordered_map<InstanceId, double> loads;
  for (const InstanceId id : instance_ids()) {
    loads[id] = 0;
  }
  for (const auto& bucket : buckets_) {
    if (bucket.owner != kInvalidInstanceId) {
      loads[bucket.owner] += bucket.colors.Estimate();
    }
  }
  return loads;
}

int BucketHashingPolicy::Rebalance() {
  if (instance_ids().size() < 2) {
    return 0;
  }
  auto loads = InstanceLoads();
  int moves = 0;
  while (moves < config_.max_moves_per_rebalance) {
    double total = 0;
    auto max_it = loads.begin();
    auto min_it = loads.begin();
    for (auto it = loads.begin(); it != loads.end(); ++it) {
      total += it->second;
      // Ties break on the lexicographically smaller instance *name* (ids
      // are assigned in join order, so name order must be looked up).
      if (it->second > max_it->second ||
          (it->second == max_it->second &&
           MemberName(it->first) < MemberName(max_it->first))) {
        max_it = it;
      }
      if (it->second < min_it->second ||
          (it->second == min_it->second &&
           MemberName(it->first) < MemberName(min_it->first))) {
        min_it = it;
      }
    }
    const double avg = total / static_cast<double>(loads.size());
    if (avg <= 0 || max_it->second / avg <= config_.rebalance_threshold) {
      break;
    }
    // Move the largest bucket on the max-loaded instance that does not
    // overshoot the load gap.
    const double gap = max_it->second - min_it->second;
    const auto& donor_list = owner_lists_.at(max_it->first);
    std::size_t best = buckets_.size();
    double best_estimate = -1;
    for (std::size_t index : donor_list) {
      const double est = buckets_[index].colors.Estimate();
      if (est <= gap && est > best_estimate) {
        best_estimate = est;
        best = index;
      }
    }
    if (best == buckets_.size() || best_estimate <= 0) {
      break;  // No movable bucket improves the balance.
    }
    const InstanceId to = min_it->first;
    max_it->second -= best_estimate;
    min_it->second += best_estimate;
    MoveBucket(best, to);
    ++moves;
  }
  return moves;
}

double BucketHashingPolicy::CurrentRelativeMaxLoad() const {
  const auto loads = InstanceLoads();
  if (loads.empty()) {
    return 0;
  }
  double total = 0;
  double max = 0;
  for (const auto& [_, load] : loads) {
    total += load;
    max = std::max(max, load);
  }
  const double avg = total / static_cast<double>(loads.size());
  return avg > 0 ? max / avg : 0;
}

const std::string& BucketHashingPolicy::BucketOwner(std::size_t b) const {
  static const std::string kUnowned;
  const Bucket& bucket = buckets_.at(b);
  if (bucket.owner == kInvalidInstanceId) {
    return kUnowned;
  }
  return MemberName(bucket.owner);
}

std::size_t BucketHashingPolicy::StateBytes() const {
  // Bucket table entries plus one HLL sketch pair per bucket.
  std::size_t per_bucket = sizeof(void*) + 16;  // owner reference
  per_bucket += 2 * (std::size_t{1} << config_.hll_precision);
  return buckets_.size() * per_bucket;
}

}  // namespace palette
