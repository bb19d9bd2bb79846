// Faa$T-style distributed serverless object cache (§5.1).
//
// Each application instance hosts a cache shard holding the objects produced
// on that worker. An object's *home* instance is found by consistent hashing
// of its name — except that, as in the paper's modification, a name of the
// form "<key>___<rest>" hashes by "<key>" alone. The Palette load balancer
// exploits this: it rewrites the color prefix of input/output names to the
// *instance name* the color maps to, and because the ring maps a member name
// to itself, the object's home becomes exactly the instance that produced it.
//
// The two §5.1 requirements hold by construction:
//   (i)  objects stay cached where they were produced until evicted;
//   (ii) any instance can locate an object via its home lookup.
#ifndef PALETTE_SRC_CACHE_FAAST_CACHE_H_
#define PALETTE_SRC_CACHE_FAAST_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/lru_cache.h"
#include "src/common/instance_id.h"
#include "src/common/types.h"
#include "src/hash/consistent_hash_ring.h"

namespace palette {

// Token separating the optional hashing key from the rest of an object name,
// as in the paper ("a prefix separated by a token string ('___')").
inline constexpr std::string_view kHashKeyToken = "___";

enum class CacheOutcome {
  kLocalHit,   // found in the reader's own shard
  kRemoteHit,  // found in a peer shard (network fetch required)
  kMiss,       // not cached anywhere; must come from backing storage
};

struct CacheLookup {
  CacheOutcome outcome = CacheOutcome::kMiss;
  // The reader on a local hit, the home on a remote hit, else invalid.
  InstanceId owner = kInvalidInstanceId;
  Bytes size = 0;
};

struct FaastCacheConfig {
  // Paper setup: 8 GB per function instance, evictions avoided.
  Bytes per_instance_capacity = 8 * kGiB;
  // Whether a remote hit also populates the reader's local shard. The paper
  // avoids pushing copies around for the DAG experiments (requirement (i)
  // is about NOT replicating), so this defaults off.
  bool replicate_on_remote_hit = false;
};

class FaastCache {
 public:
  explicit FaastCache(FaastCacheConfig config = {});

  // Membership, by name (the ring hashes names); every other call names a
  // shard by InstanceId. Removing an instance drops its shard (state on a
  // reclaimed worker is lost); a name that rejoins starts with an empty one.
  void AddInstance(const std::string& instance);
  void RemoveInstance(const std::string& instance);
  std::size_t instance_count() const { return ring_.member_count(); }
  bool HasInstance(InstanceId id) const { return Shard(id) != nullptr; }

  // The hashing key of an object name: the prefix before kHashKeyToken if
  // present, the whole name otherwise.
  static std::string_view HashKeyOf(std::string_view object_name);

  // The instance that owns (is home for) `object_name` under consistent
  // hashing of its hashing key. Empty optional when no instances exist. No
  // string copy, no registry lock (the ring carries its members' interned
  // ids).
  std::optional<InstanceId> HomeInstanceId(std::string_view object_name) const;

  // Writes an object produced at `producer`. The object is stored at its
  // *home* instance (under Palette's color translation home == producer, so
  // the write is local; under an oblivious far-memory setup it may be a
  // remote write). Returns the instance the object was stored at.
  InstanceId Put(InstanceId producer, const std::string& object_name,
                 Bytes size);

  // Writes an object produced at `producer` to its home shard AND to every
  // live instance in `replicas` (a replicated/split color's replica set).
  // Accounting counts bytes once per *landed* copy: put_bytes grows by one
  // size per store and replicated_bytes by one size per extra copy beyond
  // the home — the paper's locality-diffusion cost measured honestly.
  // Returns the home instance, as Put does.
  InstanceId PutReplicated(InstanceId producer, const std::string& object_name,
                           Bytes size, const std::vector<InstanceId>& replicas);

  // Stores an object directly in `instance`'s shard regardless of its home
  // (miss fills and app-managed local caching).
  void PutLocal(InstanceId instance, const std::string& object_name,
                Bytes size);

  // True iff `object_name` is resident in `instance`'s shard. Never touches
  // recency or stats (coherence probes must not perturb LRU order).
  bool ContainsLocal(InstanceId instance, const std::string& object_name) const;

  // Reads an object from `reader`. Checks the reader's shard, then the home
  // shard. Never mutates peer LRU order.
  CacheLookup Get(InstanceId reader, const std::string& object_name);

  // Drops an object everywhere (used by tests and churn experiments).
  void Invalidate(const std::string& object_name);

  // Planner-migration support (docs/PLANNER.md).
  //
  // A named object resident in one shard. Objects are reported in the
  // shard's most- to least-recently-used order.
  struct ResidentObject {
    std::string name;
    Bytes size = 0;
  };
  // Visits every object in `instance`'s shard without touching recency or
  // stats. No-op for unknown instances.
  void ForEachObject(
      InstanceId instance,
      const std::function<void(const std::string&, Bytes)>& fn) const;
  // Objects in `instance`'s shard whose hashing key equals `key` — i.e. a
  // color's migratable cache footprint on that instance.
  std::vector<ResidentObject> PeekKeyObjects(InstanceId instance,
                                             std::string_view key) const;
  // True iff at least one object with hashing key `key` is resident in
  // `instance`'s shard. Early-out scan; never touches recency or stats
  // (the pull-dispatch claim path probes residency per idle worker).
  bool HasKeyObject(InstanceId instance, std::string_view key) const;
  // Removes one object from `instance`'s shard only (migration source-side
  // erase; Invalidate drops from every shard). Returns true if present.
  bool EraseLocal(InstanceId instance, const std::string& object_name);

  // Aggregate statistics.
  std::uint64_t local_hits() const { return local_hits_; }
  std::uint64_t remote_hits() const { return remote_hits_; }
  std::uint64_t misses() const { return misses_; }
  // Bytes served from the reader's own shard / from peer shards, bytes
  // written through Put/PutLocal, and bytes copied into the reader's shard
  // by replicate_on_remote_hit (a subset of put_bytes).
  Bytes local_hit_bytes() const { return local_hit_bytes_; }
  Bytes remote_hit_bytes() const { return remote_hit_bytes_; }
  Bytes put_bytes() const { return put_bytes_; }
  Bytes replicated_bytes() const { return replicated_bytes_; }
  // Evictions across live shards (a removed instance's count is lost with
  // its shard, matching the reclaimed-worker semantics).
  std::uint64_t total_evictions() const;
  std::uint64_t shard_evictions(InstanceId instance) const;
  Bytes shard_used_bytes(InstanceId instance) const;

  const FaastCacheConfig& config() const { return config_; }

 private:
  // `instance`'s shard, or null when it is not a member.
  LruCache* Shard(InstanceId instance) const {
    return instance < shards_.size() ? shards_[instance].get() : nullptr;
  }

  FaastCacheConfig config_;
  ConsistentHashRing ring_;
  std::vector<std::unique_ptr<LruCache>> shards_;  // indexed by InstanceId
  std::uint64_t local_hits_ = 0;
  std::uint64_t remote_hits_ = 0;
  std::uint64_t misses_ = 0;
  Bytes local_hit_bytes_ = 0;
  Bytes remote_hit_bytes_ = 0;
  Bytes put_bytes_ = 0;
  Bytes replicated_bytes_ = 0;
};

}  // namespace palette

#endif  // PALETTE_SRC_CACHE_FAAST_CACHE_H_
