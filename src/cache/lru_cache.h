// Byte-capacity LRU cache over named objects.
//
// This is the in-instance cache from the paper's use cases: the social
// network functions keep an "in-memory read-only LRU cache" in a global
// variable (§6.1), and each Faa$T cache instance holds objects produced on
// that worker (§5.1). Only object sizes are tracked — the simulation never
// materializes payloads.
#ifndef PALETTE_SRC_CACHE_LRU_CACHE_H_
#define PALETTE_SRC_CACHE_LRU_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/common/types.h"

namespace palette {

class LruCache {
 public:
  // `capacity_bytes` == 0 means unbounded (used by the MRC simulator).
  explicit LruCache(Bytes capacity_bytes);

  // Looks up `key`, promoting it to most-recently-used; its size on a hit.
  std::optional<Bytes> Get(const std::string& key);

  // Size of `key` if present, without updating recency or stats. Used for
  // peer lookups, which should not distort the owner's LRU order.
  std::optional<Bytes> Peek(const std::string& key) const;
  bool Contains(const std::string& key) const {
    return Peek(key).has_value();
  }
  // Size of `key` if present, else 0.
  Bytes SizeOf(const std::string& key) const { return Peek(key).value_or(0); }

  // Inserts or refreshes `key`, evicting LRU entries as needed. An object
  // larger than the whole capacity is not admitted (returns false).
  bool Put(const std::string& key, Bytes size);

  // Removes `key`; returns true if it was present.
  bool Erase(const std::string& key);

  void Clear();

  Bytes used_bytes() const { return used_; }
  Bytes capacity_bytes() const { return capacity_; }
  std::size_t object_count() const { return map_.size(); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  double HitRatio() const;
  void ResetStats();

  // Invoked for each evicted (key, size).
  void set_eviction_hook(std::function<void(const std::string&, Bytes)> hook) {
    eviction_hook_ = std::move(hook);
  }

  // Visits every resident (key, size) from most- to least-recently used
  // without touching recency or stats. Used by the planner's snapshot
  // collector to size per-color cache footprints.
  void ForEach(const std::function<void(const std::string&, Bytes)>& fn) const {
    for (const Entry& entry : lru_) {
      fn(entry.key, entry.size);
    }
  }

  // Early-out scan: true iff any entry satisfies `pred`. Touches neither
  // recency nor stats (pull-dispatch residency probes run on the claim
  // path, which must not perturb eviction order).
  bool AnyOf(const std::function<bool(const std::string&, Bytes)>& pred) const {
    for (const Entry& entry : lru_) {
      if (pred(entry.key, entry.size)) {
        return true;
      }
    }
    return false;
  }

 private:
  struct Entry {
    std::string key;
    Bytes size;
  };
  using List = std::list<Entry>;

  void EvictUntilFits(Bytes incoming);

  Bytes capacity_;
  Bytes used_ = 0;
  List lru_;  // front = most recently used
  std::unordered_map<std::string, List::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::function<void(const std::string&, Bytes)> eviction_hook_;
};

}  // namespace palette

#endif  // PALETTE_SRC_CACHE_LRU_CACHE_H_
