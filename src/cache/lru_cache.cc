#include "src/cache/lru_cache.h"

namespace palette {

LruCache::LruCache(Bytes capacity_bytes) : capacity_(capacity_bytes) {}

std::optional<Bytes> LruCache::Get(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->size;
}

std::optional<Bytes> LruCache::Peek(const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return std::nullopt;
  }
  return it->second->size;
}

bool LruCache::Put(const std::string& key, Bytes size) {
  if (capacity_ != 0 && size > capacity_) {
    return false;
  }
  auto it = map_.find(key);
  if (it != map_.end()) {
    used_ -= it->second->size;
    it->second->size = size;
    used_ += size;
    lru_.splice(lru_.begin(), lru_, it->second);
    EvictUntilFits(0);
    return true;
  }
  EvictUntilFits(size);
  lru_.push_front(Entry{key, size});
  map_[key] = lru_.begin();
  used_ += size;
  return true;
}

bool LruCache::Erase(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return false;
  }
  used_ -= it->second->size;
  lru_.erase(it->second);
  map_.erase(it);
  return true;
}

void LruCache::Clear() {
  lru_.clear();
  map_.clear();
  used_ = 0;
}

double LruCache::HitRatio() const {
  const std::uint64_t total = hits_ + misses_;
  return total > 0 ? static_cast<double>(hits_) / static_cast<double>(total)
                   : 0.0;
}

void LruCache::ResetStats() {
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

void LruCache::EvictUntilFits(Bytes incoming) {
  if (capacity_ == 0) {
    return;
  }
  while (!lru_.empty() && used_ + incoming > capacity_) {
    const Entry& victim = lru_.back();
    used_ -= victim.size;
    ++evictions_;
    map_.erase(victim.key);
    if (eviction_hook_) {
      eviction_hook_(victim.key, victim.size);
    }
    lru_.pop_back();
  }
}

}  // namespace palette
