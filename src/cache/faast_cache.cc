#include "src/cache/faast_cache.h"

#include <cassert>

namespace palette {

FaastCache::FaastCache(FaastCacheConfig config) : config_(config) {}

void FaastCache::AddInstance(const std::string& instance) {
  if (shards_.count(instance) > 0) {
    return;
  }
  ring_.AddMember(instance);
  shards_.emplace(instance,
                  std::make_unique<LruCache>(config_.per_instance_capacity));
}

void FaastCache::RemoveInstance(const std::string& instance) {
  ring_.RemoveMember(instance);
  shards_.erase(instance);
}

bool FaastCache::HasInstance(const std::string& instance) const {
  return shards_.count(instance) > 0;
}

std::string_view FaastCache::HashKeyOf(std::string_view object_name) {
  const std::size_t pos = object_name.find(kHashKeyToken);
  if (pos == std::string_view::npos) {
    return object_name;
  }
  return object_name.substr(0, pos);
}

std::optional<std::string> FaastCache::HomeInstance(
    std::string_view object_name) const {
  return ring_.Lookup(HashKeyOf(object_name));
}

std::optional<InstanceId> FaastCache::HomeInstanceId(
    std::string_view object_name) const {
  return ring_.LookupId(HashKeyOf(object_name));
}

std::string FaastCache::Put(const std::string& producer,
                            const std::string& object_name, Bytes size) {
  // No assert on the producer: an invocation can legitimately finish on an
  // instance after RemoveInstance (graceful scale-in lets running work
  // complete), and its output store must not crash the platform. The home
  // ring never contains removed members, so the object still lands on a
  // live shard.
  const auto home = HomeInstance(object_name);
  if (!home.has_value()) {
    // Membership is empty: nowhere to store. Report the producer as the
    // (nominal) home so the caller's transfer is a local no-op.
    return producer;
  }
  shards_.at(*home)->Put(object_name, size);
  put_bytes_ += size;
  return *home;
}

std::string FaastCache::PutReplicated(const std::string& producer,
                                      const std::string& object_name,
                                      Bytes size,
                                      const std::vector<std::string>& replicas) {
  const std::string home = Put(producer, object_name, size);
  for (const std::string& replica : replicas) {
    if (replica == home) {
      continue;  // the home store above already covers it
    }
    const auto it = shards_.find(replica);
    if (it == shards_.end()) {
      continue;  // replica died; nothing lands, nothing is counted
    }
    it->second->Put(object_name, size);
    put_bytes_ += size;
    replicated_bytes_ += size;
  }
  return home;
}

void FaastCache::PutLocal(const std::string& instance,
                          const std::string& object_name, Bytes size) {
  auto it = shards_.find(instance);
  assert(it != shards_.end() && "unknown instance");
  it->second->Put(object_name, size);
  put_bytes_ += size;
}

bool FaastCache::ContainsLocal(const std::string& instance,
                               const std::string& object_name) const {
  const auto it = shards_.find(instance);
  return it != shards_.end() && it->second->Contains(object_name);
}

CacheLookup FaastCache::Get(const std::string& reader,
                            const std::string& object_name) {
  auto reader_it = shards_.find(reader);
  assert(reader_it != shards_.end() && "unknown reader instance");

  if (reader_it->second->Get(object_name)) {
    ++local_hits_;
    const Bytes size = reader_it->second->SizeOf(object_name);
    local_hit_bytes_ += size;
    return CacheLookup{CacheOutcome::kLocalHit, reader, size};
  }

  const auto home = HomeInstance(object_name);
  if (home.has_value() && *home != reader) {
    auto home_it = shards_.find(*home);
    if (home_it != shards_.end() && home_it->second->Contains(object_name)) {
      ++remote_hits_;
      const Bytes size = home_it->second->SizeOf(object_name);
      remote_hit_bytes_ += size;
      if (config_.replicate_on_remote_hit) {
        reader_it->second->Put(object_name, size);
        put_bytes_ += size;
        replicated_bytes_ += size;
      }
      return CacheLookup{CacheOutcome::kRemoteHit, *home, size};
    }
  }

  ++misses_;
  return CacheLookup{};
}

void FaastCache::Invalidate(const std::string& object_name) {
  for (auto& [_, shard] : shards_) {
    shard->Erase(object_name);
  }
}

void FaastCache::ForEachObject(
    const std::string& instance,
    const std::function<void(const std::string&, Bytes)>& fn) const {
  const auto it = shards_.find(instance);
  if (it == shards_.end()) {
    return;
  }
  it->second->ForEach(fn);
}

std::vector<FaastCache::ResidentObject> FaastCache::PeekKeyObjects(
    const std::string& instance, std::string_view key) const {
  std::vector<ResidentObject> objects;
  ForEachObject(instance, [&](const std::string& name, Bytes size) {
    if (HashKeyOf(name) == key) {
      objects.push_back(ResidentObject{name, size});
    }
  });
  return objects;
}

bool FaastCache::HasKeyObject(const std::string& instance,
                              std::string_view key) const {
  const auto it = shards_.find(instance);
  if (it == shards_.end()) {
    return false;
  }
  return it->second->AnyOf([key](const std::string& name, Bytes) {
    return HashKeyOf(name) == key;
  });
}

bool FaastCache::EraseLocal(const std::string& instance,
                            const std::string& object_name) {
  const auto it = shards_.find(instance);
  return it != shards_.end() && it->second->Erase(object_name);
}

Bytes FaastCache::shard_used_bytes(const std::string& instance) const {
  auto it = shards_.find(instance);
  return it == shards_.end() ? 0 : it->second->used_bytes();
}

std::uint64_t FaastCache::total_evictions() const {
  std::uint64_t total = 0;
  for (const auto& [_, shard] : shards_) {
    total += shard->evictions();
  }
  return total;
}

std::uint64_t FaastCache::shard_evictions(const std::string& instance) const {
  auto it = shards_.find(instance);
  return it == shards_.end() ? 0 : it->second->evictions();
}

}  // namespace palette
