#include "src/cache/faast_cache.h"

#include <algorithm>
#include <cassert>

namespace palette {

FaastCache::FaastCache(FaastCacheConfig config) : config_(config) {}

void FaastCache::AddInstance(const std::string& instance) {
  const InstanceId id = InternInstance(instance);
  if (HasInstance(id)) {
    return;
  }
  ring_.AddMember(instance);
  shards_.resize(std::max<std::size_t>(shards_.size(), id + 1));
  shards_[id] = std::make_unique<LruCache>(config_.per_instance_capacity);
}

void FaastCache::RemoveInstance(const std::string& instance) {
  ring_.RemoveMember(instance);
  const auto id = InstanceRegistry::Global().Find(instance);
  if (id.has_value() && HasInstance(*id)) {
    shards_[*id].reset();
  }
}

std::string_view FaastCache::HashKeyOf(std::string_view object_name) {
  const std::size_t pos = object_name.find(kHashKeyToken);
  if (pos == std::string_view::npos) {
    return object_name;
  }
  return object_name.substr(0, pos);
}

std::optional<InstanceId> FaastCache::HomeInstanceId(
    std::string_view object_name) const {
  return ring_.LookupId(HashKeyOf(object_name));
}

InstanceId FaastCache::Put(InstanceId producer,
                           const std::string& object_name, Bytes size) {
  // No assert on the producer: an invocation can legitimately finish on an
  // instance after RemoveInstance (graceful scale-in lets running work
  // complete), and its output store must not crash the platform. The home
  // ring never contains removed members, so the object still lands on a
  // live shard.
  const auto home = HomeInstanceId(object_name);
  if (!home.has_value()) {
    // Membership is empty: nowhere to store. Report the producer as the
    // (nominal) home so the caller's transfer is a local no-op.
    return producer;
  }
  Shard(*home)->Put(object_name, size);
  put_bytes_ += size;
  return *home;
}

InstanceId FaastCache::PutReplicated(InstanceId producer,
                                     const std::string& object_name,
                                     Bytes size,
                                     const std::vector<InstanceId>& replicas) {
  const InstanceId home = Put(producer, object_name, size);
  for (const InstanceId replica : replicas) {
    LruCache* const shard = Shard(replica);
    if (replica == home || shard == nullptr) {
      continue;  // the home store covers it, or it died: nothing lands
    }
    shard->Put(object_name, size);
    put_bytes_ += size;
    replicated_bytes_ += size;
  }
  return home;
}

void FaastCache::PutLocal(InstanceId instance, const std::string& object_name,
                          Bytes size) {
  LruCache* const shard = Shard(instance);
  assert(shard != nullptr && "unknown instance");
  shard->Put(object_name, size);
  put_bytes_ += size;
}

bool FaastCache::ContainsLocal(InstanceId instance,
                               const std::string& object_name) const {
  const LruCache* const shard = Shard(instance);
  return shard != nullptr && shard->Contains(object_name);
}

CacheLookup FaastCache::Get(InstanceId reader,
                            const std::string& object_name) {
  LruCache* const local = Shard(reader);
  assert(local != nullptr && "unknown reader instance");

  if (const auto size = local->Get(object_name)) {
    ++local_hits_;
    local_hit_bytes_ += *size;
    return CacheLookup{CacheOutcome::kLocalHit, reader, *size};
  }

  const auto home = HomeInstanceId(object_name);
  const LruCache* const home_shard =
      home.has_value() && *home != reader ? Shard(*home) : nullptr;
  if (home_shard != nullptr) {
    if (const auto size = home_shard->Peek(object_name)) {
      ++remote_hits_;
      remote_hit_bytes_ += *size;
      if (config_.replicate_on_remote_hit) {
        local->Put(object_name, *size);
        put_bytes_ += *size;
        replicated_bytes_ += *size;
      }
      return CacheLookup{CacheOutcome::kRemoteHit, *home, *size};
    }
  }

  ++misses_;
  return CacheLookup{};
}

void FaastCache::Invalidate(const std::string& object_name) {
  for (const auto& shard : shards_) {
    if (shard != nullptr) {
      shard->Erase(object_name);
    }
  }
}

void FaastCache::ForEachObject(
    InstanceId instance,
    const std::function<void(const std::string&, Bytes)>& fn) const {
  if (const LruCache* const shard = Shard(instance)) {
    shard->ForEach(fn);
  }
}

std::vector<FaastCache::ResidentObject> FaastCache::PeekKeyObjects(
    InstanceId instance, std::string_view key) const {
  std::vector<ResidentObject> objects;
  ForEachObject(instance, [&](const std::string& name, Bytes size) {
    if (HashKeyOf(name) == key) {
      objects.push_back(ResidentObject{name, size});
    }
  });
  return objects;
}

bool FaastCache::HasKeyObject(InstanceId instance,
                              std::string_view key) const {
  const LruCache* const shard = Shard(instance);
  return shard != nullptr &&
         shard->AnyOf([key](const std::string& name, Bytes) {
           return HashKeyOf(name) == key;
         });
}

bool FaastCache::EraseLocal(InstanceId instance,
                            const std::string& object_name) {
  LruCache* const shard = Shard(instance);
  return shard != nullptr && shard->Erase(object_name);
}

Bytes FaastCache::shard_used_bytes(InstanceId instance) const {
  const LruCache* const shard = Shard(instance);
  return shard != nullptr ? shard->used_bytes() : 0;
}

std::uint64_t FaastCache::total_evictions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard != nullptr ? shard->evictions() : 0;
  }
  return total;
}

std::uint64_t FaastCache::shard_evictions(InstanceId instance) const {
  const LruCache* const shard = Shard(instance);
  return shard != nullptr ? shard->evictions() : 0;
}

}  // namespace palette
