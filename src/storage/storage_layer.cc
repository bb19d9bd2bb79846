#include "src/storage/storage_layer.h"

#include <algorithm>
#include <cassert>

namespace palette {

StorageLayer::StorageLayer(Simulator* sim, Network* network, FaastCache* cache,
                           const InstanceTable* ids, StorageConfig config,
                           std::string storage_node)
    : sim_(sim),
      network_(network),
      cache_(cache),
      ids_(ids),
      config_(config),
      tiers_(sim, network, config.tiers, std::move(storage_node), &stats_) {}

InstanceId StorageLayer::IdOf(const std::string& instance) const {
  const auto id = ids_->Find(instance);
  assert(id.has_value());
  return *id;
}

void StorageLayer::OnInstanceJoin(const std::string& instance) {
  instances_.insert(instance);
  // A joining (or re-joining) instance starts with an empty cache and an
  // empty log cursor: the whole log replays for it after the lag. Replay
  // against an empty shard is pure cursor advancement — the mechanism the
  // restart test pins — while a restart racing in-flight records applies
  // them exactly once from seq 1.
  applied_seq_[instance] = 0;
  if (!log_.empty()) {
    sim_->At(SaturatingAdd(sim_->Now(), config_.ae_lag),
             [this, name = instance]() { ApplyLogAt(name); });
  }
}

void StorageLayer::OnInstanceLeave(const std::string& instance, bool crashed) {
  instances_.erase(instance);
  applied_seq_.erase(instance);
  for (auto& [name, obj] : objects_) {
    obj.copies.erase(instance);
    if (obj.owner != instance) {
      continue;
    }
    if (obj.pending_writes > 0) {
      if (crashed) {
        // Dirty write-back data died with its owner: bounded loss,
        // surfaced in the books — never silent.
        stats_.writes_lost += obj.pending_writes;
        stats_.dirty_bytes_lost += obj.pending_bytes;
        obj.pending_writes = 0;
        obj.pending_bytes = 0;
      } else {
        // Graceful drain flushes before the shard is reclaimed (the
        // network node outlives the worker, so the transfer still books).
        Flush(instance, name, obj);
      }
    }
    obj.owner.clear();
  }
}

void StorageLayer::Seed(const std::string& name, Bytes size) {
  tiers_.Seed(name, size);
  ObjectState& obj = objects_[name];
  if (obj.size == 0) {
    obj.size = size;
  }
}

Bytes StorageLayer::StoredSizeOf(const std::string& name,
                                 Bytes fallback) const {
  const auto it = objects_.find(name);
  return it != objects_.end() && it->second.size > 0 ? it->second.size
                                                     : fallback;
}

SimTime StorageLayer::ReadFromStore(const std::string& reader,
                                    const std::string& name, Bytes size) {
  return tiers_.Read(reader, name, StoredSizeOf(name, size));
}

void StorageLayer::NoteCopy(const std::string& instance,
                            const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    return;  // never written through the layer; nothing to track
  }
  // A copy fetched now holds the current version (misses fall back to the
  // store, which after a crash-loss is the authoritative content).
  it->second.copies[instance] = CopyState{it->second.version, SimTime()};
}

void StorageLayer::NoteErase(const std::string& instance,
                             const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    return;
  }
  it->second.copies.erase(instance);
  if (it->second.owner == instance) {
    // The owner's copy is leaving (planner migration); ownership transfers
    // when the copy lands, and reads meanwhile fall back to the store.
    it->second.owner.clear();
  }
}

void StorageLayer::NoteLanded(const std::string& instance,
                              const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    return;
  }
  it->second.copies[instance] = CopyState{it->second.version, SimTime()};
  if (it->second.owner.empty()) {
    it->second.owner = instance;
  }
}

SimTime StorageLayer::OnLocalRead(const std::string& reader,
                                  const std::string& name, SimTime done) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    return done;  // read-only object; coherence has nothing to say
  }
  ObjectState& obj = it->second;
  const auto cit = obj.copies.find(reader);
  if (cit == obj.copies.end()) {
    // A resident copy the directory never saw materialize (it predates the
    // first write). Adopt it as current: it was fetched from the then-
    // authoritative source, and any later write would have found it here.
    obj.copies.emplace(reader, CopyState{obj.version, SimTime()});
    return done;
  }
  if (cit->second.version >= obj.version) {
    return done;  // fresh
  }
  if (obj.mode == CoherenceMode::kCausal) {
    const SimTime staleness = sim_->Now() - cit->second.stale_since;
    if (staleness <= config_.staleness_bound) {
      // Bounded-stale serve: counted, and the maximum tracked so the bound
      // is checkable — never silently exceeded.
      ++stats_.stale_reads;
      if (staleness.nanos() > stats_.max_served_staleness_ns) {
        stats_.max_served_staleness_ns = staleness.nanos();
      }
      return done;
    }
  }
  return ForcedSync(reader, name, obj, done);
}

SimTime StorageLayer::ForcedSync(const std::string& reader,
                                 const std::string& name, ObjectState& obj,
                                 SimTime done) {
  const SimTime start = sim_->Now();
  SimTime sync_done;
  if (!obj.owner.empty() && obj.owner != reader &&
      instances_.count(obj.owner) > 0 &&
      cache_->ContainsLocal(IdOf(obj.owner), name)) {
    sync_done = network_->Transfer(obj.owner, reader, obj.size);
  } else {
    sync_done = tiers_.Read(reader, name, obj.size);
  }
  cache_->PutLocal(IdOf(reader), name, obj.size);
  obj.copies[reader] = CopyState{obj.version, SimTime()};
  ++stats_.coherence_syncs;
  stats_.coherence_bytes += obj.size;
  if (trace_ != nullptr) {
    trace_->RecordStorage(
        StorageTrace{name, reader, StorageOp::kSync, obj.size, start,
                     sync_done});
  }
  return std::max(done, sync_done);
}

SimTime StorageLayer::OnWrite(const std::string& /*writer*/,
                              const std::string& home, const std::string& name,
                              Bytes size,
                              std::optional<CoherenceMode> override_mode,
                              const std::vector<std::string>& fresh,
                              SimTime done) {
  const CoherenceMode mode = EffectiveMode(override_mode);
  const SimTime now = sim_->Now();
  ObjectState& obj = objects_[name];
  const std::uint64_t old_version = obj.version;
  ++obj.version;
  obj.size = size;
  obj.mode = mode;
  obj.owner = home;
  // Copies that were current until this write become stale now; copies
  // already stale keep their original divergence time (staleness is
  // measured from the first missed write).
  for (auto& [inst, copy] : obj.copies) {
    if (copy.version >= old_version && copy.stale_since == SimTime()) {
      copy.stale_since = now;
    }
  }
  obj.copies[home] = CopyState{obj.version, SimTime()};
  for (const std::string& replica : fresh) {
    if (instances_.count(replica) > 0) {  // dead replicas landed nothing
      obj.copies[replica] = CopyState{obj.version, SimTime()};
    }
  }

  ++stats_.writes_total;
  stats_.write_bytes += size;
  switch (mode) {
    case CoherenceMode::kNone:
    case CoherenceMode::kWriteThrough:
    case CoherenceMode::kCausal: {
      // Synchronously durable: the invocation's store phase blocks on the
      // backing-store write.
      const SimTime store_done = tiers_.Write(home, name, size);
      ++stats_.writes_durable;
      if (trace_ != nullptr) {
        trace_->RecordStorage(StorageTrace{
            name, home, StorageOp::kWriteThrough, size, now, store_done});
      }
      if (store_done > done) {
        done = store_done;
      }
      break;
    }
    case CoherenceMode::kWriteBack: {
      // Buffered dirty in the owner's cache; a flush timer bounds the
      // dirty age. Each write arms its own timer, so the oldest pending
      // write's timer fires first and flushes everything pending — the
      // age bound is an upper bound per write.
      ++obj.pending_writes;
      obj.pending_bytes += size;
      sim_->At(SaturatingAdd(now, config_.max_dirty_age), [this,
                                                           name = name]() {
        const auto it = objects_.find(name);
        if (it == objects_.end() || it->second.pending_writes == 0 ||
            it->second.owner.empty()) {
          return;  // already flushed, or lost with a crashed owner
        }
        Flush(it->second.owner, name, it->second);
      });
      break;
    }
  }

  // Anti-entropy: append one seq-numbered record and schedule every live
  // peer (ordered; synchronously refreshed replicas excluded) to replay
  // the log ae_lag later.
  AeRecord record;
  record.seq = next_seq_++;
  record.object = name;
  record.version = obj.version;
  record.size = size;
  record.source = home;
  record.mode = mode;
  record.applies_at = SaturatingAdd(now, config_.ae_lag);
  log_.push_back(std::move(record));
  ++stats_.ae_records;
  for (const std::string& instance : instances_) {
    if (instance == home ||
        std::find(fresh.begin(), fresh.end(), instance) != fresh.end()) {
      continue;
    }
    sim_->At(SaturatingAdd(now, config_.ae_lag),
             [this, peer = instance]() { ApplyLogAt(peer); });
  }
  return done;
}

void StorageLayer::Flush(const std::string& from, const std::string& name,
                         ObjectState& obj) {
  const SimTime start = sim_->Now();
  const SimTime store_done = tiers_.Write(from, name, obj.size);
  stats_.writes_durable += obj.pending_writes;
  stats_.dirty_bytes_flushed += obj.pending_bytes;
  ++stats_.flushes;
  obj.pending_writes = 0;
  obj.pending_bytes = 0;
  if (trace_ != nullptr) {
    trace_->RecordStorage(StorageTrace{name, from, StorageOp::kFlush,
                                       obj.size, start, store_done});
  }
}

void StorageLayer::FlushKeyOwned(const std::string& instance,
                                 std::string_view key) {
  for (auto& [name, obj] : objects_) {
    if (obj.owner == instance && obj.pending_writes > 0 &&
        FaastCache::HashKeyOf(name) == key) {
      Flush(instance, name, obj);
    }
  }
}

void StorageLayer::ForEachDirtyObject(
    const std::function<void(const std::string&, const std::string&, Bytes)>&
        fn) const {
  for (const auto& [name, obj] : objects_) {
    if (obj.pending_bytes > 0) {
      fn(name, obj.owner, obj.pending_bytes);
    }
  }
}

Bytes StorageLayer::total_dirty_bytes() const {
  Bytes total = 0;
  for (const auto& [name, obj] : objects_) {
    total += obj.pending_bytes;
  }
  return total;
}

std::uint64_t StorageLayer::AppliedSeqOf(const std::string& instance) const {
  const auto it = applied_seq_.find(instance);
  return it != applied_seq_.end() ? it->second : 0;
}

std::uint64_t StorageLayer::VersionOf(const std::string& name) const {
  const auto it = objects_.find(name);
  return it != objects_.end() ? it->second.version : 0;
}

std::optional<std::string> StorageLayer::OwnerOf(
    const std::string& name) const {
  const auto it = objects_.find(name);
  if (it == objects_.end() || it->second.owner.empty()) {
    return std::nullopt;
  }
  return it->second.owner;
}

void StorageLayer::ApplyLogAt(const std::string& instance) {
  const auto cursor = applied_seq_.find(instance);
  if (cursor == applied_seq_.end()) {
    return;  // instance left before its replay fired
  }
  const SimTime now = sim_->Now();
  const InstanceId id = IdOf(instance);
  // Records append in seq order with monotone applies_at, so the replay
  // stops at the first not-yet-due record.
  for (std::size_t i = cursor->second; i < log_.size(); ++i) {
    const AeRecord& record = log_[i];
    if (record.applies_at > now) {
      break;
    }
    ApplyRecord(instance, id, record);
    cursor->second = record.seq;
    ++stats_.ae_applied;
  }
}

void StorageLayer::ApplyRecord(const std::string& instance, InstanceId id,
                               const AeRecord& record) {
  if (instance == record.source) {
    return;  // its own write; cursor advances, nothing to do
  }
  if (!cache_->ContainsLocal(id, record.object)) {
    return;  // no local copy to reconcile
  }
  const auto it = objects_.find(record.object);
  if (it == objects_.end()) {
    return;
  }
  ObjectState& obj = it->second;
  const auto cit = obj.copies.find(instance);
  if (cit != obj.copies.end() && cit->second.version >= record.version) {
    return;  // already at (or past) this record's version
  }
  const SimTime start = sim_->Now();
  // Causal-mode objects are replicated hot objects worth keeping warm
  // (refresh); everything else just drops the stale copy (invalidate).
  if (record.mode != CoherenceMode::kCausal) {
    cache_->EraseLocal(id, record.object);
    obj.copies.erase(instance);
    ++stats_.ae_invalidations;
    if (trace_ != nullptr) {
      trace_->RecordStorage(StorageTrace{record.object, instance,
                                         StorageOp::kInvalidate, record.size,
                                         start, start});
    }
    return;
  }
  // Refresh: ship the current bytes from the live owner's shard when
  // possible, the backing store otherwise. The copy lands at the *object's*
  // current version — intervening writes are folded into one refresh.
  SimTime refresh_done;
  if (!obj.owner.empty() && obj.owner != instance &&
      instances_.count(obj.owner) > 0 &&
      cache_->ContainsLocal(IdOf(obj.owner), record.object)) {
    refresh_done = network_->Transfer(obj.owner, instance, obj.size);
  } else {
    refresh_done = tiers_.Read(instance, record.object, obj.size);
  }
  cache_->PutLocal(id, record.object, obj.size);
  obj.copies[instance] = CopyState{obj.version, SimTime()};
  ++stats_.ae_refreshes;
  stats_.ae_refresh_bytes += obj.size;
  stats_.coherence_bytes += obj.size;
  if (trace_ != nullptr) {
    trace_->RecordStorage(StorageTrace{record.object, instance,
                                       StorageOp::kRefresh, obj.size, start,
                                       refresh_done});
  }
}

void StorageLayer::ExportMetrics(MetricWriter* out) const {
  out->SetCounter("storage.writes_total", stats_.writes_total);
  out->SetCounter("storage.writes_durable", stats_.writes_durable);
  out->SetCounter("storage.writes_lost", stats_.writes_lost);
  out->SetCounter("storage.write_bytes", stats_.write_bytes);
  out->SetCounter("storage.flushes", stats_.flushes);
  out->SetCounter("storage.dirty_bytes_flushed", stats_.dirty_bytes_flushed);
  out->SetCounter("storage.dirty_bytes_lost", stats_.dirty_bytes_lost);
  out->SetCounter("storage.coherence_syncs", stats_.coherence_syncs);
  out->SetCounter("storage.coherence_bytes", stats_.coherence_bytes);
  out->SetCounter("storage.stale_reads", stats_.stale_reads);
  out->SetCounter(
      "storage.max_served_staleness_ns",
      static_cast<std::uint64_t>(stats_.max_served_staleness_ns));
  out->SetCounter("storage.ae.records", stats_.ae_records);
  out->SetCounter("storage.ae.applied", stats_.ae_applied);
  out->SetCounter("storage.ae.invalidations", stats_.ae_invalidations);
  out->SetCounter("storage.ae.refreshes", stats_.ae_refreshes);
  out->SetCounter("storage.ae.refresh_bytes", stats_.ae_refresh_bytes);
  out->SetCounter("storage.tier.fast_reads", stats_.tier_fast_reads);
  out->SetCounter("storage.tier.slow_reads", stats_.tier_slow_reads);
  out->SetCounter("storage.tier.promotions", stats_.tier_promotions);
  out->SetCounter("storage.tier.demotions", stats_.tier_demotions);
  out->SetCounter("storage.tier.promoted_bytes", stats_.tier_promoted_bytes);
  out->SetCounter("storage.tier.demoted_bytes", stats_.tier_demoted_bytes);
  out->SetGauge("storage.dirty_bytes",
                static_cast<double>(total_dirty_bytes()), sim_->Now());
}

}  // namespace palette
