// Stateful storage tier: write coherence, anti-entropy, tiered placement
// (docs/STORAGE.md).
//
// The layer sits beside the Faa$T cache and tracks, per object: a logical
// version, the instance owning the authoritative copy (where the last write
// landed), write-back dirty state, and the set of cached peer copies with
// the version each holds. Writes bump the version, mark surviving peer
// copies stale, and append a seq-numbered record to the anti-entropy log;
// every live instance applies the log after a configurable lag on the sim
// clock (the same replay-after-lag shape as the router membership log), so
// replicated-color and post-steal residue copies converge deterministically.
//
// Read-time guarantee: a local cache hit on a copy the directory knows to
// be stale is never served silently. Write-through and write-back re-fetch
// synchronously (stale reads are structurally zero); causal mode serves the
// stale copy only while its staleness is within the configured bound —
// counting the read and tracking the maximum served staleness — and
// re-fetches past the bound.
//
// All state lives in ordered containers and all activity runs on the sim
// clock, so sharded runs stay bit-identical at every shard count.
#ifndef PALETTE_SRC_STORAGE_STORAGE_LAYER_H_
#define PALETTE_SRC_STORAGE_STORAGE_LAYER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/faast_cache.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/storage_types.h"
#include "src/storage/tiered_store.h"

namespace palette {

class StorageLayer {
 public:
  // `sim`, `network`, and `cache` must outlive the layer. `storage_node`
  // is the slow-tier network pseudo-node (the platform's legacy backing
  // store node).
  StorageLayer(Simulator* sim, Network* network, FaastCache* cache,
               StorageConfig config, std::string storage_node);

  // Membership, forwarded from the platform. A crashed owner's dirty
  // write-back data is lost (counted in the books); a graceful leave
  // flushes it first. Joining (or re-joining after a restart) resets the
  // instance's anti-entropy cursor to zero and schedules a catch-up replay
  // of the whole log after ae_lag.
  void OnInstanceJoin(const std::string& instance);
  void OnInstanceLeave(const std::string& instance, bool crashed);

  // Backing-store bookkeeping (platform SeedStorageObject / miss path).
  void Seed(const std::string& name, Bytes size);
  Bytes StoredSizeOf(const std::string& name, Bytes fallback) const;
  // Charges a backing-store read delivered to `reader` through the tiered
  // store; returns the completion time.
  SimTime ReadFromStore(const std::string& reader, const std::string& name,
                        Bytes size);

  // Copy tracking: a copy of `name` materialized in `instance`'s cache
  // shard (miss fill, replicate-on-remote-hit) / left it (migration).
  void NoteCopy(const std::string& instance, const std::string& name);
  void NoteErase(const std::string& instance, const std::string& name);
  // Migration landing: the copy arrived at `instance`; it becomes the
  // owner if the object is currently ownerless (its owner migrated away).
  void NoteLanded(const std::string& instance, const std::string& name);

  // Read-time coherence check for a local cache hit at `reader`. Returns
  // the adjusted ready time: `done` when the copy may be served (fresh, or
  // stale within the causal bound), or the completion of a forced
  // synchronous re-fetch otherwise.
  SimTime OnLocalRead(const std::string& reader, const std::string& name,
                      SimTime done);

  // Write path, called after the cache landed the object at `home`.
  // `fresh` lists instances holding synchronously written replicas (the
  // replicated-put set); they skip anti-entropy. `override_mode` is the
  // invocation's per-object coherence override (nullopt = run mode).
  // Returns the write's completion time (>= `done`; write-through and
  // causal block on the durable store write, write-back does not).
  SimTime OnWrite(const std::string& writer, const std::string& home,
                  const std::string& name, Bytes size,
                  std::optional<CoherenceMode> override_mode,
                  const std::vector<std::string>& fresh, SimTime done);

  // Flushes dirty objects owned by `instance` whose hashing key equals
  // `key` (planner migration: dirty bytes become durable before the cached
  // copy moves).
  void FlushKeyOwned(const std::string& instance, std::string_view key);

  // Visits (name, owner, dirty bytes) of every object with buffered
  // write-back bytes (planner snapshot: moving a dirty color costs a
  // flush first).
  void ForEachDirtyObject(
      const std::function<void(const std::string&, const std::string&, Bytes)>&
          fn) const;
  Bytes total_dirty_bytes() const;

  // Anti-entropy log cursors (tests; loadgen JSON).
  std::uint64_t latest_seq() const { return next_seq_ - 1; }
  std::uint64_t AppliedSeqOf(const std::string& instance) const;

  // Directory probes (tests).
  std::uint64_t VersionOf(const std::string& name) const;
  std::optional<std::string> OwnerOf(const std::string& name) const;

  const StorageStats& stats() const { return stats_; }
  const StorageConfig& config() const { return config_; }
  TieredStore& tiers() { return tiers_; }

  void set_trace_recorder(TraceRecorder* recorder) {
    trace_ = recorder;
    tiers_.set_trace_recorder(recorder);
  }

  // Snapshots the storage.* counter family through `out`
  // (FaasPlatform::ExportMetrics).
  void ExportMetrics(MetricWriter* out) const;

 private:
  struct CopyState {
    std::uint64_t version = 0;  // object version this copy holds
    SimTime stale_since;        // when it was first superseded (if stale)
  };
  struct ObjectState {
    std::uint64_t version = 0;
    Bytes size = 0;
    CoherenceMode mode = CoherenceMode::kNone;  // mode at last write
    std::string owner;  // instance holding the authoritative copy
    // Write-back dirty state: writes buffered since the last flush.
    std::uint64_t pending_writes = 0;
    Bytes pending_bytes = 0;
    // Cached copies per instance, ordered for deterministic iteration.
    std::map<std::string, CopyState> copies;
  };
  struct AeRecord {
    std::uint64_t seq = 0;
    std::string object;
    std::uint64_t version = 0;
    Bytes size = 0;
    std::string source;  // owner at append time (refresh source)
    CoherenceMode mode = CoherenceMode::kNone;
    SimTime applies_at;  // append time + ae_lag
  };

  CoherenceMode EffectiveMode(std::optional<CoherenceMode> override_mode) const {
    return override_mode.value_or(config_.mode);
  }
  // Forced synchronous re-fetch of `reader`'s stale copy, from the live
  // owner's shard when possible, the backing store otherwise.
  SimTime ForcedSync(const std::string& reader, const std::string& name,
                     ObjectState& obj, SimTime done);
  // Makes `obj`'s pending write-back data durable, charged from `from`.
  void Flush(const std::string& from, const std::string& name,
             ObjectState& obj);
  // Applies every due log record past `instance`'s cursor.
  void ApplyLogAt(const std::string& instance);
  void ApplyRecord(const std::string& instance, const AeRecord& record);

  Simulator* sim_;
  Network* network_;
  FaastCache* cache_;
  StorageConfig config_;
  TieredStore tiers_;
  TraceRecorder* trace_ = nullptr;
  StorageStats stats_;
  std::map<std::string, ObjectState> objects_;
  std::set<std::string> instances_;
  std::vector<AeRecord> log_;
  std::map<std::string, std::uint64_t> applied_seq_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace palette

#endif  // PALETTE_SRC_STORAGE_STORAGE_LAYER_H_
