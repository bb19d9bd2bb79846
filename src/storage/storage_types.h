// Configuration and counters for the stateful storage tier (docs/STORAGE.md).
//
// The paper's cache is read-mostly over one backing store; following
// Cloudburst (PAPERS.md) this subsystem adds a write path with selectable
// coherence, anti-entropy between instance caches, and a second backing
// tier. The types here are shared by the platform config, the workload
// harness, and tools/loadgen.
#ifndef PALETTE_SRC_STORAGE_STORAGE_TYPES_H_
#define PALETTE_SRC_STORAGE_STORAGE_TYPES_H_

#include <cstdint>
#include <string_view>

#include "src/common/types.h"

namespace palette {

// How writes propagate from the producing instance's cache to the backing
// store and to peer copies. kNone disables the storage layer entirely — the
// platform behaves bit-for-bit as before it existed.
enum class CoherenceMode {
  kNone,
  // Every write lands in the backing store synchronously before the
  // invocation completes. Peer copies are invalidated/refreshed by
  // anti-entropy; a read of a known-stale copy always re-fetches first, so
  // stale reads are structurally impossible.
  kWriteThrough,
  // Writes are buffered dirty in the owner's cache and flushed within
  // max_dirty_age on the sim clock. A crash inside the window loses the
  // dirty data — surfaced in the books (writes_lost/dirty_bytes_lost),
  // never silently. Reads behave as in write-through (stale copies are
  // re-fetched, not served).
  kWriteBack,
  // Writes are synchronously durable (as write-through), but replicated
  // copies may serve *bounded-stale* reads: a stale copy is served as long
  // as its staleness is within staleness_bound, else the read blocks on a
  // forced re-fetch. Served staleness is counted and its maximum tracked —
  // the bound is asserted, never silently exceeded.
  kCausal,
};

// Short identifier for CLI flags and reports
// ("off", "write-through", "write-back", "causal").
std::string_view CoherenceModeId(CoherenceMode mode);
bool ParseCoherenceMode(std::string_view id, CoherenceMode* out);

// What an anti-entropy record does to a peer's stale copy when applied.
enum class AntiEntropyAction {
  kAuto,        // refresh for causal-mode writes, invalidate otherwise
  kInvalidate,  // drop the stale copy; the next read misses/re-fetches
  kRefresh,     // ship the new bytes to the peer (charged on the network)
};

std::string_view AntiEntropyActionId(AntiEntropyAction action);
bool ParseAntiEntropyAction(std::string_view id, AntiEntropyAction* out);

// Two-tier backing store: a fast-but-small tier in front of the slow-but-big
// one, with per-object placement. Disabled (single tier) by default, which
// preserves the legacy kStorageNode behavior exactly.
struct StorageTierConfig {
  bool two_tier = false;
  // Capacity of the fast tier; overflow demotes the least-recently-used
  // fast object back to the slow tier (bytes charged on the network).
  Bytes fast_capacity = 256 * kMiB;
  // Per-access device latency added ahead of the network transfer.
  SimTime fast_latency = SimTime::FromMicros(100);
  SimTime slow_latency = SimTime::FromMillis(2);
  // An object promotes to the fast tier after this many slow-tier reads
  // (the promotion copy crosses the network too).
  int promote_after = 2;
};

struct StorageConfig {
  CoherenceMode mode = CoherenceMode::kNone;
  // Write-back: upper bound on how long a write may sit dirty in the
  // owner's cache before it is flushed to the backing store.
  SimTime max_dirty_age = SimTime::FromMillis(50);
  // Causal: maximum staleness a replicated copy may be served at.
  SimTime staleness_bound = SimTime::FromMillis(100);
  // Anti-entropy: a peer applies log records this long after they were
  // appended (the gossip/propagation delay, on the sim clock).
  SimTime ae_lag = SimTime::FromMillis(10);
  AntiEntropyAction ae_action = AntiEntropyAction::kAuto;
  StorageTierConfig tiers;

  bool enabled() const { return mode != CoherenceMode::kNone; }
};

// Aggregate storage-layer counters ("storage.*" in metrics exports; the
// `storage` JSON section in loadgen/bench output). Accumulate() merges
// per-group counters in sharded runs.
struct StorageStats {
  // Write books. After a drained run the identity
  //   writes_total == writes_durable + writes_lost
  // holds: every write either reached the backing store (synchronously, or
  // via a write-back flush) or died dirty with a crashed owner.
  std::uint64_t writes_total = 0;
  std::uint64_t writes_durable = 0;
  std::uint64_t writes_lost = 0;
  Bytes write_bytes = 0;
  // Write-back flush activity (timer, graceful drain, or migration).
  std::uint64_t flushes = 0;
  Bytes dirty_bytes_flushed = 0;
  Bytes dirty_bytes_lost = 0;
  // Coherence traffic: forced synchronous re-fetches of stale copies plus
  // anti-entropy refresh payloads. Near zero under sticky routing — the
  // novel claim ext_write_coherence asserts.
  std::uint64_t coherence_syncs = 0;
  Bytes coherence_bytes = 0;
  // Causal-mode bounded staleness: reads served from a stale copy, and the
  // maximum staleness ever served (never exceeds staleness_bound).
  std::uint64_t stale_reads = 0;
  std::int64_t max_served_staleness_ns = 0;
  // Anti-entropy log activity.
  std::uint64_t ae_records = 0;
  std::uint64_t ae_applied = 0;
  std::uint64_t ae_invalidations = 0;
  std::uint64_t ae_refreshes = 0;
  Bytes ae_refresh_bytes = 0;
  // Two-tier placement activity.
  std::uint64_t tier_fast_reads = 0;
  std::uint64_t tier_slow_reads = 0;
  std::uint64_t tier_promotions = 0;
  std::uint64_t tier_demotions = 0;
  Bytes tier_promoted_bytes = 0;
  Bytes tier_demoted_bytes = 0;

  void Accumulate(const StorageStats& other);
  bool operator==(const StorageStats&) const = default;
  // True iff the write books close (see above).
  bool WriteBooksClose() const {
    return writes_total == writes_durable + writes_lost;
  }
};

}  // namespace palette

#endif  // PALETTE_SRC_STORAGE_STORAGE_TYPES_H_
