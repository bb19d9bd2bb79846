#include "src/storage/storage_types.h"

namespace palette {

std::string_view CoherenceModeId(CoherenceMode mode) {
  switch (mode) {
    case CoherenceMode::kNone:
      return "off";
    case CoherenceMode::kWriteThrough:
      return "write-through";
    case CoherenceMode::kWriteBack:
      return "write-back";
    case CoherenceMode::kCausal:
      return "causal";
  }
  return "unknown";
}

bool ParseCoherenceMode(std::string_view id, CoherenceMode* out) {
  if (id == "off" || id == "none") {
    *out = CoherenceMode::kNone;
    return true;
  }
  if (id == "write-through" || id == "wt") {
    *out = CoherenceMode::kWriteThrough;
    return true;
  }
  if (id == "write-back" || id == "wb") {
    *out = CoherenceMode::kWriteBack;
    return true;
  }
  if (id == "causal") {
    *out = CoherenceMode::kCausal;
    return true;
  }
  return false;
}

void StorageStats::Accumulate(const StorageStats& other) {
  writes_total += other.writes_total;
  writes_durable += other.writes_durable;
  writes_lost += other.writes_lost;
  write_bytes += other.write_bytes;
  flushes += other.flushes;
  dirty_bytes_flushed += other.dirty_bytes_flushed;
  dirty_bytes_lost += other.dirty_bytes_lost;
  coherence_syncs += other.coherence_syncs;
  coherence_bytes += other.coherence_bytes;
  stale_reads += other.stale_reads;
  if (other.max_served_staleness_ns > max_served_staleness_ns) {
    max_served_staleness_ns = other.max_served_staleness_ns;
  }
  ae_records += other.ae_records;
  ae_applied += other.ae_applied;
  ae_invalidations += other.ae_invalidations;
  ae_refreshes += other.ae_refreshes;
  ae_refresh_bytes += other.ae_refresh_bytes;
  tier_fast_reads += other.tier_fast_reads;
  tier_slow_reads += other.tier_slow_reads;
  tier_promotions += other.tier_promotions;
  tier_demotions += other.tier_demotions;
  tier_promoted_bytes += other.tier_promoted_bytes;
  tier_demoted_bytes += other.tier_demoted_bytes;
}

}  // namespace palette
