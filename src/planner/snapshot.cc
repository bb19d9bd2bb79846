#include "src/planner/snapshot.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/faas/platform.h"

namespace palette {

PlacementSnapshot SnapshotCollector::Collect(FaasPlatform& platform) {
  PlacementSnapshot snapshot;
  snapshot.taken = platform.simulator().Now();

  PaletteLoadBalancer& lb = platform.load_balancer();
  for (const std::string& name : lb.instances()) {
    const auto id = InstanceRegistry::Global().Find(name);
    if (id.has_value()) {
      snapshot.instances.push_back(*id);
    }
  }

  // Colors come from the LB's opt-in per-color counters; sort names so the
  // snapshot (and everything the solver derives from it) has one canonical
  // order regardless of hash-map iteration.
  std::vector<std::pair<const std::string*, std::uint64_t>> counts;
  counts.reserve(lb.color_counts().size());
  for (const auto& [color, count] : lb.color_counts()) {
    counts.emplace_back(&color, count);
  }
  std::sort(counts.begin(), counts.end(), [](const auto& a, const auto& b) {
    return *a.first < *b.first;
  });

  snapshot.colors.reserve(counts.size());
  std::set<InstanceId> placements;
  for (const auto& [name, count] : counts) {
    ColorState& state = state_[*name];
    const std::uint64_t window =
        count >= state.last_count ? count - state.last_count : 0;
    state.last_count = count;
    state.ewma = beta_ * static_cast<double>(window) +
                 (1.0 - beta_) * state.ewma;
    state.index = snapshot.colors.size();

    ColorObservation obs;
    obs.color = *name;
    obs.load_ewma = state.ewma;
    const auto placement = lb.PeekColorId(*name);
    if (placement.has_value()) {
      obs.placement = *placement;
      placements.insert(*placement);
    }
    obs.split = lb.IsSplit(*name);
    if (obs.split) {
      obs.split_members = lb.SplitMembers(*name);
    }
    snapshot.colors.push_back(std::move(obs));
  }

  // Bytes: one walk of each placement's cache shard and of the dirty
  // storage directory. An object counts for the color its hashing key
  // names if it sits at (is owned by) that color's placement. state_ holds
  // every color the LB counts (counts are never erased): indexes are fresh.
  const auto placed_at = [&](const std::string& object, InstanceId at) {
    const auto it = state_.find(FaastCache::HashKeyOf(object));
    ColorObservation* obs =
        it == state_.end() ? nullptr : &snapshot.colors[it->second.index];
    return obs != nullptr && obs->placement == at ? obs : nullptr;
  };
  for (const InstanceId at : placements) {
    platform.cache().ForEachObject(
        at, [&](const std::string& object, Bytes size) {
          if (ColorObservation* obs = placed_at(object, at)) {
            obs->cache_bytes += size;
          }
        });
  }
  if (platform.storage_layer() != nullptr) {
    platform.storage_layer()->ForEachDirtyObject(
        [&](const std::string& object, const std::string& owner, Bytes bytes) {
          const auto at = InstanceRegistry::Global().Find(owner);
          if (ColorObservation* obs = at ? placed_at(object, *at) : nullptr) {
            obs->dirty_bytes += bytes;
          }
        });
  }
  return snapshot;
}

}  // namespace palette
