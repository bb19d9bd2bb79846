#include "src/planner/snapshot.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#include "src/faas/platform.h"

namespace palette {

void SnapshotCollector::MergeNewColors(const PaletteLoadBalancer& lb) {
  const auto& counted = lb.counted_colors();
  const std::size_t first_new = colors_.size();
  if (first_new == counted.size()) {
    return;
  }
  for (std::size_t id = first_new; id < counted.size(); ++id) {
    colors_.push_back(ColorState{counted[id]});
    ids_.emplace(counted[id]->first, id);
    by_name_.push_back(id);
  }
  const auto name_less = [&](std::size_t a, std::size_t b) {
    return colors_[a].counter->first < colors_[b].counter->first;
  };
  const auto merged = by_name_.begin() + static_cast<std::ptrdiff_t>(
                                             first_new);
  std::sort(merged, by_name_.end(), name_less);
  std::inplace_merge(by_name_.begin(), merged, by_name_.end(), name_less);
  for (std::size_t at = 0; at < by_name_.size(); ++at) {
    colors_[by_name_[at]].index = at;
  }
}

PlacementSnapshot SnapshotCollector::Collect(FaasPlatform& platform) {
  PlacementSnapshot snapshot;
  snapshot.taken = platform.simulator().Now();

  PaletteLoadBalancer& lb = platform.load_balancer();
  assert(lb_ == nullptr || lb_ == &lb);  // one collector per platform
  lb_ = &lb;
  for (const std::string& name : lb.instances()) {
    const auto id = InstanceRegistry::Global().Find(name);
    if (id.has_value()) {
      snapshot.instances.push_back(*id);
    }
  }

  // Colors come from the LB's opt-in per-color counters, in name order so
  // the snapshot (and everything the solver derives from it) has one
  // canonical order regardless of hash-map iteration. The order persists
  // across rounds; only newly counted colors are sorted in.
  MergeNewColors(lb);
  snapshot.colors.reserve(by_name_.size());
  std::vector<InstanceId> placements;  // sorted, distinct
  for (const std::size_t id : by_name_) {
    ColorState& state = colors_[id];
    const std::uint64_t count = state.counter->second;
    const std::uint64_t window =
        count >= state.last_count ? count - state.last_count : 0;
    state.last_count = count;
    state.ewma = beta_ * static_cast<double>(window) +
                 (1.0 - beta_) * state.ewma;

    ColorObservation obs;
    obs.color = state.counter->first;
    obs.load_ewma = state.ewma;
    const PaletteLoadBalancer::ColorPlacement placed =
        lb.PeekColorPlacement(obs.color);
    if (placed.primary.has_value()) {
      obs.placement = *placed.primary;
      const auto at = std::lower_bound(placements.begin(), placements.end(),
                                       obs.placement);
      if (at == placements.end() || *at != obs.placement) {
        placements.insert(at, obs.placement);
      }
    }
    if (placed.split_members != nullptr) {
      obs.split = true;
      obs.split_members = *placed.split_members;
    }
    snapshot.colors.push_back(std::move(obs));
  }

  // Bytes: one walk of each placement's cache shard and of the dirty
  // storage directory. An object counts for the color its hashing key
  // names if it sits at (is owned by) that color's placement. ids_ holds
  // every color the LB counts (counts are never erased): indexes are fresh.
  const auto placed_at = [&](const std::string& object, InstanceId at) {
    const auto it = ids_.find(FaastCache::HashKeyOf(object));
    ColorObservation* obs =
        it == ids_.end() ? nullptr
                         : &snapshot.colors[colors_[it->second].index];
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
