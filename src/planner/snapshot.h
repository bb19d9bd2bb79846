// Placement snapshot: the planner's input (docs/PLANNER.md).
//
// A snapshot is a consistent, sim-clock-stamped view of one application:
// which instances exist, which color maps where, how hot each color has
// recently been (EWMA of per-window invocation counts), and how many cached
// bytes would have to move if the color were re-homed. The collector is
// deliberately read-only — it peeks the load balancer and cache without
// creating table entries or touching LRU order, so taking a snapshot never
// perturbs the state it observes.
#ifndef PALETTE_SRC_PLANNER_SNAPSHOT_H_
#define PALETTE_SRC_PLANNER_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/instance_id.h"
#include "src/common/types.h"
#include "src/core/color.h"
#include "src/core/palette_load_balancer.h"

namespace palette {

class FaasPlatform;

// One color as the planner sees it.
struct ColorObservation {
  Color color;
  // Smoothed invocations per collection window: beta * latest_window +
  // (1 - beta) * previous. A burst decays instead of whipsawing the solver.
  double load_ewma = 0;
  // Migratable cache footprint at the current placement (bytes of objects
  // whose hash key is this color, resident in the placement's shard).
  Bytes cache_bytes = 0;
  // Dirty write-back bytes owned by the current placement under this color
  // (zero when the storage layer is disabled or the mode has no write
  // buffering). Re-homing such a color forces a flush before the haul, so
  // the planner prices these bytes above clean ones
  // (PlannerConfig::dirty_move_weight).
  Bytes dirty_bytes = 0;
  // Current primary placement (split colors report their primary);
  // kInvalidInstanceId when the policy has no mapping yet.
  InstanceId placement = kInvalidInstanceId;
  // Split state, for hysteresis and merge detection.
  bool split = false;
  std::vector<InstanceId> split_members;
};

struct PlacementSnapshot {
  SimTime taken;
  std::vector<InstanceId> instances;      // name-sorted, live members
  std::vector<ColorObservation> colors;   // sorted by color name
};

// Stateful collector: remembers each color's cumulative count from the
// previous collection so it can difference out the latest window, and keeps
// the EWMA across windows. One collector per platform: it holds pointers to
// that platform's per-color counters.
class SnapshotCollector {
 public:
  explicit SnapshotCollector(double ewma_beta) : beta_(ewma_beta) {}

  // Requires the platform's LB to have color stats enabled (the planner
  // runtime turns them on); colors never routed since the last collection
  // keep decaying toward zero.
  PlacementSnapshot Collect(FaasPlatform& platform);

 private:
  struct ColorState {
    const PaletteLoadBalancer::ColorCount* counter;  // name, running count
    std::uint64_t last_count = 0;
    double ewma = 0;
    std::size_t index = 0;  // position in by_name_ and the snapshot
  };

  // Appends the colors the LB first counted since the last collection and
  // merges them into by_name_; only they are sorted.
  void MergeNewColors(const PaletteLoadBalancer& lb);

  double beta_;
  const PaletteLoadBalancer* lb_ = nullptr;
  // Indexed like lb.counted_colors() (first-counted order).
  std::vector<ColorState> colors_;
  // Indexes into colors_, in color-name order: the snapshot's order.
  std::vector<std::size_t> by_name_;
  // Color name -> index into colors_; the names live in the LB's counters.
  std::unordered_map<std::string_view, std::size_t> ids_;
};

}  // namespace palette

#endif  // PALETTE_SRC_PLANNER_SNAPSHOT_H_
