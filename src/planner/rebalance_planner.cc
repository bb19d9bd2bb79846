#include "src/planner/rebalance_planner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

#include "src/common/rng.h"

namespace palette {
namespace {

constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

// One unit of placeable load: a color contributes `width` slots of
// load / width each. Width 1 is a plain (movable) color; width k >= 2 is a
// split. Slot 0 is the primary — it carries the color's cache bytes, so
// moving it is what costs migration.
struct Slot {
  std::size_t participant = 0;         // index into Solve's participants
  double load = 0;                     // this slot's share of the load
  std::size_t instance = kUnassigned;  // index into snapshot.instances
};

// Mutable solver state: per-instance loads plus the movement account.
struct State {
  std::vector<double> loads;           // indexed like snapshot.instances
  double mean_load = 0;                // invariant under reassignment
  double alpha = 0;
  Bytes total_bytes = 0;
  Bytes moved_bytes = 0;

  double Objective() const {
    double max_load = 0;
    for (const double load : loads) {
      max_load = std::max(max_load, load);
    }
    return ObjectiveAt(max_load);
  }

  double ObjectiveAt(double max_load) const {
    double f = mean_load > 0 ? max_load / mean_load : 0;
    if (total_bytes > 0 && alpha > 0) {
      f += alpha * (static_cast<double>(moved_bytes) /
                    static_cast<double>(total_bytes));
    }
    return f;
  }
};

}  // namespace

Plan RebalancePlanner::Solve(const PlacementSnapshot& snapshot) const {
  Plan plan;
  plan.computed_at = snapshot.taken;

  const std::size_t n = snapshot.instances.size();
  if (n == 0) {
    return plan;
  }
  // Instance index by id: ids are dense, so a flat table replaces a hash
  // map (and its per-node allocations).
  std::vector<std::size_t> index_of(
      *std::max_element(snapshot.instances.begin(), snapshot.instances.end()) +
          std::size_t{1},
      kUnassigned);
  for (std::size_t i = 0; i < n; ++i) {
    index_of[snapshot.instances[i]] = i;
  }
  const auto index_at = [&](InstanceId id) {
    return id < index_of.size() ? index_of[id] : kUnassigned;
  };

  // Participating colors: placed on a live instance with positive load.
  // Unplaced colors (evicted table entries) are left to organic routing.
  struct Participant {
    std::size_t color;                  // index into snapshot.colors
    std::size_t home;                   // current primary, instance index
    std::vector<std::size_t> members;   // current split members (mapped)
    int width = 1;                      // target replica width
  };
  // Movement price per color: clean cached bytes haul at cost 1, dirty
  // write-back bytes add dirty_move_weight on top (re-homing flushes them
  // through the backing store first).
  std::vector<Bytes> move_cost(snapshot.colors.size(), 0);
  for (std::size_t c = 0; c < snapshot.colors.size(); ++c) {
    const ColorObservation& obs = snapshot.colors[c];
    move_cost[c] =
        obs.cache_bytes +
        static_cast<Bytes>(std::max(0.0, config_.dirty_move_weight) *
                           static_cast<double>(obs.dirty_bytes));
  }

  std::vector<Participant> participants;
  participants.reserve(snapshot.colors.size());
  double total_load = 0;
  Bytes total_bytes = 0;
  for (std::size_t c = 0; c < snapshot.colors.size(); ++c) {
    const ColorObservation& obs = snapshot.colors[c];
    if (obs.load_ewma <= 0) {
      continue;
    }
    const std::size_t home = index_at(obs.placement);
    if (home == kUnassigned) {
      continue;
    }
    Participant p;
    p.color = c;
    p.home = home;
    if (obs.split) {
      for (const InstanceId member : obs.split_members) {
        const std::size_t at = index_at(member);
        if (at != kUnassigned) {
          p.members.push_back(at);
        }
      }
    }
    total_load += obs.load_ewma;
    total_bytes += move_cost[c];
    participants.push_back(std::move(p));
  }
  if (participants.empty() || total_load <= 0) {
    return plan;
  }
  const double mean_load = total_load / static_cast<double>(n);

  // Objective before: every color at its current placement, split colors
  // spread evenly across their current members. No movement term.
  {
    std::vector<double> before(n, 0);
    for (const Participant& p : participants) {
      const double load = snapshot.colors[p.color].load_ewma;
      if (p.members.size() > 1) {
        const double share = load / static_cast<double>(p.members.size());
        for (const std::size_t member : p.members) {
          before[member] += share;
        }
      } else {
        before[p.home] += load;
      }
    }
    double max_before = 0;
    for (const double load : before) {
      max_before = std::max(max_before, load);
    }
    plan.objective_before = max_before / mean_load;
  }

  // Hot-color split sizing with hysteresis: enter at share > threshold
  // with width ceil(share / threshold); keep the current width while the
  // share stays above threshold / 2; merge below that.
  const int max_width = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(config_.max_split), n));
  for (Participant& p : participants) {
    const double share = snapshot.colors[p.color].load_ewma / total_load;
    const int current = static_cast<int>(std::max<std::size_t>(
        p.members.size(), 1));
    // A color is never split when fewer than 2 instances can host it.
    if (max_width >= 2 && config_.split_threshold > 0 &&
        share > config_.split_threshold) {
      const int wanted =
          static_cast<int>(std::ceil(share / config_.split_threshold));
      p.width = std::clamp(wanted, 2, max_width);
    } else if (current > 1 && config_.split_threshold > 0 &&
               share > config_.split_threshold / 2) {
      p.width = std::min(current, std::max(max_width, 1));
    } else {
      p.width = 1;
    }
  }

  // Slot construction. Initial assignment keeps what exists (primary at
  // home, split slots at current members); slots beyond the current width
  // go to the least-loaded instance not already hosting this color.
  std::size_t slot_count = 0;
  for (const Participant& p : participants) {
    slot_count += static_cast<std::size_t>(p.width);
  }
  std::vector<Slot> slots;
  slots.reserve(slot_count);
  std::vector<std::size_t> first_slot(participants.size(), 0);
  State state;
  state.loads.assign(n, 0);
  state.mean_load = mean_load;
  state.alpha = config_.move_alpha;
  state.total_bytes = total_bytes;
  for (std::size_t pi = 0; pi < participants.size(); ++pi) {
    const Participant& p = participants[pi];
    const ColorObservation& obs = snapshot.colors[p.color];
    const double slot_load =
        obs.load_ewma / static_cast<double>(p.width);
    first_slot[pi] = slots.size();
    for (int j = 0; j < p.width; ++j) {
      Slot slot;
      slot.participant = pi;
      slot.load = slot_load;
      if (j == 0) {
        slot.instance = p.home;
      } else if (static_cast<std::size_t>(j) < p.members.size()) {
        slot.instance = p.members[j];
      }
      if (slot.instance != kUnassigned) {
        state.loads[slot.instance] += slot.load;
      }
      slots.push_back(slot);
    }
  }
  // Sibling collision: two slots of one color on one instance.
  const auto sibling_blocked = [&](std::size_t pi, std::size_t slot_index,
                                   std::size_t to) {
    for (int k = 0; k < participants[pi].width; ++k) {
      const std::size_t other = first_slot[pi] + static_cast<std::size_t>(k);
      if (other != slot_index && slots[other].instance == to) {
        return true;
      }
    }
    return false;
  };
  // Deferred slots: deterministic greedy fill.
  for (std::size_t pi = 0; pi < participants.size(); ++pi) {
    const Participant& p = participants[pi];
    for (int j = 0; j < p.width; ++j) {
      Slot& slot = slots[first_slot[pi] + static_cast<std::size_t>(j)];
      if (slot.instance != kUnassigned) {
        continue;
      }
      std::size_t best = kUnassigned;
      for (std::size_t i = 0; i < n; ++i) {
        if (sibling_blocked(pi, first_slot[pi] + static_cast<std::size_t>(j),
                            i)) {
          continue;
        }
        if (best == kUnassigned || state.loads[i] < state.loads[best]) {
          best = i;
        }
      }
      if (best == kUnassigned) {
        best = 0;  // More width than instances; clamp earlier prevents this.
      }
      slot.instance = best;
      state.loads[best] += slot.load;
    }
  }

  // Movement account: a color pays its cache bytes when its primary leaves
  // home. Replica slots cost nothing up front (they warm organically).
  const auto primary_moved = [&](std::size_t pi) {
    return slots[first_slot[pi]].instance != participants[pi].home;
  };
  for (std::size_t pi = 0; pi < participants.size(); ++pi) {
    if (primary_moved(pi)) {
      state.moved_bytes += move_cost[participants[pi].color];
    }
  }
  // Re-prices participant `pi`'s primary moving from one instance to another.
  const auto charge_primary = [&](std::size_t pi, std::size_t from,
                                  std::size_t to) {
    const bool was_moved = from != participants[pi].home;
    const bool now_moved = to != participants[pi].home;
    if (!was_moved && now_moved) {
      state.moved_bytes += move_cost[participants[pi].color];
    } else if (was_moved && !now_moved) {
      state.moved_bytes -= move_cost[participants[pi].color];
    }
  };

  double objective = state.Objective();

  // Phase 1: steepest-descent sweeps. Each slot greedily takes the
  // instance that most improves the objective, movement cost included.
  // Each candidate's max load is O(1): the max of a running prefix over
  // the loads already scanned, the suffix max of the loads not yet
  // scanned, and the two loads the move changes. The scan leaves the loads
  // exactly as moving and undoing every candidate would: each visited
  // candidate at (x + l) - l and `from` re-drifted to (f - l) + l once per
  // candidate, so plans stay bit-identical (docs/PLANNER.md, "Cost").
  //
  // Pruning: a whole color at home on an instance other than `top` cannot
  // win. Every candidate leaves `top` at or above
  // min(loads[top], (loads[top] + l) - l), and the movement term can only
  // grow, so when that floor's objective is within the 1e-12 acceptance
  // margin of the current one the scan is skipped and only its drift is
  // replayed. The check makes the skip exact for any `top`; keeping `top`
  // at the max load (re-found after every accepted move) is what lets it
  // pass (docs/PLANNER.md, "Pruned slots").
  std::vector<double> suffix_max(n + 1, 0);
  const auto arg_max = [&] {
    return static_cast<std::size_t>(
        std::max_element(state.loads.begin(), state.loads.end()) -
        state.loads.begin());
  };
  for (int round = 0; round < config_.swap_rounds; ++round) {
    bool improved = false;
    std::size_t top = arg_max();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const std::size_t pi = slots[s].participant;
      const bool is_primary = s == first_slot[pi];
      const std::size_t from = slots[s].instance;
      const double l = slots[s].load;
      if (participants[pi].width == 1 && from == participants[pi].home &&
          from != top) {
        const double top_floor =
            std::min(state.loads[top], (state.loads[top] + l) - l);
        if (state.ObjectiveAt(top_floor) + 1e-12 >= objective) {
          double from_load = state.loads[from];
          for (double& load : state.loads) {
            load = (load + l) - l;
          }
          for (std::size_t k = 1; k < n; ++k) {
            const double drifted = (from_load - l) + l;
            if (drifted == from_load) {
              break;
            }
            from_load = drifted;
          }
          state.loads[from] = from_load;
          continue;
        }
      }
      for (std::size_t i = n; i-- > 0;) {
        suffix_max[i] = i == from ? suffix_max[i + 1]
                                  : std::max(suffix_max[i + 1], state.loads[i]);
      }
      double prefix_max = 0;
      double from_load = state.loads[from];
      std::size_t best_to = from;
      double best_objective = objective;
      for (std::size_t to = 0; to < n; ++to) {
        if (to == from) {
          continue;
        }
        double& load = state.loads[to];
        if (!sibling_blocked(pi, s, to)) {
          const double max_load =
              std::max(std::max(std::max(prefix_max, from_load - l), load + l),
                       suffix_max[to + 1]);
          const Bytes saved_moved = state.moved_bytes;
          if (is_primary) {
            charge_primary(pi, from, to);
          }
          const double candidate = state.ObjectiveAt(max_load);
          state.moved_bytes = saved_moved;
          load = (load + l) - l;
          from_load = (from_load - l) + l;
          if (candidate + 1e-12 < best_objective) {
            best_objective = candidate;
            best_to = to;
          }
        }
        prefix_max = std::max(prefix_max, load);
      }
      state.loads[from] = from_load;
      if (best_to != from) {
        state.loads[from] -= l;
        state.loads[best_to] += l;
        if (is_primary) {
          charge_primary(pi, from, best_to);
        }
        slots[s].instance = best_to;
        objective = best_objective;
        improved = true;
        top = arg_max();
      }
    }
    if (!improved) {
      break;
    }
  }

  // Phase 2: seeded random swaps — pairs of slots exchange instances when
  // that strictly improves the objective. The stream depends only on the
  // configured seed, keeping Solve deterministic.
  if (slots.size() >= 2) {
    Rng rng(config_.seed ^ 0x9E3779B97F4A7C15ULL);
    const int attempts = config_.swap_rounds * 4;
    for (int attempt = 0; attempt < attempts; ++attempt) {
      const std::size_t a = rng.NextBelow(slots.size());
      const std::size_t b = rng.NextBelow(slots.size());
      const std::size_t pa = slots[a].participant;
      const std::size_t pb = slots[b].participant;
      const std::size_t ia = slots[a].instance;
      const std::size_t ib = slots[b].instance;
      if (pa == pb || ia == ib || sibling_blocked(pa, a, ib) ||
          sibling_blocked(pb, b, ia)) {
        continue;
      }
      const Bytes saved_moved = state.moved_bytes;
      state.loads[ia] += slots[b].load - slots[a].load;
      state.loads[ib] += slots[a].load - slots[b].load;
      if (a == first_slot[pa]) {
        charge_primary(pa, ia, ib);
      }
      if (b == first_slot[pb]) {
        charge_primary(pb, ib, ia);
      }
      const double candidate = state.Objective();
      if (candidate + 1e-12 < objective) {
        slots[a].instance = ib;
        slots[b].instance = ia;
        objective = candidate;
      } else {
        state.loads[ia] += slots[a].load - slots[b].load;
        state.loads[ib] += slots[b].load - slots[a].load;
        state.moved_bytes = saved_moved;
      }
    }
  }

  // Cap emitted moves at max_moves, keeping the highest-load movers, and
  // revert the rest so the reported objective matches the emitted plan.
  std::vector<std::size_t> movers;  // participant indices, width-1 movers
  movers.reserve(participants.size());
  for (std::size_t pi = 0; pi < participants.size(); ++pi) {
    if (participants[pi].width == 1 && participants[pi].members.size() <= 1 &&
        primary_moved(pi)) {
      movers.push_back(pi);
    }
  }
  if (movers.size() > config_.max_moves) {
    std::sort(movers.begin(), movers.end(), [&](std::size_t a, std::size_t b) {
      const double la = snapshot.colors[participants[a].color].load_ewma;
      const double lb = snapshot.colors[participants[b].color].load_ewma;
      if (la != lb) {
        return la > lb;
      }
      return snapshot.colors[participants[a].color].color <
             snapshot.colors[participants[b].color].color;
    });
    for (std::size_t m = config_.max_moves; m < movers.size(); ++m) {
      const std::size_t pi = movers[m];
      Slot& slot = slots[first_slot[pi]];
      state.loads[slot.instance] -= slot.load;
      state.loads[participants[pi].home] += slot.load;
      state.moved_bytes -= move_cost[participants[pi].color];
      slot.instance = participants[pi].home;
    }
    movers.resize(config_.max_moves);
    std::sort(movers.begin(), movers.end());
    objective = state.Objective();
  }

  plan.objective_after = objective;
  if (plan.objective_after > plan.objective_before) {
    // No improving plan found; report the objectives and change nothing.
    plan.objective_after = plan.objective_before;
    return plan;
  }

  // Emission, in snapshot (color-sorted) order within each kind. Every
  // mover left after the cap is one emitted move.
  plan.moves.reserve(movers.size());
  for (std::size_t pi = 0; pi < participants.size(); ++pi) {
    const Participant& p = participants[pi];
    const ColorObservation& obs = snapshot.colors[p.color];
    const bool currently_split = p.members.size() > 1;
    if (p.width == 1) {
      const InstanceId to = snapshot.instances[slots[first_slot[pi]].instance];
      if (currently_split) {
        plan.merges.push_back(PlanMerge{obs.color, to});
      } else if (slots[first_slot[pi]].instance != p.home) {
        plan.moves.push_back(
            PlanMove{obs.color, snapshot.instances[p.home], to});
      }
      continue;
    }
    // Split: weights count slots per instance, primary first.
    PlanSplit split;
    split.color = obs.color;
    for (int j = 0; j < p.width; ++j) {
      const InstanceId member =
          snapshot.instances[slots[first_slot[pi] + static_cast<std::size_t>(j)]
                                 .instance];
      const auto found =
          std::find(split.instances.begin(), split.instances.end(), member);
      if (found == split.instances.end()) {
        split.instances.push_back(member);
        split.weights.push_back(1);
      } else {
        ++split.weights[static_cast<std::size_t>(
            found - split.instances.begin())];
      }
    }
    // Skip re-emitting an unchanged split (stability: identical rounds
    // produce identical tables without counter churn).
    if (!currently_split || obs.split_members != split.instances) {
      plan.splits.push_back(std::move(split));
    }
  }
  return plan;
}

}  // namespace palette
