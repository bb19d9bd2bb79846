// Tests for the global re-balancer (docs/PLANNER.md): solver determinism,
// movement-cost monotonicity, hot-color split/merge round-trips, planner
// runs under worker churn, and digest equality across shard counts.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/core/least_assigned_policy.h"
#include "src/core/palette_load_balancer.h"
#include "src/hash/hash.h"
#include "src/faas/platform.h"
#include "src/planner/planner_runtime.h"
#include "src/planner/rebalance_planner.h"
#include "src/planner/snapshot.h"
#include "src/sim/simulator.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

// Instances "w0".."w<n-1>", joining in that order under the ids `table`
// assigns them.
std::vector<InstanceId> MakeInstances(InstanceTable& table, int n) {
  std::vector<InstanceId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(table.Intern(StrFormat("w%d", i)));
  }
  return ids;
}

// A deliberately lopsided snapshot: every color currently sits on the first
// instance, loads follow a fixed harmonic-ish skew, and each color owns
// some cached bytes — the solver has both something to fix (imbalance) and
// something to weigh (migration cost).
PlacementSnapshot SkewedSnapshot(int instances, int colors) {
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(1);
  InstanceTable ids;
  snapshot.instances = MakeInstances(ids, instances);
  for (int c = 0; c < colors; ++c) {
    ColorObservation obs;
    obs.color = StrFormat("c%03d", c);
    obs.load_ewma = 100.0 / static_cast<double>(c + 1);
    obs.cache_bytes = static_cast<Bytes>(1000 * (c + 1));
    obs.placement = snapshot.instances[0];
    snapshot.colors.push_back(std::move(obs));
  }
  return snapshot;
}

std::string PlanSignature(const Plan& plan) {
  std::string sig;
  for (const PlanMove& move : plan.moves) {
    sig += StrFormat("M %s %u->%u;", move.color.c_str(), move.from, move.to);
  }
  for (const PlanSplit& split : plan.splits) {
    sig += StrFormat("S %s", split.color.c_str());
    for (std::size_t i = 0; i < split.instances.size(); ++i) {
      sig += StrFormat(" %u*%u", split.instances[i], split.weights[i]);
    }
    sig += ";";
  }
  for (const PlanMerge& merge : plan.merges) {
    sig += StrFormat("G %s ->%u;", merge.color.c_str(), merge.to);
  }
  return sig;
}

// A plan with instances by name, so the signature does not depend on the
// id values `ids` assigned them.
std::string NamedPlanSignature(const InstanceTable& ids, const Plan& plan) {
  std::string sig;
  for (const PlanMove& move : plan.moves) {
    sig += StrFormat("M %s %s->%s;", move.color.c_str(),
                     ids.NameOf(move.from).c_str(),
                     ids.NameOf(move.to).c_str());
  }
  for (const PlanSplit& split : plan.splits) {
    sig += StrFormat("S %s", split.color.c_str());
    for (std::size_t i = 0; i < split.instances.size(); ++i) {
      sig += StrFormat(" %s*%u", ids.NameOf(split.instances[i]).c_str(),
                       split.weights[i]);
    }
    sig += ";";
  }
  for (const PlanMerge& merge : plan.merges) {
    sig += StrFormat("G %s ->%s;", merge.color.c_str(),
                     ids.NameOf(merge.to).c_str());
  }
  return sig;
}

// A seeded random snapshot with every kind of color the solver sees: idle
// colors, unplaced colors, colors on a dead instance, dirty bytes, and
// four hot colors at fixed shares of the participating load — one entering
// a split (0.35), an existing split held by hysteresis (0.15), an existing
// split with a dead member cooling into a merge (0.03), and an existing
// split staying above the threshold (0.25).
PlacementSnapshot GoldenSnapshot(InstanceTable& ids, int instances,
                                 int colors) {
  Rng rng(static_cast<std::uint64_t>(instances * 10007 + colors));
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(3);
  snapshot.instances = MakeInstances(ids, instances);
  const InstanceId dead = ids.Intern("golden-dead");
  double cold_load = 0;
  for (int c = 0; c < colors; ++c) {
    ColorObservation obs;
    obs.color = StrFormat("g%04d", c);
    obs.cache_bytes = static_cast<Bytes>(rng.NextBelow(1 << 20));
    obs.dirty_bytes =
        c % 5 == 0 ? static_cast<Bytes>(rng.NextBelow(1 << 18)) : 0;
    obs.load_ewma = c % 16 == 15 ? 0 : rng.NextDouble() * 10;
    if (c % 29 == 11) {
      obs.placement = dead;
    } else if (c % 23 != 7) {
      obs.placement = snapshot.instances[rng.NextBelow(
          static_cast<std::uint64_t>(instances))];
      if (c >= 4) {
        cold_load += obs.load_ewma;
      }
    }
    snapshot.colors.push_back(std::move(obs));
  }
  const double total = cold_load / 0.22;
  const auto members = [&](int offset, int width) {
    std::vector<InstanceId> out;
    for (int j = 0; j < std::min(width, instances); ++j) {
      out.push_back(snapshot.instances[static_cast<std::size_t>(
          (offset + j) % instances)]);
    }
    return out;
  };
  const auto make_hot = [&](int c, double share,
                            std::vector<InstanceId> split) {
    ColorObservation& obs = snapshot.colors[static_cast<std::size_t>(c)];
    obs.load_ewma = share * total;
    obs.placement = split.front();
    obs.split = split.size() > 1;
    obs.split_members =
        obs.split ? std::move(split) : std::vector<InstanceId>{};
  };
  make_hot(0, 0.35, members(0, 1));
  make_hot(1, 0.15, members(0, 3));
  std::vector<InstanceId> cooling = members(1, 2);
  cooling.push_back(dead);
  make_hot(2, 0.03, std::move(cooling));
  make_hot(3, 0.25, members(2, 2));
  return snapshot;
}

// Plans and objectives pinned bit for bit: the cheap solver scans must
// reproduce the full-evaluation solver exactly. The last four cells are
// ones where the floating-point drift of the move-and-undo scan reaches
// objective_after.
TEST(PlannerGoldenTest, SolveMatchesPinnedPlansAndObjectives) {
  struct Cell {
    int instances;
    int colors;
    bool free_moves;  // move_alpha 0, dirty bytes priced clean
    std::size_t max_moves;
    std::uint64_t signature_hash;
    std::size_t moves, splits, merges;
    const char* before;
    const char* after;
  };
  const Cell cells[] = {
      {1, 64, false, 64, 14695981039346656037ULL, 0, 0, 0, "0x1p+0", "0x1p+0"},
      {1, 64, true, 8, 14695981039346656037ULL, 0, 0, 0, "0x1p+0", "0x1p+0"},
      {1, 1024, false, 64, 14695981039346656037ULL, 0, 0, 0, "0x1p+0",
       "0x1p+0"},
      {1, 1024, true, 8, 14695981039346656037ULL, 0, 0, 0, "0x1p+0",
       "0x1p+0"},
      {3, 64, false, 64, 1486441379786699067ULL, 12, 1, 1,
       "0x1.cac5bd8527958p+0", "0x1.27c8cfeded79p+0"},
      {3, 64, true, 8, 2315972408345398440ULL, 8, 1, 1,
       "0x1.cac5bd8527958p+0", "0x1.29672b75fc5cfp+0"},
      {3, 1024, false, 64, 15607733494108508518ULL, 64, 1, 1,
       "0x1.cacbadb4abddap+0", "0x1.390537b7a01f4p+0"},
      {3, 1024, true, 8, 9075940542923994747ULL, 8, 1, 1,
       "0x1.cacbadb4abddap+0", "0x1.42877b615bd93p+0"},
      {32, 64, false, 64, 4256785435775565259ULL, 0, 1, 1,
       "0x1.9999999999994p+3", "0x1.6724ae1d51cb3p+2"},
      {32, 64, true, 8, 4256785435775565259ULL, 0, 1, 1,
       "0x1.9999999999994p+3", "0x1.6666666666661p+2"},
      {32, 1024, false, 64, 8084228614465862038ULL, 23, 2, 1,
       "0x1.a0b81e42ef2fep+3", "0x1.6a2a8fa93f0e5p+2"},
      {32, 1024, true, 8, 13891459589845209676ULL, 8, 2, 1,
       "0x1.a0b81e42ef2fep+3", "0x1.6d8ef26a13d27p+2"},
      {2, 64, true, 1000, 10863693409185344331ULL, 12, 1, 1,
       "0x1.5c207dd4059ecp+0", "0x1.00004c59237ap+0"},
      {2, 128, false, 64, 11624584774881278734ULL, 8, 1, 1,
       "0x1.58430d1ea076ap+0", "0x1.04d976eed2488p+0"},
      {3, 256, true, 1000, 1148445265526313381ULL, 75, 1, 1,
       "0x1.c6a3ff76f1462p+0", "0x1.0cccccccccccfp+0"},
      {3, 512, false, 64, 9990223815455324973ULL, 64, 1, 1,
       "0x1.d7cfee3d9fc35p+0", "0x1.2b79f95df302dp+0"},
  };
  for (const Cell& cell : cells) {
    PlannerConfig config;
    config.seed = 7;
    config.max_moves = cell.max_moves;
    if (cell.free_moves) {
      config.move_alpha = 0;
      config.dirty_move_weight = 0;
    }
    InstanceTable ids;
    const Plan plan = RebalancePlanner(config).Solve(
        GoldenSnapshot(ids, cell.instances, cell.colors));
    const std::string sig = NamedPlanSignature(ids, plan);
    const std::string got = StrFormat(
        "{%d, %d, %s, %zu, %lluULL, %zu, %zu, %zu, \"%a\", \"%a\"},",
        cell.instances, cell.colors, cell.free_moves ? "true" : "false",
        cell.max_moves,
        static_cast<unsigned long long>(Fnv1a64(sig)), plan.moves.size(),
        plan.splits.size(), plan.merges.size(), plan.objective_before,
        plan.objective_after);
    EXPECT_EQ(Fnv1a64(sig), cell.signature_hash) << got << "\n" << sig;
    EXPECT_EQ(plan.moves.size(), cell.moves) << got;
    EXPECT_EQ(plan.splits.size(), cell.splits) << got;
    EXPECT_EQ(plan.merges.size(), cell.merges) << got;
    EXPECT_EQ(StrFormat("%a", plan.objective_before), cell.before) << got;
    EXPECT_EQ(StrFormat("%a", plan.objective_after), cell.after) << got;
  }
}

// A snapshot shaped like the ledger's hot_planner_writes rounds: Zipf 1.2
// loads over `colors` colors in shuffled name order, uniform placements
// with one instance holding an extra eighth of the colors (so the descent
// moves primaries and later sweeps see them away from home), cached and
// dirty bytes, and one split color held above the split threshold.
PlacementSnapshot ZipfSnapshot(InstanceTable& ids, int instances,
                               int colors) {
  Rng rng(static_cast<std::uint64_t>(instances * 7919 + colors));
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(5);
  snapshot.instances = MakeInstances(ids, instances);
  std::vector<int> rank(static_cast<std::size_t>(colors));
  for (int c = 0; c < colors; ++c) {
    rank[static_cast<std::size_t>(c)] = c;
  }
  for (int c = colors - 1; c > 0; --c) {
    std::swap(rank[static_cast<std::size_t>(c)],
              rank[rng.NextBelow(static_cast<std::uint64_t>(c + 1))]);
  }
  for (int c = 0; c < colors; ++c) {
    ColorObservation obs;
    obs.color = StrFormat("z%04d", c);
    obs.load_ewma = 400.0 /
                    std::pow(rank[static_cast<std::size_t>(c)] + 1.0, 1.2) *
                    (0.75 + 0.5 * rng.NextDouble());
    obs.cache_bytes = static_cast<Bytes>(rng.NextBelow(1 << 20));
    obs.dirty_bytes =
        c % 20 == 3 ? static_cast<Bytes>(rng.NextBelow(1 << 16)) : 0;
    obs.placement =
        c % 8 == 0 ? snapshot.instances[0]
                   : snapshot.instances[rng.NextBelow(
                         static_cast<std::uint64_t>(instances))];
    snapshot.colors.push_back(std::move(obs));
  }
  double total = 0;
  for (const ColorObservation& obs : snapshot.colors) {
    total += obs.load_ewma;
  }
  // The hottest-ranked color, re-weighted to a 0.3 share and split across
  // two instances: width ceil(0.3 / 0.2) = 2 keeps it split.
  for (ColorObservation& obs : snapshot.colors) {
    if (obs.load_ewma >= 300) {
      obs.load_ewma = 0.3 / 0.7 * (total - obs.load_ewma);
      obs.placement = snapshot.instances[1];
      obs.split = true;
      obs.split_members = {snapshot.instances[1],
                           snapshot.instances[static_cast<std::size_t>(
                               instances > 2 ? 2 : 0)]};
      break;
    }
  }
  return snapshot;
}

// Exact ties at the max load: every load is dyadic (so every sum the
// solver forms is exact), instances 1 and 2 hold the same loads, and
// instance 0 holds twice theirs. Moving load off instance 0 leaves two or
// three instances tied at the max.
PlacementSnapshot TiedSnapshot(InstanceTable& ids, int instances,
                               int colors) {
  Rng rng(static_cast<std::uint64_t>(instances * 31 + colors));
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(6);
  snapshot.instances = MakeInstances(ids, instances);
  for (int c = 0; c < colors; ++c) {
    ColorObservation obs;
    obs.color = StrFormat("t%04d", c);
    obs.cache_bytes = static_cast<Bytes>(rng.NextBelow(1 << 20));
    const int slot = c % (instances + 2);
    if (slot < 4) {
      obs.load_ewma = std::ldexp(1.0, 6 - (c / (instances + 2)) % 6);
      obs.placement = snapshot.instances[static_cast<std::size_t>(
          slot < 2 ? 1 + slot : 0)];
    } else {
      obs.load_ewma = 0.25 * static_cast<double>(1 + rng.NextBelow(8));
      obs.placement = snapshot.instances[static_cast<std::size_t>(
          3 + rng.NextBelow(static_cast<std::uint64_t>(instances - 3)))];
    }
    snapshot.colors.push_back(std::move(obs));
  }
  return snapshot;
}

// Plans and objectives on the shapes the ledger's planner rounds see,
// pinned bit for bit before the descent learned to skip slots that
// cannot improve the objective: 32 instances with 1600 and 4096 Zipf
// colors (a split color among them), two instances, and an exact tie at
// the max load.
TEST(PlannerGoldenTest, LedgerShapedPlansMatchPinnedPlansAndObjectives) {
  struct Cell {
    bool tied;  // TiedSnapshot instead of ZipfSnapshot
    int instances;
    int colors;
    bool free_moves;  // move_alpha 0, dirty bytes priced clean
    std::size_t max_moves;
    std::uint64_t signature_hash;
    std::size_t moves, splits, merges;
    const char* before;
    const char* after;
  };
  const Cell cells[] = {
      {false, 32, 1600, false, 64, 279565689658479301ULL, 48, 1, 0,
       "0x1.4db65f378da5dp+2", "0x1.3b583098c4921p+2"},
      {false, 32, 1600, true, 1000, 13919122494191389576ULL, 117, 1, 0,
       "0x1.4db65f378da5dp+2", "0x1.3333333333332p+2"},
      {false, 32, 4096, false, 64, 5927885593976216201ULL, 64, 1, 0,
       "0x1.4e8c080b9b63cp+2", "0x1.38aafd2e06a45p+2"},
      {false, 32, 4096, true, 1000, 1194190747898927634ULL, 279, 1, 0,
       "0x1.4e8c080b9b63cp+2", "0x1.3333333333339p+2"},
      {false, 2, 256, false, 64, 8582237203689823252ULL, 35, 0, 0,
       "0x1.4a7a870cfce12p+0", "0x1.0a556e5c0e98ap+0"},
      {false, 2, 256, true, 1000, 7043853549035805780ULL, 67, 0, 0,
       "0x1.4a7a870cfce12p+0", "0x1.0002be3fd7edcp+0"},
      {true, 6, 96, false, 64, 16699776477787789856ULL, 4, 0, 0,
       "0x1.6c4d954357d2bp+1", "0x1.cf21efce4384dp+0"},
      {true, 6, 96, true, 1000, 16699776477787789856ULL, 4, 0, 0,
       "0x1.6c4d954357d2bp+1", "0x1.c8d3108124fcp+0"},
  };
  for (const Cell& cell : cells) {
    PlannerConfig config;
    config.seed = 11;
    config.max_moves = cell.max_moves;
    if (cell.free_moves) {
      config.move_alpha = 0;
      config.dirty_move_weight = 0;
    }
    InstanceTable ids;
    const Plan plan = RebalancePlanner(config).Solve(
        cell.tied ? TiedSnapshot(ids, cell.instances, cell.colors)
                  : ZipfSnapshot(ids, cell.instances, cell.colors));
    const std::string sig = NamedPlanSignature(ids, plan);
    const std::string got = StrFormat(
        "{%s, %d, %d, %s, %zu, %lluULL, %zu, %zu, %zu, \"%a\", \"%a\"},",
        cell.tied ? "true" : "false", cell.instances, cell.colors,
        cell.free_moves ? "true" : "false", cell.max_moves,
        static_cast<unsigned long long>(Fnv1a64(sig)), plan.moves.size(),
        plan.splits.size(), plan.merges.size(), plan.objective_before,
        plan.objective_after);
    EXPECT_EQ(Fnv1a64(sig), cell.signature_hash) << got << "\n" << sig;
    EXPECT_EQ(plan.moves.size(), cell.moves) << got;
    EXPECT_EQ(plan.splits.size(), cell.splits) << got;
    EXPECT_EQ(plan.merges.size(), cell.merges) << got;
    EXPECT_EQ(StrFormat("%a", plan.objective_before), cell.before) << got;
    EXPECT_EQ(StrFormat("%a", plan.objective_after), cell.after) << got;
  }
}

// One instance cannot host a split: a color over the threshold stays
// whole (split sizing used to clamp with lo > hi here), and so it does
// when max_split forbids replicas.
TEST(RebalancePlannerTest, NoSplitWhenFewerThanTwoInstancesCanHost) {
  for (const auto& [instances, max_split] :
       {std::pair{1, 4}, std::pair{4, 1}, std::pair{4, 0}}) {
    PlannerConfig config;
    config.max_split = max_split;
    InstanceTable ids;
    const Plan plan =
        RebalancePlanner(config).Solve(GoldenSnapshot(ids, instances, 64));
    EXPECT_TRUE(plan.splits.empty()) << instances << " " << max_split;
    EXPECT_TRUE(std::isfinite(plan.objective_before));
    EXPECT_TRUE(std::isfinite(plan.objective_after));
    EXPECT_LE(plan.objective_after, plan.objective_before);
  }
}

TEST(RebalancePlannerTest, SolveIsDeterministicForSnapshotAndSeed) {
  const PlacementSnapshot snapshot = SkewedSnapshot(4, 24);
  PlannerConfig config;
  config.seed = 17;
  const RebalancePlanner a(config);
  const RebalancePlanner b(config);
  const Plan plan_a = a.Solve(snapshot);
  const Plan plan_b = b.Solve(snapshot);
  EXPECT_FALSE(plan_a.empty());
  EXPECT_EQ(PlanSignature(plan_a), PlanSignature(plan_b));
  EXPECT_EQ(plan_a.objective_before, plan_b.objective_before);
  EXPECT_EQ(plan_a.objective_after, plan_b.objective_after);
  // Repeated Solve on the same instance too (no hidden mutable state).
  EXPECT_EQ(PlanSignature(a.Solve(snapshot)), PlanSignature(plan_a));
}

TEST(RebalancePlannerTest, HigherAlphaMovesFewerColors) {
  const PlacementSnapshot snapshot = SkewedSnapshot(4, 24);
  std::size_t previous_moves = 0;
  bool first = true;
  for (const double alpha : {0.0, 0.5, 5.0, 500.0}) {
    PlannerConfig config;
    config.move_alpha = alpha;
    config.split_threshold = 1.0;  // no share exceeds 1: splitting off
    const Plan plan = RebalancePlanner(config).Solve(snapshot);
    EXPECT_LE(plan.objective_after, plan.objective_before);
    if (!first) {
      EXPECT_LE(plan.moves.size(), previous_moves)
          << "alpha=" << alpha << " moved more colors than a cheaper alpha";
    }
    previous_moves = plan.moves.size();
    first = false;
  }
  // At a prohibitive alpha the movement term dwarfs any fairness gain.
  PlannerConfig frozen;
  frozen.move_alpha = 500.0;
  frozen.split_threshold = 1.0;
  EXPECT_TRUE(RebalancePlanner(frozen).Solve(snapshot).moves.empty());
}

TEST(RebalancePlannerTest, SplitsHotColorAcrossDistinctInstances) {
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(1);
  InstanceTable ids;
  snapshot.instances = MakeInstances(ids, 4);
  ColorObservation hot;
  hot.color = "viral";
  hot.load_ewma = 600;  // 60% share
  hot.cache_bytes = 1000;
  hot.placement = snapshot.instances[0];
  snapshot.colors.push_back(hot);
  for (int c = 0; c < 8; ++c) {
    ColorObservation obs;
    obs.color = StrFormat("cold%d", c);
    obs.load_ewma = 50;
    obs.cache_bytes = 1000;
    obs.placement = snapshot.instances[static_cast<std::size_t>(c) % 4];
    snapshot.colors.push_back(std::move(obs));
  }
  PlannerConfig config;
  config.split_threshold = 0.2;
  const Plan plan = RebalancePlanner(config).Solve(snapshot);
  ASSERT_EQ(plan.splits.size(), 1u);
  const PlanSplit& split = plan.splits[0];
  EXPECT_EQ(split.color, "viral");
  // share 0.6 / threshold 0.2 -> width 3, all members distinct.
  EXPECT_EQ(split.instances.size(), 3u);
  EXPECT_EQ(std::set<InstanceId>(split.instances.begin(),
                                 split.instances.end())
                .size(),
            split.instances.size());
  EXPECT_TRUE(plan.merges.empty());
}

TEST(RebalancePlannerTest, SplitHysteresisKeepsThenMerges) {
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(2);
  InstanceTable ids;
  snapshot.instances = MakeInstances(ids, 4);
  ColorObservation cooling;
  cooling.color = "viral";
  cooling.cache_bytes = 1000;
  cooling.placement = snapshot.instances[0];
  cooling.split = true;
  cooling.split_members = {snapshot.instances[0], snapshot.instances[1],
                           snapshot.instances[2]};
  ColorObservation filler;
  filler.color = "zfill";
  filler.cache_bytes = 1000;
  filler.placement = snapshot.instances[3];

  PlannerConfig config;
  config.split_threshold = 0.2;

  // Share 0.15: between theta/2 and theta — the split must persist and,
  // being unchanged, must not even be re-emitted.
  cooling.load_ewma = 150;
  filler.load_ewma = 850;
  snapshot.colors = {cooling, filler};
  const Plan hold = RebalancePlanner(config).Solve(snapshot);
  EXPECT_TRUE(hold.merges.empty());
  for (const PlanSplit& split : hold.splits) {
    EXPECT_NE(split.color, "viral") << "unchanged split was re-emitted";
  }

  // Share 0.05 < theta/2: now it merges back to a single instance.
  cooling.load_ewma = 50;
  filler.load_ewma = 950;
  snapshot.colors = {cooling, filler};
  const Plan merge = RebalancePlanner(config).Solve(snapshot);
  ASSERT_EQ(merge.merges.size(), 1u);
  EXPECT_EQ(merge.merges[0].color, "viral");
}

TEST(PaletteLoadBalancerPlanTest, SplitMergeRoundTripOnLoadBalancer) {
  PaletteLoadBalancer lb(std::make_unique<LeastAssignedPolicy>(7));
  InstanceTable ids;
  for (int i = 0; i < 4; ++i) {
    const std::string name = StrFormat("w%d", i);
    lb.AddInstance(name, ids.Intern(name));
  }
  const auto home = lb.RouteId(Color("viral"));
  ASSERT_TRUE(home.has_value());

  Plan split_plan;
  split_plan.splits.push_back(PlanSplit{
      "viral",
      {*ids.Find("w0"), *ids.Find("w1"), *ids.Find("w2")},
      {1, 1, 1}});
  lb.ApplyPlan(split_plan);
  EXPECT_TRUE(lb.IsSplit("viral"));
  EXPECT_EQ(lb.planner_splits(), 1u);
  std::set<InstanceId> targets;
  for (int i = 0; i < 9; ++i) {
    targets.insert(*lb.RouteId(Color("viral")));
  }
  EXPECT_EQ(targets.size(), 3u);  // exact weighted round-robin
  // Object names translate to the split primary, not the rotating member.
  EXPECT_EQ(lb.ResolveColor(Color("viral")), "w0");

  Plan merge_plan;
  merge_plan.merges.push_back(PlanMerge{"viral", *ids.Find("w3")});
  lb.ApplyPlan(merge_plan);
  EXPECT_FALSE(lb.IsSplit("viral"));
  EXPECT_EQ(lb.planner_merges(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(*lb.RouteId(Color("viral")), *ids.Find("w3"));
  }
}

TEST(PaletteLoadBalancerPlanTest, PlanRacingCrashSkipsDeadInstances) {
  PaletteLoadBalancer lb(std::make_unique<LeastAssignedPolicy>(7));
  InstanceTable ids;
  for (int i = 0; i < 3; ++i) {
    const std::string name = StrFormat("w%d", i);
    lb.AddInstance(name, ids.Intern(name));
  }
  lb.RouteId(Color("a"));
  lb.RemoveInstance("w2");

  // A plan computed against the pre-crash snapshot: move to a dead
  // instance and split across a set containing it. Both degrade safely.
  Plan stale;
  stale.moves.push_back(
      PlanMove{"a", *ids.Find("w0"), *ids.Find("w2")});
  stale.splits.push_back(PlanSplit{
      "b", {*ids.Find("w0"), *ids.Find("w2")}, {1, 1}});
  lb.ApplyPlan(stale);
  // The move to the dead instance was skipped, not applied.
  const auto placed = lb.PeekColorId("a");
  ASSERT_TRUE(placed.has_value());
  EXPECT_NE(*placed, *ids.Find("w2"));
  // The split lost w2, leaving one live member: not installed as a split.
  EXPECT_FALSE(lb.IsSplit("b"));
}

WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.arrival.rate_per_sec = 400;
  spec.driver.duration = SimTime::FromSeconds(6);
  spec.mix.color_count = 48;
  spec.mix.zipf_theta = 1.2;
  spec.seed = 11;
  return spec;
}

TEST(PlannerWorkloadTest, PlanDuringChurnClosesBooks) {
  const WorkloadSpec spec = SmallSpec();
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  slo.warmup = SimTime::FromSeconds(1);
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  // Crash a worker between planning rounds and bring it back: migrations
  // in flight toward it must not leak invocations or objects.
  FaultSchedule faults;
  faults.Add(FaultEvent{SimTime::FromMillis(1250), FaultKind::kCrash, "w1"});
  faults.Add(
      FaultEvent{SimTime::FromMillis(2750), FaultKind::kRestart, "w1"});
  const WorkloadRunResult run =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo,
                  DefaultWorkloadPlatformConfig(), &faults, nullptr,
                  &planner);
  EXPECT_GT(run.counters.platform.planner_rounds, 0u);
  EXPECT_TRUE(run.counters.platform.BooksClose());
  // Planner movement stays distinguishable from failure re-coloring.
  EXPECT_GT(run.counters.planner_moves + run.counters.planner_splits, 0u);
  for (const PlanRound& round : run.plan_rounds) {
    EXPECT_LE(round.objective_after, round.objective_before + 1e-9);
  }
}

TEST(PlannerWorkloadTest, PlannerRunIsSeedReproducible) {
  const WorkloadSpec spec = SmallSpec();
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  slo.warmup = SimTime::FromSeconds(1);
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  const WorkloadRunResult a =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo,
                  DefaultWorkloadPlatformConfig(), nullptr, nullptr,
                  &planner);
  const WorkloadRunResult b =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo,
                  DefaultWorkloadPlatformConfig(), nullptr, nullptr,
                  &planner);
  EXPECT_EQ(a.samples_digest, b.samples_digest);
  EXPECT_EQ(a.counters.planner_moves, b.counters.planner_moves);
  EXPECT_EQ(a.counters.planner_splits, b.counters.planner_splits);
  EXPECT_EQ(a.counters.platform.planner_moved_bytes,
            b.counters.platform.planner_moved_bytes);
}

// The collector's one-pass sums must equal, color by color, brute-force
// sums over the placement's cache shard and the dirty storage directory,
// under write-back writes, planner migrations and a crash and restart.
TEST(SnapshotCollectorTest, BytesMatchBruteForceSumsUnderWriteBack) {
  WorkloadSpec spec = SmallSpec();
  spec.mix.write_fraction = 0.3;
  spec.driver.duration = SimTime::FromSeconds(4);
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.storage.mode = CoherenceMode::kWriteBack;
  config.storage.max_dirty_age = SimTime::FromSeconds(1);
  config.cache.replicate_on_remote_hit = true;

  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, spec.seed, config);
  platform.AddWorkers(4);
  FaultSchedule faults;
  faults.Add(FaultEvent{SimTime::FromMillis(1300), FaultKind::kCrash, "w1"});
  faults.Add(
      FaultEvent{SimTime::FromMillis(2600), FaultKind::kRestart, "w1"});
  faults.InstallOn(&sim, &platform);
  OpenLoopDriver driver(&platform, MakeArrivalProcess(spec.arrival, 1),
                        InvocationMix(spec.mix), spec.driver, 2);
  const PlannerConfig planner;
  PlannerRuntime runtime(&platform, planner);
  runtime.Start(spec.driver.duration);

  SnapshotCollector probe(planner.ewma_beta);
  std::size_t cached_colors = 0;
  std::size_t dirty_colors = 0;
  for (SimTime t = SimTime::FromMillis(250); t < spec.driver.duration;
       t += SimTime::FromMillis(500)) {
    sim.At(t, [&]() {
      for (const ColorObservation& obs : probe.Collect(platform).colors) {
        Bytes cache = 0;
        Bytes dirty = 0;
        if (obs.placement != kInvalidInstanceId) {
          const std::string& at =
              platform.instance_table().NameOf(obs.placement);
          platform.cache().ForEachObject(
              obs.placement, [&](const std::string& name, Bytes size) {
                if (FaastCache::HashKeyOf(name) == obs.color) {
                  cache += size;
                }
              });
          platform.storage_layer()->ForEachDirtyObject(
              [&](const std::string& name, const std::string& owner,
                  Bytes bytes) {
                if (owner == at && FaastCache::HashKeyOf(name) == obs.color) {
                  dirty += bytes;
                }
              });
        }
        const double ms = sim.Now().millis();
        EXPECT_EQ(obs.cache_bytes, cache) << obs.color << " @ " << ms;
        EXPECT_EQ(obs.dirty_bytes, dirty) << obs.color << " @ " << ms;
        cached_colors += cache > 0 ? 1 : 0;
        dirty_colors += dirty > 0 ? 1 : 0;
      }
    });
  }
  driver.Start();
  sim.Run();
  EXPECT_GT(runtime.rounds_completed(), 0u);
  EXPECT_GT(cached_colors, 0u);
  EXPECT_GT(dirty_colors, 0u);
}

TEST(PlannerShardedTest, DigestsMatchAcrossShardCountsWithPlanning) {
  const WorkloadSpec spec = SmallSpec();
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  slo.warmup = SimTime::FromSeconds(1);
  ShardedWorkloadConfig config;
  config.groups = 4;
  config.routers_per_group = 2;
  config.planner.plan_every = SimTime::FromMillis(500);

  config.shards = 1;
  const ShardedRunResult one = RunShardedWorkload(
      spec, PolicyKind::kLeastAssigned, 8, config, slo,
      DefaultWorkloadPlatformConfig());
  config.shards = 4;
  const ShardedRunResult four = RunShardedWorkload(
      spec, PolicyKind::kLeastAssigned, 8, config, slo,
      DefaultWorkloadPlatformConfig());

  EXPECT_GT(one.counters.platform.planner_rounds, 0u);
  EXPECT_TRUE(one.books_close);
  EXPECT_TRUE(four.books_close);
  EXPECT_EQ(one.samples_digest, four.samples_digest);
  EXPECT_EQ(one.engine_digest, four.engine_digest);
  EXPECT_EQ(one.counters.planner_moves, four.counters.planner_moves);
  EXPECT_EQ(one.counters.planner_splits, four.counters.planner_splits);
  EXPECT_EQ(one.counters.platform.planner_moved_bytes,
            four.counters.platform.planner_moved_bytes);
}

}  // namespace
}  // namespace palette
