// Tests for the research-extension policies: Consistent Hashing with
// Bounded Loads and Replicated Colors.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>

#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/core/bounded_load_policy.h"
#include "src/core/least_assigned_policy.h"
#include "src/core/replicated_policy.h"
#include "src/hash/hash.h"

namespace palette {
namespace {

// A test's table plays the platform's part: `name` joins `policy` under
// the id `ids` assigns it, in join order.
void Join(ColorSchedulingPolicy& policy, InstanceTable& ids,
          const std::string& name) {
  policy.OnInstanceAdded(name, ids.Intern(name));
}

void AddInstances(ColorSchedulingPolicy& policy, InstanceTable& ids, int n) {
  for (int i = 0; i < n; ++i) {
    Join(policy, ids, StrFormat("w%d", i));
  }
}

// The name of a routed instance, or nullopt when nothing was routed.
std::optional<std::string> NameOf(const InstanceTable& ids,
                                  std::optional<InstanceId> id) {
  if (!id.has_value()) {
    return std::nullopt;
  }
  return ids.NameOf(*id);
}

TEST(BoundedLoadPolicyTest, RespectsLoadCap) {
  InstanceTable ids;
  BoundedLoadConfig config;
  config.c_factor = 1.25;
  BoundedLoadPolicy policy(7, config);
  AddInstances(policy, ids, 10);
  for (int c = 0; c < 2000; ++c) {
    policy.RouteColoredId(StrFormat("color%d", c));
  }
  // The invariant Mirrokni et al. guarantee: max/avg <= c (rounding slack
  // for the ceil on small averages).
  EXPECT_LE(policy.RelativeMaxAssigned(), 1.30);
}

TEST(BoundedLoadPolicyTest, StickyWhileMembershipStable) {
  InstanceTable ids;
  BoundedLoadPolicy policy(7);
  AddInstances(policy, ids, 8);
  std::map<std::string, std::string> first;
  for (int round = 0; round < 3; ++round) {
    for (int c = 0; c < 200; ++c) {
      const std::string color = StrFormat("c%d", c);
      const auto target = NameOf(ids, policy.RouteColoredId(color));
      ASSERT_TRUE(target.has_value());
      auto [it, inserted] = first.emplace(color, *target);
      if (!inserted) {
        EXPECT_EQ(it->second, *target) << color;
      }
    }
  }
}

TEST(BoundedLoadPolicyTest, OnlyRemovedInstancesColorsMove) {
  InstanceTable ids;
  BoundedLoadPolicy policy(7);
  AddInstances(policy, ids, 8);
  std::map<std::string, std::string> before;
  for (int c = 0; c < 1000; ++c) {
    const std::string color = StrFormat("c%d", c);
    before[color] = *NameOf(ids, policy.RouteColoredId(color));
  }
  policy.OnInstanceRemoved("w3");
  int moved_from_survivors = 0;
  for (const auto& [color, owner] : before) {
    const auto now = NameOf(ids, policy.RouteColoredId(color));
    ASSERT_TRUE(now.has_value());
    EXPECT_NE(*now, "w3");
    if (owner != "w3" && *now != owner) {
      ++moved_from_survivors;
    }
  }
  // The ring-based placement keeps survivors' colors put — the property
  // plain Least Assigned cannot give.
  EXPECT_EQ(moved_from_survivors, 0);
}

TEST(BoundedLoadPolicyTest, BetterBalancedThanPlainHashWalk) {
  InstanceTable ids;
  // With the cap at 1.05 the distribution is near-perfect even for few
  // colors, where plain CH would be far more skewed.
  BoundedLoadConfig config;
  config.c_factor = 1.05;
  BoundedLoadPolicy policy(7, config);
  AddInstances(policy, ids, 10);
  for (int c = 0; c < 100; ++c) {
    policy.RouteColoredId(StrFormat("c%d", c));
  }
  EXPECT_LE(policy.RelativeMaxAssigned(), 1.2);
}

TEST(BoundedLoadPolicyTest, TableCapEviction) {
  InstanceTable ids;
  BoundedLoadConfig config;
  config.table_capacity = 50;
  BoundedLoadPolicy policy(7, config);
  AddInstances(policy, ids, 4);
  for (int c = 0; c < 200; ++c) {
    policy.RouteColoredId(StrFormat("c%d", c));
  }
  EXPECT_EQ(policy.table_size(), 50u);
}

TEST(BoundedLoadPolicyTest, EmptyMembership) {
  BoundedLoadPolicy policy(7);
  EXPECT_FALSE(policy.RouteColoredId("c").has_value());
}

TEST(ReplicatedColorPolicyTest, SpreadsHotColorAcrossExactlyKReplicas) {
  InstanceTable ids;
  ReplicatedColorConfig config;
  config.replicas = 3;
  ReplicatedColorPolicy policy(7, config);
  AddInstances(policy, ids, 10);
  std::map<std::string, int> counts;
  for (int i = 0; i < 3000; ++i) {
    ++counts[*NameOf(ids, policy.RouteColoredId("viral-post"))];
  }
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [_, count] : counts) {
    EXPECT_EQ(count, 1000);  // exact round-robin
  }
}

TEST(ReplicatedColorPolicyTest, ReplicaSetMatchesRouting) {
  InstanceTable ids;
  ReplicatedColorConfig config;
  config.replicas = 2;
  ReplicatedColorPolicy policy(7, config);
  AddInstances(policy, ids, 6);
  const auto replicas = policy.ReplicaSetOf("c1");
  ASSERT_EQ(replicas.size(), 2u);
  const std::set<InstanceId> expected(replicas.begin(), replicas.end());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(expected.count(*policy.RouteColoredId("c1")));
  }
}

TEST(ReplicatedColorPolicyTest, SingleReplicaDegeneratesToCh) {
  InstanceTable ids;
  ReplicatedColorConfig config;
  config.replicas = 1;
  ReplicatedColorPolicy policy(7, config);
  AddInstances(policy, ids, 6);
  const auto first = NameOf(ids, policy.RouteColoredId("c1"));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(NameOf(ids, policy.RouteColoredId("c1")), first);
  }
}

TEST(ReplicatedColorPolicyTest, FewerInstancesThanReplicas) {
  InstanceTable ids;
  ReplicatedColorConfig config;
  config.replicas = 4;
  ReplicatedColorPolicy policy(7, config);
  AddInstances(policy, ids, 2);
  std::set<std::string> seen;
  for (int i = 0; i < 8; ++i) {
    seen.insert(*NameOf(ids, policy.RouteColoredId("c")));
  }
  EXPECT_EQ(seen.size(), 2u);  // clamped to membership
}

TEST(ReplicatedColorPolicyTest, AdaptiveHysteresisEntersAtThetaExitsAtHalf) {
  InstanceTable ids;
  ReplicatedColorConfig config;
  config.replicas = 3;
  config.adaptive = true;
  config.hot_share_threshold = 0.2;
  config.decay_interval = 1 << 20;  // no decay during the test
  ReplicatedColorPolicy policy(7, config);
  AddInstances(policy, ids, 10);

  // Undiluted traffic: share = 1.0 > theta, the color enters hot state and
  // its routes fan out across the replica set.
  std::set<std::string> hot_targets;
  for (int i = 0; i < 30; ++i) {
    hot_targets.insert(*NameOf(ids, policy.RouteColoredId("viral")));
  }
  EXPECT_TRUE(policy.IsHot("viral"));
  EXPECT_EQ(hot_targets.size(), 3u);

  // Dilute to theta/2 < share < theta: 30 + 1 of ~201 ≈ 0.154. Entering
  // needed > 0.2, exiting needs < 0.1 — in between the state must hold.
  for (int i = 0; i < 170; ++i) {
    policy.RouteColoredId(StrFormat("bg%d", i));
  }
  policy.RouteColoredId("viral");
  EXPECT_TRUE(policy.IsHot("viral"));

  // Dilute below theta/2: 32 of ~402 ≈ 0.08 < 0.1 — now it cools off and
  // collapses back to a single instance (full locality again).
  for (int i = 0; i < 200; ++i) {
    policy.RouteColoredId(StrFormat("bg2_%d", i));
  }
  policy.RouteColoredId("viral");
  EXPECT_FALSE(policy.IsHot("viral"));
  std::set<std::string> cold_targets;
  for (int i = 0; i < 6; ++i) {
    cold_targets.insert(*NameOf(ids, policy.RouteColoredId("viral")));
  }
  EXPECT_EQ(cold_targets.size(), 1u);
}

TEST(ReplicatedColorPolicyTest, AdaptiveColdColorNeverReplicates) {
  InstanceTable ids;
  ReplicatedColorConfig config;
  config.replicas = 4;
  config.adaptive = true;
  config.hot_share_threshold = 0.2;
  ReplicatedColorPolicy policy(7, config);
  AddInstances(policy, ids, 10);
  // Interleave so "steady" never exceeds a ~10% share: it must keep one
  // sticky instance throughout.
  std::set<std::string> targets;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 9; ++i) {
      policy.RouteColoredId(StrFormat("bg%d_%d", round, i));
    }
    targets.insert(*NameOf(ids, policy.RouteColoredId("steady")));
  }
  EXPECT_FALSE(policy.IsHot("steady"));
  EXPECT_EQ(targets.size(), 1u);
}

TEST(ReplicatedColorPolicyTest, MembershipChangeShiftsReplicaSetMinimally) {
  InstanceTable ids;
  ReplicatedColorConfig config;
  config.replicas = 2;
  ReplicatedColorPolicy policy(7, config);
  AddInstances(policy, ids, 8);
  const auto before = policy.ReplicaSetOf("c-stable");
  Join(policy, ids, "w_extra");
  const auto after = policy.ReplicaSetOf("c-stable");
  // Consistent hashing: at most one member of the pair changes when one
  // instance joins.
  int common = 0;
  for (const auto& b : before) {
    for (const auto& a : after) {
      if (a == b) {
        ++common;
      }
    }
  }
  EXPECT_GE(common, 1);
}

// Both sticky color-table policies (Least Assigned and CH-Bounded-Loads)
// replay one seeded trace: routes over ~200 colors (some past the 32-byte
// key cap), an instance removed and one added mid-trace, two plans (move,
// merge, split primary, move onto a dead instance, move of an unseen
// color), passive ObserveRoute learning, and a full membership wipe that
// leaves dormant entries to revive. Every routed instance and the final
// table state are pinned as FNV digests recorded from the original
// implementation, so any refactor of the table must keep every decision.
template <typename Policy, typename Config>
std::string ReplayColorTableTrace(std::size_t table_capacity,
                                  std::uint64_t* route_digest,
                                  std::uint64_t* state_digest) {
  Config config;
  config.table_capacity = table_capacity;
  Policy policy(11, config);
  InstanceTable ids;
  const auto name = [](int i) { return StrFormat("gt-w%d", i); };
  const auto id = [&](int i) { return *ids.Find(name(i)); };
  for (int i = 0; i < 6; ++i) {
    Join(policy, ids, name(i));
  }
  const auto color_of = [](std::uint64_t k) {
    return k % 9 == 4 ? StrFormat("%03d-padded-past-the-32-byte-key-cap-%d",
                                  static_cast<int>(k), static_cast<int>(k % 5))
                      : StrFormat("gc%03d", static_cast<int>(k));
  };
  const auto plan_with = [&](int a, int b, int c, int d, int e) {
    Plan plan;
    plan.merges.push_back({color_of(a), id(1)});
    plan.moves.push_back({color_of(b), kInvalidInstanceId, id(4)});
    plan.moves.push_back({color_of(c), kInvalidInstanceId, id(2)});  // dead
    plan.moves.push_back({StrFormat("unseen-%d", e), kInvalidInstanceId,
                          id(3)});
    plan.splits.push_back({color_of(d), {id(5), id(0)}, {2, 1}});
    return plan;
  };
  Rng rng(2024);
  std::string routes;
  for (int step = 0; step < 2000; ++step) {
    if (step == 600) {
      policy.OnInstanceRemoved(name(2));
    } else if (step == 900) {
      Join(policy, ids, name(6));
    } else if (step == 1000) {
      policy.ApplyPlan(plan_with(17, 42, 99, 150, 1));
    } else if (step == 1500) {
      policy.ApplyPlan(plan_with(150, 17, 3, 88, 2));
    } else if (step == 1700) {
      for (const int i : {0, 1, 3, 4, 5, 6}) {
        policy.OnInstanceRemoved(name(i));
      }
      Join(policy, ids, name(7));
      Join(policy, ids, name(8));
    }
    const std::string color = color_of(rng.NextBelow(200));
    if (step % 97 == 13) {
      policy.ObserveRoute(color, id(step % 2 == 0 ? 5 : 2));
      continue;
    }
    const auto routed = policy.RouteColoredId(color);
    routes += routed.has_value() ? ids.NameOf(*routed) : "-";
    routes += ',';
  }
  *route_digest = Fnv1a64(routes);
  std::string state;
  for (int i = 0; i < 9; ++i) {
    state += StrFormat("%zu,", policy.AssignedCount(name(i)));
  }
  for (std::uint64_t k = 0; k < 200; ++k) {
    const auto peeked = policy.PeekColorId(color_of(k));
    state += peeked.has_value() ? ids.NameOf(*peeked) : "-";
    state += ',';
  }
  *state_digest = Fnv1a64(state);
  return StrFormat("%llu/%llu/%zu/%zu",
                   static_cast<unsigned long long>(policy.recolored()),
                   static_cast<unsigned long long>(policy.planner_moves()),
                   policy.table_size(), policy.StateBytes());
}

TEST(ColorTableGoldenTest, LeastAssignedAndBoundedLoadsMatchPinnedTrace) {
  struct Cell {
    bool bounded;
    std::size_t capacity;
    std::uint64_t route_digest;
    std::uint64_t state_digest;
    const char* counters;  // recolored/planner_moves/table_size/StateBytes
  };
  const Cell cells[] = {
      {false, 64, 17530669029959019460ULL, 8588272788918113987ULL,
       "167/6/64/3072"},
      {false, kDefaultColorTableCapacity, 11295651583161627312ULL,
       4359912381612836031ULL, "531/5/202/9696"},
      {true, 64, 15256439728998911248ULL, 920080473121992509ULL,
       "178/6/64/9216"},
      {true, kDefaultColorTableCapacity, 4892092393540937086ULL,
       7451486690749087398ULL, "548/5/202/15840"},
  };
  for (const Cell& cell : cells) {
    std::uint64_t route_digest = 0;
    std::uint64_t state_digest = 0;
    const std::string counters =
        cell.bounded
            ? ReplayColorTableTrace<BoundedLoadPolicy, BoundedLoadConfig>(
                  cell.capacity, &route_digest, &state_digest)
            : ReplayColorTableTrace<LeastAssignedPolicy, LeastAssignedConfig>(
                  cell.capacity, &route_digest, &state_digest);
    const std::string got = StrFormat(
        "{%s, %zu, %lluULL, %lluULL, \"%s\"},",
        cell.bounded ? "true" : "false", cell.capacity,
        static_cast<unsigned long long>(route_digest),
        static_cast<unsigned long long>(state_digest), counters.c_str());
    EXPECT_EQ(route_digest, cell.route_digest) << got;
    EXPECT_EQ(state_digest, cell.state_digest) << got;
    EXPECT_EQ(counters, cell.counters) << got;
  }
}

}  // namespace
}  // namespace palette
