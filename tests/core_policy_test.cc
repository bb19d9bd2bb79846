// Tests for the Palette core: color scheduling policies, load balancer,
// policy factory, and the Fig. 5 load models.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/table_printer.h"
#include "src/core/bucket_hashing_policy.h"
#include "src/core/color.h"
#include "src/core/consistent_hashing_policy.h"
#include "src/core/least_assigned_policy.h"
#include "src/core/load_model.h"
#include "src/core/oblivious_policies.h"
#include "src/core/palette_load_balancer.h"
#include "src/core/policy_factory.h"

namespace palette {
namespace {

std::vector<std::string> MakeInstances(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(StrFormat("w%d", i));
  }
  return out;
}

// A test's table plays the platform's part: `name` joins `policy` under
// the id `ids` assigns it, in join order.
void Join(ColorSchedulingPolicy& policy, InstanceTable& ids,
          const std::string& name) {
  policy.OnInstanceAdded(name, ids.Intern(name));
}

void AddAll(ColorSchedulingPolicy& policy, InstanceTable& ids,
            const std::vector<std::string>& v) {
  for (const auto& name : v) {
    Join(policy, ids, name);
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

// ---------- shared invariants across every policy ----------

class AllPoliciesTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(AllPoliciesTest, RoutesOnlyToLiveInstances) {
  InstanceTable ids;
  auto policy = MakePolicy(GetParam(), /*seed=*/11);
  const auto instances = MakeInstances(5);
  AddAll(*policy, ids, instances);
  const std::set<std::string> live(instances.begin(), instances.end());
  for (int i = 0; i < 500; ++i) {
    const auto target =
        NameOf(ids, policy->RouteColoredId(StrFormat("color%d", i % 37)));
    ASSERT_TRUE(target.has_value());
    EXPECT_TRUE(live.count(*target)) << *target;
  }
  for (int i = 0; i < 100; ++i) {
    const auto target = NameOf(ids, policy->RouteUncoloredId());
    ASSERT_TRUE(target.has_value());
    EXPECT_TRUE(live.count(*target)) << *target;
  }
}

TEST_P(AllPoliciesTest, EmptyMembershipRoutesNowhere) {
  auto policy = MakePolicy(GetParam(), 11);
  EXPECT_FALSE(policy->RouteColoredId("c").has_value());
  EXPECT_FALSE(policy->RouteUncoloredId().has_value());
}

TEST_P(AllPoliciesTest, RemovedInstanceNeverChosen) {
  InstanceTable ids;
  auto policy = MakePolicy(GetParam(), 11);
  AddAll(*policy, ids, MakeInstances(4));
  policy->OnInstanceRemoved("w2");
  for (int i = 0; i < 400; ++i) {
    const auto target =
        NameOf(ids, policy->RouteColoredId(StrFormat("c%d", i)));
    ASSERT_TRUE(target.has_value());
    EXPECT_NE(*target, "w2");
  }
}

TEST_P(AllPoliciesTest, FactoryNameRoundTrip) {
  const PolicyKind kind = GetParam();
  PolicyKind parsed;
  ASSERT_TRUE(ParsePolicyKind(PolicyKindId(kind), &parsed));
  EXPECT_EQ(parsed, kind);
}

// Palette (locality-aware) policies must be *sticky*: the same color routes
// to the same instance — or, for Replicated Colors, the same small replica
// set — while membership is stable.
TEST_P(AllPoliciesTest, LocalityAwarePoliciesAreSticky) {
  InstanceTable ids;
  const PolicyKind kind = GetParam();
  auto policy = MakePolicy(kind, 11);
  AddAll(*policy, ids, MakeInstances(8));
  std::map<std::string, std::set<std::string>> routed_to;
  for (int round = 0; round < 6; ++round) {
    for (int c = 0; c < 100; ++c) {
      const std::string color = StrFormat("c%d", c);
      const auto target = NameOf(ids, policy->RouteColoredId(color));
      ASSERT_TRUE(target.has_value());
      routed_to[color].insert(*target);
    }
  }
  if (!IsLocalityAware(kind)) {
    return;
  }
  // Replicated Colors spreads each color over its (default 2) replicas;
  // every other Palette policy must map each color to exactly one instance.
  const std::size_t allowed = kind == PolicyKind::kReplicatedColors ? 2 : 1;
  for (const auto& [color, targets] : routed_to) {
    EXPECT_LE(targets.size(), allowed) << PolicyKindId(kind) << " " << color;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllPoliciesTest, ::testing::ValuesIn(AllPolicyKinds()),
    [](const ::testing::TestParamInfo<PolicyKind>& param_info) {
      return std::string(PolicyKindId(param_info.param));
    });

// ---------- policy-specific behavior ----------

TEST(ObliviousRandomTest, SpreadsAcrossInstances) {
  InstanceTable ids;
  ObliviousRandomPolicy policy(3);
  AddAll(policy, ids, MakeInstances(4));
  std::map<std::string, int> counts;
  for (int i = 0; i < 4000; ++i) {
    ++counts[*NameOf(ids, policy.RouteColoredId("same-color"))];
  }
  EXPECT_EQ(counts.size(), 4u);  // ignores the hint
  for (const auto& [_, count] : counts) {
    EXPECT_NEAR(count, 1000, 150);
  }
  EXPECT_EQ(policy.StateBytes(), 0u);
}

TEST(ObliviousRoundRobinTest, CyclesThroughInstances) {
  InstanceTable ids;
  ObliviousRoundRobinPolicy policy(3);
  AddAll(policy, ids, MakeInstances(3));
  std::vector<std::string> seen;
  for (int i = 0; i < 6; ++i) {
    seen.push_back(*NameOf(ids, policy.RouteColoredId("x")));
  }
  EXPECT_EQ(seen[0], seen[3]);
  EXPECT_EQ(seen[1], seen[4]);
  EXPECT_EQ(seen[2], seen[5]);
  EXPECT_EQ((std::set<std::string>{seen[0], seen[1], seen[2]}).size(), 3u);
}

TEST(ObliviousRoundRobinTest, PerfectBalanceOverMultiples) {
  InstanceTable ids;
  ObliviousRoundRobinPolicy policy(3);
  AddAll(policy, ids, MakeInstances(4));
  std::map<std::string, int> counts;
  for (int i = 0; i < 400; ++i) {
    ++counts[*NameOf(ids, policy.RouteUncoloredId())];
  }
  for (const auto& [_, count] : counts) {
    EXPECT_EQ(count, 100);
  }
}

TEST(ConsistentHashingPolicyTest, MinimalRemapOnMembershipChange) {
  InstanceTable ids;
  ConsistentHashingPolicy policy(5);
  AddAll(policy, ids, MakeInstances(10));
  std::map<std::string, std::string> before;
  for (int c = 0; c < 2000; ++c) {
    const std::string color = StrFormat("c%d", c);
    before[color] = *NameOf(ids, policy.RouteColoredId(color));
  }
  policy.OnInstanceRemoved("w4");
  int moved_from_survivors = 0;
  for (auto& [color, owner] : before) {
    const std::string now = *NameOf(ids, policy.RouteColoredId(color));
    if (owner != "w4" && now != owner) {
      ++moved_from_survivors;
    }
  }
  EXPECT_EQ(moved_from_survivors, 0);
}

TEST(BucketHashingPolicyTest, SameColorSameBucketOwner) {
  InstanceTable ids;
  BucketHashingConfig config;
  config.bucket_count = 64;
  BucketHashingPolicy policy(7, config);
  AddAll(policy, ids, MakeInstances(4));
  const auto a = NameOf(ids, policy.RouteColoredId("blue"));
  const auto b = NameOf(ids, policy.RouteColoredId("blue"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(policy.bucket_count(), 64u);
}

TEST(BucketHashingPolicyTest, AllBucketsOwnedAfterFirstInstance) {
  InstanceTable ids;
  BucketHashingConfig config;
  config.bucket_count = 128;
  BucketHashingPolicy policy(7, config);
  Join(policy, ids, "w0");
  for (std::size_t b = 0; b < policy.bucket_count(); ++b) {
    EXPECT_EQ(policy.BucketOwner(b), "w0");
  }
}

TEST(BucketHashingPolicyTest, RemovalReassignsOrphans) {
  InstanceTable ids;
  BucketHashingConfig config;
  config.bucket_count = 128;
  BucketHashingPolicy policy(7, config);
  AddAll(policy, ids, MakeInstances(3));
  policy.OnInstanceRemoved("w1");
  for (std::size_t b = 0; b < policy.bucket_count(); ++b) {
    EXPECT_NE(policy.BucketOwner(b), "w1");
    EXPECT_FALSE(policy.BucketOwner(b).empty());
  }
}

TEST(BucketHashingPolicyTest, RebalanceLowersRelativeLoad) {
  InstanceTable ids;
  BucketHashingConfig config;
  config.bucket_count = 256;
  config.rebalance_threshold = 1.3;
  BucketHashingPolicy policy(7, config);
  Join(policy, ids, "w0");
  // All colors land on w0 (only instance); then two instances join and the
  // policy must spread buckets out.
  for (int c = 0; c < 5000; ++c) {
    policy.RouteColoredId(StrFormat("c%d", c));
  }
  Join(policy, ids, "w1");
  Join(policy, ids, "w2");
  EXPECT_LE(policy.CurrentRelativeMaxLoad(), 1.5);
}

TEST(BucketHashingPolicyTest, RotateWindowsForgetsOldColors) {
  InstanceTable ids;
  BucketHashingConfig config;
  config.bucket_count = 64;
  BucketHashingPolicy policy(7, config);
  Join(policy, ids, "w0");
  for (int c = 0; c < 1000; ++c) {
    policy.RouteColoredId(StrFormat("old%d", c));
  }
  policy.RotateWindows();
  policy.RotateWindows();
  // After two rotations all color counts decay to ~0.
  EXPECT_NEAR(policy.CurrentRelativeMaxLoad(), 0.0, 1.0);
}

TEST(BucketHashingPolicyTest, StateBytesScaleWithBuckets) {
  BucketHashingConfig small;
  small.bucket_count = 64;
  BucketHashingConfig large;
  large.bucket_count = 1024;
  BucketHashingPolicy a(1, small);
  BucketHashingPolicy b(1, large);
  EXPECT_LT(a.StateBytes(), b.StateBytes());
}

TEST(LeastAssignedPolicyTest, BalancesNewColorsExactly) {
  InstanceTable ids;
  LeastAssignedPolicy policy(7);
  AddAll(policy, ids, MakeInstances(4));
  for (int c = 0; c < 400; ++c) {
    policy.RouteColoredId(StrFormat("c%d", c));
  }
  for (const auto& name : MakeInstances(4)) {
    EXPECT_EQ(policy.AssignedCount(name), 100u);
  }
}

TEST(LeastAssignedPolicyTest, TableCapAndLruEviction) {
  InstanceTable ids;
  LeastAssignedConfig config;
  config.table_capacity = 100;
  LeastAssignedPolicy policy(7, config);
  AddAll(policy, ids, MakeInstances(4));
  for (int c = 0; c < 250; ++c) {
    policy.RouteColoredId(StrFormat("c%d", c));
  }
  EXPECT_EQ(policy.table_size(), 100u);
  EXPECT_EQ(policy.evictions(), 150u);
  // Oldest colors were evicted; newest survive.
  EXPECT_FALSE(policy.LookupColor("c0").has_value());
  EXPECT_TRUE(policy.LookupColor("c249").has_value());
}

TEST(LeastAssignedPolicyTest, ReaccessKeepsColorWarm) {
  InstanceTable ids;
  LeastAssignedConfig config;
  config.table_capacity = 3;
  LeastAssignedPolicy policy(7, config);
  AddAll(policy, ids, MakeInstances(2));
  policy.RouteColoredId("a");
  policy.RouteColoredId("b");
  policy.RouteColoredId("c");
  policy.RouteColoredId("a");  // refresh a
  policy.RouteColoredId("d");  // evicts b (LRU), not a
  EXPECT_TRUE(policy.LookupColor("a").has_value());
  EXPECT_FALSE(policy.LookupColor("b").has_value());
}

TEST(LeastAssignedPolicyTest, ColorTruncationAt32Bytes) {
  InstanceTable ids;
  LeastAssignedPolicy policy(7);
  AddAll(policy, ids, MakeInstances(4));
  const std::string long_a(40, 'a');
  const std::string long_b = long_a.substr(0, 32) + "-different-suffix";
  const auto first = NameOf(ids, policy.RouteColoredId(long_a));
  const auto second = NameOf(ids, policy.RouteColoredId(long_b));
  // Both truncate to the same 32-byte key, so they share a mapping.
  EXPECT_EQ(first, second);
  EXPECT_EQ(policy.table_size(), 1u);
}

TEST(LeastAssignedPolicyTest, RemovalRedistributesToSurvivors) {
  InstanceTable ids;
  LeastAssignedPolicy policy(7);
  AddAll(policy, ids, MakeInstances(3));
  for (int c = 0; c < 300; ++c) {
    policy.RouteColoredId(StrFormat("c%d", c));
  }
  policy.OnInstanceRemoved("w0");
  // Every color still maps, and only to survivors.
  for (int c = 0; c < 300; ++c) {
    const auto target = policy.LookupColor(StrFormat("c%d", c));
    ASSERT_TRUE(target.has_value());
    EXPECT_NE(*target, "w0");
  }
  // Counts stay balanced-ish across the two survivors.
  EXPECT_NEAR(static_cast<double>(policy.AssignedCount("w1")),
              static_cast<double>(policy.AssignedCount("w2")), 20.0);
}

TEST(LeastAssignedPolicyTest, NewInstanceAttractsNewColors) {
  InstanceTable ids;
  LeastAssignedPolicy policy(7);
  AddAll(policy, ids, MakeInstances(2));
  for (int c = 0; c < 200; ++c) {
    policy.RouteColoredId(StrFormat("c%d", c));
  }
  Join(policy, ids, "w_new");
  // The next 100 new colors all go to the empty newcomer.
  for (int c = 200; c < 300; ++c) {
    EXPECT_EQ(*NameOf(ids, policy.RouteColoredId(StrFormat("c%d", c))),
              "w_new");
  }
}

TEST(LeastAssignedPolicyTest, StateStaysUnderPaperBudget) {
  InstanceTable ids;
  LeastAssignedPolicy policy(7);
  AddAll(policy, ids, MakeInstances(4));
  for (int c = 0; c < 20000; ++c) {
    policy.RouteColoredId(StrFormat("color-%d", c));
  }
  EXPECT_EQ(policy.table_size(), kDefaultColorTableCapacity);
  // §5: "we use a maximum of 512KB of data per application" — allow modest
  // bookkeeping overhead in our accounting model.
  EXPECT_LE(policy.StateBytes(), 2 * 512 * 1024u);
}

// ---------- load balancer ----------

TEST(PaletteLoadBalancerTest, RoutesAndCounts) {
  InstanceTable ids;
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, 9));
  lb.AddInstance("w0", ids.Intern("w0"));
  lb.AddInstance("w1", ids.Intern("w1"));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(lb.Route(Color("c1")).has_value());
  }
  EXPECT_EQ(lb.total_routed(), 10u);
  // Sticky: all 10 went to one instance.
  EXPECT_EQ(lb.RoutedTo("w0") + lb.RoutedTo("w1"), 10u);
  EXPECT_NEAR(lb.RoutingImbalance(), 2.0, 1e-9);
}

TEST(PaletteLoadBalancerTest, UncoloredRoutesSomewhere) {
  InstanceTable ids;
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kBucketHashing, 9));
  lb.AddInstance("w0", ids.Intern("w0"));
  EXPECT_TRUE(lb.Route(std::nullopt).has_value());
}

TEST(PaletteLoadBalancerTest, NoInstancesRoutesNowhere) {
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kObliviousRandom, 9));
  EXPECT_FALSE(lb.Route(Color("c")).has_value());
  EXPECT_EQ(lb.total_routed(), 0u);
}

TEST(PaletteLoadBalancerTest, TranslateObjectNameRewritesColorPrefix) {
  InstanceTable ids;
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, 9));
  lb.AddInstance("w0", ids.Intern("w0"));
  lb.AddInstance("w1", ids.Intern("w1"));
  const auto instance = lb.ResolveColor("blue");
  ASSERT_TRUE(instance.has_value());
  EXPECT_EQ(lb.TranslateObjectName("blue___task3"), *instance + "___task3");
  // Names without the token pass through unchanged.
  EXPECT_EQ(lb.TranslateObjectName("plain"), "plain");
}

TEST(PaletteLoadBalancerTest, TranslationStableAcrossCalls) {
  InstanceTable ids;
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, 9));
  lb.AddInstance("w0", ids.Intern("w0"));
  lb.AddInstance("w1", ids.Intern("w1"));
  const std::string first = lb.TranslateObjectName("red___o");
  const std::string second = lb.TranslateObjectName("red___o");
  EXPECT_EQ(first, second);
}

TEST(PaletteLoadBalancerTest, TranslateEmptyPrefixPassesThrough) {
  InstanceTable ids;
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, 9));
  lb.AddInstance("w0", ids.Intern("w0"));
  // "___rest" has an empty color prefix: not a hint. It must pass through
  // untranslated, and resolving it must not fabricate an empty-color
  // mapping in the policy's table.
  EXPECT_EQ(lb.TranslateObjectName("___rest"), "___rest");
  EXPECT_EQ(lb.TranslateObjectName("___"), "___");
}

TEST(PaletteLoadBalancerTest, TranslateSplitsAtFirstSeparatorOnly) {
  InstanceTable ids;
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, 9));
  lb.AddInstance("w0", ids.Intern("w0"));
  lb.AddInstance("w1", ids.Intern("w1"));
  // "a___b___c" splits at the first token: prefix "a", rest "___b___c"
  // carried through verbatim.
  const auto instance = lb.ResolveColor("a");
  ASSERT_TRUE(instance.has_value());
  EXPECT_EQ(lb.TranslateObjectName("a___b___c"), *instance + "___b___c");
}

TEST(PaletteLoadBalancerTest, TranslateWithNoInstancesPassesThrough) {
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, 9));
  // The prefix resolves to no instance (empty membership): the name stays
  // as-is so the cache hashes it by its raw prefix.
  EXPECT_EQ(lb.TranslateObjectName("blue___obj"), "blue___obj");
}

TEST(PaletteLoadBalancerTest, RemoveAndReAddInstanceResetsRoutingCounts) {
  InstanceTable ids;
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, 9));
  lb.AddInstance("w0", ids.Intern("w0"));
  lb.AddInstance("w1", ids.Intern("w1"));
  // Pin every route onto one instance via a sticky color.
  const auto sticky = lb.ResolveColor("c");
  ASSERT_TRUE(sticky.has_value());
  for (int i = 0; i < 10; ++i) {
    lb.Route(Color("c"));
  }
  ASSERT_EQ(lb.RoutedTo(*sticky), 10u);

  // Remove the instance, then bring the same name back. Its id is reused
  // on re-add, so a stale counter would bleed the dead
  // incarnation's 10 routes into the new one.
  lb.RemoveInstance(*sticky);
  EXPECT_EQ(lb.RoutedTo(*sticky), 0u);
  lb.AddInstance(*sticky, ids.Intern(*sticky));
  EXPECT_EQ(lb.RoutedTo(*sticky), 0u);

  // And the re-added instance participates in fresh routing from zero.
  for (int i = 0; i < 4; ++i) {
    lb.Route(Color("c"));
  }
  EXPECT_EQ(lb.RoutedTo("w0") + lb.RoutedTo("w1"), 4u);
}

TEST(PaletteLoadBalancerTest, RemoveInstanceKeepsStickyResolutionLive) {
  InstanceTable ids;
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, 9));
  lb.AddInstance("w0", ids.Intern("w0"));
  lb.AddInstance("w1", ids.Intern("w1"));
  const auto before = lb.ResolveColor("c");
  ASSERT_TRUE(before.has_value());
  lb.RemoveInstance(*before);
  // No stale hits: the color resolves to the survivor, not the removed
  // name, and the re-coloring is counted.
  const auto after = lb.ResolveColor("c");
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(*after, *before);
  EXPECT_GT(lb.recolored(), 0u);
}

// ---------- Fig. 5 load models ----------

TEST(LoadModelTest, BucketHashingBeatsSimpleHashing) {
  Rng rng(2023);
  const double simple = MeanSimpleHashingLoad(10000, 100, 10, rng);
  const double bucketed = MeanBucketHashingLoad(10000, 100, 1000, 10, rng);
  EXPECT_LT(bucketed, simple);
}

TEST(LoadModelTest, MoreBucketsImproveBalance) {
  Rng rng(2023);
  const double few = MeanBucketHashingLoad(10000, 100, 200, 10, rng);
  const double many = MeanBucketHashingLoad(10000, 100, 10000, 10, rng);
  EXPECT_LE(many, few + 0.05);
  EXPECT_LE(many, 1.2);  // Fig. 5: >=10k buckets keeps load near 1.
}

TEST(LoadModelTest, ManyColorsSmoothSimpleHashing) {
  Rng rng(7);
  const double few_colors = MeanSimpleHashingLoad(100, 20, 10, rng);
  const double many_colors = MeanSimpleHashingLoad(1000000, 20, 3, rng);
  EXPECT_GT(few_colors, many_colors);
  EXPECT_NEAR(many_colors, 1.0, 0.05);
}

}  // namespace
}  // namespace palette
