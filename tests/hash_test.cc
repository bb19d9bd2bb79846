// Unit tests for src/hash: hash functions, jump hash, consistent-hash ring.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/table_printer.h"
#include "src/hash/consistent_hash_ring.h"
#include "src/hash/hash.h"

namespace palette {
namespace {

TEST(HashTest, Fnv1aDeterministicAndSeedSensitive) {
  EXPECT_EQ(Fnv1a64("hello"), Fnv1a64("hello"));
  EXPECT_NE(Fnv1a64("hello"), Fnv1a64("world"));
  EXPECT_NE(Fnv1a64("hello", 1), Fnv1a64("hello", 2));
  EXPECT_NE(Fnv1a64(""), 0u);
}

TEST(HashTest, Murmur3DeterministicAndSeedSensitive) {
  EXPECT_EQ(Murmur3_64("hello"), Murmur3_64("hello"));
  EXPECT_NE(Murmur3_64("hello"), Murmur3_64("world"));
  EXPECT_NE(Murmur3_64("hello", 1), Murmur3_64("hello", 2));
}

TEST(HashTest, Murmur3HandlesAllTailLengths) {
  // Exercise every remainder length 0..16 of the 16-byte block loop.
  std::set<std::uint64_t> hashes;
  std::string s;
  for (int len = 0; len <= 48; ++len) {
    hashes.insert(Murmur3_64(s));
    s.push_back(static_cast<char>('a' + (len % 26)));
  }
  EXPECT_EQ(hashes.size(), 49u);
}

TEST(HashTest, MurmurDispersionAcrossBuckets) {
  constexpr int kBuckets = 64;
  constexpr int kKeys = 64000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kKeys; ++i) {
    ++counts[Murmur3_64(StrFormat("key-%d", i)) % kBuckets];
  }
  for (int count : counts) {
    EXPECT_NEAR(count, kKeys / kBuckets, kKeys / kBuckets * 0.15);
  }
}

TEST(HashTest, MixU64IsBijectiveish) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    outputs.insert(MixU64(i));
  }
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(JumpHashTest, StaysInRange) {
  for (std::uint32_t buckets : {1u, 2u, 7u, 100u}) {
    for (std::uint64_t key = 0; key < 1000; ++key) {
      EXPECT_LT(JumpConsistentHash(key, buckets), buckets);
    }
  }
}

TEST(JumpHashTest, MinimalMovementOnGrowth) {
  // When buckets grow from N to N+1, only ~1/(N+1) of keys should move.
  constexpr int kKeys = 10000;
  int moved = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    if (JumpConsistentHash(key, 10) != JumpConsistentHash(key, 11)) {
      ++moved;
    }
  }
  EXPECT_NEAR(moved, kKeys / 11.0, kKeys / 11.0 * 0.35);
}

TEST(RingTest, EmptyRingReturnsNothing) {
  ConsistentHashRing ring;
  EXPECT_FALSE(ring.Lookup("anything").has_value());
  std::vector<InstanceId> replicas = {7};
  ring.LookupNIds("anything", 3, &replicas);
  EXPECT_TRUE(replicas.empty());
}

TEST(RingTest, AddRemoveMembership) {
  ConsistentHashRing ring;
  EXPECT_TRUE(ring.AddMember("a", 0));
  EXPECT_FALSE(ring.AddMember("a", 0));
  EXPECT_EQ(ring.MemberId("a"), 0u);
  EXPECT_EQ(ring.member_count(), 1u);
  EXPECT_TRUE(ring.RemoveMember("a"));
  EXPECT_FALSE(ring.RemoveMember("a"));
  EXPECT_EQ(ring.member_count(), 0u);
}

TEST(RingTest, MemberNameMapsToItself) {
  // §5.1 identity property: CH(I(c)) = I(c) for ring members.
  ConsistentHashRing ring;
  for (int i = 0; i < 10; ++i) {
    ring.AddMember(StrFormat("w%d", i), static_cast<InstanceId>(i));
  }
  for (int i = 0; i < 10; ++i) {
    const std::string name = StrFormat("w%d", i);
    EXPECT_EQ(ring.Lookup(name).value(), name);
  }
}

TEST(RingTest, LookupDeterministic) {
  ConsistentHashRing a;
  ConsistentHashRing b;
  for (int i = 0; i < 5; ++i) {
    a.AddMember(StrFormat("w%d", i), static_cast<InstanceId>(i));
    b.AddMember(StrFormat("w%d", i), static_cast<InstanceId>(i));
  }
  for (int k = 0; k < 100; ++k) {
    const std::string key = StrFormat("key%d", k);
    EXPECT_EQ(a.Lookup(key), b.Lookup(key));
  }
}

TEST(RingTest, MinimalDisruptionOnMemberRemoval) {
  ConsistentHashRing ring;
  for (int i = 0; i < 10; ++i) {
    ring.AddMember(StrFormat("w%d", i), static_cast<InstanceId>(i));
  }
  constexpr int kKeys = 5000;
  std::map<std::string, std::string> before;
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = StrFormat("key%d", k);
    before[key] = ring.Lookup(key).value();
  }
  ring.RemoveMember("w3");
  int moved = 0;
  for (const auto& [key, owner] : before) {
    const std::string now = ring.Lookup(key).value();
    if (owner == "w3") {
      EXPECT_NE(now, "w3");  // Its keys must move somewhere else.
    } else {
      if (now != owner) {
        ++moved;
      }
    }
  }
  // Keys not owned by the removed member must not move at all.
  EXPECT_EQ(moved, 0);
}

TEST(RingTest, KeysSpreadAcrossMembers) {
  ConsistentHashRing ring;
  constexpr int kMembers = 10;
  for (int i = 0; i < kMembers; ++i) {
    ring.AddMember(StrFormat("w%d", i), static_cast<InstanceId>(i));
  }
  std::map<std::string, int> counts;
  constexpr int kKeys = 20000;
  for (int k = 0; k < kKeys; ++k) {
    ++counts[ring.Lookup(StrFormat("key%d", k)).value()];
  }
  EXPECT_EQ(counts.size(), static_cast<std::size_t>(kMembers));
  for (const auto& [member, count] : counts) {
    // With 128 virtual nodes the spread should be within ~2x of even.
    EXPECT_GT(count, kKeys / kMembers / 2) << member;
    EXPECT_LT(count, kKeys / kMembers * 2) << member;
  }
}

TEST(RingTest, LookupNReturnsDistinctMembers) {
  ConsistentHashRing ring;
  for (int i = 0; i < 5; ++i) {
    ring.AddMember(StrFormat("w%d", i), static_cast<InstanceId>(i));
  }
  std::vector<InstanceId> replicas;
  ring.LookupNIds("object", 3, &replicas);
  ASSERT_EQ(replicas.size(), 3u);
  std::set<InstanceId> unique(replicas.begin(), replicas.end());
  EXPECT_EQ(unique.size(), 3u);
  // First replica matches single lookup.
  EXPECT_EQ(replicas[0], ring.LookupId("object").value());
}

TEST(RingTest, LookupNClampsToMemberCount) {
  ConsistentHashRing ring;
  ring.AddMember("only", 0);
  std::vector<InstanceId> replicas;
  ring.LookupNIds("x", 5, &replicas);
  EXPECT_EQ(replicas.size(), 1u);
}

}  // namespace
}  // namespace palette
