// Unit + property tests for src/cache: LRU, hit-ratio curve, Faa$T cache.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cache/faast_cache.h"
#include "src/cache/hit_ratio_curve.h"
#include "src/cache/lru_cache.h"
#include "src/common/instance_id.h"
#include "src/common/rng.h"
#include "src/common/table_printer.h"

namespace palette {
namespace {

TEST(LruCacheTest, BasicPutGet) {
  LruCache cache(100);
  EXPECT_FALSE(cache.Get("a"));
  EXPECT_TRUE(cache.Put("a", 10));
  EXPECT_TRUE(cache.Get("a"));
  EXPECT_EQ(cache.used_bytes(), 10u);
  EXPECT_EQ(cache.object_count(), 1u);
  EXPECT_EQ(cache.SizeOf("a"), 10u);
  EXPECT_EQ(cache.SizeOf("missing"), 0u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(30);
  cache.Put("a", 10);
  cache.Put("b", 10);
  cache.Put("c", 10);
  ASSERT_TRUE(cache.Get("a"));  // promote a
  cache.Put("d", 10);           // evicts b (LRU)
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_TRUE(cache.Contains("d"));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, OversizedObjectRejected) {
  LruCache cache(10);
  EXPECT_FALSE(cache.Put("big", 11));
  EXPECT_EQ(cache.object_count(), 0u);
}

TEST(LruCacheTest, UnboundedCapacityNeverEvicts) {
  LruCache cache(0);
  for (int i = 0; i < 1000; ++i) {
    cache.Put(StrFormat("k%d", i), 1'000'000);
  }
  EXPECT_EQ(cache.object_count(), 1000u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruCacheTest, RePutUpdatesSizeAndPromotes) {
  LruCache cache(30);
  cache.Put("a", 10);
  cache.Put("b", 10);
  cache.Put("a", 20);  // resize + promote
  EXPECT_EQ(cache.used_bytes(), 30u);
  cache.Put("c", 10);  // must evict b, not a
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
}

TEST(LruCacheTest, OverwriteWithLargerSizeAccountsAndEvicts) {
  LruCache cache(30);
  cache.Put("a", 10);
  cache.Put("b", 10);
  cache.Put("c", 10);
  ASSERT_EQ(cache.used_bytes(), 30u);
  // Growing "c" in place (10 -> 25) overflows the capacity by 15: the
  // accounting must swap the old size for the new one exactly once, then
  // evict from the LRU end (a, b) until the new total fits.
  EXPECT_TRUE(cache.Put("c", 25));
  EXPECT_EQ(cache.used_bytes(), 25u);
  EXPECT_EQ(cache.SizeOf("c"), 25u);
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(LruCacheTest, OverwriteWithSmallerSizeReleasesBytes) {
  LruCache cache(30);
  cache.Put("a", 20);
  cache.Put("b", 10);
  // Shrinking "a" (20 -> 5) must release the 15-byte difference — not
  // leak it — so a 15-byte newcomer fits with no eviction.
  EXPECT_TRUE(cache.Put("a", 5));
  EXPECT_EQ(cache.used_bytes(), 15u);
  EXPECT_EQ(cache.SizeOf("a"), 5u);
  EXPECT_TRUE(cache.Put("c", 15));
  EXPECT_EQ(cache.used_bytes(), 30u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
}

TEST(LruCacheTest, OverwriteWithOversizedValueLeavesEntryIntact) {
  LruCache cache(30);
  cache.Put("a", 10);
  cache.Put("b", 10);
  // An overwrite larger than the whole cache is rejected before any
  // mutation: the old entry and the accounting survive untouched.
  EXPECT_FALSE(cache.Put("a", 31));
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_EQ(cache.SizeOf("a"), 10u);
  EXPECT_EQ(cache.used_bytes(), 20u);
  EXPECT_TRUE(cache.Contains("b"));
}

TEST(LruCacheTest, ContainsDoesNotPromote) {
  LruCache cache(20);
  cache.Put("a", 10);
  cache.Put("b", 10);
  ASSERT_TRUE(cache.Contains("a"));  // peek only — a stays LRU
  cache.Put("c", 10);
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("b"));
}

TEST(LruCacheTest, EraseAndClear) {
  LruCache cache(100);
  cache.Put("a", 10);
  EXPECT_TRUE(cache.Erase("a"));
  EXPECT_FALSE(cache.Erase("a"));
  EXPECT_EQ(cache.used_bytes(), 0u);
  cache.Put("b", 10);
  cache.Clear();
  EXPECT_EQ(cache.object_count(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCacheTest, StatsAndHitRatio) {
  LruCache cache(100);
  cache.Put("a", 1);
  cache.Get("a");
  cache.Get("a");
  cache.Get("x");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_NEAR(cache.HitRatio(), 2.0 / 3.0, 1e-12);
  cache.ResetStats();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.HitRatio(), 0.0);
}

TEST(LruCacheTest, EvictionHookFires) {
  LruCache cache(10);
  std::vector<std::string> evicted;
  cache.set_eviction_hook(
      [&](const std::string& key, Bytes) { evicted.push_back(key); });
  cache.Put("a", 6);
  cache.Put("b", 6);  // evicts a
  EXPECT_EQ(evicted, (std::vector<std::string>{"a"}));
}

// Property 1: with uniform object sizes, the one-pass curve matches direct
// LRU simulation *exactly* (Mattson stack inclusion holds).
class HitRatioCurveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HitRatioCurveProperty, ExactForUniformSizes) {
  Rng rng(GetParam());
  std::vector<CacheAccess> trace;
  for (int i = 0; i < 3000; ++i) {
    trace.push_back({StrFormat("obj%d", static_cast<int>(rng.NextBelow(50))), 10});
  }
  const std::vector<Bytes> capacities = {50, 100, 200, 400, 1000};
  const auto curve = HitRatioCurve::ForByteCapacities(trace, capacities);
  ASSERT_EQ(curve.size(), capacities.size());
  for (std::size_t c = 0; c < capacities.size(); ++c) {
    LruCache cache(capacities[c]);
    std::uint64_t hits = 0;
    for (const auto& access : trace) {
      if (cache.Get(access.key)) {
        ++hits;
      } else {
        cache.Put(access.key, access.size);
      }
    }
    const double direct = static_cast<double>(hits) / trace.size();
    EXPECT_NEAR(curve[c].hit_ratio, direct, 1e-12)
        << "capacity " << capacities[c];
  }
}

// Property 2: with variable sizes, stack inclusion is only approximate for a
// byte-capacity LRU (evict-until-fits can diverge from the stack model), but
// the curve must track direct simulation closely.
TEST_P(HitRatioCurveProperty, CloseForVariableSizes) {
  Rng rng(GetParam() + 100);
  std::vector<CacheAccess> trace;
  for (int i = 0; i < 3000; ++i) {
    const int k = static_cast<int>(rng.NextBelow(50));
    trace.push_back({StrFormat("obj%d", k), 10 + static_cast<Bytes>(k)});
  }
  const std::vector<Bytes> capacities = {50, 200, 500, 1000, 5000};
  const auto curve = HitRatioCurve::ForByteCapacities(trace, capacities);
  for (std::size_t c = 0; c < capacities.size(); ++c) {
    LruCache cache(capacities[c]);
    std::uint64_t hits = 0;
    for (const auto& access : trace) {
      if (cache.Get(access.key)) {
        ++hits;
      } else {
        cache.Put(access.key, access.size);
      }
    }
    const double direct = static_cast<double>(hits) / trace.size();
    EXPECT_NEAR(curve[c].hit_ratio, direct, 0.02)
        << "capacity " << capacities[c];
  }
}

// Property 3: the object-capacity curve matches a count-limited LRU exactly.
TEST_P(HitRatioCurveProperty, ExactForObjectCapacities) {
  Rng rng(GetParam() + 200);
  std::vector<CacheAccess> trace;
  for (int i = 0; i < 3000; ++i) {
    trace.push_back({StrFormat("obj%d", static_cast<int>(rng.NextBelow(60))), 1});
  }
  const std::vector<std::uint64_t> capacities = {1, 5, 20, 40, 60};
  const auto curve = HitRatioCurve::ForObjectCapacities(trace, capacities);
  for (std::size_t c = 0; c < capacities.size(); ++c) {
    // Count-limited LRU == byte-limited LRU over unit-size objects.
    LruCache cache(capacities[c]);
    std::uint64_t hits = 0;
    for (const auto& access : trace) {
      if (cache.Get(access.key)) {
        ++hits;
      } else {
        cache.Put(access.key, 1);
      }
    }
    const double direct = static_cast<double>(hits) / trace.size();
    EXPECT_NEAR(curve[c].hit_ratio, direct, 1e-12)
        << "capacity " << capacities[c];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HitRatioCurveProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(HitRatioCurveTest, ObjectCapacityMonotone) {
  Rng rng(77);
  std::vector<CacheAccess> trace;
  for (int i = 0; i < 5000; ++i) {
    trace.push_back({StrFormat("o%d", static_cast<int>(rng.NextBelow(300))), 1});
  }
  const auto curve =
      HitRatioCurve::ForObjectCapacities(trace, {1, 10, 50, 100, 300});
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].hit_ratio, curve[i - 1].hit_ratio);
  }
  // At full universe size, every non-cold access hits.
  EXPECT_GT(curve.back().hit_ratio, 0.9);
}

TEST(HitRatioCurveTest, EmptyTraceIsSafe) {
  const auto curve = HitRatioCurve::ForByteCapacities({}, {100});
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_EQ(curve[0].hit_ratio, 0.0);
}

TEST(FaastCacheTest, HashKeyExtraction) {
  EXPECT_EQ(FaastCache::HashKeyOf("blue___t42"), "blue");
  EXPECT_EQ(FaastCache::HashKeyOf("plain-name"), "plain-name");
  EXPECT_EQ(FaastCache::HashKeyOf("___x"), "");
  EXPECT_EQ(FaastCache::HashKeyOf("a___b___c"), "a");
}

TEST(FaastCacheTest, InstanceNamePrefixMakesProducerHome) {
  // §5.1: with the hashing key set to an instance name, the home location is
  // exactly that instance (ring identity property).
  FaastCache cache;
  cache.AddInstance("w0");
  cache.AddInstance("w1");
  cache.AddInstance("w2");
  EXPECT_EQ(InstanceName(cache.HomeInstanceId("w1___task7").value()), "w1");
  const InstanceId stored_at =
      cache.Put(InternInstance("w1"), "w1___task7", 100);
  EXPECT_EQ(InstanceName(stored_at), "w1");
}

TEST(FaastCacheTest, LocalRemoteMissClassification) {
  FaastCache cache;
  cache.AddInstance("w0");
  cache.AddInstance("w1");
  cache.Put(InternInstance("w0"), "w0___obj", 64);

  const CacheLookup local = cache.Get(InternInstance("w0"), "w0___obj");
  EXPECT_EQ(local.outcome, CacheOutcome::kLocalHit);
  EXPECT_EQ(local.size, 64u);

  const CacheLookup remote = cache.Get(InternInstance("w1"), "w0___obj");
  EXPECT_EQ(remote.outcome, CacheOutcome::kRemoteHit);
  EXPECT_EQ(InstanceName(remote.owner), "w0");

  const CacheLookup miss = cache.Get(InternInstance("w1"), "w0___nothere");
  EXPECT_EQ(miss.outcome, CacheOutcome::kMiss);

  EXPECT_EQ(cache.local_hits(), 1u);
  EXPECT_EQ(cache.remote_hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FaastCacheTest, LookupOwnerIsTheHomeInstanceId) {
  FaastCache cache;
  for (const char* w : {"w0", "w1", "w2", "w3"}) {
    cache.AddInstance(w);
  }
  const InstanceId w0 = InternInstance("w0");
  const InstanceId w1 = InternInstance("w1");
  for (int i = 0; i < 32; ++i) {
    const std::string object = StrFormat("color-%d___obj", i);
    const InstanceId home = cache.HomeInstanceId(object).value();
    cache.Put(home, object, 64);
    const CacheLookup remote = cache.Get(home == w0 ? w1 : w0, object);
    ASSERT_EQ(remote.outcome, CacheOutcome::kRemoteHit);
    EXPECT_EQ(remote.owner, home);
    EXPECT_EQ(remote.size, 64u);
    // A local hit is owned by its reader, and a miss by nobody.
    EXPECT_EQ(cache.Get(home, object).owner, home);
    EXPECT_EQ(cache.Get(home, object + "-absent").owner, kInvalidInstanceId);
  }
}

TEST(FaastCacheTest, RemoteHitDoesNotReplicateByDefault) {
  FaastCache cache;
  cache.AddInstance("w0");
  cache.AddInstance("w1");
  cache.Put(InternInstance("w0"), "w0___obj", 64);
  cache.Get(InternInstance("w1"), "w0___obj");
  // Second read from w1 is still remote: no local copy was made.
  EXPECT_EQ(cache.Get(InternInstance("w1"), "w0___obj").outcome,
            CacheOutcome::kRemoteHit);
  EXPECT_EQ(cache.shard_used_bytes(InternInstance("w1")), 0u);
}

TEST(FaastCacheTest, ReplicateOnRemoteHitOption) {
  FaastCacheConfig config;
  config.replicate_on_remote_hit = true;
  FaastCache cache(config);
  cache.AddInstance("w0");
  cache.AddInstance("w1");
  cache.Put(InternInstance("w0"), "w0___obj", 64);
  cache.Get(InternInstance("w1"), "w0___obj");
  EXPECT_EQ(cache.Get(InternInstance("w1"), "w0___obj").outcome,
            CacheOutcome::kLocalHit);
}

TEST(FaastCacheTest, PutLocalStoresAtReader) {
  FaastCache cache;
  cache.AddInstance("w0");
  cache.AddInstance("w1");
  cache.PutLocal(InternInstance("w1"), "whatever", 32);
  EXPECT_EQ(cache.Get(InternInstance("w1"), "whatever").outcome,
            CacheOutcome::kLocalHit);
}

TEST(FaastCacheTest, RemoveInstanceDropsItsShard) {
  FaastCache cache;
  cache.AddInstance("w0");
  cache.AddInstance("w1");
  cache.Put(InternInstance("w0"), "w0___obj", 64);
  cache.RemoveInstance("w0");
  EXPECT_EQ(cache.instance_count(), 1u);
  EXPECT_EQ(cache.Get(InternInstance("w1"), "w0___obj").outcome,
            CacheOutcome::kMiss);
}

TEST(FaastCacheTest, InvalidateRemovesEverywhere) {
  FaastCacheConfig config;
  config.replicate_on_remote_hit = true;
  FaastCache cache(config);
  cache.AddInstance("w0");
  cache.AddInstance("w1");
  cache.Put(InternInstance("w0"), "w0___obj", 64);
  cache.Get(InternInstance("w1"), "w0___obj");  // replicate
  cache.Invalidate("w0___obj");
  EXPECT_EQ(cache.Get(InternInstance("w0"), "w0___obj").outcome,
            CacheOutcome::kMiss);
  EXPECT_EQ(cache.Get(InternInstance("w1"), "w0___obj").outcome,
            CacheOutcome::kMiss);
}

TEST(FaastCacheTest, CapacityEvictionLosesObject) {
  FaastCacheConfig config;
  config.per_instance_capacity = 100;
  FaastCache cache(config);
  cache.AddInstance("w0");
  cache.Put(InternInstance("w0"), "w0___a", 60);
  cache.Put(InternInstance("w0"), "w0___b", 60);  // evicts a
  EXPECT_EQ(cache.Get(InternInstance("w0"), "w0___a").outcome,
            CacheOutcome::kMiss);
  EXPECT_EQ(cache.Get(InternInstance("w0"), "w0___b").outcome,
            CacheOutcome::kLocalHit);
}

TEST(FaastCacheTest, ByteCountersTrackHitsAndPuts) {
  FaastCache cache;
  cache.AddInstance("w0");
  cache.AddInstance("w1");

  // "___"-prefixed names home on the instance named by the prefix.
  cache.Put(InternInstance("w0"), "w0___obj", 100);
  EXPECT_EQ(cache.put_bytes(), 100u);

  // Local hit from the producer.
  EXPECT_EQ(cache.Get(InternInstance("w0"), "w0___obj").outcome,
            CacheOutcome::kLocalHit);
  EXPECT_EQ(cache.local_hit_bytes(), 100u);
  EXPECT_EQ(cache.remote_hit_bytes(), 0u);

  // Remote hit from the peer. Replication is off by default, so no extra
  // put bytes and no replicated bytes.
  EXPECT_EQ(cache.Get(InternInstance("w1"), "w0___obj").outcome,
            CacheOutcome::kRemoteHit);
  EXPECT_EQ(cache.remote_hit_bytes(), 100u);
  EXPECT_EQ(cache.put_bytes(), 100u);
  EXPECT_EQ(cache.replicated_bytes(), 0u);

  // A miss moves no cache bytes.
  EXPECT_EQ(cache.Get(InternInstance("w1"), "w1___absent").outcome,
            CacheOutcome::kMiss);
  EXPECT_EQ(cache.local_hit_bytes(), 100u);
  EXPECT_EQ(cache.remote_hit_bytes(), 100u);
  EXPECT_EQ(cache.local_hits(), 1u);
  EXPECT_EQ(cache.remote_hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FaastCacheTest, ReplicationCountsPutAndReplicatedBytes) {
  FaastCacheConfig config;
  config.replicate_on_remote_hit = true;
  FaastCache cache(config);
  cache.AddInstance("w0");
  cache.AddInstance("w1");

  cache.Put(InternInstance("w0"), "w0___obj", 100);
  EXPECT_EQ(cache.Get(InternInstance("w1"), "w0___obj").outcome,
            CacheOutcome::kRemoteHit);
  // The remote hit copied the object into w1's shard: counted both as put
  // bytes and as replicated bytes (replicated is a subset of put).
  EXPECT_EQ(cache.put_bytes(), 200u);
  EXPECT_EQ(cache.replicated_bytes(), 100u);
  // The copy serves the next read locally.
  EXPECT_EQ(cache.Get(InternInstance("w1"), "w0___obj").outcome,
            CacheOutcome::kLocalHit);
  EXPECT_EQ(cache.local_hit_bytes(), 100u);

  // PutLocal (miss fill) counts put bytes but not replicated bytes.
  cache.PutLocal(InternInstance("w1"), "fill", 40);
  EXPECT_EQ(cache.put_bytes(), 240u);
  EXPECT_EQ(cache.replicated_bytes(), 100u);
}

TEST(FaastCacheTest, PutReplicatedCountsBytesPerLandedReplica) {
  FaastCache cache;
  for (const char* w : {"w0", "w1", "w2", "w3"}) {
    cache.AddInstance(w);
  }

  // Home store + two replica copies: three stores, three counted.
  EXPECT_EQ(InstanceName(cache.PutReplicated(
                InternInstance("w0"), "w0___obj", 100,
                {InternInstance("w1"), InternInstance("w2")})),
            "w0");
  EXPECT_EQ(cache.put_bytes(), 300u);
  EXPECT_EQ(cache.replicated_bytes(), 200u);
  EXPECT_TRUE(cache.ContainsLocal(InternInstance("w1"), "w0___obj"));
  EXPECT_TRUE(cache.ContainsLocal(InternInstance("w2"), "w0___obj"));
  EXPECT_FALSE(cache.ContainsLocal(InternInstance("w3"), "w0___obj"));

  // A replica naming the home is already covered by the home store: no
  // double count. A dead replica lands nothing and counts nothing.
  cache.PutReplicated(InternInstance("w0"), "w0___dup", 50,
                      {InternInstance("w0"), InternInstance("w3")});
  EXPECT_EQ(cache.put_bytes(), 300u + 50u + 50u);
  EXPECT_EQ(cache.replicated_bytes(), 200u + 50u);
  cache.RemoveInstance("w3");
  cache.PutReplicated(InternInstance("w0"), "w0___late", 70,
                      {InternInstance("w3")});
  EXPECT_EQ(cache.put_bytes(), 400u + 70u);
  EXPECT_EQ(cache.replicated_bytes(), 250u);
}

TEST(FaastCacheTest, EvictionCountersPerShardAndTotal) {
  FaastCacheConfig config;
  config.per_instance_capacity = 100;
  FaastCache cache(config);
  cache.AddInstance("w0");
  cache.AddInstance("w1");

  cache.Put(InternInstance("w0"), "w0___a", 60);
  cache.Put(InternInstance("w0"), "w0___b", 60);  // evicts a from w0's shard
  cache.Put(InternInstance("w1"), "w1___c", 50);
  EXPECT_EQ(cache.shard_evictions(InternInstance("w0")), 1u);
  EXPECT_EQ(cache.shard_evictions(InternInstance("w1")), 0u);
  EXPECT_EQ(cache.total_evictions(), 1u);

  cache.Put(InternInstance("w1"), "w1___d", 60);  // evicts c from w1's shard
  EXPECT_EQ(cache.shard_evictions(InternInstance("w1")), 1u);
  EXPECT_EQ(cache.total_evictions(), 2u);
  EXPECT_EQ(cache.shard_evictions(InternInstance("no-such-instance")), 0u);

  // Dropping an instance loses its shard's eviction count with the shard
  // (reclaimed-worker semantics).
  cache.RemoveInstance("w0");
  EXPECT_EQ(cache.total_evictions(), 1u);
}

TEST(FaastCacheTest, HashKeyNamesShareHomeUnprefixedNamesDoNot) {
  FaastCache cache;
  cache.AddInstance("w0");
  cache.AddInstance("w1");

  // Same "___" prefix -> same hashing key -> same home instance.
  const auto home_x = cache.HomeInstanceId("w0___x");
  const auto home_y = cache.HomeInstanceId("w0___y");
  ASSERT_TRUE(home_x.has_value());
  ASSERT_TRUE(home_y.has_value());
  EXPECT_EQ(*home_x, *home_y);
  EXPECT_EQ(InstanceName(*home_x), "w0");  // ring maps a member name to itself

  // Without the token the whole name hashes; byte counters still track a
  // remote hit when the home is not the reader.
  cache.Put(InternInstance("w0"), "plain-object", 30);
  const auto home = cache.HomeInstanceId("plain-object");
  ASSERT_TRUE(home.has_value());
  const std::string reader = InstanceName(*home) == "w0" ? "w1" : "w0";
  const auto lookup = cache.Get(InternInstance(reader), "plain-object");
  EXPECT_EQ(lookup.outcome, CacheOutcome::kRemoteHit);
  EXPECT_EQ(cache.remote_hit_bytes(), 30u);
}

}  // namespace
}  // namespace palette
