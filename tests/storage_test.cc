// Stateful storage tier tests (docs/STORAGE.md): coherence-mode read/write
// semantics, bounded write-back dirty age and crash loss, anti-entropy
// replay after restart, two-tier promotion/demotion, §5.1 name translation
// at dispatch, and determinism of write-heavy runs across engine shard
// counts and re-runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cache/faast_cache.h"
#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/faas/platform.h"
#include "src/router/router_tier.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/storage_layer.h"
#include "src/storage/storage_types.h"
#include "src/storage/tiered_store.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/mix.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

constexpr Bytes kObj = 4 * kMiB;

// A bench-scale write-heavy open-loop spec, small enough for a test.
WorkloadSpec WriteHeavySpec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 150;
  spec.mix.color_count = 16;
  spec.mix.zipf_theta = 0.9;
  spec.mix.objects_per_color = 4;
  spec.mix.inputs_per_invocation = 1;
  spec.mix.write_fraction = 0.2;
  spec.mix.functions[0].cpu_ops = 1e6;
  spec.driver.duration = SimTime::FromSeconds(3);
  spec.seed = seed;
  return spec;
}

// Direct-layer fixture: two workers, a slow store node, and a StorageLayer
// wired the way FaasPlatform wires it.
struct LayerRig {
  explicit LayerRig(StorageConfig config)
      : network(&sim, NetworkConfig{}),
        layer(&sim, &network, &cache, &ids, config, "store") {
    network.AddNode("store");
    for (const char* w : {"w0", "w1"}) {
      network.AddNode(w);
      cache.AddInstance(w, ids.Intern(w));
      layer.OnInstanceJoin(w);
    }
  }

  // A write at w0 followed by a fetched copy at w1, then a second write at
  // w0 — leaving w1's copy exactly one version stale.
  void StrandStaleCopyAtW1(const std::string& name) {
    cache.Put(*ids.Find("w0"), name, kObj);
    layer.OnWrite("w0", "w0", name, kObj, std::nullopt, {}, sim.Now());
    cache.PutLocal(*ids.Find("w1"), name, kObj);
    layer.NoteCopy("w1", name);
    layer.OnWrite("w0", "w0", name, kObj, std::nullopt, {}, sim.Now());
  }

  Simulator sim;
  Network network;
  FaastCache cache;
  InstanceTable ids;  // assigns the rig's instance ids, as a platform does
  StorageLayer layer;
};

StorageConfig ModeConfig(CoherenceMode mode) {
  StorageConfig config;
  config.mode = mode;
  // Long AE lag: these unit tests exercise the read-time checks before any
  // anti-entropy record applies.
  config.ae_lag = SimTime::FromSeconds(30);
  return config;
}

TEST(StorageTypesTest, CoherenceModeIdRoundTrips) {
  for (const CoherenceMode mode :
       {CoherenceMode::kNone, CoherenceMode::kWriteThrough,
        CoherenceMode::kWriteBack, CoherenceMode::kCausal}) {
    CoherenceMode parsed;
    ASSERT_TRUE(ParseCoherenceMode(CoherenceModeId(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  CoherenceMode parsed;
  EXPECT_FALSE(ParseCoherenceMode("eventually", &parsed));
}

TEST(StorageLayerTest, WriteThroughNeverServesStale) {
  LayerRig rig(ModeConfig(CoherenceMode::kWriteThrough));
  rig.StrandStaleCopyAtW1("w0___o");

  // The stale local hit at w1 must block on a forced re-sync, not serve.
  const SimTime done = rig.sim.Now();
  const SimTime ready = rig.layer.OnLocalRead("w1", "w0___o", done);
  EXPECT_GT(ready, done);
  EXPECT_EQ(rig.layer.stats().stale_reads, 0u);
  EXPECT_EQ(rig.layer.stats().coherence_syncs, 1u);
  EXPECT_EQ(rig.layer.stats().coherence_bytes, kObj);
  // The sync repaired the copy: the next read is clean.
  EXPECT_EQ(rig.layer.OnLocalRead("w1", "w0___o", done), done);
  // Both writes were synchronously durable.
  EXPECT_EQ(rig.layer.stats().writes_total, 2u);
  EXPECT_EQ(rig.layer.stats().writes_durable, 2u);
  EXPECT_TRUE(rig.layer.stats().WriteBooksClose());
}

TEST(StorageLayerTest, CausalServesWithinBoundThenForcesSync) {
  StorageConfig config = ModeConfig(CoherenceMode::kCausal);
  config.staleness_bound = SimTime::FromMillis(50);
  LayerRig rig(config);
  rig.StrandStaleCopyAtW1("w0___o");

  // 10ms stale: served, counted, max tracked.
  rig.sim.At(SimTime::FromMillis(10), [&rig] {
    const SimTime done = rig.sim.Now();
    EXPECT_EQ(rig.layer.OnLocalRead("w1", "w0___o", done), done);
    EXPECT_EQ(rig.layer.stats().stale_reads, 1u);
    EXPECT_EQ(rig.layer.stats().max_served_staleness_ns,
              SimTime::FromMillis(10).nanos());
  });
  // 200ms stale: past the bound, the read must block on a re-fetch.
  rig.sim.At(SimTime::FromMillis(200), [&rig] {
    const SimTime done = rig.sim.Now();
    EXPECT_GT(rig.layer.OnLocalRead("w1", "w0___o", done), done);
    EXPECT_EQ(rig.layer.stats().stale_reads, 1u);
    EXPECT_EQ(rig.layer.stats().coherence_syncs, 1u);
  });
  rig.sim.Run();
  // The bound was never exceeded by a served read.
  EXPECT_LE(rig.layer.stats().max_served_staleness_ns,
            config.staleness_bound.nanos());
}

TEST(StorageLayerTest, WriteBackFlushesWithinDirtyAge) {
  StorageConfig config = ModeConfig(CoherenceMode::kWriteBack);
  config.max_dirty_age = SimTime::FromMillis(50);
  LayerRig rig(config);
  rig.cache.Put(*rig.ids.Find("w0"), "w0___o", kObj);
  rig.layer.OnWrite("w0", "w0", "w0___o", kObj, std::nullopt, {},
                    rig.sim.Now());
  EXPECT_EQ(rig.layer.stats().writes_durable, 0u);
  EXPECT_EQ(rig.layer.total_dirty_bytes(), kObj);

  bool checked = false;
  // Just past the dirty-age bound the flush timer must have fired.
  rig.sim.At(SimTime::FromMillis(51), [&rig, &checked] {
    EXPECT_EQ(rig.layer.stats().writes_durable, 1u);
    EXPECT_EQ(rig.layer.stats().flushes, 1u);
    EXPECT_EQ(rig.layer.stats().dirty_bytes_flushed, kObj);
    EXPECT_EQ(rig.layer.total_dirty_bytes(), 0u);
    checked = true;
  });
  rig.sim.Run();
  EXPECT_TRUE(checked);
  EXPECT_TRUE(rig.layer.stats().WriteBooksClose());
}

TEST(StorageLayerTest, WriteBackCrashLosesDirtyDataInTheBooks) {
  StorageConfig config = ModeConfig(CoherenceMode::kWriteBack);
  config.max_dirty_age = SimTime::FromSeconds(1);
  LayerRig rig(config);
  rig.cache.Put(*rig.ids.Find("w0"), "w0___a", kObj);
  rig.cache.Put(*rig.ids.Find("w0"), "w0___b", kObj);
  rig.layer.OnWrite("w0", "w0", "w0___a", kObj, std::nullopt, {},
                    rig.sim.Now());
  rig.layer.OnWrite("w0", "w0", "w0___b", kObj, std::nullopt, {},
                    rig.sim.Now());

  // Crash inside the dirty window: both buffered writes die with the owner
  // — surfaced in the books, never silent.
  rig.layer.OnInstanceLeave("w0", /*crashed=*/true);
  rig.sim.Run();
  EXPECT_EQ(rig.layer.stats().writes_lost, 2u);
  EXPECT_EQ(rig.layer.stats().dirty_bytes_lost, 2 * kObj);
  EXPECT_EQ(rig.layer.stats().writes_durable, 0u);
  EXPECT_TRUE(rig.layer.stats().WriteBooksClose());
}

TEST(StorageLayerTest, GracefulLeaveFlushesDirtyDataFirst) {
  StorageConfig config = ModeConfig(CoherenceMode::kWriteBack);
  config.max_dirty_age = SimTime::FromSeconds(1);
  LayerRig rig(config);
  rig.cache.Put(*rig.ids.Find("w0"), "w0___o", kObj);
  rig.layer.OnWrite("w0", "w0", "w0___o", kObj, std::nullopt, {},
                    rig.sim.Now());
  rig.layer.OnInstanceLeave("w0", /*crashed=*/false);
  rig.sim.Run();
  EXPECT_EQ(rig.layer.stats().writes_lost, 0u);
  EXPECT_EQ(rig.layer.stats().writes_durable, 1u);
  EXPECT_EQ(rig.layer.stats().dirty_bytes_flushed, kObj);
  EXPECT_TRUE(rig.layer.stats().WriteBooksClose());
}

TEST(StorageLayerTest, AntiEntropyReplayAfterRestartReachesLatestSeq) {
  StorageConfig config = ModeConfig(CoherenceMode::kWriteThrough);
  config.ae_lag = SimTime::FromMillis(10);
  LayerRig rig(config);
  for (int i = 0; i < 5; ++i) {
    const std::string name = StrFormat("w0___o%d", i);
    rig.cache.Put(*rig.ids.Find("w0"), name, kObj);
    rig.layer.OnWrite("w0", "w0", name, kObj, std::nullopt, {},
                      rig.sim.Now());
  }
  EXPECT_EQ(rig.layer.latest_seq(), 5u);

  // w1 crashes and restarts: its cursor resets to zero and the whole log
  // replays for it after the lag — exactly once, from seq 1.
  rig.layer.OnInstanceLeave("w1", /*crashed=*/true);
  rig.layer.OnInstanceJoin("w1");
  EXPECT_EQ(rig.layer.AppliedSeqOf("w1"), 0u);
  rig.sim.Run();
  EXPECT_EQ(rig.layer.AppliedSeqOf("w1"), rig.layer.latest_seq());
  // The writer's own cursor never moves: every record it would apply names
  // it as the source, and sources skip their own records.
  EXPECT_EQ(rig.layer.AppliedSeqOf("w0"), 0u);
  EXPECT_TRUE(rig.layer.stats().ae_applied > 0u);
  EXPECT_TRUE(rig.layer.stats().WriteBooksClose());
}

TEST(TieredStoreTest, PromotesAfterThresholdAndDemotesLru) {
  Simulator sim;
  Network network(&sim, NetworkConfig{});
  network.AddNode("store");
  network.AddNode("w0");
  StorageStats stats;
  StorageTierConfig config;
  config.two_tier = true;
  config.fast_capacity = 2 * kObj;  // room for exactly two objects
  config.promote_after = 2;
  TieredStore store(&sim, &network, config, "store", &stats);

  // Two slow reads promote "a"; one read is not enough for "b" yet.
  store.Read("w0", "a", kObj);
  EXPECT_FALSE(store.InFastTier("a"));
  store.Read("w0", "a", kObj);
  EXPECT_TRUE(store.InFastTier("a"));
  EXPECT_EQ(stats.tier_promotions, 1u);
  EXPECT_EQ(stats.tier_promoted_bytes, kObj);

  // Promote "b", then "c": the fast tier only fits two, so the least-
  // recently-used resident ("a") demotes back to the slow tier.
  store.Read("w0", "b", kObj);
  store.Read("w0", "b", kObj);
  ASSERT_TRUE(store.InFastTier("b"));
  store.Read("w0", "c", kObj);
  store.Read("w0", "c", kObj);
  EXPECT_TRUE(store.InFastTier("c"));
  EXPECT_FALSE(store.InFastTier("a"));
  EXPECT_TRUE(store.InFastTier("b"));
  EXPECT_EQ(stats.tier_demotions, 1u);
  EXPECT_EQ(stats.tier_demoted_bytes, kObj);
  EXPECT_LE(store.fast_used_bytes(), config.fast_capacity);
}

TEST(TieredStoreTest, SingleTierNeverPromotes) {
  Simulator sim;
  Network network(&sim, NetworkConfig{});
  network.AddNode("store");
  network.AddNode("w0");
  StorageStats stats;
  TieredStore store(&sim, &network, StorageTierConfig{}, "store", &stats);
  for (int i = 0; i < 10; ++i) {
    store.Read("w0", "a", kObj);
  }
  EXPECT_FALSE(store.InFastTier("a"));
  EXPECT_EQ(stats.tier_promotions, 0u);
  EXPECT_EQ(stats.tier_fast_reads, 0u);
}

// ---- platform-level -----------------------------------------------------

InvocationSpec ColoredWrite(const std::string& color,
                            const std::string& output) {
  InvocationSpec spec;
  spec.function = "f";
  spec.color = Color(color);
  spec.cpu_ops = 1e6;
  spec.outputs.push_back(ObjectRef{output, kObj});
  return spec;
}

TEST(PlatformStorageTest, TranslateObjectNamesRewritesToRoutedInstance) {
  Simulator sim;
  PlatformConfig config;
  config.translate_object_names = true;
  config.storage.mode = CoherenceMode::kWriteThrough;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const InstanceId w0 = *platform.instance_table().Find("w0");
  bool done = false;
  platform.Invoke(ColoredWrite("c", "c___obj"),
                  [&](const InvocationResult& r) {
                    done = true;
                    EXPECT_EQ(r.instance, "w0");
                  });
  sim.Run();
  ASSERT_TRUE(done);
  // §5.1: the color prefix was rewritten to the routed instance, so the
  // object homes exactly where it was produced; the raw name never lands.
  EXPECT_TRUE(platform.cache().ContainsLocal(w0, "w0___obj"));
  EXPECT_FALSE(platform.cache().ContainsLocal(w0, "c___obj"));
  EXPECT_EQ(platform.storage_layer()->VersionOf("w0___obj"), 1u);
}

TEST(PlatformStorageTest, TranslationOffKeepsRawNames) {
  Simulator sim;
  PlatformConfig config;
  config.storage.mode = CoherenceMode::kWriteThrough;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const InstanceId w0 = *platform.instance_table().Find("w0");
  bool done = false;
  platform.Invoke(ColoredWrite("c", "c___obj"),
                  [&](const InvocationResult&) { done = true; });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(platform.cache().ContainsLocal(w0, "c___obj"));
  EXPECT_FALSE(platform.cache().ContainsLocal(w0, "w0___obj"));
}

// §5.1 aliasing: the mix's object names must stay distinct per color
// after translation rewrites their prefix to the routed worker, or every
// color homed on one worker would share that worker's objects.
TEST(PlatformStorageTest, TranslatedMixNamesNeverAliasAcrossColors) {
  Simulator sim;
  PlatformConfig config;
  config.translate_object_names = true;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  platform.AddWorker("w1");
  MixConfig mix_config;
  mix_config.color_count = 32;
  mix_config.write_fraction = 0.5;
  const InvocationMix mix(mix_config);
  Rng rng(5);
  std::vector<std::pair<std::uint32_t, std::string>> raw_names;
  for (int i = 0; i < 400; ++i) {
    const MixedInvocation inv = mix.Sample(SimTime(), rng);
    for (const auto* refs : {&inv.spec.inputs, &inv.spec.outputs}) {
      for (const ObjectRef& ref : *refs) {
        raw_names.emplace_back(inv.color_id, ref.name);
      }
    }
    platform.Invoke(inv.spec, [](const InvocationResult&) {});
  }
  sim.Run();
  // Routing is sticky, so translating after the run rewrites each name
  // exactly as dispatch did.
  std::map<std::string, std::uint32_t> color_of_name;
  std::map<std::string, std::set<std::uint32_t>> colors_on_worker;
  for (const auto& [color_id, raw] : raw_names) {
    const std::string name = platform.TranslateObjectName(raw);
    ASSERT_NE(name, raw);
    colors_on_worker[name.substr(0, name.find("___"))].insert(color_id);
    const auto [it, inserted] = color_of_name.emplace(name, color_id);
    EXPECT_EQ(it->second, color_id) << name << " aliases two colors";
  }
  ASSERT_EQ(colors_on_worker.size(), 2u);
  for (const auto& [worker, colors] : colors_on_worker) {
    EXPECT_GT(colors.size(), 1u) << worker;
  }
}

TEST(PlatformStorageTest, WriteThroughBooksCloseAcrossInvocations) {
  Simulator sim;
  PlatformConfig config;
  config.translate_object_names = true;
  config.storage.mode = CoherenceMode::kWriteThrough;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorkers(4);
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    platform.Invoke(
        ColoredWrite(StrFormat("c%d", i % 4), StrFormat("c%d___o", i % 4)),
        [&](const InvocationResult&) { ++completed; });
  }
  sim.Run();
  EXPECT_EQ(completed, 12);
  const StorageStats& stats = platform.storage_layer()->stats();
  EXPECT_EQ(stats.writes_total, 12u);
  EXPECT_EQ(stats.writes_durable, 12u);
  EXPECT_EQ(stats.stale_reads, 0u);
  EXPECT_TRUE(stats.WriteBooksClose());
}

// ---- harness-level ------------------------------------------------------

PlatformConfig StoragePlatform(CoherenceMode mode) {
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.storage.mode = mode;
  config.storage.max_dirty_age = SimTime::FromMillis(200);
  config.storage.staleness_bound = SimTime::FromMillis(100);
  config.translate_object_names = true;
  return config;
}

TEST(StorageWorkloadTest, WriteBackCrashKeepsBooksClosed) {
  RouterTierConfig tier;
  tier.routers = 1;
  FaultSchedule faults;
  faults.Add(FaultEvent{SimTime::FromMillis(1500), FaultKind::kCrash, "w1"});
  const WorkloadRunResult run = RunRouterWorkload(
      WriteHeavySpec(7), PolicyKind::kLeastAssigned, 4, tier, SloConfig{},
      StoragePlatform(CoherenceMode::kWriteBack), &faults);
  EXPECT_GT(run.counters.storage.writes_total, 0u);
  EXPECT_TRUE(run.counters.storage.WriteBooksClose());
  EXPECT_TRUE(run.counters.platform.BooksClose());
}

TEST(StorageWorkloadTest, CausalBoundHeldUnderRouterChurn) {
  RouterTierConfig tier;
  tier.routers = 2;
  tier.sync_lag = SimTime::FromMillis(50);
  FaultSchedule faults;
  faults.Add(
      FaultEvent{SimTime::FromMillis(1000), FaultKind::kRouterCrash, "r0"});
  const PlatformConfig config = StoragePlatform(CoherenceMode::kCausal);
  const WorkloadRunResult run =
      RunRouterWorkload(WriteHeavySpec(11), PolicyKind::kLeastAssigned, 4,
                        tier, SloConfig{}, config, &faults);
  EXPECT_GT(run.counters.storage.writes_total, 0u);
  EXPECT_TRUE(run.counters.storage.WriteBooksClose());
  // Bounded staleness holds even while routers churn the view: a stale
  // copy is never served past the bound.
  EXPECT_LE(run.counters.storage.max_served_staleness_ns,
            config.storage.staleness_bound.nanos());
}

TEST(StorageWorkloadTest, WriteHeavyRunIsSeedReproducible) {
  RouterTierConfig tier;
  tier.routers = 1;
  const PlatformConfig config = StoragePlatform(CoherenceMode::kWriteBack);
  const WorkloadRunResult a =
      RunRouterWorkload(WriteHeavySpec(23), PolicyKind::kLeastAssigned, 4,
                        tier, SloConfig{}, config);
  const WorkloadRunResult b =
      RunRouterWorkload(WriteHeavySpec(23), PolicyKind::kLeastAssigned, 4,
                        tier, SloConfig{}, config);
  EXPECT_EQ(a.samples_digest, b.samples_digest);
  EXPECT_EQ(a.counters.storage.writes_total, b.counters.storage.writes_total);
  EXPECT_EQ(a.counters.storage.writes_durable,
            b.counters.storage.writes_durable);
  EXPECT_EQ(a.counters.storage.write_bytes, b.counters.storage.write_bytes);
  EXPECT_EQ(a.counters.storage.coherence_bytes,
            b.counters.storage.coherence_bytes);
  EXPECT_EQ(a.counters.storage.ae_records, b.counters.storage.ae_records);
  EXPECT_EQ(a.counters.storage.flushes, b.counters.storage.flushes);
}

TEST(StorageWorkloadTest, ShardedDigestsAndStorageBooksMatchAcrossShards) {
  ShardedWorkloadConfig base;
  base.groups = 2;
  base.routers_per_group = 1;
  PlatformConfig platform = StoragePlatform(CoherenceMode::kCausal);
  platform.storage.tiers.two_tier = true;
  const WorkloadSpec spec = WriteHeavySpec(31);

  ShardedRunResult first;
  bool have_first = false;
  for (const int shards : {1, 4}) {
    ShardedWorkloadConfig config = base;
    config.shards = shards;
    const ShardedRunResult run = RunShardedWorkload(
        spec, PolicyKind::kLeastAssigned, 8, config, SloConfig{}, platform);
    ASSERT_TRUE(run.books_close);
    ASSERT_GT(run.counters.storage.writes_total, 0u);
    ASSERT_TRUE(run.counters.storage.WriteBooksClose());
    if (!have_first) {
      first = run;
      have_first = true;
      continue;
    }
    // Bit-identical across engine shard counts: samples, events, and every
    // storage counter.
    EXPECT_EQ(run.samples_digest, first.samples_digest);
    EXPECT_EQ(run.engine_digest, first.engine_digest);
    EXPECT_EQ(run.counters.storage.writes_total,
              first.counters.storage.writes_total);
    EXPECT_EQ(run.counters.storage.writes_durable,
              first.counters.storage.writes_durable);
    EXPECT_EQ(run.counters.storage.write_bytes,
              first.counters.storage.write_bytes);
    EXPECT_EQ(run.counters.storage.coherence_bytes,
              first.counters.storage.coherence_bytes);
    EXPECT_EQ(run.counters.storage.stale_reads,
              first.counters.storage.stale_reads);
    EXPECT_EQ(run.counters.storage.max_served_staleness_ns,
              first.counters.storage.max_served_staleness_ns);
    EXPECT_EQ(run.counters.storage.ae_records,
              first.counters.storage.ae_records);
    EXPECT_EQ(run.counters.storage.ae_applied,
              first.counters.storage.ae_applied);
    EXPECT_EQ(run.counters.storage.tier_promotions,
              first.counters.storage.tier_promotions);
    EXPECT_EQ(run.counters.storage.tier_demotions,
              first.counters.storage.tier_demotions);
  }
}

}  // namespace
}  // namespace palette
