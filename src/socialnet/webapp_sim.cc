#include "src/socialnet/webapp_sim.h"

#include <cassert>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/cache/lru_cache.h"
#include "src/common/instance_id.h"
#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/core/palette_load_balancer.h"

namespace palette {

WebAppResult RunWebAppExperiment(const std::vector<CacheAccess>& trace,
                                 const WebAppConfig& config) {
  assert(config.workers >= 1);
  assert(config.write_fraction >= 0.0 && config.write_fraction <= 1.0);
  PaletteLoadBalancer lb(MakePolicy(config.policy, config.seed));

  struct Instance {
    explicit Instance(Bytes capacity) : cache(capacity) {}
    LruCache cache;
    // Version of each cached object at the time it was stored. Stale
    // entries for evicted objects are harmless (a read requires a cache
    // hit first).
    std::unordered_map<std::string, std::uint64_t> cached_version;
  };
  InstanceTable ids;
  std::vector<std::unique_ptr<Instance>> instances;  // indexed by id
  for (int w = 0; w < config.workers; ++w) {
    const std::string name = StrFormat("w%d", w);
    lb.AddInstance(name, ids.Intern(name));
    instances.push_back(
        std::make_unique<Instance>(config.per_instance_cache_bytes));
  }

  // Authoritative object versions (the backend database's view).
  std::unordered_map<std::string, std::uint64_t> current_version;
  Rng rng(config.seed ^ 0x57A1EULL);

  WebAppResult result;
  for (const CacheAccess& access : trace) {
    const auto routed =
        config.use_colors ? lb.RouteId(access.key) : lb.RouteId(std::nullopt);
    assert(routed.has_value());
    Instance& instance = *instances[*routed];
    ++result.accesses;

    const bool is_write =
        config.write_fraction > 0 && rng.NextBernoulli(config.write_fraction);
    if (is_write) {
      // The function updates the object: bump the authoritative version
      // and refresh this instance's copy. Copies elsewhere go stale.
      ++result.writes;
      const std::uint64_t version = ++current_version[access.key];
      instance.cache.Put(access.key, access.size);
      instance.cached_version[access.key] = version;
      continue;
    }

    if (instance.cache.Get(access.key)) {
      ++result.hits;
      const auto it = instance.cached_version.find(access.key);
      const std::uint64_t cached =
          it != instance.cached_version.end() ? it->second : 0;
      const auto cur = current_version.find(access.key);
      if (cur != current_version.end() && cached < cur->second) {
        ++result.stale_reads;
        // The app eventually notices (TTL, validation) — model the copy
        // being refreshed on detection so staleness doesn't compound.
        instance.cached_version[access.key] = cur->second;
      }
    } else {
      instance.cache.Put(access.key, access.size);
      const auto cur = current_version.find(access.key);
      instance.cached_version[access.key] =
          cur != current_version.end() ? cur->second : 0;
    }
  }
  result.hit_ratio =
      result.accesses > 0
          ? static_cast<double>(result.hits) /
                static_cast<double>(result.accesses)
          : 0.0;
  result.stale_read_ratio =
      result.hits > 0
          ? static_cast<double>(result.stale_reads) /
                static_cast<double>(result.hits)
          : 0.0;
  result.routing_imbalance = lb.RoutingImbalance();
  for (const auto& instance : instances) {
    result.aggregate_cached_bytes += instance->cache.used_bytes();
  }
  return result;
}

}  // namespace palette
