// Ablation — Least-Assigned Color Table capacity (§5, §7.1 Finding 2).
//
// The paper caps the LA table at 16,384 colors and argues (via Fig. 6b)
// that the cap is what bounds the achievable hit ratio: "a Color Table has
// to grow in proportion to the aggregate cache size not to become the
// limiting factor", and "only remembering 1,000 colors would lead to a hit
// ratio of less than 5%". This ablation runs the actual social-network
// experiment (not the ideal-LRU model) across table capacities.
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "src/cache/lru_cache.h"
#include "src/common/table_printer.h"
#include "src/core/least_assigned_policy.h"
#include "src/core/palette_load_balancer.h"
#include "src/socialnet/content.h"
#include "src/socialnet/social_graph.h"
#include "src/socialnet/webapp_sim.h"
#include "src/socialnet/workload.h"

namespace palette {
namespace {

// Mirrors RunWebAppExperiment but with a custom-capacity LA policy.
WebAppResult RunWithCapacity(const std::vector<CacheAccess>& trace,
                             std::size_t capacity, int workers) {
  LeastAssignedConfig la;
  la.table_capacity = capacity;
  PaletteLoadBalancer lb(std::make_unique<LeastAssignedPolicy>(5, la));
  InstanceTable ids;
  std::unordered_map<std::string, std::unique_ptr<LruCache>> caches;
  for (int w = 0; w < workers; ++w) {
    const std::string name = StrFormat("w%d", w);
    lb.AddInstance(name, ids.Intern(name));
    caches.emplace(name, std::make_unique<LruCache>(128 * kMiB));
  }
  WebAppResult result;
  for (const CacheAccess& access : trace) {
    const auto instance = lb.Route(access.key);
    LruCache& cache = *caches.at(*instance);
    ++result.accesses;
    if (cache.Get(access.key)) {
      ++result.hits;
    } else {
      cache.Put(access.key, access.size);
    }
  }
  result.hit_ratio = static_cast<double>(result.hits) /
                     static_cast<double>(result.accesses);
  result.routing_imbalance = lb.RoutingImbalance();
  return result;
}

void Run() {
  std::printf("== Ablation: LA Color Table capacity (24 workers) ==\n\n");
  const SocialGraph graph{};
  const SocialContent content(graph);
  const auto trace = GenerateSocialTrace(content, SocialWorkloadConfig{});

  TablePrinter table;
  table.AddRow({"table_capacity", "hit_ratio%", "routing_imbalance"});
  for (std::size_t capacity :
       {std::size_t{1000}, std::size_t{4000}, std::size_t{16384},
        std::size_t{65536}, std::size_t{1 << 20}}) {
    const auto result = RunWithCapacity(trace, capacity, 24);
    table.AddRow({StrFormat("%zu", capacity),
                  StrFormat("%.1f", 100 * result.hit_ratio),
                  StrFormat("%.2f", result.routing_imbalance)});
  }
  table.Print();
  std::printf(
      "\nEvicted colors forget their instance, so their objects re-warm a\n"
      "different cache on return; below ~16K entries the table, not the\n"
      "cache, limits the hit ratio — the paper's Finding 2.\n");
}

}  // namespace
}  // namespace palette

int main() {
  palette::Run();
  return 0;
}
