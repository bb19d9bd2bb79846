// Ablation — Bucket Hashing bucket count (§5, Fig. 5's design constant).
//
// The implementation fixes B = 16,384 buckets (the Redis slot count). This
// ablation sweeps B on the real social-network workload: too few buckets
// leave per-instance load imbalanced (several popular buckets pile onto one
// instance); beyond ~10K buckets the gains flatten — matching the Fig. 5
// simulation used to pick the constant.
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "src/cache/lru_cache.h"
#include "src/common/table_printer.h"
#include "src/core/bucket_hashing_policy.h"
#include "src/core/palette_load_balancer.h"
#include "src/socialnet/content.h"
#include "src/socialnet/social_graph.h"
#include "src/socialnet/webapp_sim.h"
#include "src/socialnet/workload.h"

namespace palette {
namespace {

void Run() {
  std::printf("== Ablation: Bucket Hashing bucket count (24 workers) ==\n\n");
  const SocialGraph graph{};
  const SocialContent content(graph);
  const auto trace = GenerateSocialTrace(content, SocialWorkloadConfig{});

  TablePrinter table;
  table.AddRow({"buckets", "hit_ratio%", "routing_imbalance", "state"});
  for (std::size_t buckets : {std::size_t{96}, std::size_t{512},
                              std::size_t{2048}, std::size_t{16384},
                              std::size_t{65536}}) {
    BucketHashingConfig bh;
    bh.bucket_count = buckets;
    PaletteLoadBalancer lb(std::make_unique<BucketHashingPolicy>(5, bh));
    InstanceTable ids;
    std::unordered_map<std::string, std::unique_ptr<LruCache>> caches;
    for (int w = 0; w < 24; ++w) {
      const std::string name = StrFormat("w%d", w);
      lb.AddInstance(name, ids.Intern(name));
      caches.emplace(name, std::make_unique<LruCache>(128 * kMiB));
    }
    std::uint64_t hits = 0;
    for (const CacheAccess& access : trace) {
      const auto instance = lb.Route(access.key);
      LruCache& cache = *caches.at(*instance);
      if (cache.Get(access.key)) {
        ++hits;
      } else {
        cache.Put(access.key, access.size);
      }
    }
    table.AddRow({StrFormat("%zu", buckets),
                  StrFormat("%.1f", 100.0 * static_cast<double>(hits) /
                                        static_cast<double>(trace.size())),
                  StrFormat("%.2f", lb.RoutingImbalance()),
                  FormatBytes(lb.policy().StateBytes())});
  }
  table.Print();
  std::printf(
      "\nHit ratio is insensitive to B (partitioning works at any bucket\n"
      "granularity) but load balance improves with more buckets, at linear\n"
      "state cost — the trade-off behind the 16,384 default.\n");
}

}  // namespace
}  // namespace palette

int main() {
  palette::Run();
  return 0;
}
