// Ablation — colors under autoscaling churn (§5 "Scaling").
//
// The paper keeps scaling orthogonal: membership changes flow into the
// color scheduling policy, and "locality — but not correctness — can suffer
// for colors that move". This ablation quantifies that: the social-network
// trace is replayed against (a) a static 24-instance cluster and (b) a
// cluster that scales between 8 and 24 instances on a cycle, for both
// Bucket Hashing and Least Assigned. Hit ratio is the locality lost to
// churn; the run completing at all is the correctness half of the claim.
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "src/cache/lru_cache.h"
#include "src/common/table_printer.h"
#include "src/core/palette_load_balancer.h"
#include "src/core/policy_factory.h"
#include "src/socialnet/content.h"
#include "src/socialnet/social_graph.h"
#include "src/socialnet/workload.h"

namespace palette {
namespace {

struct ChurnResult {
  double hit_ratio = 0;
  int scale_events = 0;
};

ChurnResult Replay(const std::vector<CacheAccess>& trace, PolicyKind policy,
                   bool churn) {
  PaletteLoadBalancer lb(MakePolicy(policy, /*seed=*/5));
  InstanceTable ids;
  std::unordered_map<std::string, std::unique_ptr<LruCache>> caches;
  const auto ensure_instance = [&](int i) {
    const std::string name = StrFormat("w%d", i);
    lb.AddInstance(name, ids.Intern(name));
    caches.try_emplace(name, std::make_unique<LruCache>(128 * kMiB));
  };
  // Start at full size; caches persist across scale-in/out so a returning
  // instance is warm (as a quickly-recycled instance would be).
  const int max_workers = 24;
  const int min_workers = 8;
  for (int i = 0; i < max_workers; ++i) {
    ensure_instance(i);
  }

  ChurnResult result;
  std::uint64_t hits = 0;
  int live = max_workers;
  bool shrinking = true;
  const std::size_t step = trace.size() / 64;  // scale event cadence

  for (std::size_t n = 0; n < trace.size(); ++n) {
    if (churn && step > 0 && n > 0 && n % step == 0) {
      if (shrinking) {
        --live;
        lb.RemoveInstance(StrFormat("w%d", live));
        if (live == min_workers) {
          shrinking = false;
        }
      } else {
        ensure_instance(live);
        ++live;
        if (live == max_workers) {
          shrinking = true;
        }
      }
      ++result.scale_events;
    }
    const auto instance = lb.Route(trace[n].key);
    LruCache& cache = *caches.at(*instance);
    if (cache.Get(trace[n].key)) {
      ++hits;
    } else {
      cache.Put(trace[n].key, trace[n].size);
    }
  }
  result.hit_ratio =
      static_cast<double>(hits) / static_cast<double>(trace.size());
  return result;
}

void Run() {
  std::printf("== Ablation: locality under autoscaling churn ==\n\n");
  const SocialGraph graph{};
  const SocialContent content(graph);
  const auto trace = GenerateSocialTrace(content, SocialWorkloadConfig{});

  TablePrinter table;
  table.AddRow({"policy", "static_24w_hit%", "churn_8-24w_hit%",
                "scale_events", "locality_lost"});
  for (PolicyKind policy :
       {PolicyKind::kBucketHashing, PolicyKind::kLeastAssigned}) {
    const auto stable = Replay(trace, policy, /*churn=*/false);
    const auto churned = Replay(trace, policy, /*churn=*/true);
    table.AddRow({std::string(PolicyKindId(policy)),
                  StrFormat("%.1f", 100 * stable.hit_ratio),
                  StrFormat("%.1f", 100 * churned.hit_ratio),
                  StrFormat("%d", churned.scale_events),
                  StrFormat("%.1fpp", 100 * (stable.hit_ratio -
                                             churned.hit_ratio))});
  }
  table.Print();
  std::printf(
      "\nEvery request is still served during churn (hints never affect\n"
      "correctness); the cost of scaling is only the hit-ratio delta from\n"
      "colors that had to move.\n");
}

}  // namespace
}  // namespace palette

int main() {
  palette::Run();
  return 0;
}
