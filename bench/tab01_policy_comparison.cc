// Table 1 — Comparison of the three color scheduling policies: the mapping
// rule, the load-balancer state they require, and the load-balance quality
// they deliver. Measured here by routing a stream of colors through each
// policy and reporting actual state bytes and routing imbalance.
#include <cstdio>
#include <vector>

#include "src/common/table_printer.h"
#include "src/core/palette_load_balancer.h"
#include "src/core/policy_factory.h"

namespace palette {
namespace {

void Run() {
  constexpr int kInstances = 24;
  constexpr int kColors = 16000;
  constexpr int kRequestsPerColor = 4;

  std::printf("== Table 1: color scheduling policy comparison ==\n");
  std::printf("(%d instances, %d colors, %d requests per color)\n\n",
              kInstances, kColors, kRequestsPerColor);

  TablePrinter table;
  table.AddRow({"policy", "mapping", "state_bytes", "rel_max_load",
                "lb_quality"});
  struct Row {
    PolicyKind kind;
    const char* mapping;
  };
  const std::vector<Row> rows = {
      {PolicyKind::kConsistentHashing, "I(c) = CH(c)"},
      {PolicyKind::kBucketHashing, "I(c) = BT[H_B(c)]"},
      {PolicyKind::kLeastAssigned, "I(c) = LA[c]"},
  };
  for (const Row& row : rows) {
    PaletteLoadBalancer lb(MakePolicy(row.kind, /*seed=*/1));
    InstanceTable ids;
    for (int i = 0; i < kInstances; ++i) {
      const std::string name = StrFormat("w%d", i);
      lb.AddInstance(name, ids.Intern(name));
    }
    for (int r = 0; r < kRequestsPerColor; ++r) {
      for (int c = 0; c < kColors; ++c) {
        lb.Route(Color(StrFormat("color-%d", c)));
      }
    }
    const double imbalance = lb.RoutingImbalance();
    const char* quality = imbalance < 1.1   ? "best"
                          : imbalance < 1.6 ? "better"
                                            : "poor";
    table.AddRow({std::string(PolicyKindId(row.kind)), row.mapping,
                  StrFormat("%zu", lb.policy().StateBytes()),
                  StrFormat("%.2f", imbalance), quality});
  }
  table.Print();
  std::printf(
      "\nState grows O(1) (CH, instance list only) -> O(B) (BH, bucket "
      "table + sketches) -> O(c) capped (LA, color table); load balance "
      "improves in the same order, matching Table 1.\n");
}

}  // namespace
}  // namespace palette

int main() {
  palette::Run();
  return 0;
}
