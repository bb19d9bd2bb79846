// Example: colors under scaling (§5 "Scaling").
//
// Palette keeps scaling orthogonal to locality: workers are added and
// removed for load alone, membership changes flow into the color
// scheduling policy, and colors that land on moved instances lose warmth —
// but every request keeps being served. This example drives a bursty
// colored workload through the full platform, scales the fleet out for the
// surge and back in after it on a fixed schedule, and prints the cluster's
// evolution.
//
// Build & run:  ./build/examples/elastic_scaling
#include <cstdio>

#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/faas/platform.h"
#include "src/sim/simulator.h"

using namespace palette;

int main() {
  std::printf("Elastic scaling with locality hints\n");
  std::printf("===================================\n\n");

  Simulator sim;
  PlatformConfig config;
  config.cpu_ops_per_second = 1e9;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, /*seed=*/7, config);
  platform.AddWorkers(2);

  // Bursty arrivals: a quiet phase, a surge, then quiet again. Each request
  // carries a user-id color and 50 ms of compute.
  Rng rng(13);
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  const auto submit_one = [&](int user) {
    InvocationSpec spec;
    spec.function = "api";
    spec.color = StrFormat("user-%d", user);
    spec.cpu_ops = 5e7;  // 50 ms
    ++submitted;
    platform.Invoke(std::move(spec),
                    [&](const InvocationResult&) { ++completed; });
  };

  const auto schedule_phase = [&](double start_s, double end_s,
                                  double req_per_s) {
    for (double t = start_s; t < end_s; t += 1.0 / req_per_s) {
      sim.At(SimTime::FromSeconds(t), [&]() {
        submit_one(static_cast<int>(rng.NextBelow(64)));
      });
    }
  };
  schedule_phase(0, 60, 10);     // quiet: 10 req/s
  schedule_phase(60, 120, 300);  // surge: 300 req/s
  schedule_phase(120, 240, 10);  // quiet again

  // Scale out to 16 workers as the surge starts; after it, scale in one
  // worker every 5 s, always the shallowest queue, back down to 2.
  int scale_ins = 0;
  sim.At(SimTime::FromSeconds(60), [&]() { platform.AddWorkers(14); });
  for (int step = 1; step <= 14; ++step) {
    sim.At(SimTime::FromSeconds(120.0 + 5.0 * step), [&]() {
      platform.RemoveWorker(platform.DrainCandidateWorker());
      ++scale_ins;
    });
  }

  // Sample the cluster size over time.
  TablePrinter table;
  table.AddRow({"t", "workers", "outstanding", "completed"});
  for (int minute = 0; minute <= 4; ++minute) {
    sim.At(SimTime::FromSeconds(minute * 60.0), [&, minute]() {
      table.AddRow({StrFormat("%dmin", minute),
                    StrFormat("%zu", platform.worker_count()),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          submitted - completed)),
                    StrFormat("%llu",
                              static_cast<unsigned long long>(completed))});
    });
  }

  sim.Run();

  table.Print();
  std::printf("\nscale-in events: %d\n", scale_ins);
  std::printf("all %llu of %llu requests served (hints never block "
              "correctness)\n",
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(submitted));
  std::printf(
      "\nColors are sticky: joining workers attract only colors first seen\n"
      "after they join, and scale-in only re-homed the removed workers'\n"
      "colors. Every user was seen in the quiet phase, so the surge\n"
      "backlog stays on the two original workers.\n");
  return 0;
}
