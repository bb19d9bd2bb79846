// Quickstart: the Palette color abstraction in five minutes.
//
// Demonstrates the core API surface:
//   1. build a PaletteLoadBalancer with a color scheduling policy,
//   2. register instances (as the platform would), each under the id an
//      InstanceTable assigns it when it joins,
//   3. route invocations with and without locality hints,
//   4. watch what colors buy you: stickiness under Palette policies,
//      scattering under oblivious ones,
//   5. survive a scale-in: colors are hints, so routing keeps working.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "src/common/table_printer.h"
#include "src/core/palette_load_balancer.h"
#include "src/core/policy_factory.h"

using palette::Color;
using palette::InstanceTable;
using palette::MakePolicy;
using palette::PaletteLoadBalancer;
using palette::PolicyKind;
using palette::PolicyKindId;
using palette::StrFormat;

int main() {
  std::printf("Palette quickstart\n==================\n\n");

  // One application, one load balancer, one color scheduling policy.
  // Least-Assigned is the strongest policy for apps with < 16K colors.
  // Whoever owns the instances owns the table that names them with ids.
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, /*seed=*/42));
  InstanceTable ids;
  for (int i = 0; i < 4; ++i) {
    const std::string name = StrFormat("instance-%d", i);
    lb.AddInstance(name, ids.Intern(name));
  }

  // Invocations carrying the same color land on the same instance.
  std::printf("Routing colored invocations (color = user id):\n");
  for (const char* user : {"alice", "bob", "alice", "carol", "alice", "bob"}) {
    const auto instance = lb.Route(Color(user));
    std::printf("  f(request, color=%-5s) -> %s\n", user, instance->c_str());
  }

  // Colors are optional: uncolored invocations route obliviously.
  std::printf("\nUncolored invocations spread out:\n");
  for (int i = 0; i < 4; ++i) {
    std::printf("  f(request)              -> %s\n",
                lb.Route(std::nullopt)->c_str());
  }

  // Scale-in: mappings to the removed instance are redistributed; colors
  // are hints, so nothing breaks — "alice" simply warms a new cache.
  const auto before = lb.Route(Color("alice"));
  lb.RemoveInstance(*before);
  const auto after = lb.Route(Color("alice"));
  std::printf("\nScale-in: 'alice' moved %s -> %s (correctness unaffected)\n",
              before->c_str(), after->c_str());

  // §5.1 name translation: an object named "<color>___<rest>" is rewritten
  // so its Faa$T cache home is the instance the color maps to.
  std::printf("\nObject-name translation for the Faa$T cache:\n");
  std::printf("  alice___timeline -> %s\n",
              lb.TranslateObjectName("alice___timeline").c_str());

  // Every policy, same interface.
  std::printf("\nSame color, every policy:\n");
  for (PolicyKind kind : palette::AllPolicyKinds()) {
    PaletteLoadBalancer other(MakePolicy(kind, 42));
    for (int i = 0; i < 4; ++i) {
      const std::string name = StrFormat("instance-%d", i);
      other.AddInstance(name, ids.Intern(name));
    }
    std::printf("  %-28s f(.., color=alice) -> %s, %s, %s\n",
                std::string(other.policy().name()).c_str(),
                other.Route(Color("alice"))->c_str(),
                other.Route(Color("alice"))->c_str(),
                other.Route(Color("alice"))->c_str());
  }
  std::printf(
      "\nPalette policies are sticky; oblivious ones ignore the hint.\n");
  return 0;
}
