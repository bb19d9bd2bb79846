// Color scheduling policy interface (§5, Table 1).
//
// A policy maps a color (from a user invocation) onto an application
// instance. The Palette load balancer keeps one policy per application and
// forwards instance membership changes from the scale controller. Policies
// assume "a single active instance per color at any time" (one instance may
// hold many colors), matching the paper's prototype.
//
// The hot path speaks interned InstanceIds (src/common/instance_id.h): the
// per-invocation RouteColoredId/RouteUncoloredId return a dense uint32 id,
// and concrete policies key their color tables by id rather than instance
// name. The string-returning RouteColored/RouteUncolored remain as
// non-virtual shims so existing callers (benches, tests, CLI) stay
// source-compatible; membership notifications keep their string signatures
// because membership churn is rare.
#ifndef PALETTE_SRC_CORE_COLOR_SCHEDULING_POLICY_H_
#define PALETTE_SRC_CORE_COLOR_SCHEDULING_POLICY_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/instance_id.h"
#include "src/common/rng.h"
#include "src/core/color.h"
#include "src/core/plan.h"

namespace palette {

class ColorSchedulingPolicy {
 public:
  virtual ~ColorSchedulingPolicy() = default;

  // Chooses the instance for an invocation carrying `color`. Returns nullopt
  // only when no instances are registered.
  virtual std::optional<InstanceId> RouteColoredId(std::string_view color) = 0;

  // Chooses the instance for an invocation without a color. Colors are
  // optional — uncolored traffic must still be served.
  virtual std::optional<InstanceId> RouteUncoloredId() = 0;

  // String shims over the id-based hot path (pre-interning API).
  std::optional<std::string> RouteColored(std::string_view color);
  std::optional<std::string> RouteUncolored();

  // Membership notifications from the scale controller.
  virtual void OnInstanceAdded(const std::string& instance) = 0;
  virtual void OnInstanceRemoved(const std::string& instance) = 0;

  // Approximate bytes of policy-private state (the "State" row of Table 1).
  virtual std::size_t StateBytes() const = 0;

  // Human-readable policy name for reports ("Oblivious: Random", ...).
  virtual std::string_view name() const = 0;

  // Plan+apply seam (docs/PLANNER.md). Policies with an explicit color →
  // instance table accept bulk remaps from the global re-balancer:
  // ApplyPlan() atomically rewrites the table entries named by the plan's
  // moves and merges (splits are routed above the policy, by the load
  // balancer's split table). Ring-derived policies have no table to remap
  // and ignore plans; supports_planning() tells the planner runtime
  // whether scheduling rounds against this policy is worthwhile.
  virtual bool supports_planning() const { return false; }
  virtual void ApplyPlan(const Plan& plan) { (void)plan; }
  // Non-mutating view of a color's current mapping, if the policy keeps
  // one. Unlike RouteColoredId this never creates or refreshes an entry,
  // so snapshot collection does not disturb the table it observes.
  virtual std::optional<InstanceId> PeekColorId(std::string_view color) const {
    (void)color;
    return std::nullopt;
  }
  // The set of instances a color's writes should synchronously land on,
  // when the policy fans a color across more than one instance (Replicated
  // Colors). Single-instance policies — the paper's assumption — return
  // empty, and the write path stores at the home shard only. The storage
  // tier uses this to keep a replicated hot color's copies coherent at
  // write time instead of paying anti-entropy for every replica.
  virtual std::vector<std::string> WriteReplicaSetOf(
      std::string_view color) const {
    (void)color;
    return {};
  }
  // Passive learning: a route decided *outside* this policy (by a router
  // replica's view) landed `color` on `instance`. Table-keeping policies
  // record the mapping (without counting it as a move) so a platform-side
  // planner can snapshot real placements even when the platform's own LB
  // never routes. Default: ignore.
  virtual void ObserveRoute(std::string_view color, InstanceId instance) {
    (void)color;
    (void)instance;
  }

  // Color-to-instance mappings explicitly remapped because their instance
  // left (failure-aware re-coloring; exported as "lb.recolored"). Stateful
  // policies count table entries or bucket moves; stateless ring policies
  // remap implicitly and report 0.
  std::uint64_t recolored() const { return recolored_; }
  // Table entries remapped by ApplyPlan (planned migration; exported as
  // "lb.planner_moves"). Kept separate from recolored_ so failure-driven
  // re-coloring and planner-driven movement stay distinguishable.
  std::uint64_t planner_moves() const { return planner_moves_; }
  // Moves whenever PeekColorId may answer differently for some color: a
  // table-keeping policy bumps it on every insert, eviction, real remap,
  // dormant revival and redistribution. Policies without a table never
  // bump it. Readers cache per-color answers against it
  // (PaletteLoadBalancer::placement_version).
  std::uint64_t placement_version() const { return placement_version_; }

 protected:
  std::uint64_t recolored_ = 0;
  std::uint64_t planner_moves_ = 0;
  std::uint64_t placement_version_ = 0;
};

// Shared instance bookkeeping for concrete policies: a name-sorted instance
// list (sorted so that tie-breaking is deterministic) mirrored by the
// matching id list, plus random selection for uncolored traffic.
class PolicyBase : public ColorSchedulingPolicy {
 public:
  explicit PolicyBase(std::uint64_t seed) : rng_(seed) {}

  void OnInstanceAdded(const std::string& instance) override;
  void OnInstanceRemoved(const std::string& instance) override;

  std::optional<InstanceId> RouteUncoloredId() override;

  const std::vector<std::string>& instances() const { return instances_; }
  // Interned ids in the same (name-sorted) order as instances().
  const std::vector<InstanceId>& instance_ids() const { return instance_ids_; }

 protected:
  std::optional<InstanceId> RandomInstance();
  bool HasInstance(const std::string& instance) const;

  Rng rng_;

 private:
  std::vector<std::string> instances_;     // kept sorted by name
  std::vector<InstanceId> instance_ids_;   // parallel to instances_
};

}  // namespace palette

#endif  // PALETTE_SRC_CORE_COLOR_SCHEDULING_POLICY_H_
