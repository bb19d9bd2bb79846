// Scale-out Palette routing tier (docs/ROUTING.md).
//
// The paper's prototype fronts the whole cluster with one load balancer.
// At production scale the routing tier itself must scale out: RouterTier
// models N PaletteLoadBalancer replicas in front of a single FaasPlatform,
// reproducing the control-plane tension decentralized serverless schedulers
// face — placement quality under stale membership views.
//
// Dispatch modes (how an invocation picks its router replica):
//   * color partition — consistent hash of the color over the live
//     replicas. Every invocation of a color meets the same router, so the
//     tier preserves color→instance stickiness *by construction* no matter
//     how much per-replica policy state diverges;
//   * spray — round-robin across live replicas (the degenerate baseline).
//     Each replica sees a slice of every color, so stateful policies
//     (least-assigned) pin the same color to different instances on
//     different replicas and locality degrades roughly with replica count.
//     Stateless policies (consistent hashing) agree across replicas and
//     survive spraying — the bench quantifies both.
//
// Membership views are eventually consistent: the platform's add/remove/
// crash events append to a sequence-numbered update log, and each replica
// applies the log `sync_lag` later (on the sim clock). A replica whose view
// lags can route to a dead instance; the tier detects the misroute at the
// platform boundary, syncs the replica's view (anti-entropy — which also
// triggers the replica's own failure-aware re-coloring), and forwards the
// attempt exactly once to the re-colored live instance. Misroutes and
// stale-view routes are counted and exported as the router.* metric family.
//
// Router replicas are themselves fault-injectable (CrashRouter /
// RestartRouter, or kRouterCrash / kRouterRestart FaultSchedule entries):
// a crashed replica drops out of dispatch, and a restarting replica
// resyncs its view from the log before taking traffic again.
#ifndef PALETTE_SRC_ROUTER_ROUTER_TIER_H_
#define PALETTE_SRC_ROUTER_ROUTER_TIER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/instance_id.h"
#include "src/core/color.h"
#include "src/core/palette_load_balancer.h"
#include "src/core/policy_factory.h"
#include "src/faas/platform.h"
#include "src/hash/consistent_hash_ring.h"
#include "src/sim/event_scheduler.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace palette {

enum class DispatchMode {
  kColorPartition,  // consistent hash of color -> router (sticky)
  kSpray,           // round-robin across live routers (baseline)
};

// Short identifier for CLI flags and reports ("color", "spray").
std::string_view DispatchModeId(DispatchMode mode);
bool ParseDispatchMode(std::string_view id, DispatchMode* out);

struct RouterTierConfig {
  int routers = 4;
  DispatchMode dispatch = DispatchMode::kColorPartition;
  // Per-hop latency through the tier, charged to each attempt's dispatch
  // phase on the sim clock.
  SimTime hop_latency = SimTime::FromMicros(200);
  // Delay before a membership change reaches a replica's view. Zero means
  // views are updated synchronously (always authoritative).
  SimTime sync_lag;
  // Per-replica view policy; each replica runs its own instance of it.
  PolicyKind policy = PolicyKind::kLeastAssigned;
  std::uint64_t seed = 1;
};

// N router replicas in front of one platform. On construction the tier
// attaches itself to the platform once — as its membership and plan
// listener and as its router (FaasPlatform::set_router), so every attempt
// the platform places, retries included, is routed here — and detaches in
// its destructor; the platform must outlive the tier. Uncolored invocations
// are always sprayed (there is no color to partition on).
class RouterTier {
 public:
  RouterTier(FaasPlatform* platform, RouterTierConfig config);
  ~RouterTier();

  RouterTier(const RouterTier&) = delete;
  RouterTier& operator=(const RouterTier&) = delete;

  // Same as FaasPlatform::Invoke on the fronted platform, which routes
  // through the attached tier already. Returns nullopt when no live router
  // or instance exists.
  std::optional<std::uint64_t> Invoke(InvocationSpec spec,
                                      FaasPlatform::CompletionCallback cb);

  // Router-replica faults. Crashing excludes the replica from dispatch
  // (its pending view updates stop applying); restarting resyncs the view
  // from the update log before the replica takes traffic again. Both
  // return false for unknown names or no-op transitions.
  bool CrashRouter(const std::string& router);
  bool RestartRouter(const std::string& router);

  int router_count() const { return static_cast<int>(routers_.size()); }
  int live_router_count() const { return static_cast<int>(live_.size()); }
  // Replica names, "r0" .. "r<N-1>".
  std::vector<std::string> RouterNames() const;
  bool RouterUp(int router) const { return routers_[router]->up; }
  // The replica's own (possibly stale) membership view.
  const PaletteLoadBalancer& RouterView(int router) const {
    return routers_[router]->lb;
  }

  // Tier counters (exported as the router.* metric family).
  std::uint64_t routes() const { return routes_; }
  // Routes decided while the deciding replica's view lagged the membership
  // log (whether or not the decision turned out wrong).
  std::uint64_t stale_routes() const { return stale_routes_; }
  // Routes whose chosen instance was already dead at the platform.
  std::uint64_t misroutes() const { return misroutes_; }
  // Misroutes recovered by forwarding to a live instance after view sync
  // (misroutes - forwards = attempts rejected with no live instance).
  std::uint64_t forwards() const { return forwards_; }
  // Membership events observed (the update log length).
  std::uint64_t membership_updates() const { return latest_seq_; }
  // Sum of per-replica failure-aware re-colorings.
  std::uint64_t recolored() const;
  // Sum of per-replica planner-driven remaps (replayed plans).
  std::uint64_t planner_moves() const;
  std::uint64_t RoutedByRouter(int router) const {
    return routers_[router]->routed;
  }
  std::uint64_t MisroutesByRouter(int router) const {
    return routers_[router]->misroutes;
  }

  // Snapshots tier + per-replica counters into `metrics` under
  // "router.*" (docs/OBSERVABILITY.md).
  void ExportMetrics(MetricsRegistry* metrics) const {
    MetricWriter out(metrics);
    ExportMetrics(&out);
  }
  // The same export through `out` (MetricWriter); the per-replica names
  // are formatted once, when the replica is built.
  void ExportMetrics(MetricWriter* out) const;

  // Records one hop span per routed attempt on the replica's trace track.
  void set_trace_recorder(TraceRecorder* trace) { trace_ = trace; }

  // Sharded-engine seam: view-sync ticks are scheduled through this handle
  // (default: a LocalScheduler over the platform's simulator). A sharded
  // run hands the tier its domain handle so membership propagation stays
  // on the tier's own event core. `scheduler` must outlive the tier.
  void set_scheduler(EventScheduler* scheduler) { scheduler_ = scheduler; }

  const RouterTierConfig& config() const { return config_; }

 private:
  struct Router {
    Router(std::string router_name, int router_index,
           std::unique_ptr<ColorSchedulingPolicy> policy);
    std::string name;
    int index;
    // Its router.<name>.* export names.
    std::string routed_metric;
    std::string misroutes_metric;
    std::string stale_routes_metric;
    std::string recolored_metric;
    std::string view_lag_metric;
    std::string up_metric;
    PaletteLoadBalancer lb;  // this replica's membership view
    bool up = true;
    std::uint64_t applied_seq = 0;  // log position the view reflects
    std::uint64_t routed = 0;
    std::uint64_t misroutes = 0;
    std::uint64_t stale_routes = 0;
  };

  // One update-log entry: a membership change, or (when `plan` is set) a
  // re-balancer plan the platform applied. Replicas replay both kinds in
  // sequence order, so every view converges to the same color tables the
  // platform's own LB holds — plans reach replicas through the exact same
  // eventually-consistent channel as membership (docs/PLANNER.md).
  struct MembershipUpdate {
    FaasPlatform::MembershipEvent event;
    std::string worker;
    InstanceId id = kInvalidInstanceId;  // the worker's platform id
    std::shared_ptr<const Plan> plan;
  };

  // The platform membership listener: appends to the log and schedules
  // (or, at zero lag, immediately performs) per-replica application.
  void OnMembershipEvent(FaasPlatform::MembershipEvent event,
                         const std::string& worker, InstanceId id);
  // The platform plan listener: same log, same lag, plan payload.
  void OnPlanApplied(const Plan& plan);
  // Schedules (or performs, at zero lag) application of the log through
  // `seq` on every live replica.
  void BroadcastThrough(std::uint64_t seq);
  // Replays log entries (applied_seq, seq] into the replica's view.
  void ApplyThrough(Router* router, std::uint64_t seq);
  // Dispatch-mode replica selection over live replicas only.
  Router* PickRouter(const std::optional<Color>& color);
  // The replica named `router`, or null when this tier has none.
  Router* RouterNamed(const std::string& router) const;
  // The router attached to the platform: picks a replica, routes on its
  // (possibly stale) view and misroute-corrects, for every attempt.
  std::optional<RoutedTarget> RouteAttempt(const std::optional<Color>& color,
                                           std::uint64_t invocation_id,
                                           int attempt);
  void RebuildLive();

  FaasPlatform* platform_;
  RouterTierConfig config_;
  LocalScheduler local_scheduler_;       // default seam: the platform's sim
  EventScheduler* scheduler_ = nullptr;  // active seam (see set_scheduler)
  std::vector<std::unique_ptr<Router>> routers_;
  // Color -> live replica partition (color-partition dispatch). Replicas
  // are not platform instances: each joins the ring under its name with
  // its index into routers_ as the member id, so a lookup answers with the
  // replica itself.
  ConsistentHashRing ring_;
  std::vector<int> live_;  // indices of up replicas, ascending
  std::size_t spray_next_ = 0;
  // Append-only membership update log; latest_seq_ == log_.size().
  std::vector<MembershipUpdate> log_;
  std::uint64_t latest_seq_ = 0;
  std::uint64_t routes_ = 0;
  std::uint64_t stale_routes_ = 0;
  std::uint64_t misroutes_ = 0;
  std::uint64_t forwards_ = 0;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace palette

#endif  // PALETTE_SRC_ROUTER_ROUTER_TIER_H_
