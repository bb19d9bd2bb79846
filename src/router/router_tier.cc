#include "src/router/router_tier.h"

#include <cassert>

#include "src/common/table_printer.h"
#include "src/hash/hash.h"

namespace palette {

std::string_view DispatchModeId(DispatchMode mode) {
  switch (mode) {
    case DispatchMode::kColorPartition:
      return "color";
    case DispatchMode::kSpray:
      return "spray";
  }
  return "unknown";
}

bool ParseDispatchMode(std::string_view id, DispatchMode* out) {
  if (id == "color") {
    *out = DispatchMode::kColorPartition;
    return true;
  }
  if (id == "spray") {
    *out = DispatchMode::kSpray;
    return true;
  }
  return false;
}

RouterTier::Router::Router(std::string router_name, int router_index,
                           std::unique_ptr<ColorSchedulingPolicy> policy)
    : name(std::move(router_name)),
      index(router_index),
      routed_metric(StrFormat("router.%s.routed", name.c_str())),
      misroutes_metric(StrFormat("router.%s.misroutes", name.c_str())),
      stale_routes_metric(StrFormat("router.%s.stale_routes", name.c_str())),
      recolored_metric(StrFormat("router.%s.recolored", name.c_str())),
      view_lag_metric(StrFormat("router.%s.view_lag", name.c_str())),
      up_metric(StrFormat("router.%s.up", name.c_str())),
      lb(std::move(policy)) {}

RouterTier::RouterTier(FaasPlatform* platform, RouterTierConfig config)
    : platform_(platform),
      config_(config),
      local_scheduler_(&platform->simulator()),
      scheduler_(&local_scheduler_),
      ring_(kRingVirtualNodes, MixU64(config.seed ^ 0x52494E47ULL)) {
  assert(config_.routers >= 1);
  // Every replica runs the same policy with the same seed: a stateless
  // policy (consistent hashing) then computes identical mappings on
  // identical views, while stateful policies still diverge under spray
  // because each replica observes a different traffic slice — the contrast
  // the bench measures. Views start from the platform's current membership
  // (log position 0).
  const std::uint64_t policy_seed = MixU64(config_.seed ^ 0x529EBA11ULL);
  const std::vector<std::string> workers = platform_->WorkerNames();
  const InstanceTable& ids = platform_->instance_table();
  routers_.reserve(static_cast<std::size_t>(config_.routers));
  for (int i = 0; i < config_.routers; ++i) {
    auto router = std::make_unique<Router>(
        StrFormat("r%d", i), i, MakePolicy(config_.policy, policy_seed));
    for (const std::string& worker : workers) {
      router->lb.AddInstance(worker, *ids.Find(worker));
    }
    ring_.AddMember(router->name, static_cast<InstanceId>(i));
    routers_.push_back(std::move(router));
  }
  RebuildLive();
  platform_->set_membership_listener(
      [this](FaasPlatform::MembershipEvent event, const std::string& worker,
             InstanceId id) { OnMembershipEvent(event, worker, id); });
  platform_->set_plan_listener(
      [this](const Plan& plan) { OnPlanApplied(plan); });
  platform_->set_router(
      [this](const std::optional<Color>& color, std::uint64_t invocation_id,
             int attempt) {
        return RouteAttempt(color, invocation_id, attempt);
      },
      config_.hop_latency);
}

RouterTier::~RouterTier() {
  platform_->set_membership_listener({});
  platform_->set_plan_listener({});
  platform_->set_router({});
}

std::optional<std::uint64_t> RouterTier::Invoke(
    InvocationSpec spec, FaasPlatform::CompletionCallback cb) {
  return platform_->Invoke(std::move(spec), std::move(cb));
}

void RouterTier::OnMembershipEvent(FaasPlatform::MembershipEvent event,
                                   const std::string& worker, InstanceId id) {
  log_.push_back(MembershipUpdate{event, worker, id, nullptr});
  BroadcastThrough(++latest_seq_);
}

void RouterTier::OnPlanApplied(const Plan& plan) {
  log_.push_back(MembershipUpdate{FaasPlatform::MembershipEvent::kAdded,
                                  std::string(), kInvalidInstanceId,
                                  std::make_shared<const Plan>(plan)});
  BroadcastThrough(++latest_seq_);
}

void RouterTier::BroadcastThrough(std::uint64_t seq) {
  if (config_.sync_lag <= SimTime()) {
    for (const auto& router : routers_) {
      if (router->up) {
        ApplyThrough(router.get(), seq);
      }
    }
    return;
  }
  // One sync tick per replica, scheduled through the seam so the tick
  // lands on the tier's own event core in sharded runs. Ticks fire in seq
  // order (same lag), so a tick for seq s applying everything through s
  // keeps log application in order; ticks against a crashed replica no-op
  // (restart resyncs).
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    scheduler_->ScheduleAfter(config_.sync_lag, [this, i, seq]() {
      Router* router = routers_[i].get();
      if (router->up) {
        ApplyThrough(router, seq);
      }
    });
  }
}

void RouterTier::ApplyThrough(Router* router, std::uint64_t seq) {
  while (router->applied_seq < seq) {
    const MembershipUpdate& update = log_[router->applied_seq++];
    if (update.plan != nullptr) {
      // Planner replay: the replica's view applies the same plan the
      // platform's LB did, converging its color table (and split table).
      router->lb.ApplyPlan(*update.plan);
    } else if (update.event == FaasPlatform::MembershipEvent::kAdded) {
      router->lb.AddInstance(update.worker, update.id);
    } else {
      // Per-view failure-aware re-coloring: the replica's own policy
      // remaps the dead instance's colors inside this view.
      router->lb.RemoveInstance(update.worker);
    }
  }
}

RouterTier::Router* RouterTier::PickRouter(const std::optional<Color>& color) {
  if (live_.empty()) {
    return nullptr;
  }
  if (config_.dispatch == DispatchMode::kColorPartition && color.has_value()) {
    const auto index = ring_.LookupId(*color);
    assert(index.has_value());  // ring holds exactly the live replicas
    return routers_[*index].get();
  }
  // Spray, and the no-color fallback of color partitioning.
  Router* router = routers_[live_[spray_next_ % live_.size()]].get();
  ++spray_next_;
  return router;
}

std::optional<RoutedTarget> RouterTier::RouteAttempt(
    const std::optional<Color>& color, std::uint64_t invocation_id,
    int attempt) {
  Router* router = PickRouter(color);
  if (router == nullptr) {
    return std::nullopt;  // every replica is down
  }
  ++routes_;
  ++router->routed;
  if (router->applied_seq < latest_seq_) {
    ++stale_routes_;
    ++router->stale_routes;
  }
  auto target = router->lb.RouteId(color);
  std::string stale_instance;
  bool forwarded = false;
  if (!target.has_value() || !platform_->HasWorkerId(*target)) {
    // Misroute: the stale view placed the attempt on an instance the
    // cluster no longer runs. Forward-and-correct: sync this replica's
    // view from the log (anti-entropy; re-colors the dead instance's
    // colors) and route exactly once more.
    ++misroutes_;
    ++router->misroutes;
    if (target.has_value()) {
      stale_instance = platform_->instance_table().NameOf(*target);
    }
    ApplyThrough(router, latest_seq_);
    forwarded = true;
    target = router->lb.RouteId(color);
    if (!target.has_value() || !platform_->HasWorkerId(*target)) {
      return std::nullopt;  // no live instance anywhere
    }
    ++forwards_;
  }
  if (trace_ != nullptr) {
    const SimTime now = platform_->simulator().Now();
    trace_->RecordRouterHop(RouterHopTrace{
        invocation_id, attempt, router->name, color,
        platform_->instance_table().NameOf(*target),
        stale_instance, forwarded, now, now + config_.hop_latency});
  }
  return RoutedTarget{*target, router->index};
}

RouterTier::Router* RouterTier::RouterNamed(const std::string& router) const {
  for (const auto& replica : routers_) {
    if (replica->name == router) {
      return replica.get();
    }
  }
  return nullptr;
}

bool RouterTier::CrashRouter(const std::string& router) {
  Router* const crashed = RouterNamed(router);
  if (crashed == nullptr || !crashed->up) {
    return false;
  }
  crashed->up = false;
  ring_.RemoveMember(router);
  RebuildLive();
  return true;
}

bool RouterTier::RestartRouter(const std::string& router) {
  Router* const restarted = RouterNamed(router);
  if (restarted == nullptr || restarted->up) {
    return false;
  }
  restarted->up = true;
  // A restarting replica bootstraps its view from the membership log
  // before taking traffic (its sync ticks no-op'd while it was down).
  ApplyThrough(restarted, latest_seq_);
  ring_.AddMember(router, static_cast<InstanceId>(restarted->index));
  RebuildLive();
  return true;
}

void RouterTier::RebuildLive() {
  live_.clear();
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    if (routers_[i]->up) {
      live_.push_back(static_cast<int>(i));
    }
  }
}

std::vector<std::string> RouterTier::RouterNames() const {
  std::vector<std::string> names;
  names.reserve(routers_.size());
  for (const auto& router : routers_) {
    names.push_back(router->name);
  }
  return names;
}

std::uint64_t RouterTier::recolored() const {
  std::uint64_t total = 0;
  for (const auto& router : routers_) {
    total += router->lb.recolored();
  }
  return total;
}

std::uint64_t RouterTier::planner_moves() const {
  std::uint64_t total = 0;
  for (const auto& router : routers_) {
    total += router->lb.planner_moves();
  }
  return total;
}

void RouterTier::ExportMetrics(MetricWriter* out) const {
  const SimTime now = scheduler_->Now();
  out->SetCounter("router.routes", routes_);
  out->SetCounter("router.stale_routes", stale_routes_);
  out->SetCounter("router.misroutes", misroutes_);
  out->SetCounter("router.forwards", forwards_);
  out->SetCounter("router.membership_updates", latest_seq_);
  out->SetCounter("router.recolored", recolored());
  out->SetCounter("router.planner_moves", planner_moves());
  out->SetGauge("router.live", static_cast<double>(live_.size()), now);
  for (const auto& router : routers_) {
    out->SetCounter(router->routed_metric, router->routed);
    out->SetCounter(router->misroutes_metric, router->misroutes);
    out->SetCounter(router->stale_routes_metric, router->stale_routes);
    out->SetCounter(router->recolored_metric, router->lb.recolored());
    out->SetGauge(router->view_lag_metric,
                  static_cast<double>(latest_seq_ - router->applied_seq), now);
    out->SetGauge(router->up_metric, router->up ? 1.0 : 0.0, now);
  }
}

}  // namespace palette
