#include "src/faas/frontend.h"

#include <algorithm>
#include <cassert>

namespace palette {

FaasFrontend::FaasFrontend(Simulator* sim, NetworkConfig network_config)
    : sim_(sim), network_(sim, network_config) {}

bool FaasFrontend::RegisterApp(const std::string& app, PolicyKind policy,
                               int workers, PlatformConfig config,
                               std::uint64_t seed) {
  if (apps_.count(app) > 0) {
    return false;
  }
  auto platform = std::make_unique<FaasPlatform>(sim_, policy, seed, config,
                                                 &network_);
  // Worker names carry the app name so the shared network stays unambiguous.
  platform->set_worker_prefix(app + "/w");
  platform->AddWorkers(workers);
  apps_.emplace(app, std::move(platform));
  return true;
}

bool FaasFrontend::HasApp(const std::string& app) const {
  return apps_.count(app) > 0;
}

std::vector<std::string> FaasFrontend::AppNames() const {
  std::vector<std::string> names;
  names.reserve(apps_.size());
  for (const auto& [name, _] : apps_) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

FaasPlatform& FaasFrontend::App(const std::string& app) {
  auto it = apps_.find(app);
  assert(it != apps_.end() && "unknown application");
  return *it->second;
}

std::optional<std::uint64_t> FaasFrontend::Invoke(
    const std::string& app, InvocationSpec spec,
    FaasPlatform::CompletionCallback cb) {
  auto it = apps_.find(app);
  if (it == apps_.end()) {
    ++unknown_app_rejections_;
    return std::nullopt;
  }
  return it->second->Invoke(std::move(spec), std::move(cb));
}

PlatformCounters FaasFrontend::BooksOf(const std::string& app) const {
  const auto it = apps_.find(app);
  return it == apps_.end() ? PlatformCounters{} : it->second->counters();
}

bool FaasFrontend::AllBooksClosed() const {
  for (const auto& [name, platform] : apps_) {
    if (!platform->counters().BooksClose()) {
      return false;
    }
  }
  return true;
}

void FaasFrontend::ExportAppMetrics(const std::string& app,
                                    MetricsRegistry* metrics) {
  const auto it = apps_.find(app);
  if (it == apps_.end()) {
    return;
  }
  it->second->ExportMetrics(metrics, "app." + app + ".");
}

void FaasFrontend::ExportMetrics(MetricsRegistry* metrics) {
  for (const std::string& app : AppNames()) {
    ExportAppMetrics(app, metrics);
  }
}

}  // namespace palette
