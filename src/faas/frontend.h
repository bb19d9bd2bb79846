// Multi-application FaaS frontend (Fig. 1 / Fig. 3).
//
// A production serverless frontend serves many applications at once. The
// paper requires that Palette preserve per-application isolation: "the
// namespace of colors is scoped to each application; Palette does not
// introduce new data sharing or interference among different applications".
// FaasFrontend enforces that structurally — each registered application
// gets its own PaletteLoadBalancer (own policy, own color namespace) and
// its own Faa$T cache, while all applications share the physical cluster
// network (so network-level interference, which is real, is still modeled).
#ifndef PALETTE_SRC_FAAS_FRONTEND_H_
#define PALETTE_SRC_FAAS_FRONTEND_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/faas/platform.h"

namespace palette {

class FaasFrontend {
 public:
  // `sim` must outlive the frontend. The network config applies to the
  // shared fabric.
  FaasFrontend(Simulator* sim, NetworkConfig network_config = {});

  // Registers an application with its chosen color scheduling policy (the
  // user picks one at registration time, §5) and initial worker fleet.
  // Returns false if the name is taken.
  bool RegisterApp(const std::string& app, PolicyKind policy, int workers,
                   PlatformConfig config = {}, std::uint64_t seed = 1);

  bool HasApp(const std::string& app) const;
  std::vector<std::string> AppNames() const;

  // Per-application access. Callers must not assume anything about other
  // applications' state — that is the point.
  FaasPlatform& App(const std::string& app);

  // Routes one invocation of `app`. Convenience over App(app).Invoke.
  // Invocations for unregistered apps are refused (nullopt) and counted in
  // unknown_app_rejections(); they enter no application's books.
  std::optional<std::uint64_t> Invoke(const std::string& app,
                                      InvocationSpec spec,
                                      FaasPlatform::CompletionCallback cb);

  // Per-application accounting books (docs/FAULTS.md identity). Once the
  // simulator drains, BooksClose() holds for every registered app no matter
  // how invocations entered (frontend Invoke or App(app).Invoke directly)
  // or how they ended (completed, dropped with retries off, abandoned).
  // Zeroed counters for unknown apps.
  PlatformCounters BooksOf(const std::string& app) const;
  // True iff every registered application's books close.
  bool AllBooksClosed() const;
  std::uint64_t unknown_app_rejections() const {
    return unknown_app_rejections_;
  }

  // Snapshots one application's full platform metrics (the same families
  // FaasPlatform::ExportMetrics writes) under the "app.<app>." prefix,
  // e.g. "app.social.faas.invocations.submitted". No-op for unknown apps.
  void ExportAppMetrics(const std::string& app, MetricsRegistry* metrics);
  // Snapshots every registered application.
  void ExportMetrics(MetricsRegistry* metrics);

  Network& network() { return network_; }
  Simulator& simulator() { return *sim_; }

 private:
  Simulator* sim_;
  Network network_;
  std::unordered_map<std::string, std::unique_ptr<FaasPlatform>> apps_;
  std::uint64_t unknown_app_rejections_ = 0;
};

}  // namespace palette

#endif  // PALETTE_SRC_FAAS_FRONTEND_H_
