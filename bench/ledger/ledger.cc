// ledger — end-to-end and per-layer cost of the composed stack on four
// named workloads (bench/ledger/README.md).
//
//   ledger --workload=<name> --seed=<n> [--traced] [--check]
//
// One process runs one replication of one workload and prints one JSON
// object: the workload's metrics by name with their units, the sample
// digest, and the books-identity violations (none on a correct run). Exits
// 1 on any violation, 2 on bad flags.
//
// Monolithic runs are composed from the public APIs exactly as RunWorkload
// and RunRouterWorkload compose theirs (same construction and scheduling
// order, so the same event sequence and sample digest), which lets the
// ledger time each layer's entry point from outside the library. --check
// runs the replication through both the composition and the harness and
// compares digests, so the composition cannot drift. sharded_diurnal runs
// through RunShardedWorkload itself; --check compares its digests across
// shard counts instead.
//
// --traced wraps each call into a layer with host-clock spans and
// allocation deltas, samples queue depths every 10 ms of sim time, and
// attaches a TraceRecorder for a 5 s sim window mid-run. It writes the
// spans of that window to TRACE_ledger_<workload>.json (Chrome format).
// Untraced runs use the plain calls.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "src/common/flags.h"
#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table_printer.h"
#include "src/faas/platform.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/planner/rebalance_planner.h"
#include "src/planner/snapshot.h"
#include "src/router/router_tier.h"
#include "src/sim/simulator.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/mix.h"
#include "src/workload/sharded_run.h"
#include "src/workload/slo.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

using Clock = std::chrono::steady_clock;
using ledger::AllocCount;
using ledger::CurrentAllocs;

constexpr PolicyKind kPolicy = PolicyKind::kLeastAssigned;
// The warmup covers the start-up transient (cold starts, cold caches): with
// 2 s, its queue still spills into the scored window and the p99.9 of a
// replication swings by 10x between seeds.
const SloConfig kSlo{.deadline = SimTime::FromMillis(100),
                     .warmup = SimTime::FromSeconds(5)};
// Queue-depth sampling cadence and trace-window width of the traced run.
constexpr SimTime kSampleEvery = SimTime::FromMillis(10);
constexpr SimTime kTraceWindow = SimTime::FromSeconds(5);

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Workloads. All are open loop on the sim clock, policy la, the harness's
// default platform, a 100 ms deadline and a 5 s warmup; README.md says why
// each was chosen. One process runs one replication; run.py runs many, with
// distinct seeds, and aggregates them.

struct Workload {
  std::string name;
  WorkloadSpec spec;
  int workers = 32;
  PlatformConfig platform = DefaultWorkloadPlatformConfig();
  int routers = 0;  // 0: the platform's own load balancer routes
  DispatchMode router_dispatch = DispatchMode::kColorPartition;
  PlannerConfig planner{.plan_every = SimTime()};
  bool sharded = false;
  ShardedWorkloadConfig sharded_config;
};

const char* const kWorkloadNames[] = {"push_sticky", "pull_spray_burst",
                                      "hot_planner_writes", "sharded_diurnal"};

std::optional<Workload> MakeWorkload(std::string_view name,
                                     std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.spec.seed = seed;
  ArrivalSpec& arrival = w.spec.arrival;
  MixConfig& mix = w.spec.mix;
  double seconds = 0;
  if (name == "push_sticky") {
    arrival.kind = ArrivalKind::kPoisson;
    arrival.rate_per_sec = 2000;
    mix.color_count = 1024;
    mix.zipf_theta = 0.9;
    seconds = 120;
  } else if (name == "pull_spray_burst") {
    // Short, frequent bursts: each replication sees ~72 of them, so the
    // backlog pull must drain is similar from seed to seed. (Bursts of 1 s
    // every 5 s at 8x leave the p99 of a replication ranging 20 ms-1 s.)
    arrival.kind = ArrivalKind::kMmpp;
    arrival.rate_per_sec = 1000;
    arrival.burst_multiplier = 4;
    arrival.mean_on_seconds = 0.1;
    arrival.mean_off_seconds = 0.4;
    mix.color_count = 1024;
    w.routers = 8;
    w.router_dispatch = DispatchMode::kSpray;
    w.platform.dispatch_mode = FaasDispatchMode::kPull;
    seconds = 36;
  } else if (name == "hot_planner_writes") {
    arrival.kind = ArrivalKind::kPoisson;
    arrival.rate_per_sec = 1000;
    mix.color_count = 4096;
    mix.zipf_theta = 1.2;
    mix.write_fraction = 0.05;
    w.platform.storage.mode = CoherenceMode::kWriteBack;
    w.planner.plan_every = SimTime::FromMillis(500);
    w.planner.seed = seed;
    // Planner rounds cost more as more colors have been seen, so short
    // replications buy the most independent samples per host second.
    seconds = 15;
  } else if (name == "sharded_diurnal") {
    arrival.kind = ArrivalKind::kDiurnal;
    arrival.rate_per_sec = 3000;
    arrival.period_seconds = 10;
    arrival.amplitude = 0.8;
    mix.color_count = 4096;
    mix.zipf_theta = 0.8;
    w.workers = 64;
    w.sharded = true;
    w.sharded_config.groups = 8;
    w.sharded_config.routers_per_group = 2;
    // Two event-core threads, so epochs end in a real barrier wait and
    // cross-shard sends cross threads; --check requires the digests of a
    // one-thread run to be identical.
    w.sharded_config.shards = 2;
    w.sharded_config.obs.sample_every = SimTime::FromMillis(100);
    seconds = 30;
  } else {
    return std::nullopt;
  }
  w.spec.driver.duration = SimTime::FromSeconds(seconds);
  // Far above the expected count: reaching it would silently truncate the
  // run, so the books check below flags it.
  w.spec.driver.max_invocations =
      static_cast<std::uint64_t>(3 * arrival.rate_per_sec * seconds + 10000);
  return w;
}

// ---------------------------------------------------------------------------
// Traced-run instrumentation.

struct CallStats {
  std::vector<double> ns;
  std::uint64_t allocs = 0;

  double AllocsPerCall() const {
    return Ratio(static_cast<double>(allocs), static_cast<double>(ns.size()));
  }
};

// Host-clock spans and per-call costs. Every call's duration and allocation
// delta is kept; spans are kept only while the trace window is open, so the
// Chrome file stays small at any run length.
class Probe {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index into spans(), -1 for a root
  };

  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  // Root spans ("setup", "run") parent the calls recorded while open.
  void BeginRoot(const char* name) {
    root_ = static_cast<int>(spans_.size());
    spans_.push_back({name, NowNs(), 0, -1});
  }
  void EndRoot() { spans_[static_cast<std::size_t>(root_)].end_ns = NowNs(); }
  void Record(CallStats* stats, const char* name, std::int64_t start,
              std::int64_t end, AllocCount allocs) {
    stats->ns.push_back(static_cast<double>(end - start));
    stats->allocs += allocs.allocs;
    child_ns_ += end - start;
    if (window_open_) {
      spans_.push_back({name, start, end, root_});
    }
  }

  bool window_open() const { return window_open_; }
  void set_window_open(bool open) { window_open_ = open; }
  std::int64_t child_ns() const { return child_ns_; }
  const std::vector<Span>& spans() const { return spans_; }

  CallStats invoke;  // faas.invoke or router.invoke, whichever the run calls
  CallStats collect;
  CallStats solve;
  CallStats apply;
  CallStats sample;  // the probe's own queue-depth sampler

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::int64_t child_ns_ = 0;
  int root_ = -1;
  bool window_open_ = false;
};

// Times one call into a layer; a no-op when `probe` is null.
class ScopedCall {
 public:
  ScopedCall(Probe* probe, CallStats* stats, const char* name)
      : probe_(probe), stats_(stats), name_(name) {
    if (probe_ != nullptr) {
      allocs_ = CurrentAllocs();
      start_ = probe_->NowNs();
    }
  }
  ~ScopedCall() {
    if (probe_ != nullptr) {
      const std::int64_t end = probe_->NowNs();
      probe_->Record(stats_, name_, start_, end, CurrentAllocs() - allocs_);
    }
  }
  ScopedCall(const ScopedCall&) = delete;
  ScopedCall& operator=(const ScopedCall&) = delete;

 private:
  Probe* probe_;
  CallStats* stats_;
  const char* name_;
  AllocCount allocs_;
  std::int64_t start_ = 0;
};

bool WriteChromeTrace(const std::string& path, const Probe& probe) {
  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("traceEvents");
  json.BeginArray();
  for (std::size_t i = 0; i < probe.spans().size(); ++i) {
    const Probe::Span& span = probe.spans()[i];
    json.BeginObject();
    json.Key("name");
    json.String(span.name);
    json.Key("cat");
    json.String("ledger");
    json.Key("ph");
    json.String("X");
    json.Key("pid");
    json.Int(1);
    json.Key("tid");
    json.Int(1);
    json.Key("ts");
    json.Double(static_cast<double>(span.start_ns) / 1e3);
    json.Key("dur");
    json.Double(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    json.Key("args");
    json.BeginObject();
    json.Key("id");
    json.UInt(i);
    json.Key("parent");
    json.Int(span.parent);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return WriteTextFile(path, json.str());
}

// ---------------------------------------------------------------------------
// One monolithic stack, built in RunWorkload / RunRouterWorkload's order:
// platform, workers, router tier, driver, then the planner ticks (the
// copied PlannerRuntime::Start/Tick), all before driver.Start().

class Stack {
 public:
  Stack(const Workload& w, Probe* probe)
      : platform(&sim, kPolicy, w.spec.seed, w.platform),
        probe_(probe),
        collector_(w.planner.ewma_beta),
        solver_(w.planner) {
    platform.AddWorkers(w.workers);
    if (w.routers > 0) {
      RouterTierConfig tier_config;
      tier_config.routers = w.routers;
      tier_config.dispatch = w.router_dispatch;
      tier_config.policy = kPolicy;
      tier_config.seed = w.spec.seed;
      tier = std::make_unique<RouterTier>(&platform, tier_config);
    }
    Rng seeder(w.spec.seed);
    const std::uint64_t arrival_seed = seeder.Next();
    const std::uint64_t driver_seed = seeder.Next();
    driver = std::make_unique<OpenLoopDriver>(
        &platform, MakeArrivalProcess(w.spec.arrival, arrival_seed),
        InvocationMix(w.spec.mix), w.spec.driver, driver_seed);
    InstallInvoker();
    if (w.planner.enabled() && platform.load_balancer().supports_planning()) {
      platform.load_balancer().set_color_stats_enabled(true);
      for (SimTime t = w.planner.plan_every; t < w.spec.driver.duration;
           t += w.planner.plan_every) {
        sim.At(t, [this]() { PlanTick(); });
      }
    }
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  Simulator sim;
  FaasPlatform platform;
  std::unique_ptr<RouterTier> tier;
  std::unique_ptr<OpenLoopDriver> driver;

 private:
  void InstallInvoker() {
    using Callback = FaasPlatform::CompletionCallback;
    if (probe_ == nullptr) {
      // The driver's default invoker is platform.Invoke already.
      if (tier != nullptr) {
        driver->set_invoker(
            [t = tier.get()](InvocationSpec spec, Callback cb) {
              return t->Invoke(std::move(spec), std::move(cb));
            });
      }
      return;
    }
    if (tier != nullptr) {
      driver->set_invoker([this](InvocationSpec spec, Callback cb) {
        ScopedCall call(probe_, &probe_->invoke, "router.invoke");
        return tier->Invoke(std::move(spec), std::move(cb));
      });
    } else {
      driver->set_invoker([this](InvocationSpec spec, Callback cb) {
        ScopedCall call(probe_, &probe_->invoke, "faas.invoke");
        return platform.Invoke(std::move(spec), std::move(cb));
      });
    }
  }

  void PlanTick() {
    PlacementSnapshot snapshot;
    {
      ScopedCall call(probe_, probe_ ? &probe_->collect : nullptr,
                      "planner.collect");
      snapshot = collector_.Collect(platform);
    }
    Plan plan;
    {
      ScopedCall call(probe_, probe_ ? &probe_->solve : nullptr,
                      "planner.solve");
      plan = solver_.Solve(snapshot);
    }
    plan.round = ++round_;
    ScopedCall call(probe_, probe_ ? &probe_->apply : nullptr,
                    "planner.apply");
    platform.ApplyPlan(plan);
  }

  Probe* probe_;
  SnapshotCollector collector_;
  RebalancePlanner solver_;
  std::uint64_t round_ = 0;
};

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<std::string> violations;
  std::uint64_t digest = 0;
  std::uint64_t submitted = 0;
  std::uint64_t failed = 0;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      violations.push_back(what);
    }
  }
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// End-to-end metrics and the books identities every run must close.
// `registry` holds the platform (and tier) counters exported after the run.
void AddEndToEnd(const Workload& w, const SloReport& report, double setup_s,
                 double host_ns_per_inv, MetricsRegistry& registry,
                 Result* out) {
  const auto counter = [&](std::string_view name) {
    return registry.counter(name).value();
  };
  out->submitted = report.submitted;
  out->failed = report.rejected + report.dropped;
  out->Check(report.submitted > 0, "no invocations submitted");
  out->Check(report.submitted < w.spec.driver.max_invocations,
             "max_invocations reached: the run was truncated");
  out->Check(counter("faas.invocations.submitted") ==
                 counter("faas.invocations.completed") +
                     counter("faas.invocations_dropped") +
                     counter("faas.invocations_abandoned"),
             "platform books: submitted != completed + dropped + abandoned");
  out->Check(counter("storage.writes_total") ==
                 counter("storage.writes_durable") +
                     counter("storage.writes_lost"),
             "write books: writes_total != durable + lost");
  if (w.routers > 0 || (w.sharded && w.sharded_config.routers_per_group > 0)) {
    out->Check(counter("router.routes") ==
                   counter("faas.invocations.submitted") +
                       counter("faas.retries"),
               "router books: routes != submitted + retries");
  }

  const double scored = static_cast<double>(report.scored);
  // Failures count as deadline misses.
  const double goodput =
      report.goodput_fraction *
      Ratio(scored, scored + static_cast<double>(out->failed));
  out->Add("host_ns_per_inv", host_ns_per_inv, "ns");
  out->Add("setup_s", setup_s, "s");
  out->Add("peak_rss_mb", PeakRssMb(), "MiB");
  out->Add("sim_p50_ms", report.p50_ms, "ms");
  out->Add("sim_p99_ms", report.p99_ms, "ms");
  out->Add("sim_p999_ms", report.p999_ms, "ms");
  out->Add("goodput_frac", goodput, "ratio");
  out->Add("local_hit_ratio", report.local_hit_ratio, "ratio");
}

// Per-layer counters read from the exported registry: the same names for
// monolithic and sharded runs (the sharded harness folds its groups' into
// one registry).
void AddLayerCounters(const Workload& w, MetricsRegistry& registry,
                      Result* out) {
  const auto counter = [&](std::string_view name) {
    return static_cast<double>(registry.counter(name).value());
  };
  const double pulls = counter("faas.pulls");
  const double steals = counter("faas.steals");
  out->Add("faas.pulls", pulls, "count");
  out->Add("faas.steals", steals, "count");
  out->Add("faas.steal_ratio", Ratio(steals, pulls), "ratio");
  out->Add("faas.steal_bytes", counter("faas.steal_bytes"), "bytes");
  out->Add("faas.cold_starts", counter("faas.cold_starts.total"), "count");
  out->Add("faas.retries", counter("faas.retries"), "count");
  double busy_seconds = 0;
  for (const auto& [name, gauge] : registry.SortedGauges()) {
    if (name.starts_with("worker.") && name.ends_with(".busy_seconds")) {
      busy_seconds += gauge->value();
    }
  }
  out->Add("faas.worker_busy_frac",
           Ratio(busy_seconds,
                 w.workers * w.spec.driver.duration.seconds()),
           "ratio");

  out->Add("router.routes", counter("router.routes"), "count");
  out->Add("router.stale_routes", counter("router.stale_routes"), "count");
  out->Add("router.misroutes", counter("router.misroutes"), "count");
  out->Add("router.forwards", counter("router.forwards"), "count");

  out->Add("core.routing_imbalance",
           registry.gauge("lb.routing_imbalance").value(), "ratio");

  const double local = counter("cache.local_hits");
  const double remote = counter("cache.remote_hits");
  const double misses = counter("cache.misses");
  out->Add("cache.local_hits", local, "count");
  out->Add("cache.remote_hits", remote, "count");
  out->Add("cache.misses", misses, "count");
  out->Add("cache.fetch_hit_ratio", Ratio(local + remote,
                                          local + remote + misses),
           "ratio");
  out->Add("cache.evictions", counter("cache.evictions"), "count");
  out->Add("cache.remote_hit_bytes", counter("cache.remote_hit_bytes"),
           "bytes");

  out->Add("storage.writes", counter("storage.writes_total"), "count");
  out->Add("storage.flushes", counter("storage.flushes"), "count");
  out->Add("storage.dirty_bytes_flushed", counter("storage.dirty_bytes_flushed"),
           "bytes");
  out->Add("storage.coherence_bytes", counter("storage.coherence_bytes"),
           "bytes");
  out->Add("storage.stale_reads", counter("storage.stale_reads"), "count");
  out->Add("storage.writes_lost", counter("storage.writes_lost"), "count");

  out->Add("planner.rounds", counter("planner.rounds"), "count");
  out->Add("planner.moves", counter("lb.planner_moves"), "count");
  out->Add("planner.splits", counter("lb.planner_splits"), "count");
  out->Add("planner.moved_bytes", counter("planner.moved_bytes"), "bytes");
}

// Host-cost metrics of one run that need no wrapping.
void AddRunCosts(double submitted, double events, double sim_run_ns,
                 double score_ns, double samples, AllocCount allocs,
                 Result* out) {
  out->Add("sim.events_per_inv", Ratio(events, submitted), "count");
  out->Add("sim.run_ns_per_event", Ratio(sim_run_ns, events), "ns");
  out->Add("workload.score_ns_per_sample", Ratio(score_ns, samples), "ns");
  out->Add("proc.allocs_per_inv",
           Ratio(static_cast<double>(allocs.allocs), submitted), "count");
  out->Add("proc.alloc_bytes_per_inv",
           Ratio(static_cast<double>(allocs.bytes), submitted), "bytes");
}

void AddCallStats(const char* prefix, const CallStats& calls, Result* out) {
  const std::vector<double> p =
      Percentiles(calls.ns, std::vector<double>{50, 99});
  const std::string name(prefix);
  out->Add(name + ".invoke_ns_p50", p[0], "ns");
  out->Add(name + ".invoke_ns_p99", p[1], "ns");
  out->Add(name + ".invoke_allocs", calls.AllocsPerCall(), "count");
}

// ---------------------------------------------------------------------------
// Monolithic run.

struct TracedState {
  Probe probe;
  TraceRecorder recorder;
  SimTime window_begin;
  SimTime window_end;
  std::uint64_t pending_events_peak = 0;
  std::size_t pending_peak = 0;
  double pending_sum = 0;
  std::uint64_t marks = 0;
};

// Traced runs only: queue-depth sampling, and the trace window opened and
// closed on the simulator's event-free clock observer, so the traced run
// executes the untraced run's exact event sequence.
void InstallSampler(Stack* stack, TracedState* traced) {
  stack->sim.SetClockObserver(kSampleEvery, [stack, traced](SimTime mark) {
    ScopedCall call(&traced->probe, &traced->probe.sample, "ledger.sample");
    traced->pending_events_peak =
        std::max<std::uint64_t>(traced->pending_events_peak,
                                stack->sim.pending_events());
    const std::size_t pending = stack->platform.PendingTotal();
    traced->pending_peak = std::max(traced->pending_peak, pending);
    traced->pending_sum += static_cast<double>(pending);
    ++traced->marks;
    const bool open = mark >= traced->window_begin && mark < traced->window_end;
    if (open == traced->probe.window_open()) {
      return;
    }
    traced->probe.set_window_open(open);
    TraceRecorder* recorder = open ? &traced->recorder : nullptr;
    stack->platform.set_trace_recorder(recorder);
    if (stack->tier != nullptr) {
      stack->tier->set_trace_recorder(recorder);
    }
  });
}

// The five trace phases must partition every recorded invocation's
// [submitted, completed] interval.
bool SpansPartition(const TraceRecorder& recorder) {
  for (const InvocationTrace& t : recorder.invocations()) {
    if (!(t.submitted <= t.dispatched && t.dispatched <= t.fetch_start &&
          t.fetch_start <= t.inputs_ready &&
          t.inputs_ready <= t.compute_done &&
          t.compute_done <= t.completed)) {
      return false;
    }
  }
  const TraceRecorder::PhaseTotals totals = recorder.Totals();
  return totals.invocations > 0 && totals.PhaseSum() == totals.end_to_end;
}

// Metrics only the wrapped calls, the sampler and the recorder can see. The
// sharded run passes an empty state: RunShardedWorkload cannot be wrapped,
// so these layers read zero there.
void AddProbedLayers(const Workload& w, const TracedState& traced,
                     double callback_residual_ns_per_inv, Result* out) {
  const Probe& probe = traced.probe;
  out->Add("sim.pending_events_peak",
           static_cast<double>(traced.pending_events_peak), "count");
  out->Add("faas.pending_peak", static_cast<double>(traced.pending_peak),
           "count");
  out->Add("faas.pending_mean",
           Ratio(traced.pending_sum, static_cast<double>(traced.marks)),
           "count");
  AddCallStats("faas", w.routers > 0 ? CallStats{} : probe.invoke, out);
  AddCallStats("router", w.routers > 0 ? probe.invoke : CallStats{}, out);
  out->Add("faas.callback_residual_ns_per_inv", callback_residual_ns_per_inv,
           "ns");

  const TraceRecorder::PhaseTotals totals = traced.recorder.Totals();
  const double n = static_cast<double>(totals.invocations);
  out->Add("faas.phase.route_ms", Ratio(totals.route.millis(), n), "ms");
  out->Add("faas.phase.queue_ms", Ratio(totals.queue.millis(), n), "ms");
  out->Add("faas.phase.fetch_ms", Ratio(totals.fetch.millis(), n), "ms");
  out->Add("faas.phase.compute_ms", Ratio(totals.compute.millis(), n), "ms");
  out->Add("faas.phase.store_ms", Ratio(totals.store.millis(), n), "ms");
  out->Add("faas.phase.cold_start_ms", Ratio(totals.cold_start.millis(), n),
           "ms");

  const auto ms = [](const CallStats& calls, double p) {
    return Percentile(calls.ns, p) / 1e6;
  };
  out->Add("planner.collect_ms_p50", ms(probe.collect, 50), "ms");
  out->Add("planner.collect_ms_max", ms(probe.collect, 100), "ms");
  out->Add("planner.solve_ms_p50", ms(probe.solve, 50), "ms");
  out->Add("planner.solve_ms_max", ms(probe.solve, 100), "ms");
  out->Add("planner.apply_ms_p50", ms(probe.apply, 50), "ms");
  out->Add("planner.solve_allocs", probe.solve.AllocsPerCall(), "count");
}

// Sharded-only layers; the monolithic workloads pass an empty profile and
// read zero.
void AddShardedLayers(const EngineProfile& profile, double marks,
                      double sample_us_per_mark, Result* out) {
  double barrier = 0, drain = 0, execute = 0, util = 0;
  for (const ShardProfile& shard : profile.per_shard) {
    barrier += static_cast<double>(shard.barrier_wait_ns);
    drain += static_cast<double>(shard.drain_ns);
    execute += static_cast<double>(shard.execute_ns);
    util += shard.lookahead_utilization() /
            static_cast<double>(profile.per_shard.size());
  }
  const double total = barrier + drain + execute;
  const double epochs = static_cast<double>(profile.epochs);
  out->Add("obs.marks", marks, "count");
  out->Add("obs.sample_us_per_mark", sample_us_per_mark, "us");
  out->Add("sim.sharded.epochs", epochs, "count");
  out->Add("sim.sharded.events_per_epoch",
           Ratio(static_cast<double>(profile.events), epochs), "count");
  out->Add("sim.sharded.barrier_wait_frac", Ratio(barrier, total), "ratio");
  out->Add("sim.sharded.drain_frac", Ratio(drain, total), "ratio");
  out->Add("sim.sharded.execute_frac", Ratio(execute, total), "ratio");
  out->Add("sim.sharded.lookahead_util", util, "ratio");
  out->Add("sim.sharded.channel_high_water",
           static_cast<double>(profile.channel_high_water), "count");
  out->Add("sim.sharded.overflow_spills",
           static_cast<double>(profile.overflow_spills), "count");
}

Result RunMonolithic(const Workload& w, bool traced_run) {
  std::unique_ptr<TracedState> traced;
  if (traced_run) {
    traced = std::make_unique<TracedState>();
    const SimTime mid = SimTime::FromMillis(
        std::floor(w.spec.driver.duration.millis() / 2 / 10) * 10);
    traced->window_begin = mid - SimTime::FromSeconds(2.5);
    traced->window_end = traced->window_begin + kTraceWindow;
  }
  Probe* probe = traced != nullptr ? &traced->probe : nullptr;

  if (probe != nullptr) {
    probe->BeginRoot("setup");
  }
  const Clock::time_point setup_start = Clock::now();
  const auto stack = std::make_unique<Stack>(w, probe);
  const double setup_s = SecondsSince(setup_start);
  if (probe != nullptr) {
    probe->EndRoot();
    InstallSampler(stack.get(), traced.get());
    probe->BeginRoot("run");
  }

  const AllocCount allocs_before = CurrentAllocs();
  const Clock::time_point start = Clock::now();
  stack->driver->Start();
  const Clock::time_point sim_start = Clock::now();
  const std::int64_t children_before = probe != nullptr ? probe->child_ns() : 0;
  const std::uint64_t events = stack->sim.Run();
  const std::int64_t sim_children =
      probe != nullptr ? probe->child_ns() - children_before : 0;
  const Clock::time_point sim_end = Clock::now();
  const std::vector<InvocationSample>& samples = stack->driver->samples();
  const SloReport report =
      ScoreSlo(samples, kSlo, w.spec.driver.duration,
               w.spec.arrival.rate_per_sec);
  const Clock::time_point end = Clock::now();
  const AllocCount allocs = CurrentAllocs() - allocs_before;
  if (probe != nullptr) {
    probe->EndRoot();
    // The sampler and recorder must not outlive this scope's stack.
    stack->sim.SetClockObserver(SimTime(), nullptr);
    stack->platform.set_trace_recorder(nullptr);
    if (stack->tier != nullptr) {
      stack->tier->set_trace_recorder(nullptr);
    }
  }

  Result out;
  out.digest = SamplesDigest(samples);
  const double submitted = static_cast<double>(stack->driver->submitted());
  const auto ns = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
  };
  MetricsRegistry registry;
  stack->platform.ExportMetrics(&registry);
  if (stack->tier != nullptr) {
    stack->tier->ExportMetrics(&registry);
  }
  AddEndToEnd(w, report, setup_s, ns(start, end) / submitted,
              registry, &out);
  AddRunCosts(submitted, static_cast<double>(events), ns(sim_start, sim_end),
              ns(sim_end, end), static_cast<double>(samples.size()), allocs,
              &out);
  AddLayerCounters(w, registry, &out);
  if (traced != nullptr) {
    out.Check(SpansPartition(traced->recorder),
              "trace: the five phases do not partition end-to-end latency");
    // Event-core and callback time: sim.Run minus the calls timed inside it.
    AddProbedLayers(w, *traced,
                    (ns(sim_start, sim_end) -
                     static_cast<double>(sim_children)) / submitted,
                    &out);
    AddShardedLayers(EngineProfile{}, 0, 0, &out);
    const std::string path = "TRACE_ledger_" + w.name + ".json";
    out.Check(WriteChromeTrace(path, *probe), "could not write " + path);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sharded run (RunShardedWorkload is the unit timed).

ShardedRunResult RunShardedOnce(const Workload& w, bool telemetry,
                                bool profile, int shards) {
  ShardedWorkloadConfig config = w.sharded_config;
  if (!telemetry) {
    config.obs = WorkloadObsConfig();
  }
  config.profile = profile;
  config.shards = shards;
  return RunShardedWorkload(w.spec, kPolicy, w.workers, config, kSlo,
                            w.platform);
}

double TimedShardedRun(const Workload& w, bool telemetry) {
  const Clock::time_point start = Clock::now();
  RunShardedOnce(w, telemetry, false, w.sharded_config.shards);
  return SecondsSince(start);
}

Result RunSharded(const Workload& w, bool traced) {
  Probe probe;  // root spans only: the library call cannot be wrapped
  // Set-up is a zero-arrival run of the same topology: construction,
  // thread start, an empty drain and teardown.
  probe.BeginRoot("setup");
  Workload empty = w;
  empty.spec.driver.duration = SimTime();
  const double setup = TimedShardedRun(empty, true);
  probe.EndRoot();

  probe.BeginRoot("run");
  const AllocCount allocs_before = CurrentAllocs();
  const Clock::time_point start = Clock::now();
  const ShardedRunResult run =
      RunShardedOnce(w, true, traced, w.sharded_config.shards);
  const double wall = SecondsSince(start);
  const AllocCount allocs = CurrentAllocs() - allocs_before;
  probe.EndRoot();

  Result out;
  out.digest = run.samples_digest;
  out.Check(run.books_close, "sharded books do not close");
  const double submitted = static_cast<double>(run.driver_submitted);
  MetricsRegistry& registry = *run.telemetry.metrics;
  AddEndToEnd(w, run.report, setup, (wall - setup) * 1e9 / submitted,
              registry, &out);
  // The harness times engine.Run alone; set-up, scoring and the telemetry
  // fold are the rest of the call.
  AddRunCosts(submitted, static_cast<double>(run.sim_events),
              run.wall_seconds * 1e9, 0, 0, allocs, &out);
  AddLayerCounters(w, registry, &out);
  if (!traced) {
    return out;
  }
  // The telemetry cost: runs with the sampler off and on, alternated.
  std::vector<double> off, on;
  for (int i = 0; i < 2; ++i) {
    off.push_back(TimedShardedRun(w, false));
    on.push_back(TimedShardedRun(w, true));
  }
  const double marks =
      static_cast<double>(run.telemetry.series->samples_taken()) *
      (w.sharded_config.groups + 1);
  AddProbedLayers(w, TracedState{}, 0, &out);
  AddShardedLayers(run.profile, marks,
                   (Median(on) - Median(off)) * 1e6 / marks, &out);
  const std::string path = "TRACE_ledger_" + w.name + ".json";
  out.Check(WriteChromeTrace(path, probe), "could not write " + path);
  return out;
}

// ---------------------------------------------------------------------------
// --check: the composition against the harness, one replication each.

Result RunCheck(const Workload& w) {
  Result out;
  if (w.sharded) {
    const ShardedRunResult a =
        RunShardedOnce(w, true, false, w.sharded_config.shards);
    const ShardedRunResult b = RunShardedOnce(w, true, false, 1);
    out.digest = a.samples_digest;
    out.submitted = a.driver_submitted;
    out.Check(a.samples_digest == b.samples_digest &&
                  a.engine_digest == b.engine_digest,
              "sharded digests differ between the run's shard count and 1");
    out.Check(a.books_close && b.books_close, "sharded books do not close");
    return out;
  }
  Stack stack(w, nullptr);
  stack.driver->Start();
  const std::uint64_t events = stack.sim.Run();
  out.digest = SamplesDigest(stack.driver->samples());
  out.submitted = stack.driver->submitted();

  const PlannerConfig* planner = w.planner.enabled() ? &w.planner : nullptr;
  WorkloadRunResult harness;
  if (w.routers > 0) {
    RouterTierConfig tier_config;
    tier_config.routers = w.routers;
    tier_config.dispatch = w.router_dispatch;
    harness = RunRouterWorkload(w.spec, kPolicy, w.workers, tier_config, kSlo,
                                w.platform, nullptr, nullptr, planner);
  } else {
    harness = RunWorkload(w.spec, kPolicy, w.workers, kSlo, w.platform,
                          nullptr, nullptr, planner);
  }
  out.Check(harness.samples_digest == out.digest,
            StrFormat("composed digest %016llx != harness digest %016llx",
                      static_cast<unsigned long long>(out.digest),
                      static_cast<unsigned long long>(
                          harness.samples_digest)));
  out.Check(harness.sim_events == events,
            "composed event count != harness event count");
  return out;
}

// ---------------------------------------------------------------------------

void PrintResult(const Workload& w, const char* mode, const Result& r) {
  JsonWriter json;
  json.BeginObject();
  json.Key("workload");
  json.String(w.name);
  json.Key("seed");
  json.UInt(w.spec.seed);
  json.Key("mode");
  json.String(mode);
  json.Key("correct");
  json.Bool(r.violations.empty());
  json.Key("violations");
  json.BeginArray();
  for (const std::string& v : r.violations) {
    json.String(v);
  }
  json.EndArray();
  json.Key("digest");
  json.String(StrFormat("%016llx", static_cast<unsigned long long>(r.digest)));
  json.Key("submitted");
  json.UInt(r.submitted);
  json.Key("failed");
  // A violated run counts every invocation as failed.
  json.UInt(r.violations.empty() ? r.failed : r.submitted);
  json.Key("metrics");
  json.BeginObject();
  for (const Metric& m : r.metrics) {
    json.Key(m.name);
    json.BeginObject();
    json.Key("value");
    json.Double(m.value);
    json.Key("unit");
    json.String(m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
}

int Run(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const std::int64_t seed = flags.GetInt("seed", 1);
  const bool traced = flags.GetBool("traced", false);
  const bool check = flags.GetBool("check", false);
  for (const std::string& unknown : flags.UnqueriedFlags()) {
    std::fprintf(stderr, "unknown flag --%s\n", unknown.c_str());
    return 2;
  }
  if (seed < 0 || (traced && check)) {
    std::fprintf(stderr,
                 "bad flags: need --seed>=0 and at most one of "
                 "--traced/--check\n");
    return 2;
  }
  const std::optional<Workload> w =
      MakeWorkload(name, static_cast<std::uint64_t>(seed));
  if (!w.has_value()) {
    std::fprintf(stderr, "unknown --workload=%s (one of:", name.c_str());
    for (const char* known : kWorkloadNames) {
      std::fprintf(stderr, " %s", known);
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  Result result;
  const char* mode = check ? "check" : traced ? "traced" : "untraced";
  if (check) {
    result = RunCheck(*w);
  } else if (w->sharded) {
    result = RunSharded(*w, traced);
  } else {
    result = RunMonolithic(*w, traced);
  }
  PrintResult(*w, mode, result);
  return result.violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace palette

int main(int argc, char** argv) { return palette::Run(argc, argv); }
