// palette_cli — run Palette experiments from the command line.
//
// Subcommands:
//   policies                       list color scheduling policies
//   route    --policy=la --workers=8 --colors=100 [--requests=1000]
//                                  route a synthetic color stream, report
//                                  distribution and state
//   dag      --pattern=stencil_1d --policy=la --coloring=chain
//            --workers=8 [--width=16 --steps=10 --ops=60e6 --mb=256]
//                                  run one Task Bench DAG end to end
//   tpch     --query=5 --policy=la --workers=48
//                                  run one TPC-H-shaped query
//   webapp   --policy=bh --workers=24 [--requests=72000]
//            [--trace=trace.csv] [--export=trace.csv]
//                                  social-network cache experiment; can
//                                  import/export CSV traces
//   trace    --pattern=stencil_1d --policy=la --coloring=chain
//            --workers=8 [--out=TRACE_dag.json]
//                                  run one Task Bench DAG with lifecycle
//                                  tracing + metrics on; writes Chrome
//                                  trace-event JSON (Perfetto-loadable)
//                                  and prints the phase breakdown and the
//                                  platform metric snapshot
//   trace    --routers=4 [--dispatch=color|spray --sync_lag_ms=20
//            --rate=300 --duration=2 --crash_s=1 --out=TRACE_router.json]
//                                  open-loop run through a RouterTier
//                                  (docs/ROUTING.md) with a mid-run worker
//                                  crash; spans carry the routing replica
//                                  and hop/forward events, so misroute
//                                  correction is visible on the timeline
//   monitor  --policy=la --workers=8 [--rate=200 --duration=3
//            --routers=N --sample_every_ms=100 --alerts=<rules>
//            --deadline_ms=100 --spark_width=48]
//                                  run an open-loop workload with the
//                                  telemetry sampler on and render a
//                                  terminal dashboard: one sparkline row
//                                  per series (last/min/max/mean) plus the
//                                  alert log. Default alert: end-to-end
//                                  p99 > deadline for 3 windows.
//
// Examples:
//   palette_cli dag --pattern=fft --policy=rr --coloring=none --workers=8
//   palette_cli webapp --policy=la --workers=12 --export=social.csv
//   palette_cli trace --pattern=fft --policy=la --workers=8 --out=fft.json
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/cache/trace_io.h"
#include "src/common/flags.h"
#include "src/common/table_printer.h"
#include "src/core/palette_load_balancer.h"
#include "src/core/policy_factory.h"
#include "src/dag/dag_executor.h"
#include "src/dag/serverful_scheduler.h"
#include "src/router/router_tier.h"
#include "src/socialnet/content.h"
#include "src/socialnet/social_graph.h"
#include "src/socialnet/webapp_sim.h"
#include "src/socialnet/workload.h"
#include "src/taskbench/taskbench.h"
#include "src/tpch/tpch.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: palette_cli "
               "<policies|route|dag|tpch|webapp|trace|monitor> "
               "[--flag=value ...]\n"
               "see the header of tools/palette_cli.cc for full flag "
               "documentation\n");
  return 2;
}

bool ParsePolicyOrDie(const FlagParser& flags, PolicyKind* out) {
  const std::string id = flags.GetString("policy", "la");
  if (!ParsePolicyKind(id, out)) {
    std::fprintf(stderr, "unknown --policy '%s' (try: ", id.c_str());
    for (PolicyKind kind : AllPolicyKinds()) {
      std::fprintf(stderr, "%s ", std::string(PolicyKindId(kind)).c_str());
    }
    std::fprintf(stderr, ")\n");
    return false;
  }
  return true;
}

int CmdPolicies() {
  TablePrinter table;
  table.AddRow({"id", "name", "locality-aware"});
  for (PolicyKind kind : AllPolicyKinds()) {
    auto policy = MakePolicy(kind, 1);
    table.AddRow({std::string(PolicyKindId(kind)), std::string(policy->name()),
                  IsLocalityAware(kind) ? "yes" : "no"});
  }
  table.Print();
  return 0;
}

int CmdRoute(const FlagParser& flags) {
  PolicyKind kind;
  if (!ParsePolicyOrDie(flags, &kind)) {
    return 2;
  }
  const int workers = static_cast<int>(flags.GetInt("workers", 8));
  const int colors = static_cast<int>(flags.GetInt("colors", 100));
  const int requests = static_cast<int>(flags.GetInt("requests", 1000));

  PaletteLoadBalancer lb(MakePolicy(kind, flags.GetInt("seed", 1)));
  for (int i = 0; i < workers; ++i) {
    lb.AddInstance(StrFormat("w%d", i));
  }
  for (int r = 0; r < requests; ++r) {
    lb.Route(Color(StrFormat("color-%d", r % colors)));
  }
  TablePrinter table;
  table.AddRow({"instance", "requests"});
  for (int i = 0; i < workers; ++i) {
    const std::string name = StrFormat("w%d", i);
    table.AddRow({name, StrFormat("%llu", static_cast<unsigned long long>(
                                              lb.RoutedTo(name)))});
  }
  table.Print();
  std::printf("\nimbalance (max/avg): %.2f   policy state: %s\n",
              lb.RoutingImbalance(),
              FormatBytes(lb.policy().StateBytes()).c_str());
  return 0;
}

TaskBenchPattern PatternByNameOrDefault(const std::string& name) {
  for (TaskBenchPattern pattern : AllTaskBenchPatterns()) {
    if (TaskBenchPatternName(pattern) == name) {
      return pattern;
    }
  }
  std::fprintf(stderr, "unknown --pattern '%s', using stencil_1d\n",
               name.c_str());
  return TaskBenchPattern::kStencil1d;
}

ColoringKind ColoringByNameOrDefault(const std::string& name) {
  for (ColoringKind kind :
       {ColoringKind::kNone, ColoringKind::kSameColor, ColoringKind::kChain,
        ColoringKind::kVirtualWorker}) {
    if (ColoringKindName(kind) == name) {
      return kind;
    }
  }
  std::fprintf(stderr, "unknown --coloring '%s', using chain\n", name.c_str());
  return ColoringKind::kChain;
}

void PrintDagResult(const Dag& dag, const DagRunResult& result,
                    const ServerfulRunResult& serverful) {
  TablePrinter table;
  table.AddRow({"metric", "value"});
  table.AddRow({"tasks", StrFormat("%d", dag.size())});
  table.AddRow({"makespan", result.makespan.ToString()});
  table.AddRow({"serverful baseline", serverful.makespan.ToString()});
  table.AddRow({"local hits", StrFormat("%llu", static_cast<unsigned long long>(
                                                    result.local_hits))});
  table.AddRow(
      {"remote hits", StrFormat("%llu", static_cast<unsigned long long>(
                                            result.remote_hits))});
  table.AddRow({"storage misses",
                StrFormat("%llu",
                          static_cast<unsigned long long>(result.misses))});
  table.AddRow({"network bytes", FormatBytes(result.network_bytes)});
  table.AddRow({"distinct colors", StrFormat("%d", result.distinct_colors)});
  table.AddRow(
      {"routing imbalance", StrFormat("%.2f", result.routing_imbalance)});
  table.Print();
}

int CmdDag(const FlagParser& flags) {
  PolicyKind kind;
  if (!ParsePolicyOrDie(flags, &kind)) {
    return 2;
  }
  TaskBenchConfig tb;
  tb.width = static_cast<int>(flags.GetInt("width", 16));
  tb.timesteps = static_cast<int>(flags.GetInt("steps", 10));
  tb.cpu_ops_per_task = flags.GetDouble("ops", 60e6);
  tb.output_bytes =
      static_cast<Bytes>(flags.GetInt("mb", 256)) * kMiB;
  const Dag dag = MakeTaskBenchDag(
      PatternByNameOrDefault(flags.GetString("pattern", "stencil_1d")), tb);

  DagRunConfig config;
  config.policy = kind;
  config.coloring = ColoringByNameOrDefault(flags.GetString("coloring",
                                                            "chain"));
  config.workers = static_cast<int>(flags.GetInt("workers", 8));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  config.platform.cpu_ops_per_second = flags.GetDouble("cpu_rate", 30e6);

  ServerfulConfig serverful;
  serverful.workers = config.workers;
  serverful.cpu_ops_per_second = config.platform.cpu_ops_per_second;
  serverful.network = config.platform.network;

  PrintDagResult(dag, RunDagOnFaas(dag, config), RunServerful(dag, serverful));
  return 0;
}

// `trace --routers=N`: open-loop traffic through a RouterTier with a
// mid-run worker crash, so the exported Chrome trace shows which replica
// routed each invocation and where a stale view forced a hop+forward.
int CmdTraceRouter(const FlagParser& flags, PolicyKind kind) {
  RouterTierConfig tier_config;
  tier_config.routers = static_cast<int>(flags.GetInt("routers", 4));
  const std::string dispatch_id = flags.GetString(
      "dispatch", std::string(DispatchModeId(tier_config.dispatch)));
  if (!ParseDispatchMode(dispatch_id, &tier_config.dispatch)) {
    std::fprintf(stderr, "unknown dispatch mode: %s (try: color spray)\n",
                 dispatch_id.c_str());
    return 2;
  }
  tier_config.sync_lag =
      SimTime::FromMillis(flags.GetDouble("sync_lag_ms", 20));
  tier_config.hop_latency = SimTime::FromMicros(
      flags.GetDouble("hop_us", tier_config.hop_latency.micros()));
  tier_config.policy = kind;

  WorkloadSpec spec;
  spec.arrival.rate_per_sec = flags.GetDouble("rate", 300);
  spec.mix.color_count =
      static_cast<std::uint64_t>(flags.GetInt("colors", 64));
  spec.driver.duration =
      SimTime::FromSeconds(flags.GetDouble("duration", 2));
  spec.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  tier_config.seed = spec.seed;
  const int workers = static_cast<int>(flags.GetInt("workers", 8));
  const double crash_s = flags.GetDouble("crash_s", 1);

  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.retry.max_attempts = 3;
  config.retry.initial_backoff = SimTime::FromMillis(5);

  Simulator sim;
  FaasPlatform platform(&sim, kind, spec.seed, config);
  platform.AddWorkers(workers);
  RouterTier tier(&platform, tier_config);

  TraceRecorder recorder;
  MetricsRegistry metrics;
  platform.set_trace_recorder(&recorder);
  tier.set_trace_recorder(&recorder);

  // Crash one worker mid-run: replicas route on stale views for
  // sync_lag, and each misrouted attempt shows as "hop+forward".
  if (crash_s > 0) {
    sim.At(SimTime::FromSeconds(crash_s),
           [&platform]() { platform.CrashWorker("w0"); });
  }

  Rng seeder(spec.seed);
  const std::uint64_t arrival_seed = seeder.Next();
  const std::uint64_t driver_seed = seeder.Next();
  OpenLoopDriver driver(&platform,
                        MakeArrivalProcess(spec.arrival, arrival_seed),
                        InvocationMix(spec.mix), spec.driver, driver_seed);
  driver.Start();
  sim.Run();

  std::printf("%s\n", recorder.PhaseBreakdownTable().c_str());
  platform.ExportMetrics(&metrics);
  tier.ExportMetrics(&metrics);
  std::printf("%s\n", metrics.ToTable().c_str());
  std::printf("router tier: %llu routes, %llu stale, %llu misroutes, "
              "%llu forwards\n",
              static_cast<unsigned long long>(tier.routes()),
              static_cast<unsigned long long>(tier.stale_routes()),
              static_cast<unsigned long long>(tier.misroutes()),
              static_cast<unsigned long long>(tier.forwards()));

  const std::string out = flags.GetString("out", "TRACE_router.json");
  if (!recorder.WriteChromeTrace(out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu invocations, %zu router hops to %s (load in "
              "Perfetto or chrome://tracing)\n",
              recorder.invocation_count(), recorder.router_hop_count(),
              out.c_str());
  return 0;
}

int CmdTrace(const FlagParser& flags) {
  PolicyKind kind;
  if (!ParsePolicyOrDie(flags, &kind)) {
    return 2;
  }
  if (flags.GetInt("routers", 0) > 0) {
    return CmdTraceRouter(flags, kind);
  }
  TaskBenchConfig tb;
  tb.width = static_cast<int>(flags.GetInt("width", 16));
  tb.timesteps = static_cast<int>(flags.GetInt("steps", 10));
  tb.cpu_ops_per_task = flags.GetDouble("ops", 60e6);
  tb.output_bytes = static_cast<Bytes>(flags.GetInt("mb", 256)) * kMiB;
  const Dag dag = MakeTaskBenchDag(
      PatternByNameOrDefault(flags.GetString("pattern", "stencil_1d")), tb);

  DagRunConfig config;
  config.policy = kind;
  config.coloring = ColoringByNameOrDefault(flags.GetString("coloring",
                                                            "chain"));
  config.workers = static_cast<int>(flags.GetInt("workers", 8));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  config.platform.cpu_ops_per_second = flags.GetDouble("cpu_rate", 30e6);

  TraceRecorder recorder;
  MetricsRegistry metrics;
  config.trace = &recorder;
  config.metrics = &metrics;
  const DagRunResult result = RunDagOnFaas(dag, config);

  std::printf("%d tasks, makespan %s\n\n", dag.size(),
              result.makespan.ToString().c_str());
  std::printf("%s\n", recorder.PhaseBreakdownTable().c_str());
  std::printf("%s\n", metrics.ToTable().c_str());

  const std::string out = flags.GetString("out", "TRACE_dag.json");
  if (!recorder.WriteChromeTrace(out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu invocations, %zu fetches to %s (load in Perfetto "
              "or chrome://tracing)\n",
              recorder.invocation_count(), recorder.fetch_count(),
              out.c_str());
  return 0;
}

int CmdTpch(const FlagParser& flags) {
  PolicyKind kind;
  if (!ParsePolicyOrDie(flags, &kind)) {
    return 2;
  }
  const int query = static_cast<int>(flags.GetInt("query", 1));
  if (query < 1 || query > kTpchQueryCount) {
    std::fprintf(stderr, "--query must be 1..%d\n", kTpchQueryCount);
    return 2;
  }
  const Dag dag = MakeTpchQueryDag(query);
  DagRunConfig config;
  config.policy = kind;
  config.coloring = IsLocalityAware(kind) ? ColoringKind::kVirtualWorker
                                          : ColoringKind::kNone;
  config.workers = static_cast<int>(flags.GetInt("workers", 48));
  config.platform.cpu_ops_per_second = flags.GetDouble("cpu_rate", 30e6);

  ServerfulConfig serverful;
  serverful.workers = config.workers;
  serverful.cpu_ops_per_second = config.platform.cpu_ops_per_second;
  serverful.network = config.platform.network;

  std::printf("TPC-H-shaped Q%d under %s:\n\n", query,
              std::string(PolicyKindId(kind)).c_str());
  PrintDagResult(dag, RunDagOnFaas(dag, config), RunServerful(dag, serverful));
  return 0;
}

int CmdWebapp(const FlagParser& flags) {
  PolicyKind kind;
  if (!ParsePolicyOrDie(flags, &kind)) {
    return 2;
  }
  std::vector<CacheAccess> trace;
  if (flags.Has("trace")) {
    std::string error;
    auto loaded = ReadTraceCsvFile(flags.GetString("trace", ""), &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "failed to load trace: %s\n", error.c_str());
      return 1;
    }
    trace = std::move(*loaded);
  } else {
    const SocialGraph graph{};
    const SocialContent content(graph);
    SocialWorkloadConfig workload;
    workload.request_count =
        static_cast<std::uint64_t>(flags.GetInt("requests", 72000));
    trace = GenerateSocialTrace(content, workload);
  }
  if (flags.Has("export")) {
    const std::string path = flags.GetString("export", "trace.csv");
    if (!WriteTraceCsvFile(trace, path)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("exported %zu accesses to %s\n", trace.size(), path.c_str());
  }

  WebAppConfig config;
  config.policy = kind;
  config.use_colors = IsLocalityAware(kind);
  config.workers = static_cast<int>(flags.GetInt("workers", 24));
  config.per_instance_cache_bytes =
      static_cast<Bytes>(flags.GetInt("cache_mb", 128)) * kMiB;
  const auto result = RunWebAppExperiment(trace, config);

  TablePrinter table;
  table.AddRow({"metric", "value"});
  table.AddRow({"accesses", StrFormat("%llu", static_cast<unsigned long long>(
                                                  result.accesses))});
  table.AddRow({"hit ratio", StrFormat("%.1f%%", 100 * result.hit_ratio)});
  table.AddRow(
      {"routing imbalance", StrFormat("%.2f", result.routing_imbalance)});
  table.AddRow({"aggregate cached", FormatBytes(result.aggregate_cached_bytes)});
  table.Print();
  return 0;
}

// `monitor`: run one telemetry-enabled open-loop workload and render the
// sampled series as a terminal sparkline dashboard — the interactive face
// of the pipeline loadgen exports as CSV/Prometheus/trace counters
// (docs/OBSERVABILITY.md). Series that never move are hidden unless
// --all is given.
int CmdMonitor(const FlagParser& flags) {
  PolicyKind kind;
  if (!ParsePolicyOrDie(flags, &kind)) {
    return 2;
  }
  WorkloadSpec spec;
  if (!WorkloadSpecFromFlags(flags, &spec)) {
    return 2;
  }
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(flags.GetDouble("deadline_ms", 100));
  const int workers = static_cast<int>(flags.GetInt("workers", 8));

  WorkloadObsConfig obs;
  const double every_ms = flags.GetDouble("sample_every_ms", 100);
  obs.sample_every = SimTime::FromMillis(every_ms > 0 ? every_ms : 100);
  const std::string alert_spec = flags.GetString("alerts", "");
  if (alert_spec.empty()) {
    // Default SLO watch: end-to-end p99 above the scoring deadline for
    // three consecutive windows.
    AlertRule rule;
    rule.name = "p99_deadline";
    rule.series = "faas.latency.end_to_end_ns.p99";
    rule.threshold = static_cast<double>(slo.deadline.nanos());
    obs.alert_rules.push_back(rule);
  } else {
    std::vector<std::string> errors;
    obs.alert_rules = ParseAlertRules(alert_spec, &errors);
    for (const std::string& error : errors) {
      std::fprintf(stderr, "warning: bad alert rule: %s\n", error.c_str());
    }
    if (obs.alert_rules.empty()) {
      std::fprintf(stderr, "--alerts contained no valid rules\n");
      return 2;
    }
  }

  const PlatformConfig platform_config = DefaultWorkloadPlatformConfig();
  WorkloadRunResult result;
  const int routers = static_cast<int>(flags.GetInt("routers", 0));
  if (routers > 0) {
    RouterTierConfig tier_config;
    tier_config.routers = routers;
    result = RunRouterWorkload(spec, kind, workers, tier_config, slo,
                               platform_config, nullptr, &obs);
  } else {
    result = RunWorkload(spec, kind, workers, slo, platform_config, nullptr,
                         &obs);
  }
  if (!result.telemetry.enabled()) {
    std::fprintf(stderr, "telemetry did not come up\n");
    return 1;
  }

  const TimeSeriesSampler& sampler = *result.telemetry.series;
  const std::size_t width =
      static_cast<std::size_t>(flags.GetInt("spark_width", 48));
  std::printf("%s under %s: %llu windows of %.0f ms, %zu series\n\n",
              routers > 0 ? "router workload" : "workload",
              std::string(PolicyKindId(kind)).c_str(),
              static_cast<unsigned long long>(sampler.samples_taken()),
              sampler.config().interval.millis(), sampler.series_count());

  // Manual layout (not TablePrinter): the sparkline cells are multi-byte
  // UTF-8, which byte-counting column padding would misalign.
  for (const TimeSeries* series : sampler.AllSeries()) {
    const std::vector<SeriesPoint> points = series->Points();
    std::vector<double> values;
    values.reserve(points.size());
    bool all_zero = true;
    for (const SeriesPoint& point : points) {
      values.push_back(point.value);
      all_zero = all_zero && point.value == 0;
    }
    if (all_zero && !flags.Has("all")) {
      continue;
    }
    // Latency quantiles carry nanoseconds; render them as milliseconds.
    const bool is_ns = series->name().find("_ns.p") != std::string::npos;
    const auto fmt = [is_ns](double v) {
      return is_ns ? StrFormat("%.2fms", v / 1e6) : StrFormat("%.4g", v);
    };
    std::string spark = Sparkline(values, width);
    const std::size_t cells = std::min(values.size(), width);
    spark.append(width > cells ? width - cells : 0, ' ');
    std::printf("  %-36s %s last=%-10s min=%-10s max=%-10s mean=%s\n",
                series->name().c_str(), spark.c_str(),
                fmt(series->last()).c_str(), fmt(series->MinValue()).c_str(),
                fmt(series->MaxValue()).c_str(),
                fmt(series->MeanValue()).c_str());
  }

  if (result.telemetry.alerts != nullptr) {
    const AlertEngine& alerts = *result.telemetry.alerts;
    std::printf("\nalerts: %llu fired, %llu cleared\n",
                static_cast<unsigned long long>(alerts.fired_count()),
                static_cast<unsigned long long>(alerts.cleared_count()));
    if (!alerts.log().empty()) {
      std::printf("%s", alerts.ToLogLines().c_str());
    }
    for (const std::string& name : alerts.ActiveAlerts()) {
      std::printf("still active at end of run: %s\n", name.c_str());
    }
  }
  std::printf("\np99 %.2f ms, goodput %.1f rps, samples digest %016llx\n",
              result.report.p99_ms, result.report.goodput_rps,
              static_cast<unsigned long long>(result.samples_digest));
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  const FlagParser flags(argc - 1, argv + 1);

  int rc;
  if (command == "policies") {
    rc = CmdPolicies();
  } else if (command == "route") {
    rc = CmdRoute(flags);
  } else if (command == "dag") {
    rc = CmdDag(flags);
  } else if (command == "tpch") {
    rc = CmdTpch(flags);
  } else if (command == "webapp") {
    rc = CmdWebapp(flags);
  } else if (command == "trace") {
    rc = CmdTrace(flags);
  } else if (command == "monitor") {
    rc = CmdMonitor(flags);
  } else {
    return Usage();
  }
  for (const std::string& unknown : flags.UnqueriedFlags()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", unknown.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace palette

int main(int argc, char** argv) { return palette::Main(argc, argv); }
