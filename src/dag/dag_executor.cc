#include "src/dag/dag_executor.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <vector>

#include "src/common/table_printer.h"
#include "src/sim/simulator.h"

namespace palette {
namespace {

std::string RawObjectName(const DagColoring& coloring, int task_id) {
  const auto& color = coloring.color_of[task_id];
  if (color.has_value()) {
    return *color + std::string(kHashKeyToken) + StrFormat("t%d", task_id);
  }
  return StrFormat("t%d", task_id);
}

// The executors translate object names themselves, at submission. With
// PlatformConfig::translate_object_names on, the platform would translate
// them again at dispatch, read the instance prefix of "w3___t5" as a color
// and plant it in the policy's table, so the flag is always off here.
PlatformConfig ExecutorPlatformConfig(const DagRunConfig& config) {
  PlatformConfig platform = config.platform;
  platform.translate_object_names = false;
  return platform;
}

}  // namespace

DagRunResult RunDagOnFaas(const Dag& dag, const DagRunConfig& config,
                          const DagColoring* coloring_override) {
  DagRunResult result;
  result.task_completion.assign(static_cast<std::size_t>(dag.size()),
                                SimTime());
  if (dag.empty()) {
    return result;
  }

  Simulator sim;
  FaasPlatform platform(&sim, config.policy, config.seed,
                        ExecutorPlatformConfig(config));
  platform.set_trace_recorder(config.trace);
  platform.set_metrics(config.metrics);
  if (config.worker_speeds.empty()) {
    platform.AddWorkers(config.workers);
  } else {
    assert(static_cast<int>(config.worker_speeds.size()) == config.workers);
    for (int w = 0; w < config.workers; ++w) {
      platform.AddWorker(StrFormat("w%d", w),
                         config.worker_speeds[static_cast<std::size_t>(w)]);
    }
  }

  const int vw = config.virtual_workers > 0 ? config.virtual_workers
                                            : config.workers;
  ServerfulConfig vw_model;
  vw_model.workers = vw;
  vw_model.cpu_ops_per_second = config.platform.cpu_ops_per_second;
  vw_model.network = config.platform.network;
  const DagColoring coloring =
      coloring_override != nullptr
          ? *coloring_override
          : ColorDag(dag, config.coloring, vw, vw_model);
  assert(static_cast<int>(coloring.color_of.size()) == dag.size());
  result.distinct_colors = coloring.distinct_colors;

  // Pre-register the DAG's colors with the load balancer in descending
  // order of total work (LPT). The whole graph and its coloring are known
  // before submission, so the client can introduce colors heaviest-first —
  // this makes stateful policies (Least Assigned) place chains load-aware
  // and keeps the mapping independent of task completion timing.
  {
    std::map<Color, double> ops_per_color;
    for (const auto& task : dag.tasks()) {
      const auto& color = coloring.color_of[task.id];
      if (color.has_value()) {
        ops_per_color[*color] += task.cpu_ops;
      }
    }
    std::vector<std::pair<double, Color>> ordered;
    ordered.reserve(ops_per_color.size());
    for (const auto& [color, ops] : ops_per_color) {
      ordered.emplace_back(ops, color);
    }
    std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) {
        return a.first > b.first;
      }
      return a.second < b.second;  // deterministic tie-break
    });
    for (const auto& [ops, color] : ordered) {
      platform.load_balancer().ResolveColor(color);
    }
  }

  std::vector<int> pending_deps(dag.size(), 0);
  for (const auto& task : dag.tasks()) {
    pending_deps[task.id] = static_cast<int>(task.deps.size());
  }

  SimTime makespan;
  int completed = 0;

  // Submits one task as an invocation; defined as std::function so the
  // completion callback can recursively submit newly-ready successors.
  std::function<void(int)> submit = [&](int task_id) {
    const DagTask& task = dag.task(task_id);
    InvocationSpec spec;
    spec.function = "dag_eval";
    spec.color = coloring.color_of[task_id];
    spec.cpu_ops = task.cpu_ops;
    for (int dep : task.deps) {
      spec.inputs.push_back(ObjectRef{
          platform.TranslateObjectName(RawObjectName(coloring, dep)),
          dag.task(dep).output_bytes});
    }
    spec.outputs.push_back(ObjectRef{
        platform.TranslateObjectName(RawObjectName(coloring, task_id)),
        task.output_bytes});

    const auto id = platform.Invoke(
        std::move(spec), [&, task_id](const InvocationResult& inv) {
          ++completed;
          result.local_hits += static_cast<std::uint64_t>(inv.local_hits);
          result.remote_hits += static_cast<std::uint64_t>(inv.remote_hits);
          result.misses += static_cast<std::uint64_t>(inv.misses);
          result.network_bytes += inv.network_bytes;
          result.task_completion[static_cast<std::size_t>(task_id)] =
              inv.completed;
          if (inv.completed > makespan) {
            makespan = inv.completed;
          }
          for (int succ : dag.successors(task_id)) {
            if (--pending_deps[succ] == 0) {
              submit(succ);
            }
          }
        });
    assert(id.has_value() && "platform has no workers");
    (void)id;
  };

  for (int id : dag.Sources()) {
    submit(id);
  }
  sim.Run();
  assert(completed == dag.size() && "DAG did not drain");

  result.makespan = makespan;
  result.cluster_remote_bytes = platform.network().remote_bytes();
  result.routing_imbalance = platform.load_balancer().RoutingImbalance();
  if (config.metrics != nullptr) {
    platform.ExportMetrics(config.metrics);
  }
  return result;
}

SharedRunResult RunDagsOnSharedPlatform(const std::vector<DagJob>& jobs,
                                        const DagRunConfig& config) {
  SharedRunResult result;
  result.job_latency.assign(jobs.size(), SimTime());
  if (jobs.empty()) {
    return result;
  }

  Simulator sim;
  FaasPlatform platform(&sim, config.policy, config.seed,
                        ExecutorPlatformConfig(config));
  platform.set_trace_recorder(config.trace);
  platform.set_metrics(config.metrics);
  platform.AddWorkers(config.workers);

  const int vw = config.virtual_workers > 0 ? config.virtual_workers
                                            : config.workers;
  ServerfulConfig vw_model;
  vw_model.workers = vw;
  vw_model.cpu_ops_per_second = config.platform.cpu_ops_per_second;
  vw_model.network = config.platform.network;

  // Per-job state. Colorings are namespaced per job so concurrent jobs
  // never alias colors or object names.
  struct JobState {
    DagColoring coloring;
    std::vector<int> pending_deps;
    int completed = 0;
  };
  std::vector<JobState> states(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Dag& dag = *jobs[j].dag;
    states[j].coloring = ColorDag(dag, config.coloring, vw, vw_model);
    for (auto& color : states[j].coloring.color_of) {
      if (color.has_value()) {
        *color = StrFormat("job%zu/%s", j, color->c_str());
      }
    }
    states[j].pending_deps.assign(static_cast<std::size_t>(dag.size()), 0);
    for (const auto& task : dag.tasks()) {
      states[j].pending_deps[static_cast<std::size_t>(task.id)] =
          static_cast<int>(task.deps.size());
    }
  }

  int jobs_remaining = static_cast<int>(jobs.size());

  // One submit closure per job (recursive through completion callbacks).
  std::vector<std::function<void(int)>> submit(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    submit[j] = [&, j](int task_id) {
      const Dag& dag = *jobs[j].dag;
      const DagTask& task = dag.task(task_id);
      const auto object_name = [&](int id) {
        const auto& color =
            states[j].coloring.color_of[static_cast<std::size_t>(id)];
        const std::string raw =
            color.has_value()
                ? *color + std::string(kHashKeyToken) + StrFormat("t%d", id)
                : StrFormat("job%zu/t%d", j, id);
        return platform.TranslateObjectName(raw);
      };
      InvocationSpec spec;
      spec.function = "dag_eval";
      spec.color = states[j].coloring.color_of[static_cast<std::size_t>(
          task_id)];
      spec.cpu_ops = task.cpu_ops;
      for (int dep : task.deps) {
        spec.inputs.push_back(
            ObjectRef{object_name(dep), dag.task(dep).output_bytes});
      }
      spec.outputs.push_back(
          ObjectRef{object_name(task_id), task.output_bytes});
      const auto id = platform.Invoke(
          std::move(spec), [&, j, task_id](const InvocationResult& inv) {
            JobState& state = states[j];
            ++state.completed;
            for (int succ : jobs[j].dag->successors(task_id)) {
              if (--state.pending_deps[static_cast<std::size_t>(succ)] == 0) {
                submit[j](succ);
              }
            }
            if (state.completed == jobs[j].dag->size()) {
              result.job_latency[j] = inv.completed - jobs[j].arrival;
              if (inv.completed > result.total_makespan) {
                result.total_makespan = inv.completed;
              }
              --jobs_remaining;
            }
          });
      assert(id.has_value());
      (void)id;
    };
  }

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sim.At(jobs[j].arrival, [&, j]() {
      for (int id : jobs[j].dag->Sources()) {
        submit[j](id);
      }
    });
  }
  sim.Run();
  assert(jobs_remaining == 0 && "shared run did not drain all jobs");
  result.cluster_remote_bytes = platform.network().remote_bytes();
  if (config.metrics != nullptr) {
    platform.ExportMetrics(config.metrics);
  }
  return result;
}

}  // namespace palette
