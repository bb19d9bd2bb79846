// The simulated FaaS platform (Fig. 1 / Fig. 3).
//
// One FaasPlatform models one application: a set of single-vCPU workers
// (one application instance per worker, as the paper assumes), the Palette
// load balancer with its color scheduling policy, the Faa$T-style cache, and
// the shared cluster network — all driven by the discrete-event simulator.
//
// Invocation life cycle:
//   route (the attached routing tier, else the LB's color policy)
//   -> dispatch latency [+ tier hop] [+ cold start]
//   -> fetch inputs (local / peer cache / backing storage over the network)
//   -> compute on the worker's CPU FIFO (plus serialization overhead)
//   -> store outputs at their home instances
//   -> completion callback.
//
// Every attempt takes one path: Invoke routes the first attempt and
// Resubmit routes each retry through the same rule, so a retry re-enters
// the routing tier when one is attached (set_router).
//
// Fault tolerance (docs/FAULTS.md): each try of an invocation is an
// Attempt. An attempt fails when its worker departs under it (RemoveWorker
// while queued or in dispatch flight, CrashWorker at any point; both are
// one departure that differs only in whether the running attempt dies) or
// its deadline expires. Failed attempts are routed afresh under the
// platform's RetryPolicy — so colors remapped by failure-aware re-coloring
// land on the new instance — until they complete or max_attempts is
// exhausted. The books always close: submitted = completed + dropped +
// abandoned once the simulator drains (dropped = failures with retry
// disabled, abandoned = failures that exhausted their retry budget).
#ifndef PALETTE_SRC_FAAS_PLATFORM_H_
#define PALETTE_SRC_FAAS_PLATFORM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/cache/faast_cache.h"
#include "src/common/instance_id.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/core/palette_load_balancer.h"
#include "src/core/policy_factory.h"
#include "src/faas/invocation.h"
#include "src/faas/retry_policy.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/storage_layer.h"
#include "src/storage/storage_types.h"

namespace palette {

// Pseudo-node representing remote backing storage (blob store / MongoDB).
inline constexpr const char* kStorageNode = "__storage";

// How invocations reach a worker's private FIFO (docs/DISPATCH.md).
//   push   — route-time binding: the routed worker's FIFO, immediately.
//   pull   — late binding: the route is only a hint; attempts join a
//            per-color pending queue and idle workers claim them, colors
//            they host first, then (budget permitting) foreign colors.
enum class FaasDispatchMode {
  kPush,
  kPull,
};

// Short identifier for CLI flags and reports ("push", "pull").
std::string_view FaasDispatchModeId(FaasDispatchMode mode);
bool ParseFaasDispatchMode(std::string_view id, FaasDispatchMode* out);

struct PlatformConfig {
  // Worker compute rating. 1e9 abstract ops/s roughly matches the paper's
  // single-vCPU D4s_v3 workers running Python-level work.
  double cpu_ops_per_second = 1e9;
  // Load balancer + HTTP dispatch overhead per invocation.
  SimTime dispatch_latency = SimTime::FromMillis(1);
  // First invocation on a worker pays a cold start.
  SimTime cold_start = SimTime::FromMillis(100);
  // The paper's Palette prototype serializes every object on the critical
  // path (§7.2.2 Finding 5); serverful Dask only serializes cross-worker.
  // 0 disables the overhead.
  double serialization_bytes_per_second = 1.5e9;
  // Whether objects fetched from backing storage are cached locally.
  bool cache_miss_fills = true;
  // Per-attempt time budget applied to invocations whose spec leaves
  // `deadline` zero. Zero (the default) disables deadlines entirely.
  SimTime default_deadline;
  // Re-execution of failed attempts (worker lost, crash, timeout). The
  // default (max_attempts = 1) keeps the pre-retry behavior: failures are
  // counted as dropped.
  RetryPolicy retry;
  FaastCacheConfig cache;
  NetworkConfig network;
  // Event-core domain this platform lives on in a sharded run
  // (src/sim/sharded_simulator.h); 0 for monolithic runs. Completions for
  // specs whose origin_domain differs are shipped back cross-domain.
  int domain = 0;
  // Dispatch binding (docs/DISPATCH.md). Push (the default) keeps the
  // pre-pull behavior bit-for-bit; pull turns routing into a hint and
  // lets idle workers late-bind work from per-color pending queues.
  FaasDispatchMode dispatch_mode = FaasDispatchMode::kPush;
  // Pull: cap on concurrently outstanding *stolen* claims —
  // claims of a color whose home (cache-ring shard or LB placement) is
  // another live worker, which pay the modeled remote-fetch penalty when
  // they run. A slot is held from the claim until the stolen attempt
  // completes (or fails back to the queue), so the budget bounds how much
  // of the fleet can be busy on foreign work at once. 0 disables
  // stealing: idle workers only claim home/unowned colors.
  int steal_budget = 4;
  // Pull: a foreign color only qualifies for stealing once its
  // pending queue is at least this deep ("steal the hottest color").
  // Below the threshold the work waits for its home worker — stealing
  // shallow queues trades away locality for nothing: the home would have
  // drained them anyway, and the thief pays remote fetches that
  // replicate-on-remote-hit then spreads around the fleet.
  std::size_t steal_min_depth = 2;
  // Pull: queue -> worker claim handoff latency (the control-plane
  // round trip late binding costs). This window is where
  // claimed-but-unstarted work lives when a worker dies mid-claim.
  SimTime pull_claim_latency = SimTime::FromMicros(50);
  // Stateful storage tier (docs/STORAGE.md): write coherence modes,
  // anti-entropy between instance caches, two-tier backing store. The
  // default (mode = kNone) disables the layer entirely — the platform
  // behaves bit-for-bit as before it existed.
  StorageConfig storage;
  // §5.1 name translation at dispatch: rewrite each input/output color
  // prefix ("c4___x") to the color's routed instance ("w2___x") on an
  // invocation's first attempt, so the object's cache-ring home (the ring
  // maps member names to themselves) coincides with where colored routing
  // sends its readers and writers. Oblivious routing (spray) churns the
  // color's recorded placement, so its aliases scatter instead — which is
  // exactly the locality the hint was carrying. Off by default: raw names
  // keep every pre-existing digest bit-identical. The DAG executors
  // translate at submission instead and force this off.
  bool translate_object_names = false;
};

// The platform's invocation books and activity counters, stored once here
// and exported under the registry names on the right
// (docs/OBSERVABILITY.md). Harness results carry a copy (RunCounters,
// src/workload/spec.h); sharded runs sum one per group with +=.
struct PlatformCounters {
  std::uint64_t submitted = 0;  // faas.invocations.submitted
  std::uint64_t completed = 0;  // faas.invocations.completed
  // Attempts lost to worker removal/crash or timeout while retries are
  // DISABLED (the pre-retry drop semantics). Their completion callbacks
  // never fire.
  std::uint64_t dropped = 0;  // faas.invocations_dropped
  // Invocations whose final allowed attempt also failed (retries were
  // enabled but the budget ran out).
  std::uint64_t abandoned = 0;  // faas.invocations_abandoned
  // Re-submissions performed and per-attempt deadline expiries observed. A
  // timed-out attempt that is successfully retried counts in both and,
  // eventually, in completed.
  std::uint64_t retries = 0;      // faas.retries
  std::uint64_t timeouts = 0;     // faas.timeouts
  std::uint64_t cold_starts = 0;  // faas.cold_starts.total
  // Pull dispatch (docs/DISPATCH.md): a pull is any claim an idle worker
  // makes from a pending color queue; a steal is the budget-gated subset
  // claimed from a foreign color, priced at the stolen attempts' input
  // bytes.
  std::uint64_t pulls = 0;  // faas.pulls
  std::uint64_t steals = 0;  // faas.steals
  Bytes steal_bytes = 0;     // faas.steal_bytes
  // Plans applied and the cached bytes they migrated (docs/PLANNER.md).
  std::uint64_t planner_rounds = 0;  // planner.rounds
  Bytes planner_moved_bytes = 0;     // planner.moved_bytes

  PlatformCounters& operator+=(const PlatformCounters& other);
  bool operator==(const PlatformCounters&) const = default;
  // The accounting identity, which holds once the simulator drains with no
  // invocation mid-flight.
  bool BooksClose() const {
    return submitted == completed + dropped + abandoned;
  }
};

// Why an attempt failed (the retry trace uses the obs-layer RetryReason
// mirror of this).
enum class FailureReason {
  kWorkerLost,  // worker removed/crashed while the attempt was on it
  kTimeout,     // per-attempt deadline expired
};

// A placement decision handed to the platform by an external routing tier
// (src/router): the chosen instance plus the id of the router replica that
// chose it (-1 = the platform's own load balancer).
struct RoutedTarget {
  InstanceId instance = kInvalidInstanceId;
  std::int32_t router = -1;
};

class FaasPlatform {
 public:
  using CompletionCallback = std::function<void(const InvocationResult&)>;
  // An attached routing tier's route decision (set_router): called with
  // the invocation's color, its id, and the 1-based attempt number for
  // every attempt, retries included, so the tier's view (and its
  // failure-aware re-coloring) governs where re-submissions land. Returning
  // nullopt fails the attempt (no live instance visible to the router).
  using RouteFn = std::function<std::optional<RoutedTarget>(
      const std::optional<Color>& color, std::uint64_t invocation_id,
      int attempt)>;
  // Cluster membership change feed for external routing tiers: fired
  // synchronously from AddWorker / RemoveWorker / CrashWorker, after the
  // platform's own membership (cache shards, LB view) has been updated but
  // before orphaned attempts are failed over. `id` is the worker's id in
  // this platform's instance_table().
  enum class MembershipEvent { kAdded, kRemoved };
  using MembershipListener = std::function<void(
      MembershipEvent event, const std::string& worker, InstanceId id)>;

  // The platform owns its network, cache and load balancer; `sim` must
  // outlive it.
  FaasPlatform(Simulator* sim, PolicyKind policy, std::uint64_t seed,
               PlatformConfig config = {});

  // Workers are named "<prefix>N" by AddWorkers (default prefix "w"), or
  // explicitly. A worker's InstanceId is assigned here, by this platform's
  // own table, in join order; a name that rejoins keeps its id. The sharded
  // engine (src/workload/sharded_run.cc) gives each group a distinct prefix,
  // which keeps worker names — and so the cache ring's homes, which hash
  // names — what they are; ids start at 0 in every group. `speed` scales
  // the worker's CPU rate (1.0 = the platform rating; 0.5 = a straggler
  // VM) — real clusters are never perfectly homogeneous.
  void AddWorker(const std::string& name, double speed = 1.0);
  void AddWorkers(int count);
  void set_worker_prefix(std::string prefix) {
    worker_prefix_ = std::move(prefix);
  }
  // Graceful scale-in: the running attempt (if any) completes; queued
  // attempts fail over (retried or dropped per RetryPolicy; under pull
  // they return to their color queues), and so do attempts still in
  // dispatch flight when they arrive.
  void RemoveWorker(const std::string& name) { Depart(name, false); }
  // Hard failure: the running attempt dies with the worker too, and its
  // partially-executed work is lost (re-executed from scratch on retry —
  // at-least-once semantics).
  void CrashWorker(const std::string& name) { Depart(name, true); }
  std::size_t worker_count() const { return worker_count_; }
  std::vector<std::string> WorkerNames() const;
  // Scale-in victim selection: the worker with the fewest queued requests.
  // Ties resolve by smallest InstanceId — the order workers first joined
  // this platform, which is identical across rebuilds and shard counts,
  // unlike name order or container iteration order. Removing the shallowest
  // queue strands the fewest in-flight attempts. Empty string when there
  // are no workers.
  std::string DrainCandidateWorker() const;

  // Submits an invocation; `on_complete` fires (via the simulator) when its
  // outputs are stored. Returns the invocation id, or nullopt without
  // consuming an id if no live worker takes the first attempt.
  std::optional<std::uint64_t> Invoke(InvocationSpec spec,
                                      CompletionCallback on_complete);

  // Attaches the scale-out routing tier (src/router): from now on every
  // attempt is placed by `route` instead of the platform's own load
  // balancer, and `hop` (the extra network hop through the tier) is charged
  // to each attempt's dispatch phase. At most one router; an empty `route`
  // detaches. Same lifetime contract as the membership listener.
  void set_router(RouteFn route, SimTime hop = SimTime()) {
    router_ = std::move(route);
    router_hop_ = router_ != nullptr ? hop : SimTime();
  }

  // Authoritative membership tests for external routers (a stale router
  // view may point at a worker the cluster no longer runs).
  bool HasWorkerId(InstanceId id) const { return WorkerAt(id) != nullptr; }
  bool HasWorker(const std::string& name) const;

  // At most one listener; replaces any previous one (empty = detach). The
  // listener must outlive the platform or detach before dying.
  void set_membership_listener(MembershipListener listener) {
    membership_listener_ = std::move(listener);
  }

  // Plan+apply (docs/PLANNER.md): applies a re-balancer plan to the load
  // balancer AND charges each move's migration cost — the moved color's
  // cached objects leave the source shard immediately, their bytes cross
  // the network, and they land in the destination shard only when the
  // transfer completes (routed traffic arriving before then takes cold-ish
  // misses on the new instance). Split colors migrate nothing: non-primary
  // members warm organically, which is the locality-diffusion cost.
  void ApplyPlan(const Plan& plan);

  // Fired after a plan has been applied locally (the router tier replays
  // plans to its replica LB views through this). Same lifetime contract as
  // the membership listener.
  using PlanListener = std::function<void(const Plan&)>;
  void set_plan_listener(PlanListener listener) {
    plan_listener_ = std::move(listener);
  }

  double last_plan_objective() const { return last_plan_objective_; }

  // Sharded-engine seam (docs/PERF.md, "Parallel engine"): when attached,
  // completions of invocations whose spec carries an origin_domain other
  // than config().domain are delivered through `scheduler` to that domain,
  // `return_hop` later — the trip back across the fabric. `scheduler` must
  // outlive the platform; null detaches (completions run inline again).
  void set_cross_scheduler(EventScheduler* scheduler, SimTime return_hop) {
    cross_scheduler_ = scheduler;
    cross_return_hop_ = return_hop;
  }

  // §5.1 name translation: rewrites a color hash-key prefix to the instance
  // that color maps to. DAG executors call this on input/output names
  // before submitting.
  std::string TranslateObjectName(const std::string& name) {
    return lb_.TranslateObjectName(name);
  }

  // Seeds an object into backing storage only (size bookkeeping). Objects
  // read but never produced in this run come from storage.
  void SeedStorageObject(const std::string& name, Bytes size);

  // The table that assigned this platform's instance ids (AddWorker).
  const InstanceTable& instance_table() const { return instances_; }
  PaletteLoadBalancer& load_balancer() { return lb_; }
  const PaletteLoadBalancer& load_balancer() const { return lb_; }
  FaastCache& cache() { return cache_; }
  // The stateful storage tier, or null when config().storage is disabled.
  StorageLayer* storage_layer() { return storage_.get(); }
  const StorageLayer* storage_layer() const { return storage_.get(); }
  Network& network() { return network_; }
  Simulator& simulator() { return *sim_; }
  const PlatformConfig& config() const { return config_; }

  // Books and activity counters (the BooksClose() identity holds once the
  // simulator drains).
  const PlatformCounters& counters() const { return counters_; }
  // Busy CPU time per worker (utilization and stragglers).
  std::unordered_map<std::string, SimTime> WorkerBusyTime() const;

  // Observability (docs/OBSERVABILITY.md). Both hooks default to off and
  // the attached object must outlive the platform; when off, every
  // instrumentation point is a single pointer test (no allocation, no
  // formatting) so production/bench hot paths are unaffected.
  void set_trace_recorder(TraceRecorder* recorder) {
    trace_ = recorder;
    if (storage_ != nullptr) {
      storage_->set_trace_recorder(recorder);
    }
  }
  void set_metrics(MetricsRegistry* metrics);
  TraceRecorder* trace_recorder() const { return trace_; }

  // Requests waiting in a worker's FIFO (excludes the one running). Zero
  // for unknown workers; returns to zero once the platform drains.
  std::size_t WorkerQueueDepth(const std::string& name) const;
  // Cold starts a worker has paid (0 or 1 under the current model: a
  // worker warms on first dispatch and never cools).
  std::uint64_t WorkerColdStarts(const std::string& name) const;

  // Attempts currently waiting in pending color queues (all colors).
  // Returns to zero once the platform drains.
  std::size_t PendingTotal() const { return pending_total_; }

  // Snapshots platform + LB + cache + network counters into `metrics`
  // (counter/gauge names in docs/OBSERVABILITY.md). Call after a run; the
  // live per-invocation histograms come from set_metrics instead.
  // `per_worker` controls the worker.* / cache.shard.* / net.<w>.* families,
  // whose cardinality (and string formatting) scales with the cluster: the
  // telemetry sampler's per-mark refresh passes false — it only tracks
  // cluster-level families — keeping the sampling hot path cheap.
  void ExportMetrics(MetricsRegistry* metrics, bool per_worker = true) const {
    MetricWriter out(metrics);
    ExportMetrics(&out, per_worker);
  }
  // The same export through `out`, whose slots a telemetry session keeps
  // bound across marks (MetricWriter): with per_worker false every name is
  // a literal, so a bound pass formats, hashes and allocates nothing.
  void ExportMetrics(MetricWriter* out, bool per_worker = true) const;

 private:
  // Attempt slab (docs/FAULTS.md). Each Invoke takes one Invocation record
  // and each try of it one Attempt record; both are recycled through free
  // lists, so a steady-state invocation allocates nothing here. Events,
  // worker FIFOs, Worker::running and the pending queues name an attempt by
  // an AttemptHandle. Simulator events cannot be cancelled, so a failed
  // attempt is tombstoned instead: freeing its record bumps the record's
  // generation, every handle still naming it reads as cancelled (Live
  // returns null), and its already-scheduled events no-op when they fire —
  // even after the record is reused, so stale events can never resurrect
  // failed work.
  struct AttemptHandle {
    std::uint32_t index = 0;
    std::uint32_t generation = 0;
    bool operator==(const AttemptHandle&) const = default;
  };
  struct Invocation {
    InvocationSpec spec;
    InvocationResult result;  // shared by every attempt of the invocation
    CompletionCallback on_complete;
  };
  struct Attempt {
    std::uint32_t invocation = 0;  // index into invocations_
    std::uint32_t generation = 0;  // bumped when the record is freed
    int number = 1;                          // 1-based try index
    InstanceId worker = kInvalidInstanceId;  // where this try was routed
    bool running = false;    // popped from the FIFO, occupying the CPU
    bool committed = false;  // compute finished; deadline no longer applies
    bool in_pending = false;  // waiting in a pending color queue (pull)
    bool stolen = false;      // current claim holds a steal-budget slot
    // Age stamp for pull claims: assigned on first pending enqueue and
    // kept across claim-bounce requeues, so home-class claims can serve
    // oldest-first across a worker's colors (no per-color starvation).
    std::uint64_t pending_seq = 0;
    // Pull: the color's slot in color_slots_, interned on first pending
    // enqueue and copied to retries. 0 until then, and for uncolored work.
    std::uint32_t color_slot = 0;
  };
  // A fresh record for try `number` of `invocation`.
  AttemptHandle NewAttempt(std::uint32_t invocation, int number,
                           std::uint32_t color_slot);
  // The attempt `handle` names, or null once it has failed or finished.
  // Records move when the slab grows: never hold the pointer across a call
  // that may start an attempt.
  Attempt* Live(AttemptHandle handle) {
    Attempt& attempt = attempts_[handle.index];
    return attempt.generation == handle.generation ? &attempt : nullptr;
  }
  void FreeAttempt(AttemptHandle handle) {
    ++attempts_[handle.index].generation;
    free_attempts_.push_back(handle.index);
  }

  // End of a MatchPending color chain.
  static constexpr std::uint32_t kNoMatchColor = UINT32_MAX;
  // A worker is a single-vCPU application instance: it serves one
  // invocation at a time from a FIFO queue and *blocks* while fetching that
  // invocation's inputs (no async communication thread, unlike serverful
  // Dask workers).
  struct Worker {
    Worker(Simulator* sim, double speed_factor, std::string worker_name,
           std::uint64_t joined)
        : cpu(sim),
          speed(speed_factor),
          name(std::move(worker_name)),
          incarnation(joined) {}
    FifoResource cpu;  // busy-time accounting
    double speed;      // CPU rate multiplier
    std::string name;  // dispatch and fetch read it here, not in the table
    // Which join of its name this record is: a claim handoff bound to an
    // earlier incarnation must not land on this one.
    std::uint64_t incarnation;
    std::deque<AttemptHandle> queue;
    std::optional<AttemptHandle> running;  // attempt occupying the CPU
    bool busy = false;
    bool warm = false;
    // Pull: a claim handoff bound while this worker was idle is in flight
    // toward its FIFO, so the worker must not turn idle yet.
    bool claiming = false;
    // Pull: in the idle pool (not busy, not claiming, FIFO empty), so the
    // matcher may hand it work. idle_count_ counts these.
    bool idle = false;
    // MatchPending scratch: the first pending color homed on this idle
    // worker, chained through MatchColor::next; kNoMatchColor outside a
    // match.
    std::uint32_t home_chain = kNoMatchColor;
    std::uint64_t cold_starts = 0;
  };

  // The worker with id `id` (or named `name`), or null when none of this
  // platform's workers has it (never joined, or departed).
  Worker* WorkerAt(InstanceId id) const {
    return id < workers_.size() ? workers_[id].get() : nullptr;
  }
  Worker* WorkerNamed(std::string_view name) const {
    const auto id = instances_.Find(name);
    return id.has_value() ? WorkerAt(*id) : nullptr;
  }

  // The placement for attempt `number` of invocation `id`: the attached
  // router's, else the load balancer's. nullopt when neither sees a live
  // instance. Invoke (first attempt) and Resubmit (retries) both route here.
  std::optional<RoutedTarget> Route(const std::optional<Color>& color,
                                    std::uint64_t id, int number);
  // Sends a routed attempt on its dispatch path; a target the cluster no
  // longer runs falls through to HandleFailure.
  void DispatchTo(AttemptHandle attempt, InstanceId target);
  // Warms `worker` on its first dispatch or claim and returns the cold
  // start the attempt pays for it (zero once warm).
  SimTime ChargeColdStart(Worker& worker, InvocationResult& result);
  // Arms the attempt's deadline timer for absolute time `deadline`.
  void ArmDeadline(AttemptHandle attempt, SimTime deadline);
  // Deadline timer callback: cancels the attempt (refunding unexecuted CPU
  // time if it was mid-run) and hands it to HandleFailure.
  void OnDeadline(AttemptHandle attempt);
  // Failure funnel: frees the attempt's steal slot and its record, then
  // retries the invocation (new Attempt after backoff) or closes its books
  // as dropped/abandoned, freeing the invocation. A no-op on a stale handle.
  void HandleFailure(AttemptHandle attempt, FailureReason reason);
  // A worker leaves the cluster (RemoveWorker, CrashWorker): membership
  // first, then its running attempt fails if `crashed`, then its unstarted
  // work goes through Requeue.
  void Depart(const std::string& name, bool crashed);
  // Unstarted work whose worker left: under pull, while workers remain, it
  // returns to the head of its color queue (no retry budget burned);
  // otherwise it fails over to HandleFailure. Returns true if requeued.
  bool Requeue(AttemptHandle attempt);
  // Starts try `number` of `invocation` (its color slot carried over from
  // the failed try) and routes it afresh through Route.
  void Resubmit(std::uint32_t invocation, int number, std::uint32_t color_slot);

  // Pops and executes the next queued invocation on `instance`, if any.
  void StartNextOnWorker(InstanceId instance);
  // The worker `instance` while `attempt` occupies its CPU, else null. A
  // gracefully removed worker finishes its running attempt after it left,
  // and its name may rejoin meanwhile as a new worker with its own queue:
  // the old attempt must never book or start work there.
  Worker* OccupiedBy(AttemptHandle attempt, InstanceId instance);

  // Pull-dispatch machinery (docs/DISPATCH.md). No claim or retry depends
  // on the order of pending_: ties break on InstanceIds, age stamps and
  // color names, so runs stay bit-deterministic at every shard count.
  bool pull_enabled() const {
    return config_.dispatch_mode == FaasDispatchMode::kPull;
  }
  // One pulled color: its pending queue and its cached home.
  struct ColorSlot;
  // The slot of `spec`'s color, interned on first sight; 0 when uncolored.
  std::uint32_t ColorSlotOf(const InvocationSpec& spec);
  void EnqueuePending(AttemptHandle attempt, bool front);
  // Drops `attempt` from the queue of color slot `slot`.
  void RemoveFromPending(AttemptHandle attempt, std::uint32_t slot);
  // Takes a drained slot out of pending_ and returns its queue to the pool.
  void RetireQueue(std::uint32_t slot);
  // The worker a color's runs should land on: the load balancer's placed
  // instance when a placement exists (where the color's runs, and cached
  // bytes, have been landing), else the cache ring's home shard (always
  // defined while workers exist; the rule when routing runs in a fronting
  // tier and the platform LB never placed the color). The two are never
  // OR'd: treating both as home splits a placed color's working set
  // across two caches. nullopt when neither exists, and always for
  // uncolored work. The matcher's claim classes decide by this one rule.
  // The answer is cached in the slot and re-resolved only when `version`
  // (the load balancer's placement_version()) has moved since.
  const std::optional<InstanceId>& HomeOf(ColorSlot& slot,
                                          std::uint64_t version);
  // Matches the idle workers against the pending queues in one pass, in
  // ascending InstanceId order. Each pending color's home is looked up once
  // per call (HomeOf); a worker then claims the oldest head among its home
  // colors, else among unowned work, else (budget permitting) steals a
  // foreign color. A worker that finds nothing could find nothing later in the
  // same call either (claims only remove work and fill steal slots), so
  // one pass reaches the fixed point. When the call starts with no unowned
  // work and no steal possible, only the idle homes of pending colors can
  // claim, so only they are visited. Order and tie-breaks:
  // docs/DISPATCH.md, "How a worker claims".
  void MatchPending();
  // Pops the head of `queue` and hands it to `instance`; the claim
  // handoff (and any cold start) lands pull_claim_latency later.
  void ClaimFrom(std::deque<AttemptHandle>* queue, InstanceId instance,
                 bool steal);
  // Claim-handoff arrival: the attempt joins the claimer's FIFO — or, if
  // that claimer died mid-handoff (its slot is empty, or holds a later
  // incarnation that rejoined under its name), goes through Requeue.
  void OnClaimArrive(AttemptHandle attempt, InstanceId instance,
                     std::uint64_t incarnation);
  // Marks `instance` idle iff it is genuinely idle, then matches. No-op in
  // push mode.
  void MaybeIdle(InstanceId instance);
  void ReleaseStealSlot(Attempt& attempt);
  // The last worker left: everything pending fails over to the retry
  // layer (books must still close when membership hits zero).
  void FailAllPending();

  // Frees a finished invocation and fires its completion callback — inline,
  // or shipped with its own copy of the result to the spec's origin domain
  // when a cross-domain scheduler is attached.
  void DeliverCompletion(std::uint32_t invocation);

  // The live instances a write to `key`'s color must synchronously land on
  // beyond its home: the LB's split-table members plus the policy's write
  // replica set (Replicated Colors). Empty for single-instance colors —
  // the paper's coherence-free case. Only consulted when storage_ is on.
  std::vector<InstanceId> WriteReplicasFor(std::string_view key) const;

  void NotifyMembership(MembershipEvent event, const std::string& worker,
                        InstanceId id) {
    if (membership_listener_) {
      membership_listener_(event, worker, id);
    }
  }

  Simulator* sim_;
  PlatformConfig config_;
  // Assigns this platform's instance ids (AddWorker) and names them.
  InstanceTable instances_;
  Network network_;
  FaastCache cache_;
  // Stateful storage tier; null when config_.storage is disabled, and
  // every hook below is a single pointer test in that case.
  std::unique_ptr<StorageLayer> storage_;
  PaletteLoadBalancer lb_;
  // Indexed by id (WorkerAt); null slots are ids with no worker here. Ids
  // are never recycled, so a worker that leaves and rejoins under its name
  // gets a fresh record in its old slot. Platform continuations capture the
  // 4-byte id (not a worker-name string), keeping them inside the
  // simulator's inline event-callback buffer.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t worker_count_ = 0;  // non-null slots of workers_
  std::size_t idle_count_ = 0;    // workers with `idle` set
  // The attempt slab and its free lists (indices of freed records). Never
  // pre-reserved: it grows to the peak of attempts in flight.
  std::vector<Invocation> invocations_;
  std::vector<std::uint32_t> free_invocations_;
  std::vector<Attempt> attempts_;
  std::vector<std::uint32_t> free_attempts_;
  // Pull state. A color pulled for the first time interns a dense slot
  // (slot 0 holds uncolored work); push never interns. Slots are never
  // recycled, like InstanceIds, so memory is one small record per distinct
  // color ever pulled. While a color has work waiting its slot sits in
  // pending_ and borrows a queue from queue_pool_, which takes the queue
  // back (allocation and all) once it drains.
  struct ColorSlot {
    std::string name;  // the color; empty for slot 0
    std::unique_ptr<std::deque<AttemptHandle>> queue;  // null while drained
    std::uint32_t pending_index = 0;  // position in pending_ while queued
    // HomeOf's answer, valid while home_version is the load balancer's
    // placement_version().
    std::optional<InstanceId> home;
    std::uint64_t home_version = UINT64_MAX;  // never resolved
  };
  std::vector<ColorSlot> color_slots_;
  std::unordered_map<std::string, std::uint32_t> color_slot_ids_;
  std::vector<std::uint32_t> pending_;  // slots with work waiting, unordered
  std::vector<std::unique_ptr<std::deque<AttemptHandle>>> queue_pool_;
  std::size_t pending_total_ = 0;
  std::uint64_t next_pending_seq_ = 1;  // age stamps for oldest-first claims
  // MatchPending scratch, kept across calls so a match allocates nothing
  // once the buffers have grown. One entry per pending color, with its home
  // resolved for the length of the call; colors with the same idle home
  // (Worker::home_chain) or none are chained through `next`.
  struct MatchColor {
    std::deque<AttemptHandle>* queue;  // null once drained this call
    std::optional<InstanceId> home;  // nullopt: unowned
    std::uint32_t slot;              // index into color_slots_
    std::uint32_t next;              // next color in the same chain
  };
  std::vector<MatchColor> match_colors_;
  // The idle workers whose home_chain this call set, each once.
  std::vector<InstanceId> match_homes_;
  int steals_in_flight_ = 0;
  std::unordered_map<std::string, Bytes> storage_objects_;
  std::string worker_prefix_ = "w";
  std::uint64_t next_id_ = 1;
  PlatformCounters counters_;
  int next_worker_index_ = 0;
  std::uint64_t worker_joins_ = 0;  // numbers Worker::incarnation
  // Jitter stream for retry backoff; seeded from the platform seed so runs
  // stay bit-reproducible.
  Rng retry_rng_;
  MembershipListener membership_listener_;
  PlanListener plan_listener_;
  // Attached routing tier (set_router); null = the platform LB routes.
  RouteFn router_;
  SimTime router_hop_;
  double last_plan_objective_ = 0;
  // Sharded-engine seam; null = monolithic (completions run inline).
  EventScheduler* cross_scheduler_ = nullptr;
  SimTime cross_return_hop_;

  // Observability hooks; null = off. Per-invocation metrics are resolved
  // once in set_metrics so the hot path bumps plain integers.
  TraceRecorder* trace_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  Counter* m_invocations_ = nullptr;
  Counter* m_cold_starts_ = nullptr;
  LatencyHistogram* m_e2e_ns_ = nullptr;
  LatencyHistogram* m_route_ns_ = nullptr;
  LatencyHistogram* m_queue_ns_ = nullptr;
  LatencyHistogram* m_fetch_ns_ = nullptr;
  LatencyHistogram* m_compute_ns_ = nullptr;
  LatencyHistogram* m_store_ns_ = nullptr;
};

}  // namespace palette

#endif  // PALETTE_SRC_FAAS_PLATFORM_H_
