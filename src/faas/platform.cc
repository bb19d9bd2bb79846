#include "src/faas/platform.h"

#include <algorithm>
#include <cassert>

#include "src/common/table_printer.h"

namespace palette {

std::string_view FaasDispatchModeId(FaasDispatchMode mode) {
  switch (mode) {
    case FaasDispatchMode::kPush:
      return "push";
    case FaasDispatchMode::kPull:
      return "pull";
    case FaasDispatchMode::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

bool ParseFaasDispatchMode(std::string_view id, FaasDispatchMode* out) {
  if (id == "push") {
    *out = FaasDispatchMode::kPush;
    return true;
  }
  if (id == "pull") {
    *out = FaasDispatchMode::kPull;
    return true;
  }
  if (id == "hybrid") {
    *out = FaasDispatchMode::kHybrid;
    return true;
  }
  return false;
}

PlatformCounters& PlatformCounters::operator+=(const PlatformCounters& other) {
  submitted += other.submitted;
  completed += other.completed;
  dropped += other.dropped;
  abandoned += other.abandoned;
  retries += other.retries;
  timeouts += other.timeouts;
  cold_starts += other.cold_starts;
  pulls += other.pulls;
  steals += other.steals;
  steal_bytes += other.steal_bytes;
  planner_rounds += other.planner_rounds;
  planner_moved_bytes += other.planner_moved_bytes;
  return *this;
}

FaasPlatform::FaasPlatform(Simulator* sim, PolicyKind policy,
                           std::uint64_t seed, PlatformConfig config,
                           Network* shared_network)
    : sim_(sim),
      config_(config),
      owned_network_(shared_network == nullptr
                         ? std::make_unique<Network>(sim, config.network)
                         : nullptr),
      network_ptr_(shared_network != nullptr ? shared_network
                                             : owned_network_.get()),
      cache_(config.cache),
      lb_(MakePolicy(policy, seed)),
      retry_rng_(seed ^ 0x5EEDBACC0FFULL) {
  if (!network_ptr_->HasNode(kStorageNode)) {
    network_ptr_->AddNode(kStorageNode);
  }
  if (config_.storage.enabled()) {
    storage_ = std::make_unique<StorageLayer>(sim_, network_ptr_, &cache_,
                                              config_.storage, kStorageNode);
  }
}

void FaasPlatform::AddWorker(const std::string& name, double speed) {
  const InstanceId id = InternInstance(name);
  if (workers_.count(id) > 0) {
    return;
  }
  assert(speed > 0);
  workers_.emplace(id, std::make_unique<Worker>(sim_, speed));
  network_ptr_->AddNode(name);
  cache_.AddInstance(name);
  if (storage_ != nullptr) {
    storage_->OnInstanceJoin(name);
  }
  lb_.AddInstance(name);
  NotifyMembership(MembershipEvent::kAdded, name);
  // A fresh worker is idle; in pull mode it can drain a backlog at once.
  MaybeIdle(id);
}

void FaasPlatform::AddWorkers(int count) {
  for (int i = 0; i < count; ++i) {
    AddWorker(StrFormat("%s%d", worker_prefix_.c_str(), next_worker_index_++));
  }
}

void FaasPlatform::RemoveWorker(const std::string& name) {
  const auto id = InstanceRegistry::Global().Find(name);
  if (!id.has_value()) {
    return;
  }
  const auto it = workers_.find(*id);
  if (it == workers_.end()) {
    return;
  }
  // Graceful drain: the running attempt (if any) already left the queue
  // and still completes; attempts waiting in the FIFO fail — except under
  // pull/hybrid dispatch, where claimed-but-unstarted work was never bound
  // for good and returns to the head of its color queue instead (no retry
  // budget burned). Membership is updated first so the policy re-colors
  // before any retry re-routes.
  std::deque<AttemptPtr> orphans = std::move(it->second->queue);
  workers_.erase(it);
  idle_workers_.erase(*id);
  if (storage_ != nullptr) {
    // Graceful leave: dirty write-back data flushes before the shard is
    // reclaimed (must run while the cache shard still exists).
    storage_->OnInstanceLeave(name, /*crashed=*/false);
  }
  cache_.RemoveInstance(name);
  lb_.RemoveInstance(name);
  NotifyMembership(MembershipEvent::kRemoved, name);
  if (pull_enabled() && !workers_.empty()) {
    for (auto rit = orphans.rbegin(); rit != orphans.rend(); ++rit) {
      ReleaseStealSlot(*rit);
      if (!(*rit)->cancelled) {
        EnqueuePending(*rit, /*front=*/true);
      }
    }
    MatchPending();
  } else {
    for (const AttemptPtr& attempt : orphans) {
      ReleaseStealSlot(attempt);
      HandleFailure(attempt, FailureReason::kWorkerLost);
    }
  }
  if (workers_.empty()) {
    FailAllPending();
  }
}

void FaasPlatform::CrashWorker(const std::string& name) {
  const auto id = InstanceRegistry::Global().Find(name);
  if (!id.has_value()) {
    return;
  }
  const auto it = workers_.find(*id);
  if (it == workers_.end()) {
    return;
  }
  // Hard failure: the running attempt dies too — its partial work is lost
  // and a retry re-executes from scratch (at-least-once). The instance's
  // cached objects vanish with its shard. Under pull/hybrid dispatch the
  // crashed worker's claimed-but-unstarted FIFO entries were never started,
  // so they return to the head of their color queues (books still close;
  // no retry budget burned), while the running attempt fails as usual.
  std::deque<AttemptPtr> orphans = std::move(it->second->queue);
  AttemptPtr running = std::move(it->second->running);
  workers_.erase(it);
  idle_workers_.erase(*id);
  if (storage_ != nullptr) {
    // Hard failure: dirty write-back data dies with the shard — bounded
    // loss, surfaced in the storage books.
    storage_->OnInstanceLeave(name, /*crashed=*/true);
  }
  cache_.RemoveInstance(name);
  lb_.RemoveInstance(name);
  NotifyMembership(MembershipEvent::kRemoved, name);
  if (running != nullptr) {
    ReleaseStealSlot(running);
    HandleFailure(running, FailureReason::kWorkerLost);
  }
  if (pull_enabled() && !workers_.empty()) {
    for (auto rit = orphans.rbegin(); rit != orphans.rend(); ++rit) {
      ReleaseStealSlot(*rit);
      if (!(*rit)->cancelled) {
        EnqueuePending(*rit, /*front=*/true);
      }
    }
    MatchPending();
  } else {
    for (const AttemptPtr& attempt : orphans) {
      ReleaseStealSlot(attempt);
      HandleFailure(attempt, FailureReason::kWorkerLost);
    }
  }
  if (workers_.empty()) {
    FailAllPending();
  }
}

bool FaasPlatform::HasWorker(const std::string& name) const {
  const auto id = InstanceRegistry::Global().Find(name);
  return id.has_value() && workers_.count(*id) > 0;
}

std::vector<std::string> FaasPlatform::WorkerNames() const {
  std::vector<std::string> names;
  names.reserve(workers_.size());
  for (const auto& [id, _] : workers_) {
    names.push_back(InstanceName(id));
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string FaasPlatform::DrainCandidateWorker() const {
  // Minimum over (depth, InstanceId): order-independent, so the victim is
  // stable no matter how workers_ happens to iterate. Ids intern in join
  // order, which is identical across rebuilds and shard counts — name
  // order is not ("w10" sorts before "w2").
  InstanceId best = kInvalidInstanceId;
  std::size_t best_depth = 0;
  for (const auto& [id, worker] : workers_) {
    const std::size_t depth = worker->queue.size();
    if (best == kInvalidInstanceId || depth < best_depth ||
        (depth == best_depth && id < best)) {
      best = id;
      best_depth = depth;
    }
  }
  return best == kInvalidInstanceId ? std::string() : InstanceName(best);
}

void FaasPlatform::SeedStorageObject(const std::string& name, Bytes size) {
  storage_objects_[name] = size;
  if (storage_ != nullptr) {
    storage_->Seed(name, size);
  }
}

std::optional<std::uint64_t> FaasPlatform::Invoke(
    InvocationSpec spec, CompletionCallback on_complete) {
  const auto instance = lb_.RouteId(spec.color);
  if (!instance.has_value()) {
    return std::nullopt;
  }
  const std::uint64_t id = next_id_++;
  ++counters_.submitted;
  auto result = std::make_shared<InvocationResult>();
  result->id = id;
  result->submitted = sim_->Now();

  auto attempt = std::make_shared<Attempt>();
  attempt->spec = std::make_shared<InvocationSpec>(std::move(spec));
  attempt->result = std::move(result);
  attempt->on_complete = std::move(on_complete);
  DispatchTo(attempt, *instance);
  return id;
}

std::optional<std::uint64_t> FaasPlatform::InvokeVia(
    InvocationSpec spec, RouteFn route, CompletionCallback on_complete,
    SimTime route_hop) {
  // Peek the id before routing so the tier can trace the hop against it;
  // it is only consumed once the first attempt routes successfully.
  const std::uint64_t id = next_id_;
  const auto target = route(spec.color, id, /*attempt=*/1);
  if (!target.has_value() || workers_.count(target->instance) == 0) {
    return std::nullopt;
  }
  next_id_ = id + 1;
  ++counters_.submitted;
  auto result = std::make_shared<InvocationResult>();
  result->id = id;
  result->submitted = sim_->Now();
  result->router = target->router;

  auto attempt = std::make_shared<Attempt>();
  attempt->spec = std::make_shared<InvocationSpec>(std::move(spec));
  attempt->result = std::move(result);
  attempt->on_complete = std::move(on_complete);
  attempt->route = std::move(route);
  attempt->route_hop = route_hop;
  DispatchTo(attempt, target->instance);
  return id;
}

void FaasPlatform::DispatchTo(const AttemptPtr& attempt, InstanceId target) {
  attempt->worker = target;
  InvocationResult& result = *attempt->result;
  result.instance = InstanceName(target);
  result.attempts = attempt->number;
  result.cold_start = SimTime();

  const auto worker_it = workers_.find(target);
  if (worker_it == workers_.end()) {
    // An external route function pointed at a worker the cluster no longer
    // runs (the platform's own LB never does this). Fail the attempt; the
    // retry layer re-routes it through the route function afresh.
    HandleFailure(attempt, FailureReason::kWorkerLost);
    return;
  }
  if (attempt->route != nullptr && attempt->spec->color.has_value()) {
    // Externally routed (tier) traffic never touches lb_.RouteId, so the
    // platform-side planner's snapshots would see nothing. Teach the LB the
    // placement passively (no-op unless color stats are on).
    lb_.NoteExternalRoute(*attempt->spec->color, target);
  }
  if (config_.translate_object_names && attempt->number == 1) {
    // §5.1 name translation (see PlatformConfig): first attempt only, so
    // retries keep the names their caches already warmed under.
    for (ObjectRef& input : attempt->spec->inputs) {
      input.name = lb_.TranslateObjectName(input.name);
    }
    for (ObjectRef& output : attempt->spec->outputs) {
      output.name = lb_.TranslateObjectName(output.name);
    }
  }
  Worker& worker = *worker_it->second;

  const SimTime budget = attempt->spec->deadline > SimTime()
                             ? attempt->spec->deadline
                             : config_.default_deadline;
  if (budget > SimTime()) {
    attempt->deadline = SaturatingAdd(sim_->Now(), budget);
    ArmDeadline(attempt);
  }

  // Late binding (docs/DISPATCH.md): under pull — or under hybrid when the
  // routed binding is not a free win — the route is only a hint. The
  // attempt travels the dispatch path and joins its color's pending queue;
  // whichever worker claims it becomes the placement, and the cold start
  // (final worker unknown here) is charged at claim time instead.
  //
  // Hybrid honors the push binding only when it costs nothing: the routed
  // worker is idle right now AND the bind does not sacrifice locality —
  // the work is uncolored, or the routed worker is the color's home
  // (HomeOf: LB placement, else cache-ring shard). A locality-blind "push
  // when idle" would let a spraying router tier bind cold workers to
  // foreign colors at every load dip, spreading replicas fleet-wide.
  const bool hybrid_push_ok = [&]() {
    if (config_.dispatch_mode != FaasDispatchMode::kHybrid) {
      return false;
    }
    if (worker.busy || worker.claiming || !worker.queue.empty()) {
      return false;
    }
    const std::string& key = PendingKeyOf(*attempt->spec);
    if (key.empty()) {
      return true;  // uncolored: any idle worker is as good as any other
    }
    return HomeOf(key) == target;
  }();
  const bool bind_now =
      config_.dispatch_mode == FaasDispatchMode::kPush || hybrid_push_ok;
  if (!bind_now) {
    const SimTime enqueue_at =
        sim_->Now() + config_.dispatch_latency + attempt->route_hop;
    // `dispatched` marks arrival at the pending queue, so time spent
    // waiting for a claim lands in the queue span and the five trace spans
    // still partition [submitted, completed] exactly.
    result.dispatched = enqueue_at;
    sim_->At(enqueue_at, [this, attempt]() {
      if (attempt->cancelled) {
        return;  // deadline expired while in dispatch flight
      }
      if (workers_.empty()) {
        HandleFailure(attempt, FailureReason::kWorkerLost);
        return;
      }
      EnqueuePending(attempt, /*front=*/false);
      MatchPending();
    });
    return;
  }

  SimTime dispatch_done =
      sim_->Now() + config_.dispatch_latency + attempt->route_hop;
  if (!worker.warm) {
    worker.warm = true;
    ++worker.cold_starts;
    ++counters_.cold_starts;
    if (metrics_ != nullptr) {
      m_cold_starts_->Increment();
    }
    dispatch_done += config_.cold_start;
    result.cold_start = config_.cold_start;
  }
  result.dispatched = dispatch_done;
  if (pull_enabled()) {
    // Hybrid push to an idle worker: keep it out of the idle set while the
    // request is in flight toward its FIFO, so the matcher cannot claim it
    // for other work in the window.
    idle_workers_.erase(target);
    worker.claiming = true;
  }

  sim_->At(dispatch_done, [this, attempt, target]() {
    // The request arrives at the instance and joins its FIFO run queue.
    auto it = workers_.find(target);
    if (it != workers_.end()) {
      it->second->claiming = false;
    }
    if (attempt->cancelled) {
      // Deadline expired while in dispatch flight; in hybrid mode the
      // worker reserved for it goes back to the idle pool.
      MaybeIdle(target);
      return;
    }
    if (it == workers_.end()) {
      // Worker removed while the request was in flight. Under pull/hybrid
      // the request was never hard-bound: re-enter the pending queues if
      // the cluster still has workers.
      if (pull_enabled() && !workers_.empty()) {
        EnqueuePending(attempt, /*front=*/false);
        MatchPending();
        return;
      }
      HandleFailure(attempt, FailureReason::kWorkerLost);
      return;
    }
    it->second->queue.push_back(attempt);
    if (!it->second->busy) {
      StartNextOnWorker(target);
    }
  });
}

void FaasPlatform::ArmDeadline(const AttemptPtr& attempt) {
  sim_->At(attempt->deadline, [this, attempt]() { OnDeadline(attempt); });
}

void FaasPlatform::OnDeadline(const AttemptPtr& attempt) {
  if (attempt->cancelled || attempt->committed) {
    return;  // already failed another way, or past the point of no return
  }
  ++counters_.timeouts;
  if (metrics_ != nullptr) {
    m_timeouts_->Increment();
  }
  const InstanceId target = attempt->worker;
  const bool was_running = attempt->running;
  HandleFailure(attempt, FailureReason::kTimeout);
  ReleaseStealSlot(attempt);
  if (attempt->in_pending) {
    // Expired while waiting in a pending color queue: drop it there so the
    // per-color depth gauges don't count a dead entry.
    RemoveFromPending(attempt);
    return;
  }
  const auto it = workers_.find(target);
  if (it == workers_.end()) {
    return;
  }
  Worker& worker = *it->second;
  if (was_running && worker.running == attempt) {
    // Cancel on the worker: return the unexecuted tail of the CPU booking
    // so the next queued request starts now instead of after the ghost of
    // the cancelled compute.
    const SimTime remaining = attempt->result->compute_done - sim_->Now();
    if (remaining > SimTime()) {
      worker.cpu.Refund(remaining);
    }
    worker.running.reset();
    StartNextOnWorker(target);
  } else {
    // Still waiting in the FIFO: drop it from the queue so depth gauges
    // don't count a dead entry.
    auto& queue = worker.queue;
    queue.erase(std::remove(queue.begin(), queue.end(), attempt),
                queue.end());
  }
}

void FaasPlatform::HandleFailure(const AttemptPtr& attempt,
                                 FailureReason reason) {
  if (attempt->cancelled) {
    return;  // this attempt's failure is already being handled
  }
  attempt->cancelled = true;
  const RetryPolicy& retry = config_.retry;
  if (retry.enabled() && attempt->number < retry.max_attempts) {
    ++counters_.retries;
    if (metrics_ != nullptr) {
      m_retries_->Increment();
    }
    const SimTime backoff = retry.BackoffFor(attempt->number, retry_rng_);
    // Saturate like Simulator::After: extreme multiplier/max_backoff
    // configs must clamp to the far future, not wrap negative.
    const SimTime resubmit_at = SaturatingAdd(sim_->Now(), backoff);
    if (trace_ != nullptr) {
      trace_->RecordRetry(RetryTrace{
          attempt->result->id, attempt->number,
          attempt->worker != kInvalidInstanceId ? InstanceName(attempt->worker)
                                                : std::string(),
          reason == FailureReason::kTimeout ? RetryReason::kTimeout
                                            : RetryReason::kWorkerLost,
          sim_->Now(), resubmit_at});
    }
    sim_->At(resubmit_at, [this, attempt]() { Resubmit(attempt); });
    return;
  }
  if (retry.enabled()) {
    ++counters_.abandoned;
    if (metrics_ != nullptr) {
      m_abandoned_->Increment();
    }
  } else {
    ++counters_.dropped;
    if (metrics_ != nullptr) {
      m_dropped_->Increment();
    }
  }
}

void FaasPlatform::Resubmit(const AttemptPtr& failed) {
  // A brand-new Attempt: events still pending against the failed one see
  // its tombstone and no-op, so they can never resurrect it.
  auto next = std::make_shared<Attempt>();
  next->spec = failed->spec;
  next->result = failed->result;
  next->on_complete = std::move(failed->on_complete);
  next->route = std::move(failed->route);
  next->route_hop = failed->route_hop;
  next->number = failed->number + 1;

  // Per-attempt result fields start over; `submitted` is kept so the
  // end-to-end latency spans the failed attempts and backoffs.
  InvocationResult& result = *next->result;
  result.attempts = next->number;
  result.local_hits = 0;
  result.remote_hits = 0;
  result.misses = 0;
  result.network_bytes = 0;

  // A fresh route: colors re-mapped by failure-aware re-coloring land on
  // the replacement instance, not the dead one. Tier-routed invocations go
  // back through the routing tier, so the router replica's own view (and
  // its per-view re-coloring) governs where the retry lands.
  std::optional<RoutedTarget> target;
  if (next->route) {
    target = next->route(next->spec->color, result.id, next->number);
  } else if (const auto instance = lb_.RouteId(next->spec->color)) {
    target = RoutedTarget{*instance, -1};
  }
  if (!target.has_value()) {
    // No instances at the moment; treat as another failed attempt (backs
    // off again, up to max_attempts).
    HandleFailure(next, FailureReason::kWorkerLost);
    return;
  }
  result.router = target->router;
  DispatchTo(next, target->instance);
}

void FaasPlatform::StartNextOnWorker(InstanceId instance) {
  auto worker_it = workers_.find(instance);
  if (worker_it == workers_.end()) {
    return;
  }
  Worker& worker = *worker_it->second;
  while (!worker.queue.empty() && worker.queue.front()->cancelled) {
    worker.queue.pop_front();
  }
  if (worker.queue.empty()) {
    worker.busy = false;
    worker.running.reset();
    // Pull/hybrid: the worker just went idle — claim pending work, if any.
    MaybeIdle(instance);
    return;
  }
  worker.busy = true;
  AttemptPtr attempt = std::move(worker.queue.front());
  worker.queue.pop_front();
  worker.running = attempt;
  attempt->running = true;
  const std::shared_ptr<InvocationSpec>& spec = attempt->spec;
  const std::shared_ptr<InvocationResult>& result = attempt->result;
  const std::string& instance_name = InstanceName(instance);
  result->fetch_start = sim_->Now();

  // Fetch inputs: the invocation blocks the worker for the duration.
  SimTime inputs_ready = sim_->Now();
  Bytes payload_bytes = 0;
  for (const ObjectRef& input : spec->inputs) {
    payload_bytes += input.size;
    const SimTime fetch_issued = sim_->Now();
    CacheLookup lookup = cache_.Get(instance_name, input.name);
    SimTime done;
    FetchSource source = FetchSource::kLocal;
    Bytes fetched_bytes = lookup.size;
    switch (lookup.outcome) {
      case CacheOutcome::kLocalHit:
        ++result->local_hits;
        done = network_ptr_->Transfer(instance_name, instance_name,
                                      lookup.size);
        if (storage_ != nullptr) {
          // Coherence check: a known-stale local copy is never served
          // silently — write-through/write-back re-fetch synchronously,
          // causal serves within the staleness bound only. Any forced
          // sync's bytes are the coherence traffic the bench measures.
          done = storage_->OnLocalRead(instance_name, input.name, done);
        }
        break;
      case CacheOutcome::kRemoteHit:
        ++result->remote_hits;
        result->network_bytes += lookup.size;
        source = FetchSource::kRemote;
        done = network_ptr_->Transfer(lookup.owner, instance_name,
                                      lookup.size);
        if (storage_ != nullptr && config_.cache.replicate_on_remote_hit) {
          // The cache just copied the object into the reader's shard; the
          // home serves the authoritative copy, so the new copy is fresh.
          storage_->NoteCopy(instance_name, input.name);
        }
        break;
      case CacheOutcome::kMiss: {
        ++result->misses;
        const auto it = storage_objects_.find(input.name);
        Bytes size = it != storage_objects_.end() ? it->second : input.size;
        if (storage_ != nullptr) {
          size = storage_->StoredSizeOf(input.name, size);
        }
        result->network_bytes += size;
        source = FetchSource::kStorage;
        fetched_bytes = size;
        done = storage_ != nullptr
                   ? storage_->ReadFromStore(instance_name, input.name, size)
                   : network_ptr_->Transfer(kStorageNode, instance_name,
                                            size);
        if (config_.cache_miss_fills) {
          cache_.PutLocal(instance_name, input.name, size);
          if (storage_ != nullptr) {
            storage_->NoteCopy(instance_name, input.name);
          }
        }
        break;
      }
    }
    if (trace_ != nullptr) {
      trace_->RecordFetch(FetchTrace{result->id, instance_name, input.name,
                                     source, fetched_bytes, fetch_issued,
                                     done});
    }
    if (done > inputs_ready) {
      inputs_ready = done;
    }
  }
  result->inputs_ready = inputs_ready;

  for (const ObjectRef& output : spec->outputs) {
    payload_bytes += output.size;
  }
  SimTime compute = ComputeDuration(
      spec->cpu_ops, config_.cpu_ops_per_second * worker.speed);
  if (config_.serialization_bytes_per_second > 0) {
    compute += TransferDuration(
        payload_bytes, config_.serialization_bytes_per_second * worker.speed);
  }

  // Occupy the worker from now (fetch start) through end of compute.
  const SimTime compute_done =
      worker.cpu.Acquire((inputs_ready - sim_->Now()) + compute);
  result->compute_done = compute_done;

  sim_->At(compute_done, [this, instance, attempt]() {
    if (attempt->cancelled) {
      return;  // timed out or crashed mid-run; the failure path took over
    }
    // Compute finished: the attempt is past its deadline's reach (only
    // output placement remains, which a timeout no longer interrupts).
    attempt->committed = true;
    const std::shared_ptr<InvocationSpec>& spec2 = attempt->spec;
    const std::shared_ptr<InvocationResult>& result2 = attempt->result;
    SimTime completed = sim_->Now();
    // Output placement: the invocation is not finished until its outputs
    // are stored at their home instances, and the single-threaded worker
    // blocks on the put. Under Palette's color translation the home is the
    // producing worker itself (a fast local store); under far-memory-style
    // naming the put crosses the network — the write-side cost oblivious
    // routing pays.
    for (const ObjectRef& output : spec2->outputs) {
      std::vector<std::string> replicas;
      if (storage_ != nullptr) {
        replicas = WriteReplicasFor(FaastCache::HashKeyOf(output.name));
      }
      const std::string home =
          replicas.empty()
              ? cache_.Put(result2->instance, output.name, output.size)
              : cache_.PutReplicated(result2->instance, output.name,
                                     output.size, replicas);
      SimTime done =
          network_ptr_->Transfer(result2->instance, home, output.size);
      if (storage_ != nullptr) {
        // Replicas beyond the home receive their synchronous copy from
        // the producer too; the slowest transfer gates the write.
        for (const std::string& replica : replicas) {
          if (replica == home || !cache_.HasInstance(replica)) {
            continue;
          }
          const SimTime copy_done = network_ptr_->Transfer(
              result2->instance, replica, output.size);
          if (copy_done > done) {
            done = copy_done;
          }
        }
        done = storage_->OnWrite(result2->instance, home, output.name,
                                 output.size, spec2->coherence, replicas,
                                 done);
      }
      if (done > completed) {
        completed = done;
      }
    }
    result2->completed = completed;
    if (trace_ != nullptr) {
      trace_->RecordInvocation(InvocationTrace{
          result2->id, spec2->function, result2->instance, spec2->color,
          result2->submitted, result2->dispatched, result2->fetch_start,
          result2->inputs_ready, result2->compute_done, result2->completed,
          result2->cold_start, result2->router});
    }
    if (metrics_ != nullptr) {
      m_invocations_->Increment();
      const auto ns = [](SimTime t) {
        return static_cast<std::uint64_t>(t.nanos() > 0 ? t.nanos() : 0);
      };
      m_e2e_ns_->Record(ns(result2->completed - result2->submitted));
      m_route_ns_->Record(ns(result2->dispatched - result2->submitted));
      m_queue_ns_->Record(ns(result2->fetch_start - result2->dispatched));
      m_fetch_ns_->Record(ns(result2->inputs_ready - result2->fetch_start));
      m_compute_ns_->Record(ns(result2->compute_done - result2->inputs_ready));
      m_store_ns_->Record(ns(result2->completed - result2->compute_done));
    }
    if (completed > sim_->Now()) {
      // Keep the worker occupied through the blocking put.
      auto occupied_it = workers_.find(instance);
      if (occupied_it != workers_.end()) {
        occupied_it->second->cpu.Acquire(completed - sim_->Now());
      }
    }
    sim_->At(completed, [this, instance, attempt]() {
      if (attempt->cancelled) {
        return;  // worker crashed during the store phase; being retried
      }
      ++counters_.completed;
      attempt->running = false;
      // A stolen run holds its steal-budget slot through completion, so
      // the budget caps concurrently *executing* stolen work, not just
      // claims in flight. Releasing it may unblock another idle worker.
      const bool was_stolen = attempt->stolen;
      ReleaseStealSlot(attempt);
      auto it = workers_.find(instance);
      if (it != workers_.end() && it->second->running == attempt) {
        it->second->running.reset();
      }
      if (attempt->on_complete) {
        DeliverCompletion(attempt);
      }
      StartNextOnWorker(instance);
      if (was_stolen) {
        MatchPending();
      }
    });
  });
}

const std::string& FaasPlatform::PendingKeyOf(const InvocationSpec& spec) {
  static const std::string kUncolored;
  return spec.color.has_value() ? *spec.color : kUncolored;
}

void FaasPlatform::EnqueuePending(const AttemptPtr& attempt, bool front) {
  std::deque<AttemptPtr>& queue = pending_[PendingKeyOf(*attempt->spec)];
  if (attempt->pending_seq == 0) {
    attempt->pending_seq = next_pending_seq_++;
  }
  if (front) {
    queue.push_front(attempt);
  } else {
    queue.push_back(attempt);
  }
  attempt->in_pending = true;
  ++pending_total_;
}

void FaasPlatform::RemoveFromPending(const AttemptPtr& attempt) {
  const auto it = pending_.find(PendingKeyOf(*attempt->spec));
  if (it == pending_.end()) {
    return;
  }
  std::deque<AttemptPtr>& queue = it->second;
  const auto pos = std::find(queue.begin(), queue.end(), attempt);
  if (pos == queue.end()) {
    return;
  }
  queue.erase(pos);
  --pending_total_;
  attempt->in_pending = false;
  if (queue.empty()) {
    pending_.erase(it);
  }
}

std::optional<InstanceId> FaasPlatform::HomeOf(
    const std::string& color) const {
  if (const auto placed = lb_.PeekColorId(color)) {
    return placed;
  }
  if (const auto ring_home = cache_.HomeInstance(color)) {
    return InternInstance(*ring_home);
  }
  return std::nullopt;
}

void FaasPlatform::MatchPending() {
  if (pending_total_ == 0 || idle_workers_.empty()) {
    return;
  }
  constexpr std::uint32_t kEnd = UINT32_MAX;
  // Drops cancelled attempts from the head of a queue; true once it is
  // empty.
  const auto drop_cancelled_heads = [this](std::deque<AttemptPtr>& queue) {
    while (!queue.empty() && queue.front()->cancelled) {
      queue.front()->in_pending = false;
      queue.pop_front();
      --pending_total_;
    }
    return queue.empty();
  };

  // Snapshot: a claim removes the claimer from the idle set mid-pass.
  match_idle_.assign(idle_workers_.begin(), idle_workers_.end());
  match_home_chain_.assign(match_idle_.size(), kEnd);
  match_colors_.clear();
  std::uint32_t unowned_chain = kEnd;
  // Live owned colors whose queue is deep enough to steal from. A worker
  // only tries to steal when none of its home colors has work left, so
  // for that worker every one of these is foreign.
  std::size_t stealable = 0;
  const std::size_t min_depth = config_.steal_min_depth;
  // One pass over pending_ resolves every color's home. Homes hold for the
  // whole call: a claim pops a queue and schedules the handoff, and never
  // re-routes, re-plans or changes membership.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (drop_cancelled_heads(it->second)) {
      it = pending_.erase(it);
      continue;
    }
    const auto index = static_cast<std::uint32_t>(match_colors_.size());
    MatchColor& color = match_colors_.emplace_back(
        MatchColor{it, std::nullopt, kEnd});
    std::uint32_t* chain = &unowned_chain;
    if (!it->first.empty()) {
      color.home = HomeOf(it->first);
    }
    if (color.home.has_value()) {
      if (it->second.size() >= min_depth) {
        ++stealable;
      }
      // Colors homed on a busy (or departed) worker are foreign to every
      // idle one and join no chain.
      const auto slot = std::lower_bound(match_idle_.begin(),
                                         match_idle_.end(), *color.home);
      chain = slot != match_idle_.end() && *slot == *color.home
                  ? &match_home_chain_[slot - match_idle_.begin()]
                  : nullptr;
    }
    if (chain != nullptr) {
      color.next = *chain;
      *chain = index;
    }
    ++it;
  }

  // Within the home and unowned classes the *oldest* waiting head wins
  // (pending_seq), i.e. FIFO across a worker's colors: depth-based
  // selection would let a quiet color's lone invocation starve behind
  // burstier siblings for hundreds of ms of tail.
  const auto oldest_head = [this](std::uint32_t chain) -> MatchColor* {
    MatchColor* oldest = nullptr;
    for (; chain != kEnd; chain = match_colors_[chain].next) {
      MatchColor& color = match_colors_[chain];
      if (color.queue == pending_.end()) {
        continue;
      }
      if (oldest == nullptr || color.queue->second.front()->pending_seq <
                                   oldest->queue->second.front()->pending_seq) {
        oldest = &color;
      }
    }
    return oldest;
  };

  // Ascending InstanceId order is the fixed claim order.
  for (std::size_t slot = 0; slot < match_idle_.size() && pending_total_ > 0;
       ++slot) {
    const InstanceId id = match_idle_[slot];
    // Home colors first, then unowned work (uncolored, or a color with no
    // home anywhere: claiming it robs nobody).
    MatchColor* pick = oldest_head(match_home_chain_[slot]);
    if (pick == nullptr) {
      pick = oldest_head(unowned_chain);
    }
    const bool steal = pick == nullptr;
    if (steal) {
      // A steal claims a color whose home is another worker; it holds a
      // budget slot and pays the remote fetches when it runs.
      if (stealable == 0 || config_.steal_budget <= 0 ||
          steals_in_flight_ >= config_.steal_budget) {
        continue;
      }
      // Colors with objects already cache-resident on this worker first
      // (the steal is partly pre-paid), then the deepest queue (steal the
      // hottest color), then pending_ order. Residency deliberately does
      // NOT bypass the budget: replicate-on-remote-hit makes one past
      // steal leave residue, and letting that residue grant free claims
      // compounds into a locality death spiral. A resident pick can only
      // lose to a deeper resident color, so shallower ones skip the probe.
      const std::string& name = InstanceName(id);
      bool pick_resident = false;
      std::size_t pick_depth = 0;
      for (MatchColor& color : match_colors_) {
        if (color.queue == pending_.end() || !color.home.has_value()) {
          continue;
        }
        const std::size_t depth = color.queue->second.size();
        if (depth < min_depth ||
            (pick != nullptr && pick_resident && depth <= pick_depth)) {
          continue;
        }
        const bool resident = cache_.HasKeyObject(name, color.queue->first);
        if (pick == nullptr || (resident && !pick_resident) ||
            (resident == pick_resident && depth > pick_depth)) {
          pick = &color;
          pick_resident = resident;
          pick_depth = depth;
        }
      }
      assert(pick != nullptr);
    }
    std::deque<AttemptPtr>& queue = pick->queue->second;
    const bool was_stealable =
        pick->home.has_value() && queue.size() >= min_depth;
    ClaimFrom(&queue, id, steal);
    const bool drained = drop_cancelled_heads(queue);
    if (was_stealable && (drained || queue.size() < min_depth)) {
      --stealable;
    }
    if (drained) {
      pending_.erase(pick->queue);
      pick->queue = pending_.end();
    }
  }
}

void FaasPlatform::ClaimFrom(std::deque<AttemptPtr>* queue,
                             InstanceId instance, bool steal) {
  AttemptPtr attempt = std::move(queue->front());
  queue->pop_front();
  --pending_total_;
  attempt->in_pending = false;

  ++counters_.pulls;
  if (metrics_ != nullptr) {
    m_pulls_->Increment();
  }
  if (steal) {
    ++counters_.steals;
    ++steals_in_flight_;
    attempt->stolen = true;
    Bytes bytes = 0;
    for (const ObjectRef& input : attempt->spec->inputs) {
      bytes += input.size;
    }
    counters_.steal_bytes += bytes;
    if (metrics_ != nullptr) {
      m_steals_->Increment();
      m_steal_bytes_->Add(bytes);
    }
  }

  // Late binding resolves here: the claimer becomes the placement.
  attempt->worker = instance;
  attempt->result->instance = InstanceName(instance);
  Worker& worker = *workers_.at(instance);
  idle_workers_.erase(instance);
  worker.claiming = true;
  SimTime start_at = SaturatingAdd(sim_->Now(), config_.pull_claim_latency);
  if (!worker.warm) {
    // Cold start charged at claim time — in pull mode the final worker is
    // unknown until a claim binds it.
    worker.warm = true;
    ++worker.cold_starts;
    ++counters_.cold_starts;
    if (metrics_ != nullptr) {
      m_cold_starts_->Increment();
    }
    start_at = SaturatingAdd(start_at, config_.cold_start);
    attempt->result->cold_start = config_.cold_start;
  }
  sim_->At(start_at, [this, attempt, instance]() {
    OnClaimArrive(attempt, instance);
  });
}

void FaasPlatform::OnClaimArrive(const AttemptPtr& attempt,
                                 InstanceId instance) {
  const auto it = workers_.find(instance);
  if (it == workers_.end()) {
    // The claimer died mid-handoff. The claim never started, so the work
    // returns to the head of its color queue (no retry budget burned) —
    // unless the cluster is empty, in which case it fails over.
    ReleaseStealSlot(attempt);
    if (attempt->cancelled) {
      return;
    }
    if (workers_.empty()) {
      HandleFailure(attempt, FailureReason::kWorkerLost);
      return;
    }
    EnqueuePending(attempt, /*front=*/true);
    MatchPending();
    return;
  }
  it->second->claiming = false;
  if (attempt->cancelled) {
    // Deadline fired during the handoff; the claimer goes back to the
    // idle pool and the freed steal slot may unblock the matcher.
    ReleaseStealSlot(attempt);
    MaybeIdle(instance);
    return;
  }
  it->second->queue.push_back(attempt);
  if (!it->second->busy) {
    StartNextOnWorker(instance);
  }
}

void FaasPlatform::MaybeIdle(InstanceId instance) {
  if (!pull_enabled()) {
    return;
  }
  const auto it = workers_.find(instance);
  if (it == workers_.end()) {
    return;
  }
  const Worker& worker = *it->second;
  if (worker.busy || worker.claiming || !worker.queue.empty()) {
    return;
  }
  idle_workers_.insert(instance);
  MatchPending();
}

void FaasPlatform::ReleaseStealSlot(const AttemptPtr& attempt) {
  if (attempt->stolen) {
    attempt->stolen = false;
    --steals_in_flight_;
  }
}

void FaasPlatform::FailAllPending() {
  if (pending_total_ == 0) {
    return;
  }
  std::map<std::string, std::deque<AttemptPtr>> pending =
      std::move(pending_);
  pending_.clear();
  pending_total_ = 0;
  for (auto& [key, queue] : pending) {
    for (const AttemptPtr& attempt : queue) {
      attempt->in_pending = false;
      if (!attempt->cancelled) {
        HandleFailure(attempt, FailureReason::kWorkerLost);
      }
    }
  }
}

std::size_t FaasPlatform::PendingQueueDepth(const std::string& color) const {
  const auto it = pending_.find(color);
  return it != pending_.end() ? it->second.size() : 0;
}

std::vector<std::string> FaasPlatform::WriteReplicasFor(
    std::string_view key) const {
  std::vector<std::string> replicas;
  if (key.empty()) {
    return replicas;
  }
  // Planner splits first (the LB fans the color's routes across these), then
  // the policy's own replica set (Replicated Colors). Both are usually
  // empty — the paper's single-instance-per-color case.
  if (lb_.IsSplit(key)) {
    for (const InstanceId id : lb_.SplitMembers(key)) {
      replicas.push_back(InstanceName(id));
    }
  }
  for (std::string& name : lb_.policy().WriteReplicaSetOf(key)) {
    if (std::find(replicas.begin(), replicas.end(), name) == replicas.end()) {
      replicas.push_back(std::move(name));
    }
  }
  return replicas;
}

void FaasPlatform::DeliverCompletion(const AttemptPtr& attempt) {
  const int origin = attempt->spec->origin_domain;
  if (cross_scheduler_ != nullptr && origin >= 0 &&
      origin != config_.domain) {
    // Ship the result back across the sharded fabric: the callback runs on
    // the submitter's domain, one return hop later. The capture (a
    // std::function plus a shared_ptr) stays inside the inline event
    // buffer; the result outlives the send via the shared_ptr.
    cross_scheduler_->SendTo(
        origin, SaturatingAdd(sim_->Now(), cross_return_hop_),
        [cb = std::move(attempt->on_complete),
         result = attempt->result]() mutable { cb(*result); });
    return;
  }
  attempt->on_complete(*attempt->result);
}

std::unordered_map<std::string, SimTime> FaasPlatform::WorkerBusyTime() const {
  std::unordered_map<std::string, SimTime> out;
  for (const auto& [id, worker] : workers_) {
    out[InstanceName(id)] = worker->cpu.busy_time();
  }
  return out;
}

void FaasPlatform::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics == nullptr) {
    m_invocations_ = nullptr;
    m_cold_starts_ = nullptr;
    m_dropped_ = nullptr;
    m_abandoned_ = nullptr;
    m_retries_ = nullptr;
    m_timeouts_ = nullptr;
    m_pulls_ = nullptr;
    m_steals_ = nullptr;
    m_steal_bytes_ = nullptr;
    m_e2e_ns_ = nullptr;
    m_route_ns_ = nullptr;
    m_queue_ns_ = nullptr;
    m_fetch_ns_ = nullptr;
    m_compute_ns_ = nullptr;
    m_store_ns_ = nullptr;
    return;
  }
  m_invocations_ = &metrics->counter("faas.invocations");
  m_cold_starts_ = &metrics->counter("faas.cold_starts");
  m_dropped_ = &metrics->counter("faas.invocations_dropped");
  m_abandoned_ = &metrics->counter("faas.invocations_abandoned");
  m_retries_ = &metrics->counter("faas.retries");
  m_timeouts_ = &metrics->counter("faas.timeouts");
  m_pulls_ = &metrics->counter("faas.pulls");
  m_steals_ = &metrics->counter("faas.steals");
  m_steal_bytes_ = &metrics->counter("faas.steal_bytes");
  m_e2e_ns_ = &metrics->histogram("faas.latency.end_to_end_ns");
  m_route_ns_ = &metrics->histogram("faas.latency.route_ns");
  m_queue_ns_ = &metrics->histogram("faas.latency.queue_ns");
  m_fetch_ns_ = &metrics->histogram("faas.latency.fetch_ns");
  m_compute_ns_ = &metrics->histogram("faas.latency.compute_ns");
  m_store_ns_ = &metrics->histogram("faas.latency.store_ns");
}

std::size_t FaasPlatform::WorkerQueueDepth(const std::string& name) const {
  const auto id = InstanceRegistry::Global().Find(name);
  if (!id.has_value()) {
    return 0;
  }
  const auto it = workers_.find(*id);
  return it != workers_.end() ? it->second->queue.size() : 0;
}

std::uint64_t FaasPlatform::WorkerColdStarts(const std::string& name) const {
  const auto id = InstanceRegistry::Global().Find(name);
  if (!id.has_value()) {
    return 0;
  }
  const auto it = workers_.find(*id);
  return it != workers_.end() ? it->second->cold_starts : 0;
}

void FaasPlatform::ApplyPlan(const Plan& plan) {
  ++counters_.planner_rounds;
  last_plan_objective_ = plan.objective_after;

  // Charge migration costs against the PRE-apply placement (that is where
  // the moved colors' cached bytes actually sit), then remap the tables.
  // Merges migrate like moves: the color's footprint follows it back to
  // its single home.
  struct Migration {
    const Color* color;
    InstanceId to;
  };
  std::vector<Migration> migrations;
  migrations.reserve(plan.merges.size() + plan.moves.size());
  for (const PlanMerge& merge : plan.merges) {
    migrations.push_back(Migration{&merge.color, merge.to});
  }
  for (const PlanMove& move : plan.moves) {
    migrations.push_back(Migration{&move.color, move.to});
  }
  for (const Migration& migration : migrations) {
    if (!HasWorkerId(migration.to)) {
      continue;  // Plan raced a crash; the LB skips the remap too.
    }
    const auto src = lb_.PeekColorId(*migration.color);
    if (!src.has_value() || *src == migration.to) {
      continue;  // Nothing placed yet, or a no-op move: no bytes to haul.
    }
    const std::string& src_name = InstanceName(*src);
    const std::string& dst_name = InstanceName(migration.to);
    auto batch = std::make_shared<std::vector<FaastCache::ResidentObject>>(
        cache_.PeekKeyObjects(src_name, *migration.color));
    if (batch->empty()) {
      continue;
    }
    if (storage_ != nullptr) {
      // Dirty write-back data becomes durable before its cached copy
      // migrates — moving a dirty color prices in a flush, which is why
      // the planner weights dirty bytes in its move cost.
      storage_->FlushKeyOwned(src_name, *migration.color);
    }
    SimTime landed = sim_->Now();
    for (const FaastCache::ResidentObject& object : *batch) {
      cache_.EraseLocal(src_name, object.name);
      if (storage_ != nullptr) {
        storage_->NoteErase(src_name, object.name);
      }
      const SimTime done =
          network_ptr_->Transfer(src_name, dst_name, object.size);
      counters_.planner_moved_bytes += object.size;
      if (done > landed) {
        landed = done;
      }
    }
    // The batch lands at the destination when its slowest transfer
    // completes; until then routed traffic misses there (cold-ish hits).
    const InstanceId dst_id = migration.to;
    sim_->At(landed, [this, dst_id, batch]() {
      if (!HasWorkerId(dst_id)) {
        return;  // Destination died mid-flight; the bytes are lost.
      }
      const std::string& name = InstanceName(dst_id);
      for (const FaastCache::ResidentObject& object : *batch) {
        cache_.PutLocal(name, object.name, object.size);
        if (storage_ != nullptr) {
          storage_->NoteLanded(name, object.name);
        }
      }
    });
  }

  lb_.ApplyPlan(plan);
  if (plan_listener_) {
    plan_listener_(plan);
  }
}

void FaasPlatform::ExportMetrics(MetricsRegistry* metrics,
                                 const std::string& prefix,
                                 bool per_worker) const {
  const auto counter = [&](const std::string& name) -> Counter& {
    return metrics->counter(prefix.empty() ? name : prefix + name);
  };
  const auto gauge = [&](const std::string& name) -> Gauge& {
    return metrics->gauge(prefix.empty() ? name : prefix + name);
  };

  counter("faas.invocations.submitted").Set(counters_.submitted);
  counter("faas.invocations.completed").Set(counters_.completed);
  counter("faas.cold_starts.total").Set(counters_.cold_starts);
  counter("faas.invocations_dropped").Set(counters_.dropped);
  counter("faas.invocations_abandoned").Set(counters_.abandoned);
  counter("faas.retries").Set(counters_.retries);
  counter("faas.timeouts").Set(counters_.timeouts);
  counter("faas.pulls").Set(counters_.pulls);
  counter("faas.steals").Set(counters_.steals);
  counter("faas.steal_bytes").Set(counters_.steal_bytes);
  gauge("faas.pending_depth")
      .SetAt(static_cast<double>(pending_total_), sim_->Now());

  counter("lb.routed.total").Set(lb_.total_routed());
  counter("lb.hints_honored").Set(lb_.hints_honored());
  counter("lb.unhinted").Set(lb_.unhinted_routed());
  counter("lb.hint_failures").Set(lb_.hint_failures());
  counter("lb.recolored").Set(lb_.recolored());
  // Planned migration, kept separate from failure-driven re-coloring
  // (lb.recolored) so alert rules can tell them apart.
  counter("lb.planner_moves").Set(lb_.planner_moves());
  counter("lb.planner_splits").Set(lb_.planner_splits());
  counter("planner.rounds").Set(counters_.planner_rounds);
  counter("planner.merges").Set(lb_.planner_merges());
  counter("planner.moved_bytes").Set(counters_.planner_moved_bytes);
  gauge("planner.objective").SetAt(last_plan_objective_, sim_->Now());
  gauge("lb.routing_imbalance").SetAt(lb_.RoutingImbalance(), sim_->Now());
  gauge("lb.color_table_bytes")
      .SetAt(static_cast<double>(lb_.policy().StateBytes()), sim_->Now());

  counter("cache.local_hits").Set(cache_.local_hits());
  counter("cache.remote_hits").Set(cache_.remote_hits());
  counter("cache.misses").Set(cache_.misses());
  counter("cache.evictions").Set(cache_.total_evictions());
  counter("cache.local_hit_bytes").Set(cache_.local_hit_bytes());
  counter("cache.remote_hit_bytes").Set(cache_.remote_hit_bytes());
  counter("cache.put_bytes").Set(cache_.put_bytes());
  counter("cache.replicated_bytes").Set(cache_.replicated_bytes());

  if (storage_ != nullptr) {
    storage_->ExportMetrics(metrics, prefix);
  }

  counter("net.remote_bytes").Set(network_ptr_->remote_bytes());
  counter("net.local_bytes").Set(network_ptr_->local_bytes());
  counter("net.remote_transfers").Set(network_ptr_->remote_transfers());
  counter("net.queue_delay_ns")
      .Set(static_cast<std::uint64_t>(
          network_ptr_->total_queue_delay().nanos()));

  if (!per_worker) {
    return;
  }
  // Per-color pending-queue depth gauges (pull/hybrid). Cardinality scales
  // with distinct pending colors, so they ride the per_worker switch with
  // the other per-entity families.
  for (const auto& [key, queue] : pending_) {
    gauge(StrFormat("faas.pending.%s.depth",
                    key.empty() ? "_uncolored" : key.c_str()))
        .SetAt(static_cast<double>(queue.size()), sim_->Now());
  }
  for (const auto& [id, worker] : workers_) {
    const std::string& name = InstanceName(id);
    gauge(StrFormat("worker.%s.queue_depth", name.c_str()))
        .SetAt(static_cast<double>(worker->queue.size()), sim_->Now());
    gauge(StrFormat("worker.%s.busy_seconds", name.c_str()))
        .SetAt(worker->cpu.busy_time().seconds(), sim_->Now());
    counter(StrFormat("worker.%s.cold_starts", name.c_str()))
        .Set(worker->cold_starts);
    counter(StrFormat("worker.%s.routed", name.c_str()))
        .Set(lb_.RoutedToId(id));
    gauge(StrFormat("cache.shard.%s.used_bytes", name.c_str()))
        .SetAt(static_cast<double>(cache_.shard_used_bytes(name)),
               sim_->Now());
    counter(StrFormat("cache.shard.%s.evictions", name.c_str()))
        .Set(cache_.shard_evictions(name));
    const Network::NodeStats net = network_ptr_->NodeStatsOf(name);
    counter(StrFormat("net.%s.bytes_out", name.c_str())).Set(net.bytes_out);
    counter(StrFormat("net.%s.bytes_in", name.c_str())).Set(net.bytes_in);
    counter(StrFormat("net.%s.queue_delay_ns", name.c_str()))
        .Set(static_cast<std::uint64_t>(net.queue_delay.nanos()));
  }
}

}  // namespace palette
