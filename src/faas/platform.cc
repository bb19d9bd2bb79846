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
                           std::uint64_t seed, PlatformConfig config)
    : sim_(sim),
      config_(config),
      network_(sim, config.network),
      cache_(config.cache),
      lb_(MakePolicy(policy, seed)),
      retry_rng_(seed ^ 0x5EEDBACC0FFULL) {
  network_.AddNode(kStorageNode);
  if (config_.storage.enabled()) {
    storage_ = std::make_unique<StorageLayer>(sim_, &network_, &cache_,
                                              config_.storage, kStorageNode);
  }
}

void FaasPlatform::AddWorker(const std::string& name, double speed) {
  const InstanceId id = InternInstance(name);
  if (id >= workers_.size()) {
    workers_.resize(id + 1);
  }
  if (workers_[id] != nullptr) {
    return;
  }
  assert(speed > 0);
  workers_[id] = std::make_unique<Worker>(sim_, speed, name, ++worker_joins_);
  ++worker_count_;
  network_.AddNode(name);
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

void FaasPlatform::Depart(const std::string& name, bool crashed) {
  const auto id = InstanceRegistry::Global().Find(name);
  if (!id.has_value()) {
    return;
  }
  Worker* const worker = WorkerAt(*id);
  if (worker == nullptr) {
    return;
  }
  // A graceful leave lets the running attempt (if any) finish on the
  // departed worker; a crash kills it, and its partial work is lost (a
  // retry re-executes from scratch: at-least-once). Membership is updated
  // first so the policy re-colors before any retry re-routes.
  std::deque<AttemptHandle> orphans = std::move(worker->queue);
  const std::optional<AttemptHandle> running =
      crashed ? worker->running : std::nullopt;
  if (worker->idle) {
    --idle_count_;
  }
  workers_[*id].reset();
  --worker_count_;
  if (storage_ != nullptr) {
    // Graceful leave: dirty write-back data flushes before the shard is
    // reclaimed (must run while the cache shard still exists). Crash: it
    // dies with the shard — bounded loss, surfaced in the storage books.
    storage_->OnInstanceLeave(name, crashed);
  }
  cache_.RemoveInstance(name);
  lb_.RemoveInstance(name);
  NotifyMembership(MembershipEvent::kRemoved, name);
  if (running.has_value()) {
    HandleFailure(*running, FailureReason::kWorkerLost);
  }
  // Requeued orphans land at the heads of their color queues, so walk the
  // FIFO back to front to keep its order there; failed-over ones retry in
  // FIFO order.
  const bool to_pending = pull_enabled() && worker_count_ > 0;
  while (!orphans.empty()) {
    if (to_pending) {
      Requeue(orphans.back());
      orphans.pop_back();
    } else {
      Requeue(orphans.front());
      orphans.pop_front();
    }
  }
  MatchPending();
  if (worker_count_ == 0) {
    FailAllPending();
  }
}

bool FaasPlatform::Requeue(AttemptHandle attempt) {
  Attempt* const live = Live(attempt);
  if (!pull_enabled() || worker_count_ == 0 || live == nullptr) {
    HandleFailure(attempt, FailureReason::kWorkerLost);
    return false;
  }
  // The claim never started: it frees its steal slot, and the work goes
  // back to the head of its color queue.
  ReleaseStealSlot(*live);
  EnqueuePending(attempt, /*front=*/true);
  return true;
}

bool FaasPlatform::HasWorker(const std::string& name) const {
  const auto id = InstanceRegistry::Global().Find(name);
  return id.has_value() && HasWorkerId(*id);
}

std::vector<std::string> FaasPlatform::WorkerNames() const {
  std::vector<std::string> names;
  names.reserve(worker_count_);
  for (const auto& worker : workers_) {
    if (worker != nullptr) {
      names.push_back(worker->name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string FaasPlatform::DrainCandidateWorker() const {
  // Minimum over (depth, InstanceId). Ids intern in join order, which is
  // identical across rebuilds and shard counts — name order is not ("w10"
  // sorts before "w2").
  InstanceId best = kInvalidInstanceId;
  std::size_t best_depth = 0;
  for (InstanceId id = 0; id < workers_.size(); ++id) {
    const Worker* const worker = workers_[id].get();
    if (worker == nullptr) {
      continue;
    }
    const std::size_t depth = worker->queue.size();
    if (best == kInvalidInstanceId || depth < best_depth) {
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
  // Peek the id before routing so a router can trace the hop against it;
  // it is only consumed once the first attempt routes to a live worker.
  const std::uint64_t id = next_id_;
  const auto target = Route(spec.color, id, /*number=*/1);
  if (!target.has_value() || !HasWorkerId(target->instance)) {
    return std::nullopt;
  }
  next_id_ = id + 1;
  ++counters_.submitted;
  std::uint32_t index;
  if (free_invocations_.empty()) {
    index = static_cast<std::uint32_t>(invocations_.size());
    invocations_.emplace_back();
  } else {
    index = free_invocations_.back();
    free_invocations_.pop_back();
  }
  Invocation& invocation = invocations_[index];
  invocation.spec = std::move(spec);
  invocation.result = InvocationResult{};
  invocation.result.id = id;
  invocation.result.submitted = sim_->Now();
  invocation.result.router = target->router;
  invocation.on_complete = std::move(on_complete);
  DispatchTo(NewAttempt(index, /*number=*/1, /*color_slot=*/0),
             target->instance);
  return id;
}

FaasPlatform::AttemptHandle FaasPlatform::NewAttempt(std::uint32_t invocation,
                                                     int number,
                                                     std::uint32_t color_slot) {
  std::uint32_t index;
  if (free_attempts_.empty()) {
    index = static_cast<std::uint32_t>(attempts_.size());
    attempts_.emplace_back();
  } else {
    index = free_attempts_.back();
    free_attempts_.pop_back();
  }
  Attempt& attempt = attempts_[index];
  const std::uint32_t generation = attempt.generation;
  attempt = Attempt{};
  attempt.invocation = invocation;
  attempt.generation = generation;
  attempt.number = number;
  attempt.color_slot = color_slot;
  return AttemptHandle{index, generation};
}

std::optional<RoutedTarget> FaasPlatform::Route(
    const std::optional<Color>& color, std::uint64_t id, int number) {
  if (router_ != nullptr) {
    return router_(color, id, number);
  }
  if (const auto instance = lb_.RouteId(color)) {
    return RoutedTarget{*instance, -1};
  }
  return std::nullopt;
}

void FaasPlatform::DispatchTo(AttemptHandle handle, InstanceId target) {
  Attempt& attempt = attempts_[handle.index];
  attempt.worker = target;
  InvocationSpec& spec = invocations_[attempt.invocation].spec;
  InvocationResult& result = invocations_[attempt.invocation].result;
  result.attempts = attempt.number;
  result.cold_start = SimTime();

  Worker* const worker = WorkerAt(target);
  if (worker == nullptr) {
    // An attached router pointed at a worker the cluster no longer runs
    // (the platform's own LB never does this). Fail the attempt; the retry
    // layer routes it afresh.
    HandleFailure(handle, FailureReason::kWorkerLost);
    return;
  }
  result.instance = worker->name;
  if (router_ != nullptr && spec.color.has_value()) {
    // Externally routed (tier) traffic never touches lb_.RouteId, so the
    // platform-side planner's snapshots would see nothing. Teach the LB the
    // placement passively (no-op unless color stats are on).
    lb_.NoteExternalRoute(*spec.color, target);
  }
  if (config_.translate_object_names && attempt.number == 1) {
    // §5.1 name translation (see PlatformConfig): first attempt only, so
    // retries keep the names their caches already warmed under.
    for (ObjectRef& input : spec.inputs) {
      input.name = lb_.TranslateObjectName(input.name);
    }
    for (ObjectRef& output : spec.outputs) {
      output.name = lb_.TranslateObjectName(output.name);
    }
  }

  const SimTime budget =
      spec.deadline > SimTime() ? spec.deadline : config_.default_deadline;
  if (budget > SimTime()) {
    ArmDeadline(handle, SaturatingAdd(sim_->Now(), budget));
  }

  // Late binding (docs/DISPATCH.md): under pull the route is only a hint.
  // The attempt travels the dispatch path and joins its color's pending
  // queue; whichever worker claims it becomes the placement, and the cold
  // start (final worker unknown here) is charged at claim time instead.
  if (pull_enabled()) {
    const SimTime enqueue_at =
        sim_->Now() + config_.dispatch_latency + router_hop_;
    // `dispatched` marks arrival at the pending queue, so time spent
    // waiting for a claim lands in the queue span and the five trace spans
    // still partition [submitted, completed] exactly.
    result.dispatched = enqueue_at;
    sim_->At(enqueue_at, [this, handle]() {
      if (Live(handle) == nullptr) {
        return;  // deadline expired while in dispatch flight
      }
      if (worker_count_ == 0) {
        HandleFailure(handle, FailureReason::kWorkerLost);
        return;
      }
      EnqueuePending(handle, /*front=*/false);
      MatchPending();
    });
    return;
  }

  const SimTime dispatch_done =
      sim_->Now() + config_.dispatch_latency + router_hop_ +
      ChargeColdStart(*worker, result);
  result.dispatched = dispatch_done;

  sim_->At(dispatch_done, [this, handle, target]() {
    // The request arrives at the instance and joins its FIFO run queue.
    if (Live(handle) == nullptr) {
      return;  // deadline expired while in dispatch flight
    }
    Worker* const arrived = WorkerAt(target);
    if (arrived == nullptr) {
      // Worker removed while the request was in flight.
      HandleFailure(handle, FailureReason::kWorkerLost);
      return;
    }
    arrived->queue.push_back(handle);
    if (!arrived->busy) {
      StartNextOnWorker(target);
    }
  });
}

SimTime FaasPlatform::ChargeColdStart(Worker& worker,
                                      InvocationResult& result) {
  if (worker.warm) {
    return SimTime();
  }
  worker.warm = true;
  ++worker.cold_starts;
  ++counters_.cold_starts;
  if (metrics_ != nullptr) {
    m_cold_starts_->Increment();
  }
  result.cold_start = config_.cold_start;
  return config_.cold_start;
}

void FaasPlatform::ArmDeadline(AttemptHandle attempt, SimTime deadline) {
  sim_->At(deadline, [this, attempt]() { OnDeadline(attempt); });
}

void FaasPlatform::OnDeadline(AttemptHandle handle) {
  const Attempt* const attempt = Live(handle);
  if (attempt == nullptr || attempt->committed) {
    return;  // already failed another way, or past the point of no return
  }
  ++counters_.timeouts;
  // HandleFailure frees the records; read what the cancel needs first.
  const InstanceId target = attempt->worker;
  const bool was_running = attempt->running;
  const bool in_pending = attempt->in_pending;
  const std::uint32_t color_slot = attempt->color_slot;
  const SimTime compute_done =
      invocations_[attempt->invocation].result.compute_done;
  HandleFailure(handle, FailureReason::kTimeout);
  if (in_pending) {
    // Expired while waiting in a pending color queue: drop it there so the
    // per-color depth gauges don't count a dead entry.
    RemoveFromPending(handle, color_slot);
    return;
  }
  Worker* const found = WorkerAt(target);
  if (found == nullptr) {
    return;
  }
  Worker& worker = *found;
  if (was_running && worker.running == handle) {
    // Cancel on the worker: return the unexecuted tail of the CPU booking
    // so the next queued request starts now instead of after the ghost of
    // the cancelled compute.
    const SimTime remaining = compute_done - sim_->Now();
    if (remaining > SimTime()) {
      worker.cpu.Refund(remaining);
    }
    worker.running.reset();
    StartNextOnWorker(target);
  } else {
    // Still waiting in the FIFO: drop it from the queue so depth gauges
    // don't count a dead entry.
    auto& queue = worker.queue;
    queue.erase(std::remove(queue.begin(), queue.end(), handle), queue.end());
  }
}

void FaasPlatform::HandleFailure(AttemptHandle handle, FailureReason reason) {
  Attempt* const attempt = Live(handle);
  if (attempt == nullptr) {
    return;  // this attempt's failure is already being handled
  }
  // A failed claim no longer holds its steal slot, whatever failed it.
  ReleaseStealSlot(*attempt);
  const std::uint32_t invocation = attempt->invocation;
  const int number = attempt->number;
  const InstanceId worker = attempt->worker;
  const std::uint32_t color_slot = attempt->color_slot;
  FreeAttempt(handle);
  const RetryPolicy& retry = config_.retry;
  if (retry.enabled() && number < retry.max_attempts) {
    ++counters_.retries;
    const SimTime backoff = retry.BackoffFor(number, retry_rng_);
    // Saturate like Simulator::After: extreme multiplier/max_backoff
    // configs must clamp to the far future, not wrap negative.
    const SimTime resubmit_at = SaturatingAdd(sim_->Now(), backoff);
    if (trace_ != nullptr) {
      trace_->RecordRetry(RetryTrace{
          invocations_[invocation].result.id, number,
          worker != kInvalidInstanceId ? InstanceName(worker) : std::string(),
          reason == FailureReason::kTimeout ? RetryReason::kTimeout
                                            : RetryReason::kWorkerLost,
          sim_->Now(), resubmit_at});
    }
    sim_->At(resubmit_at, [this, invocation, number, color_slot]() {
      Resubmit(invocation, number + 1, color_slot);
    });
    return;
  }
  if (retry.enabled()) {
    ++counters_.abandoned;
  } else {
    ++counters_.dropped;
  }
  free_invocations_.push_back(invocation);
}

void FaasPlatform::Resubmit(std::uint32_t invocation, int number,
                            std::uint32_t color_slot) {
  // A fresh Attempt record: events still pending against the failed one
  // see its stale generation and no-op, so they can never resurrect it.
  const AttemptHandle next = NewAttempt(invocation, number, color_slot);

  // Per-attempt result fields start over; `submitted` is kept so the
  // end-to-end latency spans the failed attempts and backoffs.
  InvocationResult& result = invocations_[invocation].result;
  result.attempts = number;
  result.local_hits = 0;
  result.remote_hits = 0;
  result.misses = 0;
  result.network_bytes = 0;

  // A fresh route: colors re-mapped by failure-aware re-coloring land on
  // the replacement instance, not the dead one. With a routing tier
  // attached the retry goes back through it, so the router replica's own
  // view (and its per-view re-coloring) governs where the retry lands.
  const auto target =
      Route(invocations_[invocation].spec.color, result.id, number);
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
  Worker* const found = WorkerAt(instance);
  if (found == nullptr) {
    return;
  }
  Worker& worker = *found;
  while (!worker.queue.empty() && Live(worker.queue.front()) == nullptr) {
    worker.queue.pop_front();
  }
  if (worker.queue.empty()) {
    worker.busy = false;
    worker.running.reset();
    // Pull: the worker just went idle — claim pending work, if any.
    MaybeIdle(instance);
    return;
  }
  worker.busy = true;
  const AttemptHandle handle = worker.queue.front();
  worker.queue.pop_front();
  worker.running = handle;
  Attempt& attempt = attempts_[handle.index];
  attempt.running = true;
  const InvocationSpec& spec = invocations_[attempt.invocation].spec;
  InvocationResult& result = invocations_[attempt.invocation].result;
  const std::string& instance_name = worker.name;
  result.fetch_start = sim_->Now();

  // Fetch inputs: the invocation blocks the worker for the duration.
  SimTime inputs_ready = sim_->Now();
  Bytes payload_bytes = 0;
  for (const ObjectRef& input : spec.inputs) {
    payload_bytes += input.size;
    const SimTime fetch_issued = sim_->Now();
    CacheLookup lookup = cache_.Get(instance, input.name);
    SimTime done;
    FetchSource source = FetchSource::kLocal;
    Bytes fetched_bytes = lookup.size;
    switch (lookup.outcome) {
      case CacheOutcome::kLocalHit:
        ++result.local_hits;
        done = network_.Transfer(instance_name, instance_name, lookup.size);
        if (storage_ != nullptr) {
          // Coherence check: a known-stale local copy is never served
          // silently — write-through/write-back re-fetch synchronously,
          // causal serves within the staleness bound only. Any forced
          // sync's bytes are the coherence traffic the bench measures.
          done = storage_->OnLocalRead(instance_name, input.name, done);
        }
        break;
      case CacheOutcome::kRemoteHit:
        ++result.remote_hits;
        result.network_bytes += lookup.size;
        source = FetchSource::kRemote;
        done = network_.Transfer(InstanceName(lookup.owner), instance_name,
                                 lookup.size);
        if (storage_ != nullptr && config_.cache.replicate_on_remote_hit) {
          // The cache just copied the object into the reader's shard; the
          // home serves the authoritative copy, so the new copy is fresh.
          storage_->NoteCopy(instance_name, input.name);
        }
        break;
      case CacheOutcome::kMiss: {
        ++result.misses;
        const auto it = storage_objects_.find(input.name);
        Bytes size = it != storage_objects_.end() ? it->second : input.size;
        if (storage_ != nullptr) {
          size = storage_->StoredSizeOf(input.name, size);
        }
        result.network_bytes += size;
        source = FetchSource::kStorage;
        fetched_bytes = size;
        done = storage_ != nullptr
                   ? storage_->ReadFromStore(instance_name, input.name, size)
                   : network_.Transfer(kStorageNode, instance_name, size);
        if (config_.cache_miss_fills) {
          cache_.PutLocal(instance, input.name, size);
          if (storage_ != nullptr) {
            storage_->NoteCopy(instance_name, input.name);
          }
        }
        break;
      }
    }
    if (trace_ != nullptr) {
      trace_->RecordFetch(FetchTrace{result.id, instance_name, input.name,
                                     source, fetched_bytes, fetch_issued,
                                     done});
    }
    if (done > inputs_ready) {
      inputs_ready = done;
    }
  }
  result.inputs_ready = inputs_ready;

  for (const ObjectRef& output : spec.outputs) {
    payload_bytes += output.size;
  }
  SimTime compute = ComputeDuration(
      spec.cpu_ops, config_.cpu_ops_per_second * worker.speed);
  if (config_.serialization_bytes_per_second > 0) {
    compute += TransferDuration(
        payload_bytes, config_.serialization_bytes_per_second * worker.speed);
  }

  // Occupy the worker from now (fetch start) through end of compute.
  const SimTime compute_done =
      worker.cpu.Acquire((inputs_ready - sim_->Now()) + compute);
  result.compute_done = compute_done;

  sim_->At(compute_done, [this, instance, handle]() {
    Attempt* const ran = Live(handle);
    if (ran == nullptr) {
      return;  // timed out or crashed mid-run; the failure path took over
    }
    // Compute finished: the attempt is past its deadline's reach (only
    // output placement remains, which a timeout no longer interrupts).
    ran->committed = true;
    const InvocationSpec& spec2 = invocations_[ran->invocation].spec;
    InvocationResult& result2 = invocations_[ran->invocation].result;
    SimTime completed = sim_->Now();
    // Output placement: the invocation is not finished until its outputs
    // are stored at their home instances, and the single-threaded worker
    // blocks on the put. Under Palette's color translation the home is the
    // producing worker itself (a fast local store); under far-memory-style
    // naming the put crosses the network — the write-side cost oblivious
    // routing pays.
    for (const ObjectRef& output : spec2.outputs) {
      std::vector<InstanceId> replicas;
      if (storage_ != nullptr) {
        replicas = WriteReplicasFor(FaastCache::HashKeyOf(output.name));
      }
      const InstanceId home =
          replicas.empty()
              ? cache_.Put(instance, output.name, output.size)
              : cache_.PutReplicated(instance, output.name, output.size,
                                     replicas);
      const std::string& home_name =
          home == instance ? result2.instance : InstanceName(home);
      SimTime done =
          network_.Transfer(result2.instance, home_name, output.size);
      if (storage_ != nullptr) {
        // Replicas beyond the home receive their synchronous copy from
        // the producer too; the slowest transfer gates the write.
        std::vector<std::string> replica_names;
        for (const InstanceId replica : replicas) {
          replica_names.push_back(InstanceName(replica));
          if (replica == home || !cache_.HasInstance(replica)) {
            continue;
          }
          const SimTime copy_done = network_.Transfer(
              result2.instance, replica_names.back(), output.size);
          if (copy_done > done) {
            done = copy_done;
          }
        }
        done = storage_->OnWrite(result2.instance, home_name, output.name,
                                 output.size, spec2.coherence, replica_names,
                                 done);
      }
      if (done > completed) {
        completed = done;
      }
    }
    result2.completed = completed;
    if (trace_ != nullptr) {
      trace_->RecordInvocation(InvocationTrace{
          result2.id, spec2.function, result2.instance, spec2.color,
          result2.submitted, result2.dispatched, result2.fetch_start,
          result2.inputs_ready, result2.compute_done, result2.completed,
          result2.cold_start, result2.router});
    }
    if (metrics_ != nullptr) {
      m_invocations_->Increment();
      const auto ns = [](SimTime t) {
        return static_cast<std::uint64_t>(t.nanos() > 0 ? t.nanos() : 0);
      };
      m_e2e_ns_->Record(ns(result2.completed - result2.submitted));
      m_route_ns_->Record(ns(result2.dispatched - result2.submitted));
      m_queue_ns_->Record(ns(result2.fetch_start - result2.dispatched));
      m_fetch_ns_->Record(ns(result2.inputs_ready - result2.fetch_start));
      m_compute_ns_->Record(ns(result2.compute_done - result2.inputs_ready));
      m_store_ns_->Record(ns(result2.completed - result2.compute_done));
    }
    if (completed > sim_->Now()) {
      // Keep the worker occupied through the blocking put.
      if (Worker* occupied = OccupiedBy(handle, instance)) {
        occupied->cpu.Acquire(completed - sim_->Now());
      }
    }
    sim_->At(completed, [this, instance, handle]() {
      Attempt* const finished = Live(handle);
      if (finished == nullptr) {
        return;  // worker crashed during the store phase; being retried
      }
      ++counters_.completed;
      // A stolen run holds its steal-budget slot through completion, so
      // the budget caps concurrently *executing* stolen work, not just
      // claims in flight. Releasing it may unblock another idle worker.
      const bool was_stolen = finished->stolen;
      ReleaseStealSlot(*finished);
      const std::uint32_t invocation = finished->invocation;
      FreeAttempt(handle);
      Worker* occupied = OccupiedBy(handle, instance);
      if (occupied != nullptr) {
        occupied->running.reset();
      }
      DeliverCompletion(invocation);
      if (occupied != nullptr) {
        StartNextOnWorker(instance);
      }
      if (was_stolen) {
        MatchPending();
      }
    });
  });
}

FaasPlatform::Worker* FaasPlatform::OccupiedBy(AttemptHandle attempt,
                                              InstanceId instance) {
  Worker* const worker = WorkerAt(instance);
  return worker != nullptr && worker->running == attempt ? worker : nullptr;
}

std::uint32_t FaasPlatform::ColorSlotOf(const InvocationSpec& spec) {
  if (color_slots_.empty()) {
    color_slots_.emplace_back();  // slot 0: uncolored work
  }
  if (!spec.color.has_value() || spec.color->empty()) {
    return 0;
  }
  const auto [it, inserted] = color_slot_ids_.try_emplace(
      *spec.color, static_cast<std::uint32_t>(color_slots_.size()));
  if (inserted) {
    color_slots_.emplace_back().name = *spec.color;
  }
  return it->second;
}

void FaasPlatform::EnqueuePending(AttemptHandle handle, bool front) {
  Attempt& attempt = attempts_[handle.index];
  if (attempt.color_slot == 0) {
    attempt.color_slot = ColorSlotOf(invocations_[attempt.invocation].spec);
  }
  ColorSlot& slot = color_slots_[attempt.color_slot];
  if (slot.queue == nullptr) {
    if (queue_pool_.empty()) {
      slot.queue = std::make_unique<std::deque<AttemptHandle>>();
    } else {
      slot.queue = std::move(queue_pool_.back());
      queue_pool_.pop_back();
    }
    slot.pending_index = static_cast<std::uint32_t>(pending_.size());
    pending_.push_back(attempt.color_slot);
  }
  if (attempt.pending_seq == 0) {
    attempt.pending_seq = next_pending_seq_++;
  }
  if (front) {
    slot.queue->push_front(handle);
  } else {
    slot.queue->push_back(handle);
  }
  attempt.in_pending = true;
  ++pending_total_;
}

void FaasPlatform::RemoveFromPending(AttemptHandle attempt,
                                     std::uint32_t slot) {
  if (color_slots_[slot].queue == nullptr) {
    return;
  }
  std::deque<AttemptHandle>& queue = *color_slots_[slot].queue;
  const auto pos = std::find(queue.begin(), queue.end(), attempt);
  if (pos == queue.end()) {
    return;
  }
  queue.erase(pos);
  --pending_total_;
  if (queue.empty()) {
    RetireQueue(slot);
  }
}

void FaasPlatform::RetireQueue(std::uint32_t slot) {
  ColorSlot& retired = color_slots_[slot];
  const std::uint32_t last = pending_.back();
  pending_[retired.pending_index] = last;
  color_slots_[last].pending_index = retired.pending_index;
  pending_.pop_back();
  queue_pool_.push_back(std::move(retired.queue));
}

const std::optional<InstanceId>& FaasPlatform::HomeOf(ColorSlot& slot,
                                                      std::uint64_t version) {
  if (slot.home_version != version) {
    slot.home_version = version;
    slot.home.reset();
    if (!slot.name.empty()) {
      slot.home = lb_.PeekColorId(slot.name);
      if (!slot.home.has_value()) {
        slot.home = cache_.HomeInstanceId(slot.name);
      }
    }
  }
  return slot.home;
}

void FaasPlatform::MatchPending() {
  if (pending_total_ == 0 || idle_count_ == 0) {
    return;
  }
  constexpr std::uint32_t kEnd = kNoMatchColor;
  // Drops cancelled attempts from the head of a queue; true once it is
  // empty.
  const auto drop_cancelled_heads = [this](std::deque<AttemptHandle>& queue) {
    while (!queue.empty() && Live(queue.front()) == nullptr) {
      queue.pop_front();
      --pending_total_;
    }
    return queue.empty();
  };

  match_colors_.clear();
  match_homes_.clear();
  std::uint32_t unowned_chain = kEnd;
  // Live owned colors whose queue is deep enough to steal from. A worker
  // only tries to steal when none of its home colors has work left, so
  // for that worker every one of these is foreign.
  std::size_t stealable = 0;
  const std::size_t min_depth = config_.steal_min_depth;
  // One pass over pending_ looks up every color's home; HomeOf re-resolves
  // only homes cached before the last placement change. Homes hold for the
  // whole call: a claim pops a queue and schedules the handoff, and never
  // re-routes, re-plans or changes membership.
  const std::uint64_t version = lb_.placement_version();
  for (std::size_t i = 0; i < pending_.size();) {
    const std::uint32_t color_slot = pending_[i];
    ColorSlot& pending = color_slots_[color_slot];
    if (drop_cancelled_heads(*pending.queue)) {
      RetireQueue(color_slot);  // moves another color into position i
      continue;
    }
    ++i;
    const auto index = static_cast<std::uint32_t>(match_colors_.size());
    MatchColor& color = match_colors_.emplace_back(MatchColor{
        pending.queue.get(), HomeOf(pending, version), color_slot, kEnd});
    std::uint32_t* chain = &unowned_chain;
    if (color.home.has_value()) {
      if (color.queue->size() >= min_depth) {
        ++stealable;
      }
      // Colors homed on a busy (or departed) worker are foreign to every
      // idle one and join no chain.
      Worker* const home = WorkerAt(*color.home);
      chain = nullptr;
      if (home != nullptr && home->idle) {
        if (home->home_chain == kEnd) {
          match_homes_.push_back(*color.home);
        }
        chain = &home->home_chain;
      }
    }
    if (chain != nullptr) {
      color.next = *chain;
      *chain = index;
    }
  }

  // Within the home and unowned classes the *oldest* waiting head wins
  // (pending_seq), i.e. FIFO across a worker's colors: depth-based
  // selection would let a quiet color's lone invocation starve behind
  // burstier siblings for hundreds of ms of tail.
  const auto oldest_head = [this](std::uint32_t chain) -> MatchColor* {
    MatchColor* oldest = nullptr;
    for (; chain != kEnd; chain = match_colors_[chain].next) {
      MatchColor& color = match_colors_[chain];
      if (color.queue == nullptr) {
        continue;
      }
      if (oldest == nullptr ||
          attempts_[color.queue->front().index].pending_seq <
              attempts_[oldest->queue->front().index].pending_seq) {
        oldest = &color;
      }
    }
    return oldest;
  };

  // One idle worker's turn: at most one claim.
  const auto serve = [&](InstanceId id, const Worker& worker) {
    // Home colors first, then unowned work (uncolored, or a color with no
    // home anywhere: claiming it robs nobody).
    MatchColor* pick = oldest_head(worker.home_chain);
    if (pick == nullptr) {
      pick = oldest_head(unowned_chain);
    }
    const bool steal = pick == nullptr;
    if (steal) {
      // A steal claims a color whose home is another worker; it holds a
      // budget slot and pays the remote fetches when it runs.
      if (stealable == 0 || config_.steal_budget <= 0 ||
          steals_in_flight_ >= config_.steal_budget) {
        return;
      }
      // Colors with objects already cache-resident on this worker first
      // (the steal is partly pre-paid), then the deepest queue (steal the
      // hottest color), then the smallest color name. Residency
      // deliberately does NOT bypass the budget: replicate-on-remote-hit
      // makes one past steal leave residue, and letting that residue grant
      // free claims compounds into a locality death spiral. A resident
      // pick can only lose to a resident color that is deeper, or as deep
      // with a smaller name, so other colors skip the probe.
      const std::string* pick_name = nullptr;
      bool pick_resident = false;
      std::size_t pick_depth = 0;
      for (MatchColor& color : match_colors_) {
        if (color.queue == nullptr || !color.home.has_value()) {
          continue;
        }
        const std::size_t depth = color.queue->size();
        if (depth < min_depth) {
          continue;
        }
        const std::string& color_name = color_slots_[color.slot].name;
        if (pick != nullptr && pick_resident &&
            (depth < pick_depth ||
             (depth == pick_depth && color_name >= *pick_name))) {
          continue;
        }
        const bool resident = cache_.HasKeyObject(id, color_name);
        const bool better =
            pick == nullptr ||
            (resident != pick_resident ? resident
             : depth != pick_depth     ? depth > pick_depth
                                       : color_name < *pick_name);
        if (better) {
          pick = &color;
          pick_name = &color_name;
          pick_resident = resident;
          pick_depth = depth;
        }
      }
      assert(pick != nullptr);
    }
    std::deque<AttemptHandle>& queue = *pick->queue;
    const bool was_stealable =
        pick->home.has_value() && queue.size() >= min_depth;
    ClaimFrom(&queue, id, steal);
    const bool drained = drop_cancelled_heads(queue);
    if (was_stealable && (drained || queue.size() < min_depth)) {
      --stealable;
    }
    if (drained) {
      RetireQueue(pick->slot);
      pick->queue = nullptr;
    }
  };

  // Ascending InstanceId order is the fixed claim order. A worker with no
  // home work can only claim unowned work or steal, and within one call
  // unowned work only drains, `stealable` only falls and steals_in_flight_
  // only rises. So when neither is possible as the call starts, no such
  // worker claims anything in it, and visiting the idle homes alone claims
  // exactly what the full walk would.
  const bool can_steal = stealable > 0 && config_.steal_budget > 0 &&
                         steals_in_flight_ < config_.steal_budget;
  if (unowned_chain == kEnd && !can_steal) {
    std::sort(match_homes_.begin(), match_homes_.end());
    for (const InstanceId id : match_homes_) {
      serve(id, *workers_[id]);
    }
  } else {
    std::size_t unvisited = idle_count_;
    for (InstanceId id = 0;
         id < workers_.size() && unvisited > 0 && pending_total_ > 0; ++id) {
      const Worker* const worker = workers_[id].get();
      if (worker != nullptr && worker->idle) {
        --unvisited;
        serve(id, *worker);
      }
    }
  }
  for (const InstanceId id : match_homes_) {
    workers_[id]->home_chain = kEnd;
  }
}

void FaasPlatform::ClaimFrom(std::deque<AttemptHandle>* queue,
                             InstanceId instance, bool steal) {
  const AttemptHandle handle = queue->front();
  queue->pop_front();
  --pending_total_;
  Attempt& attempt = attempts_[handle.index];
  attempt.in_pending = false;
  Invocation& invocation = invocations_[attempt.invocation];

  ++counters_.pulls;
  if (steal) {
    ++counters_.steals;
    ++steals_in_flight_;
    attempt.stolen = true;
    Bytes bytes = 0;
    for (const ObjectRef& input : invocation.spec.inputs) {
      bytes += input.size;
    }
    counters_.steal_bytes += bytes;
  }

  // Late binding resolves here: the claimer becomes the placement.
  attempt.worker = instance;
  Worker& worker = *workers_[instance];
  invocation.result.instance = worker.name;
  invocation.result.stolen = steal;
  assert(worker.idle);
  worker.idle = false;
  --idle_count_;
  worker.claiming = true;
  // Cold start charged at claim time — in pull mode the final worker is
  // unknown until a claim binds it.
  const SimTime start_at =
      SaturatingAdd(SaturatingAdd(sim_->Now(), config_.pull_claim_latency),
                    ChargeColdStart(worker, invocation.result));
  sim_->At(start_at,
           [this, handle, instance, incarnation = worker.incarnation]() {
             OnClaimArrive(handle, instance, incarnation);
           });
}

void FaasPlatform::OnClaimArrive(AttemptHandle attempt, InstanceId instance,
                                 std::uint64_t incarnation) {
  Worker* const worker = WorkerAt(instance);
  if (worker == nullptr || worker->incarnation != incarnation) {
    // The claimer died mid-handoff; the claim never started. A worker that
    // rejoined under its name meanwhile is a new record that never claimed
    // this attempt (it may be idle, or running its own claim).
    if (Requeue(attempt)) {
      MatchPending();
    }
    return;
  }
  worker->claiming = false;
  if (Live(attempt) == nullptr) {
    // Deadline fired during the handoff (HandleFailure freed its steal
    // slot); the claimer goes back to the idle pool, which re-runs the
    // matcher.
    MaybeIdle(instance);
    return;
  }
  worker->queue.push_back(attempt);
  if (!worker->busy) {
    StartNextOnWorker(instance);
  }
}

void FaasPlatform::MaybeIdle(InstanceId instance) {
  if (!pull_enabled()) {
    return;
  }
  Worker* const worker = WorkerAt(instance);
  if (worker == nullptr || worker->busy || worker->claiming ||
      !worker->queue.empty()) {
    return;
  }
  if (!worker->idle) {
    worker->idle = true;
    ++idle_count_;
  }
  MatchPending();
}

void FaasPlatform::ReleaseStealSlot(Attempt& attempt) {
  if (attempt.stolen) {
    attempt.stolen = false;
    --steals_in_flight_;
  }
}

void FaasPlatform::FailAllPending() {
  if (pending_total_ == 0) {
    return;
  }
  // Colors fail in name order, so the retry order (and the backoff jitter
  // each retry draws) does not depend on the order of pending_.
  std::sort(pending_.begin(), pending_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return color_slots_[a].name < color_slots_[b].name;
            });
  std::vector<std::unique_ptr<std::deque<AttemptHandle>>> queues;
  for (const std::uint32_t slot : pending_) {
    queues.push_back(std::move(color_slots_[slot].queue));
  }
  pending_.clear();
  pending_total_ = 0;
  for (std::unique_ptr<std::deque<AttemptHandle>>& queue : queues) {
    for (const AttemptHandle attempt : *queue) {
      HandleFailure(attempt, FailureReason::kWorkerLost);  // stale: no-op
    }
    queue->clear();
    queue_pool_.push_back(std::move(queue));
  }
}

std::vector<InstanceId> FaasPlatform::WriteReplicasFor(
    std::string_view key) const {
  std::vector<InstanceId> replicas;
  if (key.empty()) {
    return replicas;
  }
  // Planner splits first (the LB fans the color's routes across these), then
  // the policy's own replica set (Replicated Colors). Both are usually
  // empty — the paper's single-instance-per-color case.
  if (lb_.IsSplit(key)) {
    replicas = lb_.SplitMembers(key);
  }
  for (const std::string& name : lb_.policy().WriteReplicaSetOf(key)) {
    const InstanceId id = InternInstance(name);
    if (std::find(replicas.begin(), replicas.end(), id) == replicas.end()) {
      replicas.push_back(id);
    }
  }
  return replicas;
}

void FaasPlatform::DeliverCompletion(std::uint32_t index) {
  Invocation& invocation = invocations_[index];
  CompletionCallback on_complete = std::move(invocation.on_complete);
  InvocationResult result = std::move(invocation.result);
  const int origin = invocation.spec.origin_domain;
  // Freed before the callback runs: it may invoke again, which can reuse
  // the record or grow the slab under a reference into it.
  free_invocations_.push_back(index);
  if (!on_complete) {
    return;
  }
  if (cross_scheduler_ != nullptr && origin >= 0 &&
      origin != config_.domain) {
    // Ship the result back across the sharded fabric: the callback runs on
    // the submitter's domain, one return hop later, with its own copy of
    // the result (the capture, a std::function plus a unique_ptr, stays
    // inside the inline event buffer).
    cross_scheduler_->SendTo(
        origin, SaturatingAdd(sim_->Now(), cross_return_hop_),
        [cb = std::move(on_complete),
         copy = std::make_unique<InvocationResult>(std::move(result))]() {
          cb(*copy);
        });
    return;
  }
  on_complete(result);
}

std::unordered_map<std::string, SimTime> FaasPlatform::WorkerBusyTime() const {
  std::unordered_map<std::string, SimTime> out;
  for (const auto& worker : workers_) {
    if (worker != nullptr) {
      out[worker->name] = worker->cpu.busy_time();
    }
  }
  return out;
}

void FaasPlatform::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics == nullptr) {
    m_invocations_ = nullptr;
    m_cold_starts_ = nullptr;
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
  const Worker* const worker = WorkerAt(*id);
  return worker != nullptr ? worker->queue.size() : 0;
}

std::uint64_t FaasPlatform::WorkerColdStarts(const std::string& name) const {
  const auto id = InstanceRegistry::Global().Find(name);
  if (!id.has_value()) {
    return 0;
  }
  const Worker* const worker = WorkerAt(*id);
  return worker != nullptr ? worker->cold_starts : 0;
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
        cache_.PeekKeyObjects(*src, *migration.color));
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
      cache_.EraseLocal(*src, object.name);
      if (storage_ != nullptr) {
        storage_->NoteErase(src_name, object.name);
      }
      const SimTime done = network_.Transfer(src_name, dst_name, object.size);
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
        cache_.PutLocal(dst_id, object.name, object.size);
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

void FaasPlatform::ExportMetrics(MetricWriter* out, bool per_worker) const {
  const SimTime now = sim_->Now();
  out->SetCounter("faas.invocations.submitted", counters_.submitted);
  out->SetCounter("faas.invocations.completed", counters_.completed);
  out->SetCounter("faas.cold_starts.total", counters_.cold_starts);
  out->SetCounter("faas.invocations_dropped", counters_.dropped);
  out->SetCounter("faas.invocations_abandoned", counters_.abandoned);
  out->SetCounter("faas.retries", counters_.retries);
  out->SetCounter("faas.timeouts", counters_.timeouts);
  out->SetCounter("faas.pulls", counters_.pulls);
  out->SetCounter("faas.steals", counters_.steals);
  out->SetCounter("faas.steal_bytes", counters_.steal_bytes);
  out->SetGauge("faas.pending_depth", static_cast<double>(pending_total_),
                now);

  out->SetCounter("lb.routed.total", lb_.total_routed());
  out->SetCounter("lb.hints_honored", lb_.hints_honored());
  out->SetCounter("lb.unhinted", lb_.unhinted_routed());
  out->SetCounter("lb.hint_failures", lb_.hint_failures());
  out->SetCounter("lb.recolored", lb_.recolored());
  // Planned migration, kept separate from failure-driven re-coloring
  // (lb.recolored) so alert rules can tell them apart.
  out->SetCounter("lb.planner_moves", lb_.planner_moves());
  out->SetCounter("lb.planner_splits", lb_.planner_splits());
  out->SetCounter("planner.rounds", counters_.planner_rounds);
  out->SetCounter("planner.merges", lb_.planner_merges());
  out->SetCounter("planner.moved_bytes", counters_.planner_moved_bytes);
  out->SetGauge("planner.objective", last_plan_objective_, now);
  out->SetGauge("lb.routing_imbalance", lb_.RoutingImbalance(), now);
  out->SetGauge("lb.color_table_bytes",
                static_cast<double>(lb_.policy().StateBytes()), now);

  out->SetCounter("cache.local_hits", cache_.local_hits());
  out->SetCounter("cache.remote_hits", cache_.remote_hits());
  out->SetCounter("cache.misses", cache_.misses());
  out->SetCounter("cache.evictions", cache_.total_evictions());
  out->SetCounter("cache.local_hit_bytes", cache_.local_hit_bytes());
  out->SetCounter("cache.remote_hit_bytes", cache_.remote_hit_bytes());
  out->SetCounter("cache.put_bytes", cache_.put_bytes());
  out->SetCounter("cache.replicated_bytes", cache_.replicated_bytes());

  if (storage_ != nullptr) {
    storage_->ExportMetrics(out);
  }

  out->SetCounter("net.remote_bytes", network_.remote_bytes());
  out->SetCounter("net.local_bytes", network_.local_bytes());
  out->SetCounter("net.remote_transfers", network_.remote_transfers());
  out->SetCounter(
      "net.queue_delay_ns",
      static_cast<std::uint64_t>(network_.total_queue_delay().nanos()));

  if (!per_worker) {
    return;
  }
  // Per-entity names are built per call (in one reused buffer), so they
  // bypass the slots.
  MetricsRegistry* const metrics = out->registry();
  std::string key;
  const auto named = [&key](const char* prefix, std::string_view name,
                            const char* suffix) {
    key.assign(prefix).append(name).append(suffix);
    return std::string_view(key);
  };
  // Per-color pending-queue depth gauges (pull). Cardinality scales
  // with distinct pending colors, so they ride the per_worker switch with
  // the other per-entity families.
  for (const std::uint32_t slot : pending_) {
    const ColorSlot& pending = color_slots_[slot];
    const std::string_view color =
        pending.name.empty() ? "_uncolored" : pending.name;
    metrics->gauge(named("faas.pending.", color, ".depth"))
        .SetAt(static_cast<double>(pending.queue->size()), now);
  }
  for (InstanceId id = 0; id < workers_.size(); ++id) {
    const Worker* const worker = workers_[id].get();
    if (worker == nullptr) {
      continue;
    }
    const std::string& name = worker->name;
    metrics->gauge(named("worker.", name, ".queue_depth"))
        .SetAt(static_cast<double>(worker->queue.size()), now);
    metrics->gauge(named("worker.", name, ".busy_seconds"))
        .SetAt(worker->cpu.busy_time().seconds(), now);
    metrics->counter(named("worker.", name, ".cold_starts"))
        .Set(worker->cold_starts);
    metrics->counter(named("worker.", name, ".routed"))
        .Set(lb_.RoutedToId(id));
    metrics->gauge(named("cache.shard.", name, ".used_bytes"))
        .SetAt(static_cast<double>(cache_.shard_used_bytes(id)), now);
    metrics->counter(named("cache.shard.", name, ".evictions"))
        .Set(cache_.shard_evictions(id));
    const Network::NodeStats net = network_.NodeStatsOf(name);
    metrics->counter(named("net.", name, ".bytes_out")).Set(net.bytes_out);
    metrics->counter(named("net.", name, ".bytes_in")).Set(net.bytes_in);
    metrics->counter(named("net.", name, ".queue_delay_ns"))
        .Set(static_cast<std::uint64_t>(net.queue_delay.nanos()));
  }
}

}  // namespace palette
