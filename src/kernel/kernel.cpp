#include "kernel/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <mutex>
#include <new>

#include "xbt/exception.hpp"
#include "xbt/log.hpp"
#include "xbt/str.hpp"

SG_LOG_NEW_CATEGORY(kernel, "simulation kernel (maestro)");

namespace sg::kernel {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// The actor currently executing and its kernel, per OS thread. Under the
// thread context backend each actor body runs on its own OS thread, and the
// semaphore handoff publishes the resumer's write to that thread (release
// before acquire): resume_context and run_shard_batch set these on the
// resuming thread, and ThreadContext bodies publish them in their own slots
// (see spawn). g_active_kernel stays a plain global: it is only written
// from kernel construction/destruction (serial by definition).
thread_local Actor* g_current_actor = nullptr;
thread_local Kernel* g_current_kernel = nullptr;
Kernel* g_active_kernel = nullptr;

double clock_provider() { return g_active_kernel ? g_active_kernel->now() : -1.0; }
const char* actor_provider() { return g_current_actor ? g_current_actor->name().c_str() : nullptr; }

/// Translate a wake status into the exception the simcall should raise.
void check_status(WakeStatus st) {
  switch (st) {
    case WakeStatus::kOk:
      return;
    case WakeStatus::kTimeout:
      throw xbt::TimeoutException();
    case WakeStatus::kHostFailure:
      throw xbt::HostFailureException();
    case WakeStatus::kNetworkFailure:
      throw xbt::NetworkFailureException();
    case WakeStatus::kCanceled:
      throw xbt::CancelException();
  }
}
}  // namespace

Actor::Actor(ActorId id, std::string name, int host, std::function<void()> body, bool daemon,
             bool auto_restart)
    : id_(id), host_(host), daemon_(daemon), auto_restart_(auto_restart), name_(std::move(name)),
      body_(std::move(body)) {}

// -- comm control-block pool ---------------------------------------------------
// Same shape as the engine's ActionBlockPool: allocate_shared fuses the Comm
// and its shared_ptr control block into one allocation of a single size,
// which a LIFO free list then recycles — at millions of rendezvous per run
// the allocator drops off the profile and recycled blocks come back
// cache-warm. One pool per run-queue shard. The last CommPtr reference to a
// block can drop on an actor's own OS thread (thread context backend), so
// both sides of the free list take the pool's mutex.

struct CommBlockPool {
  static constexpr size_t kMaxFreeBlocks = 64 * 1024;
  std::mutex mutex;
  std::vector<void*> free_blocks;
  size_t block_bytes = 0;  ///< learned from the first allocation

  ~CommBlockPool() {
    for (void* p : free_blocks)
      ::operator delete(p);
  }

  void* allocate(size_t bytes) {
    std::lock_guard<std::mutex> lock(mutex);
    if (block_bytes == 0)
      block_bytes = bytes;
    if (bytes == block_bytes && !free_blocks.empty()) {
      void* p = free_blocks.back();
      free_blocks.pop_back();
      return p;
    }
    return ::operator new(bytes);
  }

  void deallocate(void* p, size_t bytes) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (bytes == block_bytes && free_blocks.size() < kMaxFreeBlocks) {
        free_blocks.push_back(p);
        return;
      }
    }
    ::operator delete(p);
  }
};

namespace {
template <typename T>
struct CommPoolAllocator {
  using value_type = T;

  explicit CommPoolAllocator(std::shared_ptr<CommBlockPool> pool) : pool_(std::move(pool)) {}
  template <typename U>
  CommPoolAllocator(const CommPoolAllocator<U>& other) : pool_(other.pool_) {}

  T* allocate(size_t n) { return static_cast<T*>(pool_->allocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) { pool_->deallocate(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const CommPoolAllocator<U>& other) const {
    return pool_ == other.pool_;
  }

  std::shared_ptr<CommBlockPool> pool_;
};
}  // namespace

CommPtr Kernel::make_comm(Actor* for_actor) {
  const size_t shard = for_actor != nullptr ? static_cast<size_t>(for_actor->shard_) : 0;
  return std::allocate_shared<Comm>(CommPoolAllocator<Comm>(comm_pools_[shard]));
}

// -- actor slot arena ----------------------------------------------------------

struct Kernel::ActorChunk {
  alignas(Actor) unsigned char raw[sizeof(Actor) * kChunkSize];
};

Actor* Kernel::slot(std::uint32_t s) const {
  auto* chunk = const_cast<ActorChunk*>(chunks_[s >> kChunkShift].get());
  return std::launder(reinterpret_cast<Actor*>(chunk->raw + sizeof(Actor) * (s & (kChunkSize - 1))));
}

Actor* Kernel::allocate_actor(ActorId id, const std::string& name, int host, std::function<void()> body,
                              bool daemon, bool auto_restart) {
  std::uint32_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s = slot_high_++;
    if ((s >> kChunkShift) >= chunks_.size())
      chunks_.push_back(std::make_unique<ActorChunk>());
  }
  void* raw = chunks_[s >> kChunkShift]->raw + sizeof(Actor) * (s & (kChunkSize - 1));
  Actor* a = new (raw) Actor(id, name, host, std::move(body), daemon, auto_restart);
  a->slot_ = s;
  return a;
}

void Kernel::reap_actor(Actor* a) {
  assert(!a->in_ready_queue_ && "cannot reap an actor still queued");
  id_to_slot_.erase(a->id_);
  const std::uint32_t s = a->slot_;
  a->~Actor();  // the Context dtor returns the fiber stack to the pool
  free_slots_.push_back(s);
}

void Kernel::host_list_insert(Actor* a) {
  auto& head = host_live_head_[static_cast<size_t>(a->host_)];
  a->host_prev_ = -1;
  a->host_next_ = head;
  if (head != -1)
    slot(static_cast<std::uint32_t>(head))->host_prev_ = static_cast<std::int32_t>(a->slot_);
  head = static_cast<std::int32_t>(a->slot_);
}

void Kernel::host_list_remove(Actor* a) {
  if (a->host_prev_ != -1)
    slot(static_cast<std::uint32_t>(a->host_prev_))->host_next_ = a->host_next_;
  else
    host_live_head_[static_cast<size_t>(a->host_)] = a->host_next_;
  if (a->host_next_ != -1)
    slot(static_cast<std::uint32_t>(a->host_next_))->host_prev_ = a->host_prev_;
  a->host_prev_ = a->host_next_ = -1;
}

std::int32_t Kernel::shard_for_host(int host) const {
  if (ready_.size() <= 1)
    return 0;
  const auto& sm = engine_.platform().shard_map();
  if (static_cast<size_t>(host) < sm.host_shard.size()) {
    const std::int32_t s = sm.host_shard[static_cast<size_t>(host)];
    if (s >= 0 && static_cast<size_t>(s) < ready_.size())
      return s;
  }
  return 0;
}

// -- kernel lifecycle ----------------------------------------------------------

Kernel::Kernel(platform::Platform platform)
    : context_factory_(ContextFactory::from_config()), engine_(std::move(platform)) {
  engine_.set_resource_observer([this](bool is_host, int index, bool on) {
    if (is_host)
      host_changes_.push_back({index, on});
  });
  const auto& pf = engine_.platform();
  host_live_head_.assign(pf.host_count(), -1);
  const auto& sm = pf.shard_map();
  const bool sharded = sm.shard_count > 0 && sm.host_shard.size() == pf.host_count();
  ready_.resize(sharded ? static_cast<size_t>(sm.shard_count) : 1);
  batch_.resize(ready_.size());
  ran_.resize(ready_.size());
  comm_pools_.resize(ready_.size());
  for (auto& pool : comm_pools_)
    pool = std::make_shared<CommBlockPool>();
  lane_counters_.resize(1);  // one lane: the maestro
  g_active_kernel = this;
  xbt::log_set_clock_provider(&clock_provider);
  xbt::log_set_actor_provider(&actor_provider);
  SG_DEBUG(kernel, "kernel up: %s contexts, %zu run-queue shard(s)", context_factory_->backend_name(),
           ready_.size());
}

Kernel::~Kernel() {
  teardown_all_actors();
  if (g_active_kernel == this)
    g_active_kernel = nullptr;
}

void Kernel::teardown_all_actors() {
  // Kill survivors in id order (deterministic exit-callback order). Work
  // from ids, not pointers: killing one actor can transitively end others
  // (exit callbacks), and ended actors are reaped eagerly.
  for (ActorId id : live_actors()) {
    auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end())
      continue;
    Actor* a = slot(it->second);
    if (a->alive())
      kill_internal(a, false);
  }
  // Reap the zombies those deaths left in the run queues.
  for (auto& q : ready_) {
    while (!q.empty()) {
      Actor* a = q.front();
      q.pop_front();
      a->in_ready_queue_ = false;
      if (!a->alive())
        reap_actor(a);
    }
  }
}

Actor* Kernel::self() { return g_current_actor; }
Kernel* Kernel::current() { return g_current_kernel != nullptr ? g_current_kernel : g_active_kernel; }

ActorId Kernel::spawn(const std::string& name, int host, std::function<void()> body, bool daemon,
                      bool auto_restart) {
  if (Actor* a = self(); a != nullptr && a->phase_quantum_) {
    // Spawning touches the slot arena, the id map and (via schedule) a ready
    // queue of another shard — epilogue work, all of it.
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kSpawn;
    rec.name = &name;
    rec.host = host;
    rec.spawn_body = &body;
    rec.spawn_daemon = daemon;
    rec.spawn_auto_restart = auto_restart;
    record_and_park(a, rec);
    if (rec.error)
      std::rethrow_exception(rec.error);
    return rec.spawned;
  }
  if (host < 0 || static_cast<size_t>(host) >= engine_.platform().host_count())
    throw xbt::InvalidArgument("spawn: no such host");
  if (!engine_.host_present(host))
    throw xbt::HostFailureException(
        "spawn: host " + engine_.platform().host(host).name + " departed at t=" +
        xbt::format("%g", engine_.platform().host_departed_at(host)) +
        " (rejoin_host() restores it)");
  if (!engine_.host_is_on(host))
    throw xbt::HostFailureException("spawn: host " + engine_.platform().host(host).name + " is down");
  const ActorId id = next_actor_id_++;
  Actor* a = allocate_actor(id, name, host, std::move(body), daemon, auto_restart);
  a->shard_ = shard_for_host(host);
  a->context_ = context_factory_->create([this, a] {
    // Publish identity in the *body's* thread-local slots: thread-backend
    // actors run on their own OS thread, which resume_context (running on
    // the maestro) cannot reach. Fibers run on the resuming thread,
    // where resume_context already published the same values.
    g_current_actor = a;
    g_current_kernel = this;
    a->body_();
  });
  id_to_slot_.emplace(id, a->slot_);
  host_list_insert(a);
  ++live_count_;
  if (!a->daemon_)
    ++live_nondaemon_;
  ++stats_.actors_spawned;
  schedule(a);
  SG_DEBUG(kernel, "spawned actor %ld '%s' on %s", id, name.c_str(),
           engine_.platform().host(host).name.c_str());
  return id;
}

void Kernel::schedule(Actor* a) {
  if (a->state_ == Actor::State::kReady && !a->suspended_ && !a->in_ready_queue_) {
    ready_[static_cast<size_t>(a->shard_)].push_back(a);
    a->in_ready_queue_ = true;
  }
}

size_t Kernel::total_ready() const {
  size_t n = 0;
  for (const auto& q : ready_)
    n += q.size();
  return n;
}

bool Kernel::in_scheduling_phase() {
  return g_current_actor != nullptr && g_current_actor->phase_quantum_;
}

void Kernel::wake(Actor* a, WakeStatus status) {
  if (a->state_ != Actor::State::kBlocked)
    return;
  a->wake_status_ = status;
  a->state_ = Actor::State::kReady;
  ++a->timer_gen_;
  if (a->blocked_action_) {
    // Unhook before any straggler event for this action can observe a slot
    // that was meanwhile reaped and reused.
    a->blocked_action_->user_data = nullptr;
    a->blocked_action_.reset();
  }
  a->blocked_comm_.reset();
  ++lane_counters_[static_cast<size_t>(context_lane())].wakeups;
  schedule(a);
}

Kernel::Stats Kernel::stats() const {
  Stats out = stats_;
  for (const auto& lane : lane_counters_) {
    out.wakeups += lane.wakeups;
    out.context_switches += lane.context_switches;
  }
  return out;
}

WakeStatus Kernel::block_self(Actor* a, double timeout) {
  a->state_ = Actor::State::kBlocked;
  if (timeout >= 0)
    timers_.push(Timer{engine_.now() + timeout, a->id_, a->timer_gen_});
  a->context_->yield();
  return a->wake_status_;
}

void Kernel::resume_context(Actor* a) {
  // Re-entrant: an actor killing another resumes the victim from inside its
  // own quantum, so save/restore rather than set/clear.
  Actor* const prev_actor = g_current_actor;
  Kernel* const prev_kernel = g_current_kernel;
  g_current_actor = a;
  g_current_kernel = this;
  ++lane_counters_[static_cast<size_t>(context_lane())].context_switches;
  const bool finished = a->context_->resume_and_wait();
  g_current_actor = prev_actor;
  g_current_kernel = prev_kernel;
  if (finished)
    handle_actor_end(a);  // may reap `a` — do not touch it afterwards
}

void Kernel::handle_actor_end(Actor* a) {
  if (a->state_ == Actor::State::kDead)
    return;
  a->state_ = Actor::State::kDead;
  a->pending_ = nullptr;
  ++a->timer_gen_;
  if (a->blocked_action_) {
    a->blocked_action_->user_data = nullptr;
    a->blocked_action_.reset();
  }
  a->blocked_comm_.reset();
  host_list_remove(a);
  --live_count_;
  if (!a->daemon_)
    --live_nondaemon_;
  if (a->context_->failure()) {
    try {
      std::rethrow_exception(a->context_->failure());
    } catch (const std::exception& e) {
      SG_ERROR(kernel, "actor '%s' died of an uncaught exception: %s", a->name_.c_str(), e.what());
    } catch (...) {
      SG_ERROR(kernel, "actor '%s' died of an uncaught exception", a->name_.c_str());
    }
  }
  for (auto& cb : a->exit_callbacks_)
    cb(a->killed_by_failure_);
  if (a->auto_restart_ && a->killed_by_failure_)
    pending_restarts_.push_back({a->name_, a->host_, a->body_, a->daemon_});
  SG_DEBUG(kernel, "actor %ld '%s' terminated", a->id_, a->name_.c_str());
  // Recycle the slot right away unless the actor still sits in a run queue
  // (killed while ready); the scheduler sweep reaps it when popped.
  if (!a->in_ready_queue_)
    reap_actor(a);
}

double Kernel::run() {
  running_ = true;
  long idle_rounds = 0;
  while (true) {
    bool any_ran = false;
    while (total_ready() > 0)
      any_ran = run_scheduling_round() || any_ran;

    if (live_nondaemon_ == 0)
      break;

    // Engine time advance; all actor-visible effects were committed above.
    const double timer_bound = timers_.empty() ? kInf : timers_.top().time;
    const auto events = engine_.run_until(timer_bound);
    for (const auto& ev : events)
      handle_action_event(ev);
    fire_due_timers();
    process_resource_changes();

    if (!events.empty() || any_ran || total_ready() > 0) {
      idle_rounds = 0;
      continue;
    }
    const double next = engine_.next_event_time();
    if (next == kInf && timers_.empty() && total_ready() == 0) {
      deadlocked_ = true;
      SG_WARN(kernel, "deadlock: %zu actor(s) blocked forever at t=%g; stopping the simulation",
              alive_actor_count(), engine_.now());
      for (ActorId id : live_actors()) {
        const Actor* a = slot(id_to_slot_.at(id));
        SG_WARN(kernel, "  blocked actor: '%s' on %s", a->name_.c_str(),
                engine_.platform().host(a->host_).name.c_str());
      }
      break;
    }
    if (++idle_rounds > 1000000) {
      deadlocked_ = true;
      SG_ERROR(kernel, "giving up: 1e6 idle scheduling rounds (runaway trace events?)");
      break;
    }
  }

  // Tear down survivors (daemons, deadlocked actors).
  teardown_all_actors();
  running_ = false;
  return engine_.now();
}

// -- round-based scheduling -----------------------------------------------------

bool Kernel::run_scheduling_round() {
  const int shards = static_cast<int>(ready_.size());
  // Snapshot every shard's batch up front: a round runs exactly the actors
  // that were ready when it began, so mid-round wakes always land in the
  // next round regardless of which shard they touch.
  for (int s = 0; s < shards; ++s) {
    batch_[static_cast<size_t>(s)] = ready_[static_cast<size_t>(s)].size();
    ran_[static_cast<size_t>(s)].clear();
  }

  // Scheduling phase: user code runs up to its next simcall (see the
  // execution-model notes in kernel.hpp), shard by shard on the maestro.
  for (int s = 0; s < shards; ++s)
    run_shard_batch(s);

  // Serial epilogue: commit every quantum in fixed shard order, batch order
  // within a shard. All engine actions, timers, wakes, spawns, kills, and
  // reaps happen here.
  bool any_ran = false;
  for (int s = 0; s < shards; ++s) {
    for (RanActor& r : ran_[static_cast<size_t>(s)]) {
      if (!r.zombie)
        any_ran = true;
      commit_ran(r);
      process_resource_changes();
    }
    ran_[static_cast<size_t>(s)].clear();  // drop CommPtr references promptly
  }
  return any_ran;
}

void Kernel::run_shard_batch(int shard) {
  auto& q = ready_[static_cast<size_t>(shard)];
  auto& ran = ran_[static_cast<size_t>(shard)];
  for (size_t n = batch_[static_cast<size_t>(shard)]; n > 0; --n) {
    Actor* a = q.front();
    q.pop_front();
    a->in_ready_queue_ = false;
    if (!a->alive()) {
      // Killed while queued: reaping touches the shared arena, so defer it
      // to the epilogue (deterministic zombie reaping).
      RanActor r;
      r.actor = a;
      r.id = a->id_;
      r.zombie = true;
      ran.push_back(std::move(r));
      continue;
    }
    if (a->state_ != Actor::State::kReady || a->suspended_)
      continue;
    RanActor r;
    r.actor = a;
    r.id = a->id_;
    a->pending_ = nullptr;
    a->phase_quantum_ = true;
    a->phase_starts_ = &r.started;
    // Not resume_context(): a body that finishes here must have its end
    // handled by the epilogue.
    Actor* const prev_actor = g_current_actor;
    Kernel* const prev_kernel = g_current_kernel;
    g_current_actor = a;
    g_current_kernel = this;
    ++lane_counters_[static_cast<size_t>(context_lane())].context_switches;
    r.finished = a->context_->resume_and_wait();
    g_current_actor = prev_actor;
    g_current_kernel = prev_kernel;
    a->phase_quantum_ = false;
    a->phase_starts_ = nullptr;  // r.started moves below; never read parked
    r.rec = r.finished ? nullptr : a->pending_;
    assert((r.finished || r.rec != nullptr) && "a quantum must end in a simcall or termination");
    ran.push_back(std::move(r));
  }
}

void Kernel::record_and_park(Actor* a, PendingSimcall& rec) {
  a->pending_ = &rec;
  a->state_ = Actor::State::kBlocked;
  a->context_->yield();
  // Woken by the epilogue: the record was committed (results valid), or the
  // actor was resumed with a wake status after blocking.
}

void Kernel::serial_resume(Actor* a) {
  a->state_ = Actor::State::kReady;
  resume_context(a);
}

void Kernel::arm_timeout(Actor* a, double timeout) {
  if (timeout >= 0)
    timers_.push(Timer{engine_.now() + timeout, a->id_, a->timer_gen_});
}

void Kernel::commit_comm_wait(Actor* a, PendingSimcall& rec, const CommPtr& comm) {
  if (comm->state == Comm::State::kFinished) {
    // Already resolved: requeue the actor with the comm's outcome.
    wake(a, comm->result);
    return;
  }
  if (comm->sender_id == a->id_)
    comm->sender_waiting = true;
  else
    comm->receiver_waiting = true;
  a->blocked_comm_ = comm;
  arm_timeout(a, rec.timeout);
}

void Kernel::commit_ran(RanActor& r) {
  if (r.zombie) {
    reap_actor(r.actor);
    return;
  }
  Actor* a = r.actor;
  // Replay the quantum's inline-matched comm starts first: in program order
  // they happened before whatever the actor last recorded — and they must
  // replay even if the actor was killed meanwhile, or the matched peer would
  // be stranded on a comm that never starts. A comm detached (finished) by
  // such a kill is skipped via the state guard.
  for (CommPtr& c : r.started)
    if (c->state == Comm::State::kMatched)
      start_comm(c);
  r.started.clear();

  // Identity guard: an earlier commit in this same epilogue may have killed
  // the actor — and its slot may already host a respawned successor.
  auto it = id_to_slot_.find(r.id);
  if (it == id_to_slot_.end() || slot(it->second) != a)
    return;

  if (r.finished) {
    if (a->alive())
      handle_actor_end(a);
    return;
  }
  if (!a->alive() || a->pending_ != r.rec)
    return;  // killed while parked earlier in this epilogue; already unwound
  PendingSimcall* rec = r.rec;
  a->pending_ = nullptr;

  switch (rec->kind) {
    case PendingSimcall::Kind::kYield:
      a->state_ = Actor::State::kReady;
      schedule(a);
      break;

    case PendingSimcall::Kind::kExec:
    case PendingSimcall::Kind::kPtask:
    case PendingSimcall::Kind::kSleep:
      try {
        core::ActionPtr action;
        if (rec->kind == PendingSimcall::Kind::kExec)
          action = engine_.exec_start(a->host_, rec->flops, rec->priority, a->name_ + ":exec");
        else if (rec->kind == PendingSimcall::Kind::kPtask)
          action = engine_.ptask_start(*rec->ptask_hosts, *rec->ptask_flops, *rec->ptask_bytes,
                                       a->name_ + ":ptask");
        else
          action = engine_.sleep_start(a->host_, rec->duration, a->name_ + ":sleep");
        action->user_data = a;
        if (a->suspended_)
          action->suspend();  // suspended while parked: start the work paused
        a->blocked_action_ = std::move(action);
      } catch (...) {
        // Surface creation failures (host down, bad arguments) inside the
        // actor, as the inline path would have.
        rec->error = std::current_exception();
        wake(a, WakeStatus::kOk);
      }
      break;

    case PendingSimcall::Kind::kSendWait: {
      CommPtr comm = send_async_impl(a, rec->mailbox, rec->payload, rec->bytes, rec->rate);
      rec->comm = comm;
      commit_comm_wait(a, *rec, comm);
      break;
    }
    case PendingSimcall::Kind::kRecvWait: {
      CommPtr comm = recv_async_impl(a, rec->mailbox);
      rec->comm = comm;
      commit_comm_wait(a, *rec, comm);
      break;
    }
    case PendingSimcall::Kind::kCommWait:
      commit_comm_wait(a, *rec, rec->comm);
      break;

    case PendingSimcall::Kind::kSendAsync: {
      CommPtr comm = send_async_impl(a, rec->mailbox, rec->payload, rec->bytes, rec->rate);
      comm->detached = rec->detached;
      rec->comm = comm;
      serial_resume(a);
      break;
    }
    case PendingSimcall::Kind::kRecvAsync:
      rec->comm = recv_async_impl(a, rec->mailbox);
      serial_resume(a);
      break;

    case PendingSimcall::Kind::kCommTest:
      rec->flag_result = rec->comm->state == Comm::State::kFinished;
      serial_resume(a);
      break;
    case PendingSimcall::Kind::kCommProbe:
      rec->flag_result =
          rec->mailbox != kNoMailbox && !mailbox_ref(rec->mailbox).queued_sends.empty();
      serial_resume(a);
      break;

    case PendingSimcall::Kind::kInternMailbox:
      rec->interned = intern_mailbox(*rec->name, a->shard_);
      serial_resume(a);
      break;

    case PendingSimcall::Kind::kSpawn:
      try {
        rec->spawned = spawn(*rec->name, rec->host, std::move(*rec->spawn_body),
                             rec->spawn_daemon, rec->spawn_auto_restart);
      } catch (...) {
        rec->error = std::current_exception();
      }
      serial_resume(a);
      break;

    case PendingSimcall::Kind::kKill: {
      Actor* victim = actor(rec->target);
      if (victim != nullptr && victim->alive())
        kill_internal(victim, false);
      // The victim's exit callbacks may have killed the caller in turn.
      if (a->alive())
        serial_resume(a);
      break;
    }

    case PendingSimcall::Kind::kSuspendSelf:
      // Like the inline self-suspend: runnable again the moment someone
      // resume()s it; stays parked until then.
      a->suspended_ = true;
      a->state_ = Actor::State::kReady;
      break;
    case PendingSimcall::Kind::kSuspendOther:
      suspend(rec->target);
      serial_resume(a);
      break;
    case PendingSimcall::Kind::kResume:
      resume(rec->target);
      serial_resume(a);
      break;

    case PendingSimcall::Kind::kHostState:
      try {
        engine_.set_host_state(rec->host, rec->host_on);
      } catch (...) {
        rec->error = std::current_exception();
      }
      // Resource changes are processed when this quantum fully ends (after
      // the serial continuation blocks), matching the inline ordering.
      serial_resume(a);
      break;

    case PendingSimcall::Kind::kLeaveHost:
      try {
        engine_.leave_host(rec->host);
      } catch (...) {
        rec->error = std::current_exception();
      }
      serial_resume(a);
      break;
    case PendingSimcall::Kind::kRejoinHost:
      try {
        engine_.rejoin_host(rec->host);
      } catch (...) {
        rec->error = std::current_exception();
      }
      serial_resume(a);
      break;

    case PendingSimcall::Kind::kNone:
      assert(false && "parked without a record");
      break;
  }
}

// -- simcalls ---------------------------------------------------------------

void Kernel::execute(double flops, double priority) {
  Actor* a = self();
  assert(a != nullptr && "execute() must be called from an actor");
  if (a->phase_quantum_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kExec;
    rec.flops = flops;
    rec.priority = priority;
    record_and_park(a, rec);
    if (rec.error)
      std::rethrow_exception(rec.error);
    check_status(a->wake_status_);
    return;
  }
  auto action = engine_.exec_start(a->host_, flops, priority, a->name_ + ":exec");
  action->user_data = a;
  a->blocked_action_ = action;
  check_status(block_self(a, -1.0));
}

void Kernel::execute_parallel(const std::vector<int>& hosts, const std::vector<double>& flops,
                              const std::vector<std::vector<double>>& bytes) {
  Actor* a = self();
  assert(a != nullptr && "execute_parallel() must be called from an actor");
  if (a->phase_quantum_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kPtask;
    rec.ptask_hosts = &hosts;
    rec.ptask_flops = &flops;
    rec.ptask_bytes = &bytes;
    record_and_park(a, rec);
    if (rec.error)
      std::rethrow_exception(rec.error);
    check_status(a->wake_status_);
    return;
  }
  auto action = engine_.ptask_start(hosts, flops, bytes, a->name_ + ":ptask");
  action->user_data = a;
  a->blocked_action_ = action;
  check_status(block_self(a, -1.0));
}

void Kernel::sleep_for(double duration) {
  Actor* a = self();
  assert(a != nullptr && "sleep_for() must be called from an actor");
  if (duration <= 0) {
    yield_now();
    return;
  }
  if (a->phase_quantum_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kSleep;
    rec.duration = duration;
    record_and_park(a, rec);
    if (rec.error)
      std::rethrow_exception(rec.error);
    check_status(a->wake_status_);
    return;
  }
  auto action = engine_.sleep_start(a->host_, duration, a->name_ + ":sleep");
  action->user_data = a;
  a->blocked_action_ = action;
  check_status(block_self(a, -1.0));
}

void Kernel::yield_now() {
  Actor* a = self();
  assert(a != nullptr);
  if (a->phase_quantum_) {
    // The requeue touches the shard's own deque, but the epilogue does it
    // so the ready order interleaves in commit order.
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kYield;
    record_and_park(a, rec);
    return;
  }
  a->state_ = Actor::State::kReady;
  schedule(a);
  a->context_->yield();
}

void Kernel::exit_self() {
  assert(self() != nullptr);
  throw ForcedExit{};
}

// -- mailboxes & communications -------------------------------------------------

MailboxId Kernel::mailbox_by_name(const std::string& name) {
  Actor* a = self();
  if (a != nullptr && a->phase_quantum_) {
    // The id map is only mutated serially, so phase-time lookups are
    // race-free; a miss defers the insertion to the epilogue.
    auto it = mailbox_ids_.find(name);
    if (it != mailbox_ids_.end())
      return it->second;
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kInternMailbox;
    rec.name = &name;
    record_and_park(a, rec);
    return rec.interned;
  }
  return intern_mailbox(name, a != nullptr ? a->shard_ : 0);
}

MailboxId Kernel::intern_mailbox(const std::string& name, std::int32_t home) {
  auto [it, inserted] = mailbox_ids_.try_emplace(name, MailboxId{0});
  if (inserted) {
    it->second = static_cast<MailboxId>(mailboxes_.size());
    mailboxes_.emplace_back();
    mailboxes_.back().home = home;
    mailbox_names_.push_back(name);
  }
  return it->second;
}

CommPtr Kernel::send_async(MailboxId mb, void* payload, double bytes, double rate) {
  Actor* a = self();
  assert(a != nullptr && "send must be called from an actor");
  if (a->phase_quantum_ && mailbox_ref(mb).home != a->shard_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kSendAsync;
    rec.mailbox = mb;
    rec.payload = payload;
    rec.bytes = bytes;
    rec.rate = rate;
    record_and_park(a, rec);
    return rec.comm;
  }
  return send_async_impl(a, mb, payload, bytes, rate);
}

CommPtr Kernel::send_async_impl(Actor* a, MailboxId mb, void* payload, double bytes, double rate) {
  Mailbox& box = mailbox_ref(mb);
  if (!box.queued_recvs.empty()) {
    CommPtr comm = box.queued_recvs.front();
    box.queued_recvs.pop_front();
    comm->sender = a;
    comm->sender_id = a->id_;
    comm->src_host = a->host_;
    comm->payload = payload;
    comm->bytes = bytes;
    comm->rate = rate;
    if (a->phase_quantum_) {
      // Lanes never touch the engine: park the match until the maestro
      // replays this shard's pending starts (lists-local rule, kernel.hpp).
      comm->state = Comm::State::kMatched;
      a->phase_starts_->push_back(comm);
    } else {
      start_comm(comm);
    }
    return comm;
  }
  CommPtr comm = make_comm(a);
  comm->mailbox = mb;
  comm->state = Comm::State::kQueuedSend;
  comm->sender = a;
  comm->sender_id = a->id_;
  comm->src_host = a->host_;
  comm->payload = payload;
  comm->bytes = bytes;
  comm->rate = rate;
  box.queued_sends.push_back(comm);
  return comm;
}

CommPtr Kernel::recv_async(MailboxId mb) {
  Actor* a = self();
  assert(a != nullptr && "recv must be called from an actor");
  if (a->phase_quantum_ && mailbox_ref(mb).home != a->shard_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kRecvAsync;
    rec.mailbox = mb;
    record_and_park(a, rec);
    return rec.comm;
  }
  return recv_async_impl(a, mb);
}

CommPtr Kernel::recv_async_impl(Actor* a, MailboxId mb) {
  Mailbox& box = mailbox_ref(mb);
  if (!box.queued_sends.empty()) {
    CommPtr comm = box.queued_sends.front();
    box.queued_sends.pop_front();
    comm->receiver = a;
    comm->receiver_id = a->id_;
    comm->dst_host = a->host_;
    if (a->phase_quantum_) {
      comm->state = Comm::State::kMatched;
      a->phase_starts_->push_back(comm);
    } else {
      start_comm(comm);
    }
    return comm;
  }
  CommPtr comm = make_comm(a);
  comm->mailbox = mb;
  comm->state = Comm::State::kQueuedRecv;
  comm->receiver = a;
  comm->receiver_id = a->id_;
  comm->dst_host = a->host_;
  box.queued_recvs.push_back(comm);
  return comm;
}

void Kernel::start_comm(const CommPtr& comm) {
  comm->state = Comm::State::kStarted;
  // By-value host ids: a detached sender may be long dead by the time its
  // queued comm finds a receiver.
  comm->action = engine_.comm_start(comm->src_host, comm->dst_host, comm->bytes, comm->rate);
  inflight_.emplace(comm->action.get(), comm);
}

void Kernel::finish_comm(const CommPtr& comm, WakeStatus result) {
  comm->state = Comm::State::kFinished;
  comm->result = result;
  // Identity guards: wake each party only while it is still blocked on this
  // very communication (a straggler event must never wake an actor that has
  // meanwhile blocked on something else). A waiting party is, by the
  // endpoint lifetime invariant (comm.hpp), necessarily alive.
  if (comm->receiver != nullptr && comm->receiver_waiting && comm->receiver->blocked_comm_ == comm)
    wake(comm->receiver, result);
  if (comm->sender != nullptr && comm->sender_waiting && comm->sender->blocked_comm_ == comm)
    wake(comm->sender, result);
}

void* Kernel::comm_wait(const CommPtr& comm, double timeout) {
  Actor* a = self();
  assert(a != nullptr);
  if (a->phase_quantum_) {
    // Even a home-shard comm defers the wait: its state can be flipped by the
    // serial epilogue only.
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kCommWait;
    rec.comm = comm;
    rec.timeout = timeout;
    record_and_park(a, rec);
    if (comm->sender_id == a->id_)
      comm->sender_waiting = false;
    else
      comm->receiver_waiting = false;
    check_status(a->wake_status_);
    return comm->payload;
  }
  WakeStatus st;
  if (comm->state == Comm::State::kFinished) {
    st = comm->result;
  } else {
    const bool is_sender = comm->sender_id == a->id_;
    if (is_sender)
      comm->sender_waiting = true;
    else
      comm->receiver_waiting = true;
    a->blocked_comm_ = comm;
    st = block_self(a, timeout);
    if (is_sender)
      comm->sender_waiting = false;
    else
      comm->receiver_waiting = false;
  }
  check_status(st);
  return comm->payload;
}

void Kernel::send(MailboxId mb, void* payload, double bytes, double timeout, double rate) {
  Actor* a = self();
  assert(a != nullptr && "send must be called from an actor");
  if (a->phase_quantum_ && mailbox_ref(mb).home != a->shard_) {
    // Fused enqueue+wait: one park instead of an async record followed by a
    // second park in comm_wait.
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kSendWait;
    rec.mailbox = mb;
    rec.payload = payload;
    rec.bytes = bytes;
    rec.rate = rate;
    rec.timeout = timeout;
    record_and_park(a, rec);
    if (rec.comm)
      rec.comm->sender_waiting = false;
    check_status(a->wake_status_);
    return;
  }
  comm_wait(send_async(mb, payload, bytes, rate), timeout);
}

void Kernel::send_detached(MailboxId mb, void* payload, double bytes, double rate) {
  Actor* a = self();
  assert(a != nullptr && "send_detached must be called from an actor");
  if (a->phase_quantum_ && mailbox_ref(mb).home != a->shard_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kSendAsync;
    rec.mailbox = mb;
    rec.payload = payload;
    rec.bytes = bytes;
    rec.rate = rate;
    rec.detached = true;
    record_and_park(a, rec);
    return;
  }
  CommPtr comm = send_async_impl(a, mb, payload, bytes, rate);
  comm->detached = true;
}

void* Kernel::recv(MailboxId mb, double timeout, ActorId* source) {
  Actor* a = self();
  assert(a != nullptr && "recv must be called from an actor");
  if (a->phase_quantum_ && mailbox_ref(mb).home != a->shard_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kRecvWait;
    rec.mailbox = mb;
    rec.timeout = timeout;
    record_and_park(a, rec);
    if (rec.comm)
      rec.comm->receiver_waiting = false;
    check_status(a->wake_status_);
    if (source != nullptr)
      *source = rec.comm->sender_id;
    return rec.comm->payload;
  }
  CommPtr comm = recv_async(mb);
  void* payload = comm_wait(comm, timeout);
  if (source != nullptr)
    *source = comm->sender_id;
  return payload;
}

bool Kernel::comm_waiting(MailboxId mb) {
  Actor* a = self();
  if (a != nullptr && a->phase_quantum_ && mailbox_ref(mb).home != a->shard_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kCommProbe;
    rec.mailbox = mb;
    record_and_park(a, rec);
    return rec.flag_result;
  }
  return !mailboxes_[static_cast<size_t>(mb)].queued_sends.empty();
}

bool Kernel::comm_waiting(const std::string& mb) {
  // Probe without interning: an unknown name trivially has nothing queued.
  // The id map only mutates serially, so the phase-time find is race-free.
  auto it = mailbox_ids_.find(mb);
  return it != mailbox_ids_.end() && comm_waiting(it->second);
}

bool Kernel::comm_test(const CommPtr& comm) {
  Actor* a = self();
  if (a != nullptr && a->phase_quantum_ &&
      (comm->mailbox == kNoMailbox || mailbox_ref(comm->mailbox).home != a->shard_)) {
    // A foreign-shard comm may still have a pending match in this round's
    // records; only the serial epilogue reads its state in order.
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kCommTest;
    rec.comm = comm;
    record_and_park(a, rec);
    return rec.flag_result;
  }
  return comm->state == Comm::State::kFinished;
}

// -- event handling -----------------------------------------------------------

void Kernel::handle_action_event(const core::ActionEvent& ev) {
  const core::Action* act = ev.action.get();
  switch (act->kind()) {
    case core::ActionKind::kExec:
    case core::ActionKind::kSleep:
    case core::ActionKind::kPtask: {
      Actor* a = static_cast<Actor*>(act->user_data);
      // Identity guard: only wake the actor while it still waits on this
      // exact action (stale cancel events must not leak a spurious kOk).
      // user_data is nulled whenever an actor detaches from an action, so a
      // straggler event can never reach a reaped (and possibly reused) slot.
      if (a != nullptr && a->blocked_action_.get() == act)
        wake(a, ev.failed ? WakeStatus::kHostFailure : WakeStatus::kOk);
      break;
    }
    case core::ActionKind::kComm: {
      auto it = inflight_.find(act);
      if (it == inflight_.end())
        return;
      CommPtr comm = it->second;
      inflight_.erase(it);
      if (comm->state == Comm::State::kFinished)
        return;  // already resolved by a timeout or a kill
      finish_comm(comm, ev.failed ? WakeStatus::kNetworkFailure : WakeStatus::kOk);
      break;
    }
  }
}

void Kernel::fire_due_timers() {
  while (!timers_.empty() && timers_.top().time <= engine_.now() + 1e-12) {
    const Timer t = timers_.top();
    timers_.pop();
    auto it = id_to_slot_.find(t.actor);
    if (it == id_to_slot_.end())
      continue;  // actor reaped
    Actor* a = slot(it->second);
    if (a->state_ != Actor::State::kBlocked || t.gen != a->timer_gen_)
      continue;  // stale timer
    if (a->blocked_comm_ != nullptr) {
      CommPtr comm = a->blocked_comm_;
      if (comm->state == Comm::State::kQueuedSend || comm->state == Comm::State::kQueuedRecv) {
        remove_from_mailbox(comm);
        comm->state = Comm::State::kFinished;
        comm->result = WakeStatus::kTimeout;
        wake(a, WakeStatus::kTimeout);
      } else if (comm->state == Comm::State::kStarted) {
        comm->state = Comm::State::kFinished;
        comm->result = WakeStatus::kCanceled;
        const bool a_is_sender = comm->sender_id == a->id_;
        Actor* peer = a_is_sender ? comm->receiver : comm->sender;
        wake(a, WakeStatus::kTimeout);
        if (peer != nullptr && (a_is_sender ? comm->receiver_waiting : comm->sender_waiting))
          wake(peer, WakeStatus::kNetworkFailure);
        if (comm->action)
          comm->action->cancel();
      } else {
        wake(a, WakeStatus::kTimeout);
      }
    } else if (a->blocked_action_ != nullptr) {
      auto action = a->blocked_action_;
      wake(a, WakeStatus::kTimeout);
      action->cancel();
    } else {
      wake(a, WakeStatus::kTimeout);
    }
  }
}

void Kernel::remove_from_mailbox(const CommPtr& comm) {
  if (comm->mailbox == kNoMailbox)
    return;
  Mailbox& box = mailbox_ref(comm->mailbox);
  auto scrub = [&](std::deque<CommPtr>& q) {
    q.erase(std::remove(q.begin(), q.end(), comm), q.end());
  };
  scrub(box.queued_sends);
  scrub(box.queued_recvs);
}

void Kernel::detach_from_comm(Actor* a) {
  if (a->blocked_comm_ == nullptr)
    return;
  CommPtr comm = a->blocked_comm_;
  if (comm->state == Comm::State::kQueuedSend || comm->state == Comm::State::kQueuedRecv) {
    remove_from_mailbox(comm);
    comm->state = Comm::State::kFinished;
    comm->result = WakeStatus::kCanceled;
  } else if (comm->state == Comm::State::kMatched) {
    // Matched during the scheduling phase but its engine transfer was never
    // started (the party died before the pending start replayed). There is
    // no action to cancel; just fail the peer if it is already waiting.
    comm->state = Comm::State::kFinished;
    comm->result = WakeStatus::kCanceled;
    const bool a_is_sender = comm->sender_id == a->id_;
    Actor* peer = a_is_sender ? comm->receiver : comm->sender;
    if (peer != nullptr && (a_is_sender ? comm->receiver_waiting : comm->sender_waiting))
      wake(peer, WakeStatus::kNetworkFailure);
  } else if (comm->state == Comm::State::kStarted) {
    comm->state = Comm::State::kFinished;
    comm->result = WakeStatus::kCanceled;
    const bool a_is_sender = comm->sender_id == a->id_;
    Actor* peer = a_is_sender ? comm->receiver : comm->sender;
    if (peer != nullptr && (a_is_sender ? comm->receiver_waiting : comm->sender_waiting))
      wake(peer, WakeStatus::kNetworkFailure);
    if (comm->action)
      comm->action->cancel();
  }
  a->blocked_comm_.reset();
}

// -- actor management -----------------------------------------------------------

void Kernel::suspend(ActorId id) {
  if (Actor* caller = self(); caller != nullptr && caller->phase_quantum_) {
    PendingSimcall rec;
    if (id == caller->id_) {
      // Self-suspend parks right here; the commit flips the flag and leaves
      // the actor out of the queues until someone calls resume().
      rec.kind = PendingSimcall::Kind::kSuspendSelf;
      record_and_park(caller, rec);
    } else {
      // The target may belong to another shard's batch of this round — the
      // commit does the lookup and the flag work in epilogue order.
      rec.kind = PendingSimcall::Kind::kSuspendOther;
      rec.target = id;
      record_and_park(caller, rec);
    }
    return;
  }
  Actor* a = actor(id);
  if (a == nullptr || !a->alive() || a->suspended_)
    return;
  a->suspended_ = true;
  if (a->blocked_action_)
    a->blocked_action_->suspend();
  if (a->blocked_comm_ && a->blocked_comm_->state == Comm::State::kStarted && a->blocked_comm_->action)
    a->blocked_comm_->action->suspend();
  if (a == self()) {
    a->state_ = Actor::State::kReady;  // runnable again as soon as resumed
    a->context_->yield();
  }
}

void Kernel::resume(ActorId id) {
  if (Actor* caller = self(); caller != nullptr && caller->phase_quantum_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kResume;
    rec.target = id;
    record_and_park(caller, rec);
    return;
  }
  Actor* a = actor(id);
  if (a == nullptr || !a->alive() || !a->suspended_)
    return;
  a->suspended_ = false;
  if (a->blocked_action_)
    a->blocked_action_->resume();
  if (a->blocked_comm_ && a->blocked_comm_->state == Comm::State::kStarted && a->blocked_comm_->action)
    a->blocked_comm_->action->resume();
  schedule(a);
}

void Kernel::kill(ActorId id) {
  if (Actor* caller = self(); caller != nullptr && caller->phase_quantum_) {
    if (id == caller->id_) {
      caller->killed_by_failure_ = false;
      throw ForcedExit{};
    }
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kKill;
    rec.target = id;
    record_and_park(caller, rec);
    return;
  }
  Actor* a = actor(id);
  if (a == nullptr || !a->alive())
    return;
  kill_internal(a, false);
}

void Kernel::kill_internal(Actor* a, bool by_failure) {
  if (!a->alive())
    return;
  a->killed_by_failure_ = by_failure;
  if (a == self())
    throw ForcedExit{};
  detach_from_comm(a);
  if (a->blocked_action_) {
    auto action = a->blocked_action_;
    action->user_data = nullptr;
    a->blocked_action_.reset();
    action->cancel();
  }
  a->pending_ = nullptr;
  if (a->context_->finished()) {
    // The body already ran to completion during a scheduling phase and its
    // end handling is waiting for the epilogue commit; resuming a finished
    // context would never come back. Finish it here instead.
    handle_actor_end(a);
    return;
  }
  a->context_->request_kill();
  // Resume until the body has unwound (RAII during the unwind may yield).
  // Track by id, not pointer: the final resume runs handle_actor_end, which
  // may reap the slot.
  const ActorId id = a->id_;
  while (true) {
    auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end())
      return;  // reaped
    Actor* cur = slot(it->second);
    if (!cur->alive())
      return;  // zombie awaiting its run-queue reap
    resume_context(cur);
  }
}

bool Kernel::is_alive(ActorId id) const {
  auto it = id_to_slot_.find(id);
  return it != id_to_slot_.end() && slot(it->second)->alive();
}

Actor* Kernel::actor(ActorId id) {
  auto it = id_to_slot_.find(id);
  return it == id_to_slot_.end() ? nullptr : slot(it->second);
}

std::vector<ActorId> Kernel::live_actors() const {
  std::vector<ActorId> out;
  out.reserve(live_count_);
  for (const auto& [id, s] : id_to_slot_)
    if (slot(s)->alive())
      out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

// -- platform control -------------------------------------------------------------

void Kernel::host_off(int host) {
  if (Actor* a = self(); a != nullptr && a->phase_quantum_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kHostState;
    rec.host = host;
    rec.host_on = false;
    record_and_park(a, rec);
    if (rec.error)
      std::rethrow_exception(rec.error);
    return;
  }
  engine_.set_host_state(host, false);
}

void Kernel::host_on(int host) {
  if (Actor* a = self(); a != nullptr && a->phase_quantum_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kHostState;
    rec.host = host;
    rec.host_on = true;
    record_and_park(a, rec);
    if (rec.error)
      std::rethrow_exception(rec.error);
    return;
  }
  engine_.set_host_state(host, true);
}

// -- platform control (dynamic membership) --------------------------------------

int Kernel::join_host(platform::ZoneId zone, const std::string& name, double speed_flops) {
  const int h = engine_.join_host(zone, name, speed_flops);
  while (host_live_head_.size() < engine_.platform().host_count())
    host_live_head_.push_back(-1);
  return h;
}

int Kernel::join_host(const platform::HostSpec& spec, platform::NodeId attach,
                      const platform::LinkSpec& uplink) {
  const int h = engine_.join_host(spec, attach, uplink);
  while (host_live_head_.size() < engine_.platform().host_count())
    host_live_head_.push_back(-1);
  return h;
}

void Kernel::leave_host(int host) {
  if (Actor* a = self(); a != nullptr && a->phase_quantum_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kLeaveHost;
    rec.host = host;
    record_and_park(a, rec);
    if (rec.error)
      std::rethrow_exception(rec.error);
    return;
  }
  engine_.leave_host(host);
}

void Kernel::rejoin_host(int host) {
  if (Actor* a = self(); a != nullptr && a->phase_quantum_) {
    PendingSimcall rec;
    rec.kind = PendingSimcall::Kind::kRejoinHost;
    rec.host = host;
    record_and_park(a, rec);
    if (rec.error)
      std::rethrow_exception(rec.error);
    return;
  }
  engine_.rejoin_host(host);
}

void Kernel::process_resource_changes() {
  while (!host_changes_.empty()) {
    auto [host, on] = host_changes_.front();
    host_changes_.erase(host_changes_.begin());
    if (!on) {
      // Kill every actor living on the failed host. The per-host live list
      // makes this O(residents); collected as ids (a victim's exit callback
      // may kill — and reap — another victim) and sorted for a deterministic
      // kill order.
      std::vector<ActorId> victims;
      for (std::int32_t s = host_live_head_[static_cast<size_t>(host)]; s != -1;
           s = slot(static_cast<std::uint32_t>(s))->host_next_)
        victims.push_back(slot(static_cast<std::uint32_t>(s))->id_);
      std::sort(victims.begin(), victims.end());
      for (ActorId id : victims) {
        Actor* a = actor(id);
        if (a == nullptr || !a->alive())
          continue;
        SG_VERB(kernel, "host %s failed: killing actor '%s'",
                engine_.platform().host(host).name.c_str(), a->name_.c_str());
        kill_internal(a, true);
      }
    } else {
      // Respawn auto-restart actors that died with this host.
      std::vector<RestartSpec> todo;
      auto it = pending_restarts_.begin();
      while (it != pending_restarts_.end()) {
        if (it->host == host) {
          todo.push_back(std::move(*it));
          it = pending_restarts_.erase(it);
        } else {
          ++it;
        }
      }
      for (const auto& spec : todo) {
        SG_VERB(kernel, "host %s is back: restarting actor '%s'",
                engine_.platform().host(host).name.c_str(), spec.name.c_str());
        spawn(spec.name, spec.host, spec.body, spec.daemon, /*auto_restart=*/true);
      }
    }
  }
}

}  // namespace sg::kernel
