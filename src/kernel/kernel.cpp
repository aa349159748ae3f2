#include "kernel/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <new>

#include "xbt/block_pool.hpp"
#include "xbt/exception.hpp"
#include "xbt/log.hpp"
#include "xbt/str.hpp"

SG_LOG_NEW_CATEGORY(kernel, "simulation kernel (maestro)");

namespace sg::kernel {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// The actor currently executing and its kernel, published by resume_context
// around every switch. Per OS thread, because the log providers below read
// them from whichever thread logs, and GRAS real-mode threads log
// concurrently.
// g_active_kernel stays a plain global: it is only written from kernel
// construction/destruction (serial by definition).
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

/// Send arguments are checked in the caller: a bad size that only surfaced
/// when a receiver matched the comm would fail the wrong actor and strand
/// the sender. The rate follows the engine's rule (finite; <= 0 = no cap).
void check_send_args(const char* call, double bytes, double rate) {
  if (!(bytes >= 0 && bytes < kInf))
    throw xbt::InvalidArgument(
        xbt::format("%s: bytes must be finite and non-negative (got %g)", call, bytes));
  if (!std::isfinite(rate))
    throw xbt::InvalidArgument(xbt::format("%s: rate must be finite (got %g)", call, rate));
}

/// The calling actor. A simcall blocks its caller, and only an actor can
/// block: called from outside any actor (the maestro, main), it throws
/// naming the call instead of dereferencing a null actor.
Actor* require_actor(const char* call) {
  if (g_current_actor == nullptr)
    throw xbt::InvalidArgument(xbt::format("%s: must be called from inside an actor", call));
  return g_current_actor;
}

/// comm_wait and comm_test need a comm to look at.
void check_comm(const char* call, const CommPtr& comm) {
  if (!comm)
    throw xbt::InvalidArgument(xbt::format("%s: null comm", call));
}

/// A negative timeout means "wait forever"; NaN means nothing and is refused.
void check_timeout(const char* call, double timeout) {
  if (std::isnan(timeout))
    throw xbt::InvalidArgument(xbt::format("%s: timeout must not be NaN (got %g)", call, timeout));
}
}  // namespace

Actor::Actor(ActorId id, std::string name, int host, std::function<void()> body, bool daemon,
             bool auto_restart)
    : id_(id), host_(host), daemon_(daemon), auto_restart_(auto_restart), name_(std::move(name)),
      body_(std::move(body)) {}

// Comms and their shared_ptr control blocks are fused into one pooled
// block, as the engine does for actions (xbt/block_pool.hpp).
CommPtr Kernel::make_comm() { return std::allocate_shared<Comm>(xbt::PoolAllocator<Comm>(comm_pool_)); }

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

// -- kernel lifecycle ----------------------------------------------------------

Kernel::Kernel(platform::Platform platform)
    : engine_(std::move(platform)), comm_pool_(std::make_shared<xbt::BlockPool>()) {
  engine_.set_resource_observer([this](bool is_host, int index, bool on) {
    if (is_host)
      host_changes_.push_back({index, on});
  });
  host_live_head_.assign(engine_.platform().host_count(), -1);
  g_active_kernel = this;
  xbt::log_set_clock_provider(&clock_provider);
  xbt::log_set_actor_provider(&actor_provider);
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
  // Reap the zombies those deaths left in the ready queue.
  while (!ready_.empty()) {
    Actor* a = ready_.front();
    ready_.pop_front();
    a->in_ready_queue_ = false;
    if (!a->alive())
      reap_actor(a);
  }
}

Actor* Kernel::self() { return g_current_actor; }
Kernel* Kernel::current() { return g_current_kernel != nullptr ? g_current_kernel : g_active_kernel; }

ActorId Kernel::spawn(const std::string& name, int host, std::function<void()> body, bool daemon,
                      bool auto_restart) {
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
  a->context_ = context_factory_.create([a] { a->body_(); });
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
    ready_.push_back(a);
    a->in_ready_queue_ = true;
  }
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
  ++stats_.wakeups;
  schedule(a);
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
  ++stats_.context_switches;
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
  // Recycle the slot right away unless the actor still sits in the ready
  // queue (killed while ready); run() reaps it when popped.
  if (!a->in_ready_queue_)
    reap_actor(a);
}

double Kernel::run() {
  running_ = true;
  long idle_steps = 0;
  while (true) {
    // Drain the ready queue in FIFO order. Each actor runs up to its next
    // blocking simcall; its simcalls took effect as it made them, so actors
    // it woke are already queued behind it and run in this same drain.
    bool any_ran = false;
    while (!ready_.empty()) {
      Actor* a = ready_.front();
      ready_.pop_front();
      a->in_ready_queue_ = false;
      if (!a->alive()) {
        reap_actor(a);  // killed while queued
        continue;
      }
      if (a->state_ != Actor::State::kReady || a->suspended_)
        continue;
      any_ran = true;
      resume_context(a);
      process_resource_changes();
    }

    if (live_nondaemon_ == 0)
      break;

    // Engine time advance.
    const double timer_bound = timers_.empty() ? kInf : timers_.top().time;
    const auto events = engine_.run_until(timer_bound);
    for (const auto& ev : events)
      handle_action_event(ev);
    fire_due_timers();
    process_resource_changes();

    if (!events.empty() || any_ran || !ready_.empty()) {
      idle_steps = 0;
      continue;
    }
    const double next = engine_.next_event_time();
    if (next == kInf && timers_.empty()) {
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
    if (++idle_steps > 1000000) {
      deadlocked_ = true;
      SG_ERROR(kernel, "giving up: 1e6 idle engine steps (runaway trace events?)");
      break;
    }
  }

  // Tear down survivors (daemons, deadlocked actors).
  teardown_all_actors();
  running_ = false;
  return engine_.now();
}

// -- simcalls ---------------------------------------------------------------

void Kernel::execute(double flops, double priority) {
  Actor* a = require_actor("execute");
  auto action = engine_.exec_start(a->host_, flops, priority, a->name_ + ":exec");
  action->user_data = a;
  a->blocked_action_ = action;
  check_status(block_self(a, -1.0));
}

void Kernel::execute_parallel(const std::vector<int>& hosts, const std::vector<double>& flops,
                              const std::vector<std::vector<double>>& bytes) {
  Actor* a = require_actor("execute_parallel");
  auto action = engine_.ptask_start(hosts, flops, bytes, a->name_ + ":ptask");
  action->user_data = a;
  a->blocked_action_ = action;
  check_status(block_self(a, -1.0));
}

void Kernel::sleep_for(double duration) {
  Actor* a = require_actor("sleep_for");
  if (duration <= 0) {
    yield_now();
    return;
  }
  auto action = engine_.sleep_start(a->host_, duration, a->name_ + ":sleep");
  action->user_data = a;
  a->blocked_action_ = action;
  check_status(block_self(a, -1.0));
}

void Kernel::yield_now() {
  Actor* a = require_actor("yield_now");
  a->state_ = Actor::State::kReady;
  schedule(a);
  a->context_->yield();
}

void Kernel::exit_self() {
  require_actor("exit_self");
  throw ForcedExit{};
}

// -- mailboxes & communications -------------------------------------------------

MailboxId Kernel::mailbox_by_name(const std::string& name) {
  auto [it, inserted] = mailbox_ids_.try_emplace(name, MailboxId{0});
  if (inserted) {
    it->second = static_cast<MailboxId>(mailboxes_.size());
    mailboxes_.emplace_back();
    mailbox_names_.push_back(name);
  }
  return it->second;
}

void Kernel::check_mailbox(MailboxId id, const char* call) const {
  if (id < 0 || static_cast<size_t>(id) >= mailboxes_.size())
    throw xbt::InvalidArgument(xbt::format("%s: mailbox id %d out of range (%zu mailboxes interned)", call,
                                           id, mailboxes_.size()));
}

CommPtr Kernel::send_async(MailboxId mb, void* payload, double bytes, double rate) {
  Actor* a = require_actor("send_async");
  check_mailbox(mb, "send_async");
  check_send_args("send_async", bytes, rate);
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
    start_comm(comm);
    return comm;
  }
  CommPtr comm = make_comm();
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
  Actor* a = require_actor("recv_async");
  check_mailbox(mb, "recv_async");
  Mailbox& box = mailbox_ref(mb);
  if (!box.queued_sends.empty()) {
    CommPtr comm = box.queued_sends.front();
    box.queued_sends.pop_front();
    comm->receiver = a;
    comm->receiver_id = a->id_;
    comm->dst_host = a->host_;
    start_comm(comm);
    return comm;
  }
  CommPtr comm = make_comm();
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
  comm->action->user_data = comm.get();  // cleared by ~Comm
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
  Actor* a = require_actor("comm_wait");
  check_comm("comm_wait", comm);
  check_timeout("comm_wait", timeout);
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
  Actor* a = require_actor("send");
  check_mailbox(mb, "send");
  check_send_args("send", bytes, rate);
  check_timeout("send", timeout);
  comm_wait(send_async_impl(a, mb, payload, bytes, rate), timeout);
}

void Kernel::send_detached(MailboxId mb, void* payload, double bytes, double rate) {
  Actor* a = require_actor("send_detached");
  check_mailbox(mb, "send_detached");
  check_send_args("send_detached", bytes, rate);
  send_async_impl(a, mb, payload, bytes, rate)->detached = true;
}

void* Kernel::recv(MailboxId mb, double timeout, ActorId* source) {
  require_actor("recv");
  check_mailbox(mb, "recv");
  check_timeout("recv", timeout);
  CommPtr comm = recv_async(mb);
  void* payload = comm_wait(comm, timeout);
  if (source != nullptr)
    *source = comm->sender_id;
  return payload;
}

bool Kernel::comm_waiting(MailboxId mb) {
  check_mailbox(mb, "comm_waiting");
  return !mailbox_ref(mb).queued_sends.empty();
}

bool Kernel::comm_waiting(const std::string& mb) {
  // Probe without interning: an unknown name trivially has nothing queued.
  auto it = mailbox_ids_.find(mb);
  return it != mailbox_ids_.end() && comm_waiting(it->second);
}

bool Kernel::comm_test(const CommPtr& comm) {
  check_comm("comm_test", comm);
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
      // Null once every holder dropped the Comm: the transfer ran on and
      // there is no one to wake.
      Comm* c = static_cast<Comm*>(act->user_data);
      if (c == nullptr || c->state == Comm::State::kFinished)
        return;  // dropped, or already resolved by a timeout or a kill
      // Waking a party drops its blocked_comm_, possibly the last holder.
      const CommPtr comm = c->shared_from_this();
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
      abandon_comm(a, WakeStatus::kTimeout);
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
  abandon_comm(a, WakeStatus::kCanceled);
  a->blocked_comm_.reset();
}

void Kernel::abandon_comm(Actor* a, WakeStatus queued_result) {
  const CommPtr comm = a->blocked_comm_;
  const bool started = comm->state == Comm::State::kStarted;
  if (comm->state == Comm::State::kQueuedSend || comm->state == Comm::State::kQueuedRecv) {
    remove_from_mailbox(comm);
    comm->state = Comm::State::kFinished;
    comm->result = queued_result;
  } else if (started) {
    comm->state = Comm::State::kFinished;
    comm->result = WakeStatus::kCanceled;
  }
  if (queued_result == WakeStatus::kTimeout)
    wake(a, WakeStatus::kTimeout);  // the timed-out actor before its peer
  if (!started)
    return;
  const bool a_is_sender = comm->sender_id == a->id_;
  Actor* peer = a_is_sender ? comm->receiver : comm->sender;
  if (peer != nullptr && (a_is_sender ? comm->receiver_waiting : comm->sender_waiting))
    wake(peer, WakeStatus::kNetworkFailure);
  if (comm->action)
    comm->action->cancel();
}

// -- actor management -----------------------------------------------------------

void Kernel::suspend(ActorId id) {
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
      return;  // zombie awaiting its ready-queue reap
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
  engine_.set_host_state(host, false);
}

void Kernel::host_on(int host) {
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
  engine_.leave_host(host);
}

void Kernel::rejoin_host(int host) {
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
