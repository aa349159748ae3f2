#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "xbt/block_pool.hpp"
#include "xbt/exception.hpp"
#include "xbt/log.hpp"
#include "xbt/str.hpp"

SG_LOG_NEW_CATEGORY(surf, "SURF simulation engine");

namespace sg::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTimeEps = 1e-12;

/// Time tolerance at date t: completions planned within this window of the
/// step target fire now. Relative so that `target - now_` cancellation noise
/// (~DBL_EPSILON * now) can never strand an action with an un-completable
/// remainder.
inline double time_eps_at(double t) { return 1e-9 * std::max(1.0, std::abs(t)); }

/// Monotonic nanosecond clock for the phase profiler.
inline std::uint64_t phase_clock_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Default display names, indexed by ActionKind. Actions created with these
/// names (the overwhelming majority) store no name of their own.
const std::string kDefaultNames[] = {"exec", "comm", "ptask", "sleep"};

/// "host X departed at t=…" for activity starts on a host that left the
/// platform — distinct from the transient "is down" of a state flap.
[[noreturn]] void throw_host_departed(const char* what, const platform::Platform& pf, int host) {
  throw xbt::HostFailureException(std::string(what) + ": host " + pf.host(host).name +
                                  " departed at t=" + xbt::format("%g", pf.host_departed_at(host)) +
                                  " (rejoin_host() restores it)");
}

/// Work amounts and priorities handed to an activity start must be finite
/// and >= 0 (NaN fails the comparison too); `signed_ok` admits negative
/// values, for the rate limit whose negative default means "no limit".
void check_amount(const char* call, const char* what, double v, const platform::Platform& pf,
                  int host, bool signed_ok = false) {
  if (signed_ok ? std::isfinite(v) : (v >= 0 && v < kInf))
    return;
  throw xbt::InvalidArgument(std::string(call) + ": " + what + " on host " + pf.host(host).name +
                             " must be finite" + (signed_ok ? "" : " and non-negative") +
                             " (got " + xbt::format("%g", v) + ")");
}

/// A capacity scale is stored before it reaches the solver (a down or
/// departed resource applies it later), so it is checked here.
void check_scale(const char* call, const char* kind, const std::string& name, double scale) {
  if (scale >= 0 && scale < kInf)
    return;
  throw xbt::InvalidArgument(std::string(call) + ": " + kind + " " + name +
                             ": scale must be finite and non-negative (got " + xbt::format("%g", scale) + ")");
}

[[noreturn]] void throw_bad_id(const char* call, const char* kind, int id, size_t count) {
  throw xbt::InvalidArgument(std::string(call) + ": " + kind + " id " + std::to_string(id) +
                             " out of range (platform has " + std::to_string(count) + " " + kind +
                             "s)");
}

/// API host and link ids index the engine's resource tables. An id outside
/// them is the caller's error: report the call and the id, not a bare
/// std::out_of_range.
template <typename Table>
auto& checked(Table& table, int id, const char* call, const char* kind) {
  if (id < 0 || static_cast<size_t>(id) >= table.size())
    throw_bad_id(call, kind, id, table.size());
  return table[static_cast<size_t>(id)];
}
}  // namespace

void declare_engine_config() {
  config::declare(kCfgTcpGamma, 65536.0, 1.0, 1e30,
                  "TCP window size (bytes); flow rate is capped at gamma / (2 * route latency)");
  config::declare(kCfgBandwidthFactor, 1460.0 / 1500.0, 1e-6, 1.0,
                  "fraction of nominal link bandwidth usable as goodput (TCP/IP header overhead)");
  config::declare(kCfgLoopbackBw, 1e10, 1.0, 1e30, "intra-host communication bandwidth, B/s");
  config::declare(kCfgLoopbackLat, 1e-7, 0.0, 1.0, "intra-host communication latency, s");
  config::declare(kCfgKillTransitComms,
                  false,
                  "a host's death also fails every comm it is an endpoint of (L07-style); "
                  "off keeps CM02 semantics where transit comms outlive their endpoints");
  config::declare(kCfgProfile, false,
                  "collect per-phase wall times in run_until() (read through "
                  "Engine::phase_stats()); small constant overhead per round, no effect "
                  "on results",
                  "SG_PROFILE");
}

// ---------------------------------------------------------------------------
// Action methods (need Engine internals)
// ---------------------------------------------------------------------------

Action::Action(Engine* engine, ActionKind kind, double total, double priority)
    : engine_(engine),
      remaining_(total),
      kind_(kind),
      start_seq_(engine->next_start_seq_++),
      priority_(priority),
      total_(total),
      start_time_(engine->now()) {}

const std::string& Action::name() const {
  return name_ ? *name_ : kDefaultNames[static_cast<size_t>(kind_)];
}

void Action::suspend() {
  if (state_ != ActionState::kRunning)
    return;
  engine_->sync_progress(*this);  // freeze progress at the suspension date
  state_ = ActionState::kSuspended;
  if (var_ >= 0 && !in_latency_phase_)
    engine_->sys_.set_weight(var_, 0.0);
  if (kind_ == ActionKind::kSleep)
    rate_ = 0.0;
  engine_->orphan_heap_entry(*this);  // completion date is now +inf
  engine_->notify(*this, ActionState::kRunning, ActionState::kSuspended);
}

void Action::resume() {
  if (state_ != ActionState::kSuspended)
    return;
  engine_->sync_progress(*this);  // restart the progress clock at now
  state_ = ActionState::kRunning;
  if (var_ >= 0 && !in_latency_phase_)
    engine_->sys_.set_weight(var_, priority_);
  if (kind_ == ActionKind::kSleep)
    rate_ = 1.0;
  // rate_ still holds the pre-suspension allocation; if the solver zeroed it
  // meanwhile, the post-resume solve will report the change and reschedule.
  engine_->schedule_completion(engine_->running_[run_idx_]);
  engine_->notify(*this, ActionState::kSuspended, ActionState::kRunning);
}

void Action::cancel() {
  if (state_ != ActionState::kRunning && state_ != ActionState::kSuspended)
    return;
  engine_->finish_action(engine_->running_[run_idx_], ActionState::kCanceled, nullptr);
}

double Action::remaining() const {
  if (state_ != ActionState::kRunning || in_latency_phase_ || rate_ <= 0)
    return remaining_;
  return std::max(0.0, remaining_ - rate_ * (engine_->now_ - last_update_));
}

double Action::latency_remaining() const {
  if (state_ != ActionState::kRunning || !in_latency_phase_)
    return latency_remaining_;
  return std::max(0.0, latency_remaining_ - (engine_->now_ - last_update_));
}

void Action::set_priority(double priority) {
  priority_ = priority;
  if (var_ >= 0 && !in_latency_phase_ && state_ == ActionState::kRunning)
    engine_->sys_.set_weight(var_, priority);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {
/// Shell that exposes Action's protected constructor so allocate_shared can
/// fuse the control block and the action into one pooled block (one
/// allocation per action, and the refcount lands next to the hot fields).
struct ConcreteAction : Action {
  ConcreteAction(Engine* engine, ActionKind kind, double total, double priority)
      : Action(engine, kind, total, priority) {}
};
}  // namespace

ActionPtr Engine::make_action(ActionKind kind, double total, double priority, std::string_view name) {
  auto action = std::allocate_shared<ConcreteAction>(xbt::PoolAllocator<ConcreteAction>(pool_), this,
                                                     kind, total, priority);
  if (!name.empty() && name != kDefaultNames[static_cast<size_t>(kind)])
    action->name_ = std::make_unique<std::string>(name);
  return action;
}

Engine::Engine(platform::Platform platform)
    : platform_(std::move(platform)), pool_(std::make_shared<xbt::BlockPool>()) {
  if (!platform_.sealed())
    platform_.seal();
  declare_engine_config();
  tcp_gamma_ = config::get(kCfgTcpGamma);
  bandwidth_factor_ = config::get(kCfgBandwidthFactor);
  loopback_bw_ = config::get(kCfgLoopbackBw);
  loopback_lat_ = config::get(kCfgLoopbackLat);
  kill_transit_comms_ = config::get(kCfgKillTransitComms);
  profile_ = config::get(kCfgProfile);
  hosts_.reserve(platform_.host_count());
  links_.reserve(platform_.link_count());
  adopt_new_resources();
}

Engine::~Engine() = default;

void Engine::schedule_next(const trace::Trace& trace, TraceEvent::Kind kind, int index, double after) {
  auto next = trace.next_event_after(after);
  if (next)
    traces_.push(TraceEvent{next->time, kind, index, next->value});
}

double Engine::next_trace_time() const {
  return traces_.empty() ? kInf : std::max(traces_.top().time, now_);
}

ActionPtr Engine::exec_start(int host, double flops, double priority, std::string_view name) {
  HostRes& res = checked(hosts_, host, "exec_start", "host");
  check_amount("exec_start", "flops", flops, platform_, host);
  check_amount("exec_start", "priority", priority, platform_, host);
  if (!res.on) {
    if (!platform_.host_present(host))
      throw_host_departed("exec_start", platform_, host);
    throw xbt::HostFailureException("exec_start: host " + platform_.host(host).name + " is down");
  }
  auto action = make_action(ActionKind::kExec, flops, priority, name);
  action->host_ = host;
  bind_var(action.get(), sys_.new_variable(priority));
  sys_.expand(res.cnst, action->var_, 1.0);
  add_running(action);
  if (action->remaining_ <= 0)
    schedule_completion(action);  // zero work: completes now even if starved
  notify(*action, ActionState::kRunning, ActionState::kRunning);
  SG_DEBUG(surf, "exec_start on %s: %.0f flops", platform_.host(host).name.c_str(), flops);
  return action;
}

MaxMinSystem::CnstId Engine::loopback_constraint(int host) {
  HostRes& res = hosts_.at(static_cast<size_t>(host));
  if (res.loopback < 0)
    res.loopback = sys_.new_constraint(res.on ? loopback_bw_ : 0.0, /*shared=*/true);
  return res.loopback;
}

ActionPtr Engine::comm_start(int src_host, int dst_host, double bytes, double rate_limit,
                             std::string_view name) {
  checked(hosts_, src_host, "comm_start", "host");
  checked(hosts_, dst_host, "comm_start", "host");
  check_amount("comm_start", "bytes", bytes, platform_, src_host);
  check_amount("comm_start", "rate_limit", rate_limit, platform_, src_host, /*signed_ok=*/true);

  double latency = 0.0;
  bool dead_route = false;
  platform::RouteView route;  // empty until resolved; consumed immediately
  if (src_host == dst_host) {
    latency = loopback_lat_;
    // The loopback is part of the host: it dies (and fails its comms) with it.
    if (!hosts_[static_cast<size_t>(src_host)].on)
      dead_route = true;
  } else if (!platform_.host_present(src_host) || !platform_.host_present(dst_host)) {
    // A departed endpoint has no route (route() would throw "departed at
    // t=…"): fail the comm gracefully so the sender can retry or give up.
    dead_route = true;
  } else {
    route = platform_.route(src_host, dst_host);
    latency = route.latency();
    for (platform::LinkId l : route)
      if (!links_[static_cast<size_t>(l)].on) {
        dead_route = true;
        break;
      }
  }

  auto action = make_action(ActionKind::kComm, bytes, 1.0, name);
  action->host_ = src_host;
  action->peer_host_ = dst_host;

  if (dead_route) {
    // The communication fails immediately; report it through the next step
    // so the kernel sees a normal failure event.
    action->state_ = ActionState::kFailed;
    action->finish_time_ = now_;
    pending_.push_back(ActionEvent{action, true});
    return action;
  }

  double bound = MaxMinSystem::kNoBound;
  if (rate_limit > 0)
    bound = rate_limit;
  if (latency > 0 && src_host != dst_host) {
    const double tcp_cap = tcp_gamma_ / (2.0 * latency);
    bound = (bound < 0) ? tcp_cap : std::min(bound, tcp_cap);
  }

  bind_var(action.get(), sys_.new_variable(0.0, bound));  // weight 0 during latency phase
  if (src_host == dst_host) {
    sys_.expand(loopback_constraint(src_host), action->var_, 1.0);
  } else {
    for (platform::LinkId l : route)
      sys_.expand(links_[static_cast<size_t>(l)].cnst, action->var_, 1.0);
  }

  action->latency_remaining_ = latency;
  if (latency > 0) {
    action->in_latency_phase_ = true;
  } else {
    action->in_latency_phase_ = false;
    sys_.set_weight(action->var_, action->priority_);
  }

  add_running(action);
  if (kill_transit_comms_)
    endpoint_lists_add(action);
  if (action->in_latency_phase_ || action->remaining_ <= 0)
    schedule_completion(action);  // latency expiry (or zero bytes): date known now
  notify(*action, ActionState::kRunning, ActionState::kRunning);
  return action;
}

ActionPtr Engine::ptask_start(const std::vector<int>& hosts, const std::vector<double>& flops,
                              const std::vector<std::vector<double>>& bytes, std::string_view name) {
  if (hosts.empty() || flops.size() != hosts.size())
    throw xbt::InvalidArgument("ptask_start: hosts/flops size mismatch");
  if (!bytes.empty() && bytes.size() != hosts.size())
    throw xbt::InvalidArgument("ptask_start: bytes matrix must be n x n");
  for (size_t i = 0; i < hosts.size(); ++i) {
    const int h = hosts[i];
    const HostRes& res = checked(hosts_, h, "ptask_start", "host");
    // Every argument is checked before the solver variable exists, so a
    // rejected call leaves nothing behind.
    check_amount("ptask_start", "flops", flops[i], platform_, h);
    if (!bytes.empty()) {
      if (bytes[i].size() != hosts.size())
        throw xbt::InvalidArgument("ptask_start: bytes matrix must be n x n");
      for (double b : bytes[i])
        check_amount("ptask_start", "bytes", b, platform_, h);
    }
    if (!res.on) {
      if (!platform_.host_present(h))
        throw_host_departed("ptask_start", platform_, h);
      throw xbt::HostFailureException("ptask_start: host is down");
    }
  }

  // The action's "amount" is the normalized fraction of the whole task;
  // coefficient k on a resource means "rate v consumes k*v of the resource",
  // so at completion (integral of v = 1) exactly flops[i] / bytes[i][j] have
  // been consumed. This is SimGrid's L07 parallel-task model.
  auto action = make_action(ActionKind::kPtask, 1.0, 1.0, name);
  bind_var(action.get(), sys_.new_variable(0.0));

  double latency = 0.0;
  for (size_t i = 0; i < hosts.size(); ++i) {
    if (flops[i] > 0)
      sys_.expand(hosts_[static_cast<size_t>(hosts[i])].cnst, action->var_, flops[i]);
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (size_t j = 0; j < bytes[i].size(); ++j) {
      if (i == j || bytes[i][j] <= 0)
        continue;
      const auto route = platform_.route(hosts[i], hosts[j]);
      latency = std::max(latency, route.latency());
      for (platform::LinkId l : route)
        sys_.expand(links_[static_cast<size_t>(l)].cnst, action->var_, bytes[i][j]);
    }
  }

  action->latency_remaining_ = latency;
  if (latency > 0) {
    action->in_latency_phase_ = true;
  } else {
    sys_.set_weight(action->var_, action->priority_);
  }
  add_running(action);
  if (action->in_latency_phase_)
    schedule_completion(action);
  return action;
}

ActionPtr Engine::sleep_start(int host, double duration, std::string_view name) {
  HostRes& res = checked(hosts_, host, "sleep_start", "host");
  check_amount("sleep_start", "duration", duration, platform_, host);
  if (!res.on) {
    if (!platform_.host_present(host))
      throw_host_departed("sleep_start", platform_, host);
    throw xbt::HostFailureException("sleep_start: host is down");
  }
  auto action = make_action(ActionKind::kSleep, duration, 1.0, name);
  action->host_ = host;
  action->rate_ = 1.0;  // time passes at rate 1
  // Sleeps have no solver variable, so the arena cannot index them; the
  // per-host sleep list keeps host-failure sweeps O(affected).
  action->host_list_idx_ = static_cast<std::uint32_t>(res.sleeps.size());
  res.sleeps.push_back(action.get());
  add_running(action);
  schedule_completion(action);  // sleeps never change rate: date known now
  return action;
}

void Engine::bind_var(Action* action, MaxMinSystem::VarId var) {
  action->var_ = var;
  if (action_of_var_.size() <= static_cast<size_t>(var))
    action_of_var_.resize(static_cast<size_t>(var) + 1, nullptr);
  action_of_var_[static_cast<size_t>(var)] = action;
}

void Engine::add_running(const ActionPtr& action) {
  action->last_update_ = now_;
  if (!free_slots_.empty()) {
    const size_t idx = free_slots_.back();
    free_slots_.pop_back();
    action->run_idx_ = static_cast<std::uint32_t>(idx);
    running_[idx] = action;
  } else {
    action->run_idx_ = static_cast<std::uint32_t>(running_.size());
    running_.push_back(action);
  }
  ++running_count_;
}

void Engine::sync_progress(Action& a) {
  if (a.state_ == ActionState::kRunning) {
    const double dt = now_ - a.last_update_;
    if (dt > 0) {
      if (a.in_latency_phase_)
        a.latency_remaining_ = std::max(0.0, a.latency_remaining_ - dt);
      else if (a.rate_ > 0)
        a.remaining_ = std::max(0.0, a.remaining_ - a.rate_ * dt);
    }
  }
  a.last_update_ = now_;
}

void Engine::EventHeap::push(double date, std::uint64_t stamp, ActionPtr action) {
  size_t hole = dates.size();
  dates.push_back(date);
  payloads.push_back(Payload{stamp, std::move(action)});
  // Sift up: the compare loop reads only the dense dates array.
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    if (dates[parent] <= dates[hole])
      break;
    std::swap(dates[parent], dates[hole]);
    std::swap(payloads[parent], payloads[hole]);
    hole = parent;
  }
}

void Engine::EventHeap::sift_down(size_t hole) {
  const size_t n = dates.size();
  while (true) {
    const size_t first_child = 4 * hole + 1;
    if (first_child >= n)
      break;
    size_t best = first_child;
    const size_t end = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < end; ++c)
      if (dates[c] < dates[best])
        best = c;
    if (dates[hole] <= dates[best])
      break;
    std::swap(dates[hole], dates[best]);
    std::swap(payloads[hole], payloads[best]);
    hole = best;
  }
}

void Engine::EventHeap::pop_front() {
  dates.front() = dates.back();
  dates.pop_back();
  payloads.front() = std::move(payloads.back());
  payloads.pop_back();
  if (!dates.empty())
    sift_down(0);
}

void Engine::EventHeap::rebuild() {
  for (size_t i = dates.size() / 4 + 1; i-- > 0;)
    sift_down(i);
}

double Engine::EventHeap::reap_top() {
  while (!empty() && top().stamp != top().action->heap_stamp_) {
    pop_front();
    --stale;
  }
  return head();
}

void Engine::EventHeap::compact() {
  size_t kept = 0;
  for (size_t i = 0; i < size(); ++i) {
    if (payloads[i].stamp != payloads[i].action->heap_stamp_)
      continue;
    dates[kept] = dates[i];
    payloads[kept] = std::move(payloads[i]);
    ++kept;
  }
  dates.resize(kept);
  payloads.resize(kept);
  stale = 0;
  rebuild();
}

void Engine::orphan_heap_entry(Action& a) {
  ++a.heap_stamp_;  // any entry already in a heap is now stale
  if (a.in_heap_) {
    // A live entry sits in the latency heap exactly while the action is in
    // its latency phase (the expiry pop clears in_heap_ first).
    ++(a.in_latency_phase_ ? latency_ : completion_).stale;
    a.in_heap_ = false;
  }
}

void Engine::schedule_completion(const ActionPtr& a) {
  orphan_heap_entry(*a);
  const double date = action_finish_date(*a);
  if (date == kInf)
    return;
  a->in_heap_ = true;
  if (a->in_latency_phase_) {
    // Near-term event: keep it out of the big heap (see the member docs).
    latency_.push(date, a->heap_stamp_, a);
    return;
  }
  completion_.push(date, a->heap_stamp_, a);
  // Stale entries are normally reaped as they surface at the top, but ones
  // buried under a far-future top would otherwise pin their (possibly
  // finished) actions and grow the heap. Compact once they dominate. (The
  // latency heap needs no compaction: its entries expire within a route
  // latency of being pushed.)
  if (completion_.stale >= 8 && completion_.stale * 2 > completion_.size())
    completion_.compact();
}

double Engine::next_completion_date() {
  // Reap only the heap whose (possibly stale, hence understated) head is
  // earliest — the latency heap on a tie — until a valid head wins.
  while (true) {
    const double lat = latency_.head();
    const double comp = completion_.head();
    if (lat == kInf && comp == kInf)
      return kInf;
    if (lat <= comp) {
      if (latency_.reap_top() == lat)
        return lat;
    } else if (completion_.reap_top() == comp) {
      return comp;
    }
  }
}

void Engine::share_resources() {
  // Sleeps manage their rate directly (1, or 0 while suspended); everyone
  // else mirrors its solver allocation. Only actions whose allocation moved
  // in this (incremental) solve need a refresh — and only those need a new
  // completion date: an unchanged rate leaves the heap entry valid.
  if (!sys_.needs_solve())
    return;
  sys_.solve();
  for (MaxMinSystem::VarId v : sys_.changed_variables()) {
    Action* a = action_of_var_[static_cast<size_t>(v)];
    if (a == nullptr)
      continue;
    sync_progress(*a);  // fold in progress made at the old rate
    a->rate_ = sys_.value(v);
    schedule_completion(running_[a->run_idx_]);
  }
}

double Engine::action_finish_date(const Action& a) const {
  if (a.state_ == ActionState::kSuspended)
    return kInf;
  if (a.in_latency_phase_)
    return now_ + a.latency_remaining_;
  if (a.remaining_ <= 0)
    return now_;
  if (a.rate_ > 0)
    return now_ + a.remaining_ / a.rate_;
  return kInf;
}

double Engine::next_event_time() {
  share_resources();
  if (!pending_.empty())
    return now_;
  return std::min(next_completion_date(), next_trace_time());
}

StepLog Engine::run_until(double deadline) {
  fired_.clear();  // the previous round's view expires now

  // Deliver immediately-failed / externally-finished activities first.
  if (!pending_.empty()) {
    std::swap(fired_, pending_);
    return fired_;
  }

  const bool prof = profile_;
  const std::uint64_t t0 = prof ? phase_clock_ns() : 0;
  share_resources();
  const std::uint64_t t1 = prof ? phase_clock_ns() : 0;

  // Next event: earliest valid completion date or trace event. Completion
  // dates were computed when the rates were assigned, in absolute time, so
  // no floating-point advance can strand an action with an un-completable
  // remainder.
  const double next_completion = next_completion_date();
  const double next_trace = next_trace_time();
  const double target = std::min({next_completion, next_trace, deadline});
  const double eps = time_eps_at(target);
  if (target != kInf)
    now_ = target;
  if (target == kInf || (next_completion > target + eps && next_trace > target + kTimeEps)) {
    // Nothing will ever happen, or a pure jump to the deadline.
    if (prof) {
      const std::uint64_t t = phase_clock_ns();
      pstats_.solve_ns += t1 - t0;
      pstats_.pick_ns += t - t1;
      pstats_.total_ns += t - t0;
    }
    return {};
  }
  const std::uint64_t t2 = prof ? phase_clock_ns() : 0;

  advance(target, eps);
  const std::uint64_t t3 = prof ? phase_clock_ns() : 0;

  // Observers fire last, in event-log order, after every mutation of the
  // round: they may re-enter the engine (cancel, new activities), and such
  // re-entry lands in pending_, never in the buffer returned here.
  for (const Notice& n : notices_)
    fire_notice(n);
  notices_.clear();
  if (prof) {
    const std::uint64_t t4 = phase_clock_ns();
    pstats_.solve_ns += t1 - t0;
    pstats_.pick_ns += t2 - t1;
    pstats_.advance_ns += t3 - t2;
    pstats_.epilogue_ns += t4 - t3;
    pstats_.total_ns += t4 - t0;
    ++pstats_.rounds;
    pstats_.events += fired_.size();
  }
  return fired_;
}

void Engine::advance(double target, double eps) {
  static_assert(kTraceEventsBeforeCompletions);
  // Trace events due now — applied BEFORE the heap events at the same date
  // (see kTraceEventsBeforeCompletions): a resource dying exactly when an
  // action would complete fails the action.
  while (!traces_.empty() && traces_.top().time <= now_ + kTimeEps) {
    const TraceEvent ev = traces_.top();
    traces_.pop();
    apply_trace_event(ev);
  }

  // Collect every due event-heap entry (latency expiries from the small
  // near-term heap, completions from the big one; stale entries, stamp
  // mismatch, are skipped), then apply them in start order: the order the
  // heaps hand out same-date entries follows their push history, which
  // depends on which rates the last solves moved.
  while (true) {
    const double lat = latency_.reap_top();
    const double comp = completion_.reap_top();
    EventHeap* src = lat <= comp && lat != kInf ? &latency_ : comp != kInf ? &completion_ : nullptr;
    if (src == nullptr || std::min(lat, comp) > target + eps)
      break;
    due_.push_back(std::move(src->top().action));
    src->pop_front();
    due_.back()->in_heap_ = false;
  }
  if (due_.size() > 1)
    std::sort(due_.begin(), due_.end(), [](const ActionPtr& a, const ActionPtr& b) {
      return static_cast<std::int32_t>(a->start_seq_ - b->start_seq_) < 0;  // wrap-safe
    });
  // Latency expiries switch the action to its data phase; the rest are real
  // completions.
  for (ActionPtr& a : due_) {
    if (a->state_ != ActionState::kRunning)
      continue;
    if (a->in_latency_phase_) {
      // Latency just expired: start consuming bandwidth. The data phase gets
      // its rate (and completion date) from the next sharing recomputation
      // — unless there is no data to transfer at all.
      sync_progress(*a);
      a->in_latency_phase_ = false;
      a->latency_remaining_ = 0;
      if (a->var_ >= 0)
        sys_.set_weight(a->var_, a->priority_);
      if (a->remaining_ <= 0)
        finish_action(std::move(a), ActionState::kDone, &fired_, &notices_);
    } else {
      finish_action(std::move(a), ActionState::kDone, &fired_, &notices_);
    }
  }
  due_.clear();  // drop the references left by skipped entries
}

void Engine::apply_trace_event(const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEvent::Kind::kHostAvail: {
      hosts_[static_cast<size_t>(ev.index)].scale = ev.value;
      refresh_host_capacity(ev.index);
      schedule_next(platform_.host(ev.index).availability, ev.kind, ev.index, ev.time);
      break;
    }
    case TraceEvent::Kind::kHostState: {
      apply_host_state(ev.index, ev.value > 0.5, fired_, &notices_);
      schedule_next(platform_.host(ev.index).state, ev.kind, ev.index, ev.time);
      break;
    }
    case TraceEvent::Kind::kLinkAvail: {
      links_[static_cast<size_t>(ev.index)].scale = ev.value;
      refresh_link_capacity(static_cast<platform::LinkId>(ev.index));
      schedule_next(platform_.link(static_cast<platform::LinkId>(ev.index)).availability, ev.kind, ev.index,
                    ev.time);
      break;
    }
    case TraceEvent::Kind::kLinkState: {
      apply_link_state(static_cast<platform::LinkId>(ev.index), ev.value > 0.5, fired_, &notices_);
      schedule_next(platform_.link(static_cast<platform::LinkId>(ev.index)).state, ev.kind, ev.index, ev.time);
      break;
    }
  }
}

void Engine::refresh_host_capacity(int host) {
  const HostRes& res = hosts_[static_cast<size_t>(host)];
  if (res.cnst < 0)
    return;  // departed: constraint released; scale/state were still recorded
  sys_.set_capacity(res.cnst, res.on ? platform_.host(host).speed_flops * res.scale : 0.0);
  if (res.loopback >= 0)
    sys_.set_capacity(res.loopback, res.on ? loopback_bw_ : 0.0);
}

void Engine::refresh_link_capacity(platform::LinkId link) {
  const LinkRes& res = links_[static_cast<size_t>(link)];
  if (res.cnst < 0)
    return;  // private link of a departed host
  sys_.set_capacity(res.cnst,
                    res.on ? platform_.link(link).bandwidth_Bps * res.scale * bandwidth_factor_ : 0.0);
}

void Engine::fire_notice(const Notice& n) {
  if (n.action != nullptr)
    notify(*n.action, n.old_state, n.new_state);
  else if (resource_observer_)
    resource_observer_(n.res_is_host, n.res_index, n.res_on);
}

void Engine::endpoint_lists_add(const ActionPtr& action) {
  Action* a = action.get();
  auto& src = hosts_[static_cast<size_t>(a->host_)].comms;
  a->host_list_idx_ = static_cast<std::uint32_t>(src.size());
  src.push_back(a);
  if (a->peer_host_ != a->host_) {
    auto& dst = hosts_[static_cast<size_t>(a->peer_host_)].comms;
    a->peer_list_idx_ = static_cast<std::uint32_t>(dst.size());
    dst.push_back(a);
  }
  a->in_endpoint_lists_ = true;
}

void Engine::endpoint_list_remove(int host, std::uint32_t idx) {
  // O(1) swap-removal. The moved action may sit in this list as a source or
  // as a destination endpoint; patch whichever index points here.
  auto& comms = hosts_[static_cast<size_t>(host)].comms;
  comms[idx] = comms.back();
  comms.pop_back();
  if (static_cast<size_t>(idx) < comms.size()) {
    Action* moved = comms[idx];
    if (moved->host_ == host)
      moved->host_list_idx_ = idx;
    else
      moved->peer_list_idx_ = idx;
  }
}

// Takes the ActionPtr by value: callers may pass a reference into the slot
// table, which the slot reset below would otherwise invalidate mid-function.
void Engine::finish_action(ActionPtr action, ActionState final_state, std::vector<ActionEvent>* out,
                           std::vector<Notice>* notices) {
  // Idempotence guard: an observer notified below may re-enter and finish
  // (e.g. cancel) an action that a caller already collected as a victim —
  // and a failure may reach the same action through several constraints.
  // Finishing twice would reuse the stale run_idx_ and corrupt the slots.
  if (action->state_ != ActionState::kRunning && action->state_ != ActionState::kSuspended)
    return;
  sync_progress(*action);  // credit progress made since the last rate change
  const ActionState old_state = action->state_;
  action->state_ = final_state;
  action->finish_time_ = now_;
  if (final_state == ActionState::kDone)
    action->remaining_ = 0;
  orphan_heap_entry(*action);  // orphan any entry still in the completion heap
  if (action->var_ >= 0) {
    action_of_var_[static_cast<size_t>(action->var_)] = nullptr;
    sys_.release_variable(action->var_);
    action->var_ = -1;
  }
  if (action->kind_ == ActionKind::kSleep && action->host_ >= 0) {
    // O(1) removal from the host's sleep index.
    auto& sleeps = hosts_[static_cast<size_t>(action->host_)].sleeps;
    const std::uint32_t si = action->host_list_idx_;
    sleeps[si] = sleeps.back();
    sleeps[si]->host_list_idx_ = si;
    sleeps.pop_back();
  } else if (action->in_endpoint_lists_) {
    endpoint_list_remove(action->host_, action->host_list_idx_);
    if (action->peer_host_ != action->host_)
      endpoint_list_remove(action->peer_host_, action->peer_list_idx_);
    action->in_endpoint_lists_ = false;
  }
  // O(1) removal: clear the slot and recycle it (LIFO keeps it cache-hot).
  const size_t idx = action->run_idx_;
  running_[idx].reset();
  free_slots_.push_back(idx);
  --running_count_;
  if (notices == nullptr)
    notify(*action, old_state, final_state);
  else if (observer_)
    notices->push_back(Notice{action, old_state, final_state, false, -1, false});
  const bool failed = final_state == ActionState::kFailed;
  (out != nullptr ? *out : pending_).push_back(ActionEvent{std::move(action), failed});
}

void Engine::notify(const Action& action, ActionState old_state, ActionState new_state) {
  if (observer_)
    observer_(action, old_state, new_state);
}

bool Engine::host_is_on(int host) const { return checked(hosts_, host, "host_is_on", "host").on; }

bool Engine::link_is_on(platform::LinkId link) const {
  return checked(links_, link, "link_is_on", "link").on;
}

double Engine::host_available_speed_fraction(int host) const {
  return checked(hosts_, host, "host_available_speed_fraction", "host").scale;
}

double Engine::host_speed(int host) const {
  const HostRes& res = checked(hosts_, host, "host_speed", "host");
  return res.on ? platform_.host(host).speed_flops * res.scale : 0.0;
}

double Engine::link_bandwidth(platform::LinkId link) const {
  const LinkRes& res = checked(links_, link, "link_bandwidth", "link");
  return res.on ? platform_.link(link).bandwidth_Bps * res.scale : 0.0;
}

double Engine::host_load(int host) {
  const HostRes& res = checked(hosts_, host, "host_load", "host");
  share_resources();
  return sys_.usage(res.cnst);
}

double Engine::link_load(platform::LinkId link) {
  const LinkRes& res = checked(links_, link, "link_load", "link");
  share_resources();
  return sys_.usage(res.cnst);
}

void Engine::fail_actions_on_constraint(MaxMinSystem::CnstId cnst, std::vector<ActionEvent>& out,
                                        std::vector<Notice>* notices) {
  // The solver's element arena IS the cnst -> actions index: walk the
  // constraint's user list and map variables back to actions. Collect
  // before finishing — finishing releases the victim's variable, which
  // mutates the very list being walked. Duplicate entries (a variable
  // expanded twice on the constraint) and actions spanning several failed
  // constraints are deduplicated by the finish idempotence guard: each
  // action emits exactly one failure event.
  std::vector<ActionPtr> victims;
  sys_.for_each_variable_on(cnst, [&](MaxMinSystem::VarId v, double) {
    Action* a = action_of_var_[static_cast<size_t>(v)];
    if (a != nullptr && (victims.empty() || victims.back().get() != a))
      victims.push_back(running_[a->run_idx_]);
  });
  for (ActionPtr& a : victims)
    finish_action(std::move(a), ActionState::kFailed, &out, notices);
}

void Engine::fail_actions(const std::vector<Action*>& index, std::vector<ActionEvent>& out,
                          std::vector<Notice>* notices) {
  // Copy out of the index first: finish_action swap-removes from it.
  std::vector<ActionPtr> victims;
  for (Action* a : index)
    victims.push_back(running_[a->run_idx_]);
  for (ActionPtr& a : victims)
    finish_action(std::move(a), ActionState::kFailed, &out, notices);
}

void Engine::apply_host_state(int host, bool on, std::vector<ActionEvent>& out,
                              std::vector<Notice>* notices) {
  HostRes& res = hosts_[static_cast<size_t>(host)];
  if (res.cnst < 0) {
    // Departed host: its trace chain keeps ticking (so a rejoin resumes in
    // phase) but flaps neither fail anything nor reach the observer.
    res.on = on;
    return;
  }
  if (res.on == on)
    return;
  res.on = on;
  refresh_host_capacity(host);
  if (!on) {
    fail_actions_on_constraint(res.cnst, out, notices);
    if (res.loopback >= 0)
      fail_actions_on_constraint(res.loopback, out, notices);
    fail_actions(res.sleeps, out, notices);
    // Comms already killed through a dead constraint (loopback) are skipped
    // by the finish idempotence guard.
    if (kill_transit_comms_)
      fail_actions(res.comms, out, notices);
  }
  if (!resource_observer_)
    return;
  if (notices != nullptr)
    notices->push_back(Notice{nullptr, ActionState::kRunning, ActionState::kRunning, true, host, on});
  else
    resource_observer_(true, host, on);
}

void Engine::apply_link_state(platform::LinkId link, bool on, std::vector<ActionEvent>& out,
                              std::vector<Notice>* notices) {
  LinkRes& res = links_[static_cast<size_t>(link)];
  if (res.cnst < 0) {  // private link of a departed host: inert (see above)
    res.on = on;
    return;
  }
  if (res.on == on)
    return;
  res.on = on;
  refresh_link_capacity(link);
  if (!on)
    fail_actions_on_constraint(res.cnst, out, notices);
  if (!resource_observer_)
    return;
  if (notices != nullptr)
    notices->push_back(Notice{nullptr, ActionState::kRunning, ActionState::kRunning, false, link, on});
  else
    resource_observer_(false, link, on);
}

void Engine::set_host_state(int host, bool on) {
  checked(hosts_, host, "set_host_state", "host");
  platform_.check_host_present(host, "set_host_state");  // "departed at t=…"
  std::vector<ActionEvent> out;
  apply_host_state(host, on, out, nullptr);
  for (auto& ev : out)
    pending_.push_back(std::move(ev));
}

void Engine::set_link_state(platform::LinkId link, bool on) {
  checked(links_, link, "set_link_state", "link");
  std::vector<ActionEvent> out;
  apply_link_state(link, on, out, nullptr);
  for (auto& ev : out)
    pending_.push_back(std::move(ev));
}

void Engine::set_host_scale(int host, double scale) {
  HostRes& res = checked(hosts_, host, "set_host_scale", "host");
  check_scale("set_host_scale", "host", platform_.host(host).name, scale);
  res.scale = scale;
  refresh_host_capacity(host);
}

void Engine::set_link_scale(platform::LinkId link, double scale) {
  LinkRes& res = checked(links_, link, "set_link_scale", "link");
  check_scale("set_link_scale", "link", platform_.link(link).name, scale);
  res.scale = scale;
  refresh_link_capacity(link);
}

// ---------------------------------------------------------------------------
// Dynamic membership
// ---------------------------------------------------------------------------

int Engine::join_host(platform::ZoneId zone, const std::string& name, double speed_flops) {
  const int h = platform_.join_host(zone, name, speed_flops);
  adopt_new_resources();
  return h;
}

int Engine::join_host(const platform::HostSpec& spec, platform::NodeId attach,
                      const platform::LinkSpec& uplink) {
  const int h = platform_.join_host(spec, attach, uplink);
  adopt_new_resources();
  return h;
}

void Engine::adopt_new_resources() {
  for (size_t h = hosts_.size(); h < platform_.host_count(); ++h) {
    const auto& spec = platform_.host(static_cast<int>(h));
    HostRes res;
    if (!spec.availability.empty())
      res.scale = spec.availability.value_at(now_);
    if (!spec.state.empty())
      res.on = spec.state.value_at(now_) > 0.5;
    res.cnst = sys_.new_constraint(res.on ? spec.speed_flops * res.scale : 0.0, /*shared=*/true);
    hosts_.push_back(std::move(res));
    if (!spec.availability.empty())
      schedule_next(spec.availability, TraceEvent::Kind::kHostAvail, static_cast<int>(h), now_);
    if (!spec.state.empty())
      schedule_next(spec.state, TraceEvent::Kind::kHostState, static_cast<int>(h), now_);
  }
  for (size_t l = links_.size(); l < platform_.link_count(); ++l) {
    const auto& spec = platform_.link(static_cast<platform::LinkId>(l));
    LinkRes res;
    if (!spec.availability.empty())
      res.scale = spec.availability.value_at(now_);
    if (!spec.state.empty())
      res.on = spec.state.value_at(now_) > 0.5;
    res.cnst = sys_.new_constraint(res.on ? spec.bandwidth_Bps * res.scale * bandwidth_factor_ : 0.0,
                                   spec.policy == platform::SharingPolicy::kShared);
    links_.push_back(std::move(res));
    if (!spec.availability.empty())
      schedule_next(spec.availability, TraceEvent::Kind::kLinkAvail, static_cast<int>(l), now_);
    if (!spec.state.empty())
      schedule_next(spec.state, TraceEvent::Kind::kLinkState, static_cast<int>(l), now_);
  }
}

void Engine::leave_host(int host) {
  checked(hosts_, host, "leave_host", "host");
  const std::vector<platform::LinkId> private_links = platform_.host_private_links(host);
  platform_.leave_host(host, now_);  // validates presence; routes now refuse the host

  // Structured teardown: everything on the host, its loopback, and its
  // private links fails — exactly once each (the finish idempotence guard
  // dedups victims reached through several dead constraints), observers
  // firing inline as ever for explicit state changes.
  std::vector<ActionEvent> out;
  apply_host_state(host, false, out, nullptr);
  for (platform::LinkId l : private_links)
    apply_link_state(l, false, out, nullptr);

  // Release the constraints through the solver's id-recycling paths: the
  // fail sweeps above emptied them, and a released id is reused by the next
  // constraint creation (a later join or rejoin).
  HostRes& res = hosts_[static_cast<size_t>(host)];
  if (res.cnst >= 0) {
    sys_.release_constraint(res.cnst);
    res.cnst = -1;
  }
  if (res.loopback >= 0) {
    sys_.release_constraint(res.loopback);
    res.loopback = -1;
  }
  for (platform::LinkId l : private_links) {
    LinkRes& lres = links_[static_cast<size_t>(l)];
    if (lres.cnst >= 0) {
      sys_.release_constraint(lres.cnst);
      lres.cnst = -1;
    }
  }
  for (auto& ev : out)
    pending_.push_back(std::move(ev));
}

void Engine::rejoin_host(int host) {
  checked(hosts_, host, "rejoin_host", "host");
  platform_.rejoin_host(host);           // validates "is already present"

  // Bring-up mirrors construction, evaluated at now(): the trace chains kept
  // ticking while the host was away (the departed guards recorded their
  // values), so capacity and up/down state resume exactly in phase.
  HostRes& res = hosts_[static_cast<size_t>(host)];
  const auto& spec = platform_.host(host);
  res.scale = spec.availability.empty() ? res.scale : spec.availability.value_at(now_);
  res.on = spec.state.empty() ? true : spec.state.value_at(now_) > 0.5;
  res.cnst = sys_.new_constraint(res.on ? spec.speed_flops * res.scale : 0.0, /*shared=*/true);
  // res.loopback stays -1: recreated lazily by the first self-comm.
  for (platform::LinkId l : platform_.host_private_links(host)) {
    LinkRes& lres = links_[static_cast<size_t>(l)];
    if (lres.cnst >= 0)
      continue;  // shared with another present host (not actually private)
    const auto& lspec = platform_.link(l);
    lres.scale = lspec.availability.empty() ? lres.scale : lspec.availability.value_at(now_);
    lres.on = lspec.state.empty() ? true : lspec.state.value_at(now_) > 0.5;
    lres.cnst = sys_.new_constraint(lres.on ? lspec.bandwidth_Bps * lres.scale * bandwidth_factor_ : 0.0,
                                    lspec.policy == platform::SharingPolicy::kShared);
  }
  // The return is a resource bring-up: the kernel's observer respawns the
  // host's restart-on-rejoin daemons on this notification.
  if (resource_observer_ && res.on)
    resource_observer_(true, host, true);
}

}  // namespace sg::core
