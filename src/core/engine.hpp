/// \file engine.hpp
/// The SURF simulation engine: owns the platform's resource state (speeds,
/// bandwidth, availability scaling, up/down state), the MaxMin system,
/// and all running actions. Time advances from event to event: the
/// next action completion, the next latency-phase expiry, or the next trace
/// event (availability change or failure).
///
/// The engine is one serial event loop over one MaxMinSystem, as in the
/// paper's SURF: run_until() re-solves the dirty part of the sharing system,
/// picks the earliest of the next latency expiry, completion and trace
/// event, and applies everything due at that date. Zones shape routing only;
/// an intra-zone event still costs O(affected component), because the
/// solver's incremental closure never leaves the event's component. Scale
/// across cores comes from running independent simulations side by side,
/// one per process, not from threads inside one run.
///
/// Failure propagation is O(affected): when a resource dies, its victims are
/// found through the solver's element arena (constraint -> variables ->
/// actions) and a per-host sleep index, never by scanning the running set.
/// By default a transit communication survives the death of its endpoint
/// hosts (CM02 semantics); setting engine/kill-transit-comms makes a host's
/// death also fail every comm it is an endpoint of (L07-style), delivered
/// through a per-host endpoint index, still O(affected).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/action.hpp"
#include "core/maxmin.hpp"
#include "platform/platform.hpp"
#include "xbt/settings.hpp"

namespace sg::xbt {
struct BlockPool;  // LIFO recycler for one-size allocations (xbt/block_pool.hpp)
}

namespace sg::core {

/// Typed config keys owned by the engine; declare_engine_config() registers
/// them. engine/profile is seeded by SG_PROFILE.
inline constexpr config::NumberKey kCfgTcpGamma{"network/tcp-gamma"};
inline constexpr config::NumberKey kCfgBandwidthFactor{"network/bandwidth-factor"};
inline constexpr config::NumberKey kCfgLoopbackBw{"network/loopback-bw"};
inline constexpr config::NumberKey kCfgLoopbackLat{"network/loopback-lat"};
inline constexpr config::FlagKey kCfgKillTransitComms{"engine/kill-transit-comms"};
inline constexpr config::FlagKey kCfgProfile{"engine/profile"};

/// What the engine reports after each step.
struct ActionEvent {
  ActionPtr action;
  bool failed = false;  ///< true when a resource died under the action
};

/// Zero-copy view of one run_until() round's events, in delivery order:
/// a span straight into the engine's event buffer. Valid until the next
/// run_until() call.
using StepLog = std::span<const ActionEvent>;

class Engine {
public:
  /// The engine copies the (sealed) platform description and builds runtime
  /// resource state from it.
  explicit Engine(platform::Platform platform);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  double now() const { return now_; }
  const platform::Platform& platform() const { return platform_; }

  // -- starting activities ---------------------------------------------------
  // Each creator takes an optional trailing display name. An empty one keeps
  // the kind's default ("exec", "comm", ...) and allocates nothing —
  // creation is the hot path of churn workloads; any other is copied into
  // the action.

  /// Computation of `flops` on a host. Throws HostFailureException if the
  /// host is currently down. Work amounts (flops, bytes) and priorities must
  /// be finite and >= 0, and a rate limit finite: every start throws
  /// xbt::InvalidArgument, naming the call and the host, otherwise.
  ActionPtr exec_start(int host, double flops, double priority = 1.0, std::string_view name = {});

  /// Point-to-point transfer of `bytes` from src to dst along the platform
  /// route. rate_limit (> 0) additionally caps the transfer rate (sender
  /// throttling; <= 0 means no cap). The TCP window cap gamma/(2*latency) applies automatically.
  ActionPtr comm_start(int src_host, int dst_host, double bytes, double rate_limit = -1.0,
                       std::string_view name = {});

  /// Parallel task (paper: "Parallel tasks" under resource sharing): a single
  /// activity consuming several CPUs and the links between them. The action
  /// completes when the common progress fraction reaches 1.
  /// flops[i] is the work of hosts[i]; bytes[i][j] the data sent i -> j.
  ActionPtr ptask_start(const std::vector<int>& hosts, const std::vector<double>& flops,
                        const std::vector<std::vector<double>>& bytes, std::string_view name = {});

  /// Pure delay on a host (fails if the host dies while sleeping).
  ActionPtr sleep_start(int host, double duration, std::string_view name = {});

  // -- time advance -----------------------------------------------------------
  /// Advance simulated time to the next event date, but no further than
  /// `deadline`, and return the completion/failure events that fired, in
  /// the order they fired. The returned view stays valid until the next
  /// run_until() call. If nothing happens before `deadline`, time jumps
  /// there and the view is empty; if deadline is +inf and nothing is
  /// pending, time does not move. This is THE run-loop entry point.
  StepLog run_until(double deadline = std::numeric_limits<double>::infinity());

  /// Date of the next engine event (action completion / trace event), or
  /// +inf when nothing is pending; recomputes sharing first. Not a run-loop
  /// primitive (run_until() already jumps to that date): it is the kernel's
  /// deadlock probe, asking whether anything will ever happen.
  double next_event_time();

  // -- resource state ----------------------------------------------------------
  // Each accessor throws xbt::InvalidArgument naming itself on an id out of
  // range.
  bool host_is_on(int host) const;
  bool link_is_on(platform::LinkId link) const;
  /// Current effective speed (flop/s) including the availability trace.
  double host_speed(int host) const;
  double host_available_speed_fraction(int host) const;
  double link_bandwidth(platform::LinkId link) const;
  /// Instantaneous load: sum of allocations on the resource's constraint.
  double host_load(int host);
  double link_load(platform::LinkId link);

  /// Force state changes (used by tests and by the fault-injection toolbox;
  /// trace events use the same path).
  void set_host_state(int host, bool on);
  void set_link_state(platform::LinkId link, bool on);
  void set_host_scale(int host, double scale);
  void set_link_scale(platform::LinkId link, double scale);

  // -- dynamic membership ------------------------------------------------------
  /// Join a new member host to a sealed cluster zone (see Platform::join_host)
  /// and bring its runtime resources up: constraints are created through the
  /// solver's id-recycling paths, and the host's availability/state traces
  /// start ticking at now(). Returns the host index.
  int join_host(platform::ZoneId zone, const std::string& name = "", double speed_flops = -1.0);
  /// Graph-attach flavour (see the Platform overload).
  int join_host(const platform::HostSpec& spec, platform::NodeId attach,
                const platform::LinkSpec& uplink);
  /// Structured teardown of a departing host: every activity on the host, its
  /// loopback, and its private links fails (delivered exactly once through
  /// the next run_until(); transit comms additionally die under
  /// engine/kill-transit-comms), the constraints are released for id reuse,
  /// and the platform marks the host "departed at t=now()". The host's trace
  /// chains keep ticking silently so a later rejoin resumes them in phase.
  void leave_host(int host);
  /// Structured bring-up of a returning host: presence flips back, fresh
  /// constraints are created (recycled ids) at the trace-correct capacity,
  /// and the resource observer fires (true, host, true) so the kernel can
  /// respawn restart-on-rejoin daemons.
  void rejoin_host(int host);
  bool host_present(int host) const { return platform_.host_present(host); }

  /// Number of actions still running.
  size_t running_action_count() const { return running_count_; }

  /// Read-only view of the sharing system (tests and the memory-footprint
  /// bench metrics; the solver's arena doubles as the failure index).
  const MaxMinSystem& sharing_system() const { return sys_; }

  /// Threads the engine steps with: always 1. Kept for the benchmark
  /// driver (perfbench/), which reads it for its lane-occupancy metric.
  int thread_count() const { return 1; }

  /// Observer invoked on every action state transition (viz/tracing hook).
  /// Transitions that happen inside run_until() are notified after the
  /// round's events are logged, in event-log order.
  using ActionObserver = std::function<void(const Action&, ActionState /*old*/, ActionState /*new*/)>;
  void set_action_observer(ActionObserver obs) { observer_ = std::move(obs); }

  /// Observer invoked whenever a resource changes up/down state (the kernel
  /// uses it to kill/restart the actors living on a failed host).
  using ResourceObserver = std::function<void(bool /*is_host*/, int /*index*/, bool /*now_on*/)>;
  void set_resource_observer(ResourceObserver obs) { resource_observer_ = std::move(obs); }

  /// Cumulative phase-level profile of run_until() (engine/profile): wall
  /// nanoseconds per phase and round/event counters. All zeros while
  /// profiling is off.
  struct PhaseStats {
    std::uint64_t rounds = 0;       ///< run_until() calls that did a full round
    std::uint64_t events = 0;       ///< events delivered through the step log
    std::uint64_t solve_ns = 0;     ///< share_resources: solve + rate refresh
    std::uint64_t pick_ns = 0;      ///< target-date pick
    std::uint64_t advance_ns = 0;   ///< due trace events and heap entries
    std::uint64_t epilogue_ns = 0;  ///< deferred observer notifications
    std::uint64_t total_ns = 0;     ///< whole run_until() body
    /// Worker fan-out wall and per-lane busy time: always 0, as the engine
    /// starts no threads. Kept for the benchmark driver (perfbench/).
    std::uint64_t parallel_ns = 0;
    std::vector<std::uint64_t> lane_busy_ns;
  };
  /// Snapshot of the profile counters (cheap; see engine/profile).
  PhaseStats phase_stats() const { return pstats_; }

private:
  friend class Action;

  /// Event ordering at equal dates, codified here and consumed only by
  /// advance() (the regression suite pins it): within a step, trace events
  /// (availability/state flips) apply BEFORE heap events (latency expiries,
  /// completions) due at the same date — a resource dying exactly when an
  /// action would complete FAILS the action. Among trace events, (time,
  /// kind, index) is a total order; heap events due in one step apply in
  /// the order their actions started.
  static constexpr bool kTraceEventsBeforeCompletions = true;

  struct HostRes {
    MaxMinSystem::CnstId cnst = -1;
    MaxMinSystem::CnstId loopback = -1;  ///< lazily created
    double scale = 1.0;
    bool on = true;
    /// Sleeps currently running on this host (swap-removed via
    /// Action::host_list_idx_): sleeps have no solver variable, so the arena
    /// cannot index them — this list keeps host-failure sweeps O(affected).
    std::vector<Action*> sleeps;
    /// Comms this host is an endpoint of, maintained only under
    /// engine/kill-transit-comms (src side indexed by host_list_idx_, dst
    /// side by peer_list_idx_) so a host death can fail its transit comms
    /// in O(affected).
    std::vector<Action*> comms;
  };
  struct LinkRes {
    MaxMinSystem::CnstId cnst = -1;
    double scale = 1.0;
    bool on = true;
  };
  struct TraceEvent {
    double time;
    enum class Kind { kHostAvail, kHostState, kLinkAvail, kLinkState } kind;
    int index;
    double value;
    /// Total order (time, kind, index) — see kTraceEventsBeforeCompletions.
    bool operator>(const TraceEvent& other) const {
      if (time != other.time)
        return time > other.time;
      if (kind != other.kind)
        return kind > other.kind;
      return index > other.index;
    }
  };

  /// Event min-heap in SoA layout: the 4-ary heap order lives in a dense
  /// array of dates, with the payload (stamp + ActionPtr) in a parallel
  /// array. Sift compares only touch the 8-byte dates — four children per
  /// cache line instead of two 32-byte entries — so the per-event heap
  /// traffic reads half the lines an array-of-structs layout would; the
  /// 24-byte payloads move only when a compare decides a swap.
  ///
  /// Entries are never updated in place: rescheduling an action pushes a
  /// fresh entry and bumps the action's heap_stamp_, so older entries are
  /// recognized as stale and skipped when popped (lazy invalidation).
  /// Payloads hold a shared_ptr so a stale entry can never dangle.
  struct EventHeap {
    struct Payload {
      std::uint64_t stamp;
      ActionPtr action;
    };
    std::vector<double> dates;
    std::vector<Payload> payloads;
    /// Entries whose stamp no longer matches their action's.
    size_t stale = 0;

    bool empty() const { return dates.empty(); }
    size_t size() const { return dates.size(); }
    /// Root date, which a stale root can only understate; +inf when empty.
    double head() const { return dates.empty() ? std::numeric_limits<double>::infinity() : dates.front(); }
    Payload& top() { return payloads.front(); }
    void push(double date, std::uint64_t stamp, ActionPtr action);
    void pop_front();
    void sift_down(size_t hole);
    void rebuild();
    /// Pop stale entries off the top; returns the next valid date (+inf
    /// when empty). O(stale + 1).
    double reap_top();
    /// Erase every stale entry and restore the heap order.
    void compact();
  };

  /// One observer notification held back until the round's events are
  /// logged (observers are user code: they may re-enter the engine).
  struct Notice {
    ActionPtr action;  ///< action transition when set; resource notice otherwise
    ActionState old_state = ActionState::kRunning;
    ActionState new_state = ActionState::kRunning;
    bool res_is_host = false;
    int res_index = -1;
    bool res_on = false;
  };

  void schedule_next(const trace::Trace& trace, TraceEvent::Kind kind, int index, double after);
  /// Earliest pending trace date, clamped to >= now().
  double next_trace_time() const;

  /// Apply the due trace events (FIRST — the tie-break), then pop every heap
  /// entry due by target + eps and apply them in start order.
  void advance(double target, double eps);
  void apply_trace_event(const TraceEvent& ev);

  /// Create runtime resource records (constraints, trace schedules) for every
  /// platform host/link the engine does not know yet — the shared bring-up
  /// tail of both join_host overloads. O(new resources).
  void adopt_new_resources();
  void refresh_host_capacity(int host);
  void refresh_link_capacity(platform::LinkId link);
  /// Up/down transition: adjust capacity and, on death, fail the victims
  /// through the indexes into `out`. With `notices` (inside run_until()),
  /// observer calls are held back there; without (the explicit setters),
  /// they fire inline as each victim finishes — an observer may react to one
  /// failure by cancelling a not-yet-finished sibling.
  void apply_host_state(int host, bool on, std::vector<ActionEvent>& out, std::vector<Notice>* notices);
  void apply_link_state(platform::LinkId link, bool on, std::vector<ActionEvent>& out,
                        std::vector<Notice>* notices);
  /// Fail every action with a live solver variable on `cnst`. O(degree):
  /// victims come from the solver's element arena.
  void fail_actions_on_constraint(MaxMinSystem::CnstId cnst, std::vector<ActionEvent>& out,
                                  std::vector<Notice>* notices);
  void fail_actions(const std::vector<Action*>& index, std::vector<ActionEvent>& out,
                    std::vector<Notice>* notices);
  /// Finish a running or suspended action (idempotent). The event goes to
  /// `out` (pending_ when null); the observer call to `notices` when given,
  /// inline otherwise.
  void finish_action(ActionPtr action, ActionState final_state, std::vector<ActionEvent>* out,
                     std::vector<Notice>* notices = nullptr);
  /// Register / swap-remove a comm in its endpoints' comm indexes.
  void endpoint_lists_add(const ActionPtr& action);
  void endpoint_list_remove(int host, std::uint32_t idx);
  MaxMinSystem::CnstId loopback_constraint(int host);
  void notify(const Action& action, ActionState old_state, ActionState new_state);
  void fire_notice(const Notice& n);
  /// Bind a solver variable to its action so rate refreshes can find it.
  void bind_var(Action* action, MaxMinSystem::VarId var);
  /// Register a freshly created action in the slot table.
  void add_running(const ActionPtr& action);
  /// Allocate an action in the block pool, with its display name (none
  /// when `name` is empty or the kind's default).
  ActionPtr make_action(ActionKind kind, double total, double priority, std::string_view name);
  /// Re-solve sharing (incrementally — only components touched by a mutation
  /// are recomputed), refresh the rates of the actions whose allocation
  /// changed, and reschedule exactly those. Cheap no-op when nothing is
  /// dirty.
  void share_resources();
  /// Fold elapsed time into remaining_/latency_remaining_ using the rate
  /// that was in effect since the last sync. Must run before a rate change.
  void sync_progress(Action& a);
  /// Invalidate the action's current heap entry and push a fresh one at its
  /// completion date under current rates (no entry if that date is +inf).
  /// Assumes progress is already synced to now_.
  void schedule_completion(const ActionPtr& a);
  /// Mark the action's current heap entry (if any) stale via a stamp bump,
  /// keeping the stale-entry count for compaction accounting.
  void orphan_heap_entry(Action& a);
  /// Pop stale heap tops; returns the next valid heap date (kInf when none).
  double next_completion_date();
  /// Date at which the action will complete under current rates (kInf if
  /// suspended or starved). Assumes progress is synced to now_.
  double action_finish_date(const Action& a) const;

  platform::Platform platform_;
  MaxMinSystem sys_;
  std::vector<HostRes> hosts_;
  std::vector<LinkRes> links_;
  /// Far-future completions, and the near-term latency expiries kept out of
  /// the big heap.
  EventHeap completion_;
  EventHeap latency_;
  /// Slot table of the running actions (nullptr = free slot, recycled
  /// LIFO). Slots are never swapped, so finishing an action touches no other
  /// action's cache lines.
  std::vector<ActionPtr> running_;
  std::vector<size_t> free_slots_;
  size_t running_count_ = 0;
  /// Block recycler for the actions (action + control block fused).
  std::shared_ptr<xbt::BlockPool> pool_;
  /// Availability/state trace events of every resource.
  std::priority_queue<TraceEvent, std::vector<TraceEvent>, std::greater<>> traces_;
  /// Action lookup by solver variable id (nullptr when free).
  std::vector<Action*> action_of_var_;
  /// Events produced outside run_until() (creation-time failures, explicit
  /// set_*_state, cancel): delivered by the next run_until() before time
  /// moves.
  std::vector<ActionEvent> pending_;
  /// The current round's events: the buffer the returned StepLog views.
  std::vector<ActionEvent> fired_;
  /// Observer calls of the current round, fired once its events are logged.
  std::vector<Notice> notices_;
  /// The current round's due heap entries, applied in start order.
  std::vector<ActionPtr> due_;
  std::uint32_t next_start_seq_ = 0;  ///< Action::start_seq_ of the next start
  bool profile_ = false;  ///< engine/profile snapshot
  PhaseStats pstats_;
  ActionObserver observer_;
  ResourceObserver resource_observer_;
  double now_ = 0;

  // model parameters (snapshotted from the config registry at construction)
  double tcp_gamma_;
  double bandwidth_factor_;
  double loopback_bw_;
  double loopback_lat_;
  bool kill_transit_comms_ = false;  ///< engine/kill-transit-comms snapshot
};

/// Register the engine's model parameters in the config registry with their
/// defaults (idempotent; engine construction calls it too).
void declare_engine_config();

}  // namespace sg::core
