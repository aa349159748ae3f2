/// \file action.hpp
/// Actions are the unit of resource consumption in SURF: an execution on a
/// CPU, a data transfer across a route, or a parallel task spanning both.
/// The engine assigns each running action a rate from the MaxMin solution
/// and advances its remaining work as simulated time passes.
///
/// The steady-state Action object is deliberately small (two cache lines):
/// the per-event hot path (rate refresh, heap pop, completion) reads the
/// leading fields; state/kind are single bytes and the flags single bits;
/// a custom display name is one owned pointer that stays null for actions
/// keeping their kind's default name; and the set of constraints the
/// action consumes is not stored here at all — it is read from the solver's
/// element arena, which the engine also uses as its cnst -> actions
/// failure-propagation index.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "core/maxmin.hpp"

namespace sg::core {

class Engine;

enum class ActionState : std::uint8_t {
  kRunning,   ///< progressing (or waiting out its latency phase)
  kSuspended, ///< paused by the application; consumes nothing
  kDone,      ///< completed successfully
  kFailed,    ///< a resource it used died
  kCanceled,  ///< cancelled by the application
};

enum class ActionKind : std::uint8_t { kExec, kComm, kPtask, kSleep };

/// One resource-consuming activity. Created via Engine::exec_start /
/// comm_start / ptask_start / sleep_start; owned jointly by the engine (while
/// running) and the caller.
class Action {
public:
  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;

  ActionState state() const { return state_; }
  ActionKind kind() const { return kind_; }
  /// Display name: the name passed at creation, or the kind's default
  /// ("exec", "comm", "ptask", "sleep") when none (or an empty one) was
  /// given. Owned by the action, so it outlives the engine together with
  /// the ActionPtr.
  const std::string& name() const;

  double total() const { return total_; }
  /// Remaining work as of the engine's current simulated time. Progress is
  /// tracked lazily (synced when the action's rate changes), so this
  /// extrapolates from the last sync point.
  double remaining() const;
  /// Rate allocated by the last sharing recomputation (work units per second).
  double rate() const { return rate_; }
  double start_time() const { return start_time_; }
  /// Completion (or failure) date; NaN while still running.
  double finish_time() const { return finish_time_; }
  /// Remaining latency phase (communications only), as of the engine's
  /// current simulated time.
  double latency_remaining() const;

  double priority() const { return priority_; }

  /// Pause/resume the action (used by process suspension). Suspended actions
  /// release their resource share.
  void suspend();
  void resume();
  /// Abort; the action transitions to kCanceled and is reaped by the engine.
  void cancel();
  /// Change the sharing priority (weight) of a running action.
  void set_priority(double priority);

  /// Host the action runs on: exec/sleep host, or comm source host.
  int host() const { return host_; }
  /// Destination host of a communication (-1 otherwise).
  int peer_host() const { return peer_host_; }

  /// Arbitrary user payload: the kernel attaches the blocked actor to an
  /// exec, ptask or sleep, and the rendezvous Comm to a transfer.
  void* user_data = nullptr;

protected:
  // Protected, not private: the engine instantiates actions through a local
  // derived shell so std::make_shared can fuse the control block and the
  // action into one allocation (see Engine's make_action).
  Action(Engine* engine, ActionKind kind, double total, double priority);

private:
  friend class Engine;

  // Field order groups what the per-event hot path (rate refresh, heap
  // pop, completion) touches into the leading cache line; packed metadata
  // and the rarely-read fields trail.
  Engine* engine_;
  double remaining_;
  double rate_ = 0;
  double last_update_ = 0;     ///< date remaining_/latency_remaining_ were last synced
  std::uint64_t heap_stamp_ = 0;  ///< completion-heap entries older than this are stale
  double latency_remaining_ = 0;
  double finish_time_ = std::numeric_limits<double>::quiet_NaN();
  MaxMinSystem::VarId var_ = -1;
  std::uint32_t run_idx_ = 0;  ///< slot in the engine's running_ table (O(1) removal)
  /// Index in the source host's per-host action index (the sleep list, or —
  /// with engine/kill-transit-comms — the endpoint-comm list).
  std::uint32_t host_list_idx_ = 0;
  /// Index in the destination host's endpoint-comm list (kill-transit only).
  std::uint32_t peer_list_idx_ = 0;
  int host_ = -1;  ///< host an exec/sleep runs on (failure propagation)
  int peer_host_ = -1;  ///< comm destination host
  ActionState state_ = ActionState::kRunning;
  ActionKind kind_;
  bool in_latency_phase_ : 1 = false;
  bool in_heap_ : 1 = false;  ///< has a live (non-stale) completion-heap entry
  bool in_endpoint_lists_ : 1 = false;  ///< registered in the hosts' comm indexes
  /// Engine-wide start counter (wraps): same-date events apply in this order.
  std::uint32_t start_seq_;
  double priority_;
  double total_;
  double start_time_ = 0;
  /// Custom display name; null keeps the kind's default.
  std::unique_ptr<std::string> name_;
};

static_assert(sizeof(Action) == 128, "the per-event hot path assumes two cache lines per action");

using ActionPtr = std::shared_ptr<Action>;

}  // namespace sg::core
