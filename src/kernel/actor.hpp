/// \file actor.hpp
/// Simulated processes ("processes can be created, suspended, resumed and
/// terminated dynamically" — the paper's MSG process model, shared by GRAS
/// and SMPI in simulation mode).
///
/// Actors live in the kernel's chunked slot arena (kernel.hpp): creation and
/// death are O(1) slot pushes, dead actors' slots (and their fiber stacks)
/// are recycled, and the hot per-actor state below is packed so a parked
/// actor costs well under 200 bytes on top of its (lazily committed) stack
/// pages. Cross-actor bookkeeping — which actors live on a host — is
/// index-linked through the slot ids rather than held in per-actor
/// containers, like the solver's element arena.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/action.hpp"
#include "kernel/context.hpp"

namespace sg::kernel {

using ActorId = long;

/// Interned mailbox name: a dense index into the kernel's mailbox table.
/// Kernel::mailbox_by_name() converts a name exactly once at the API
/// boundary; every queue/match/send afterwards is an array index.
using MailboxId = std::int32_t;
constexpr MailboxId kNoMailbox = -1;

/// Why a blocked actor was woken up.
enum class WakeStatus {
  kOk,
  kTimeout,
  kHostFailure,
  kNetworkFailure,
  kCanceled,
};

struct Comm;
using CommPtr = std::shared_ptr<Comm>;

class Kernel;

/// One simulated process. All state is owned by the kernel; user code
/// interacts through Kernel's simcall methods and through the ids.
class Actor {
public:
  Actor(ActorId id, std::string name, int host, std::function<void()> body, bool daemon, bool auto_restart);

  ActorId id() const { return id_; }
  const std::string& name() const { return name_; }
  int host() const { return host_; }
  bool daemon() const { return daemon_; }
  bool auto_restart() const { return auto_restart_; }

  enum class State : std::uint8_t {
    kReady,    ///< scheduled (or suspended-but-runnable)
    kBlocked,  ///< waiting in a simcall
    kDead,
  };
  State state() const { return state_; }
  bool suspended() const { return suspended_; }
  bool alive() const { return state_ != State::kDead; }

  /// Register a callback run (on the maestro) when the actor terminates.
  void on_exit(std::function<void(bool /*failed*/)> cb) { exit_callbacks_.push_back(std::move(cb)); }

private:
  friend class Kernel;

  ActorId id_;
  std::int32_t host_;

  // Intrusive membership in the per-host live list (slot indices, -1 = end):
  // host failure kills residents in O(residents), not O(all actors ever).
  std::int32_t host_prev_ = -1;
  std::int32_t host_next_ = -1;
  std::uint32_t slot_ = 0;  ///< own index in the kernel's actor arena

  State state_ = State::kReady;
  bool daemon_;
  bool auto_restart_;
  bool suspended_ = false;
  bool in_ready_queue_ = false;
  bool killed_by_failure_ = false;
  WakeStatus wake_status_ = WakeStatus::kOk;
  std::uint32_t timer_gen_ = 0;  ///< invalidates in-flight timeout timers

  std::string name_;
  std::function<void()> body_;  ///< kept for auto-restart
  std::unique_ptr<Context> context_;

  // What the actor is blocked on (at most one at a time).
  core::ActionPtr blocked_action_;
  CommPtr blocked_comm_;

  std::vector<std::function<void(bool)>> exit_callbacks_;
};

}  // namespace sg::kernel
