/// \file comm.hpp
/// Rendezvous communications. A mailbox is a named meeting point: the first
/// party (sender or receiver) queues a Comm; the counterpart merges into it
/// and the data transfer starts on the platform route between their hosts.
///
/// Comm control blocks are recycled through the kernel's block pool (one
/// fused allocation per comm, LIFO reuse) and carry the *interned* mailbox
/// id — names are resolved once at the API boundary, never on the per-send
/// hot path.
///
/// ## Endpoint lifetime invariant
///
/// `sender` / `receiver` are raw pointers into the kernel's actor arena,
/// and a dead actor's slot may be reaped and reused. The pointers are
/// therefore only dereferenced while the matching `*_waiting` flag is true
/// and the comm is not kFinished: a waiting party is blocked on this very
/// comm, hence alive. Every path that finishes a comm (completion, timeout,
/// cancel, kill, failure) marks it kFinished *before* the owning actors can
/// die, and all wake paths check the state first. Anything needed after the
/// comm is over — who sent, between which hosts — is stored by value
/// (`sender_id`, `src_host`, ...), never read through the pointers.
///
/// ## Transfer back-pointer
///
/// A started comm is found from its engine transfer through the action's
/// `user_data`, a raw pointer that ~Comm clears; the kernel keeps no table of
/// running transfers and the transfer holds no reference to the comm. When
/// both parties drop a started comm, the transfer still runs to completion,
/// keeping its share of the route, and its event wakes no one.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "core/action.hpp"
#include "kernel/actor.hpp"

namespace sg::kernel {

struct Comm : std::enable_shared_from_this<Comm> {
  enum class State : std::uint8_t {
    kQueuedSend,  ///< sender waiting for a receiver
    kQueuedRecv,  ///< receiver waiting for a sender
    kStarted,     ///< transfer in flight
    kFinished,    ///< completed / failed / timed out / canceled
  };

  MailboxId mailbox = kNoMailbox;
  State state = State::kQueuedSend;
  WakeStatus result = WakeStatus::kOk;  ///< outcome, valid when kFinished
  bool detached = false;  ///< sender does not wait for completion
  bool sender_waiting = false;
  bool receiver_waiting = false;

  Actor* sender = nullptr;    ///< see the endpoint lifetime invariant above
  Actor* receiver = nullptr;
  ActorId sender_id = -1;     ///< by-value copies, safe after the actors die
  ActorId receiver_id = -1;
  std::int32_t src_host = -1;
  std::int32_t dst_host = -1;

  void* payload = nullptr;
  double bytes = 0;
  double rate = -1;      ///< optional cap on the transfer rate
  /// Engine transfer once started; its user_data points back here.
  core::ActionPtr action;

  ~Comm() {
    if (action)
      action->user_data = nullptr;
  }
};

struct Mailbox {
  std::deque<CommPtr> queued_sends;
  std::deque<CommPtr> queued_recvs;
};

}  // namespace sg::kernel
