/// \file membership.hpp
/// Graceful-degradation helpers for dynamic platform membership.
///
/// The kernel exposes the raw churn verbs (Kernel::join_host / leave_host /
/// rejoin_host); this layer is what application actors build on to survive
/// them:
///
///   * a membership driver — a daemon that walks the hosts' `churn` traces
///     and promotes trace edges to whole-host departure (leave_host) and
///     return (rejoin_host), the membership analogue of the engine's
///     state-trace scheduling;
///   * restart-on-rejoin registration — a daemon spawned through here dies
///     with its host and respawns when the host rejoins, via the kernel's
///     auto-restart machinery;
///   * a bounded-retry-with-backoff comm wrapper, so a sender/receiver rides
///     out a vanished peer (timeout, network failure, departed host) instead
///     of dying with it.
///
/// Retry parameters are RetryPolicy's defaults unless a call passes its own.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "trace/trace.hpp"

namespace sg::kernel {

/// Bounded-retry parameters for retry_send / retry_recv. Each attempt runs
/// with `timeout`; on failure the next attempt's timeout is multiplied by
/// `backoff` (capped at `max_timeout`) and the actor sleeps the *previous*
/// timeout before retrying, so a flapping peer is probed at geometrically
/// spaced dates rather than hammered.
struct RetryPolicy {
  int max_attempts = 4;       ///< total attempts (>= 1)
  double timeout = 1.0;       ///< first attempt's comm timeout, s
  double backoff = 2.0;       ///< timeout multiplier between attempts
  double max_timeout = 30.0;  ///< cap on the per-attempt timeout, s
};

/// Blocking send with bounded retry. Returns true when an attempt completed,
/// false when every attempt failed (timeout, network failure, or a departed /
/// down peer). Never throws the transient comm exceptions it absorbs.
bool retry_send(Kernel& k, MailboxId mailbox, void* payload, double bytes,
                const RetryPolicy& policy = RetryPolicy{});

/// Blocking receive with bounded retry. Returns the payload, or nullptr when
/// every attempt failed. `source` (if non-null) receives the sender's id on
/// success.
void* retry_recv(Kernel& k, MailboxId mailbox,
                 const RetryPolicy& policy = RetryPolicy{},
                 ActorId* source = nullptr);

/// One churned host: its membership trace (1 = member, 0 = departed).
struct HostChurn {
  int host = -1;
  sg::trace::Trace availability;
};

/// Spawn the membership driver: a daemon on `driver_host` that sleeps from
/// trace edge to trace edge and calls Kernel::leave_host / rejoin_host as
/// each host's trace drops to <= 0.5 resp. rises above it. Edges at equal
/// dates apply in ascending host order (deterministic under parallel
/// scheduling). The daemon exits when no trace has a further edge; periodic
/// traces churn forever (daemons don't block termination). Run it on a host
/// that is not itself churned.
ActorId start_membership_driver(Kernel& k, int driver_host, std::vector<HostChurn> churn);

/// Convenience: collect every platform host with a non-empty HostSpec::churn
/// trace and drive those.
ActorId start_membership_driver(Kernel& k, int driver_host);

/// Spawn `body` as a daemon with auto-restart: it is killed when `host`
/// departs (or fails) and respawned by the kernel when the host rejoins (or
/// reboots) — the restart-on-rejoin registration from the membership surface.
ActorId register_rejoin_daemon(Kernel& k, const std::string& name, int host,
                               std::function<void()> body);

}  // namespace sg::kernel
