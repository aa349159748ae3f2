/// \file kernel.hpp
/// The simulation kernel ("maestro"): owns the SURF engine, schedules actor
/// contexts, matches communications on mailboxes, arms timeout timers, and
/// propagates resource failures to the actors they strand.
///
/// ## Execution model
///
/// The classic maestro loop of SimGrid's MSG: every simulated process runs
/// inside this one OS process, and the maestro resumes one actor at a time.
/// run() repeats two steps until no non-daemon actor is left:
///
///  * **Drain the ready queue.** One FIFO holds the runnable actors. The
///    maestro pops the front actor and resumes it; the actor runs user code
///    up to its next blocking simcall. Every simcall takes effect on the
///    spot, on the actor's own stack: a mailbox match starts its engine
///    transfer at once, an actor it wakes, spawns or resumes joins the back
///    of the queue and runs later in the same drain, a kill unwinds the
///    victim immediately. Host failures the quantum caused are processed
///    right after it. Same-date actors thus run in FIFO wake order.
///  * **Advance the engine** to its next event or the next timeout timer,
///    and wake the actors whose actions, comms or timers completed.
///
/// Actors are fibers (kernel/context.hpp) switched on the OS thread that
/// calls run(); the kernel starts no threads. A simcall made from outside
/// any actor throws xbt::InvalidArgument naming the call.
///
/// Scale shape (the "millions of users" path): actors live in a chunked slot
/// arena with O(1) spawn/death and slot+stack recycling, mailbox names are
/// interned to dense ids once at the API boundary, and comm control blocks
/// are recycled through one LIFO block pool.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "kernel/actor.hpp"
#include "kernel/comm.hpp"

namespace sg::kernel {

class Kernel {
public:
  explicit Kernel(platform::Platform platform);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  core::Engine& engine() { return engine_; }
  double now() const { return engine_.now(); }

  // -- lifecycle --------------------------------------------------------------
  /// Create a process on a host. It will start running inside run().
  /// daemon actors do not prevent simulation termination; auto_restart actors
  /// are respawned when their host reboots after a failure.
  ActorId spawn(const std::string& name, int host, std::function<void()> body, bool daemon = false,
                bool auto_restart = false);

  /// Run the simulation until no non-daemon actor remains (or deadlock).
  /// Returns the final simulated time.
  double run();

  /// True when run() ended because live actors were all stuck forever.
  bool deadlocked() const { return deadlocked_; }

  // -- actor-side simcalls -----------------------------------------------------
  /// The actor currently executing (nullptr on the maestro), and its kernel.
  static Actor* self();
  static Kernel* current();

  /// Simulate `flops` of computation on the calling actor's host.
  void execute(double flops, double priority = 1.0);
  /// Simulate a parallel task spanning several hosts (flops per host) and the
  /// communications between them (bytes[i][j] from hosts[i] to hosts[j]).
  void execute_parallel(const std::vector<int>& hosts, const std::vector<double>& flops,
                        const std::vector<std::vector<double>>& bytes);
  /// Simulate a delay.
  void sleep_for(double duration);
  /// Cooperatively yield (reschedule self at the back of the ready queue).
  void yield_now();
  /// Terminate the calling actor.
  [[noreturn]] void exit_self();

  // -- mailboxes ---------------------------------------------------------------
  /// Intern a mailbox name to its dense id (creating the mailbox on first
  /// use). Call once at the API boundary; the id-keyed simcalls below are
  /// the hot path — no hashing, no string construction per communication.
  MailboxId mailbox_by_name(const std::string& name);
  /// The name a mailbox id was interned from (logging / debugging).
  const std::string& mailbox_name(MailboxId id) const {
    check_mailbox(id, "mailbox_name");
    return mailbox_names_[static_cast<size_t>(id)];
  }

  /// Blocking send: rendezvous on the mailbox, then transfer `bytes` from the
  /// caller's host to the receiver's host. timeout < 0 = wait forever.
  /// Throws xbt::InvalidArgument, before queuing anything, when `bytes` is
  /// NaN, infinite or negative, `rate` is not finite (<= 0 = no cap) or
  /// `timeout` is NaN; the same checks guard every send and wait below.
  void send(MailboxId mailbox, void* payload, double bytes, double timeout = -1.0, double rate = -1.0);
  /// Fire-and-forget send (the comm lives on after the caller moves on).
  void send_detached(MailboxId mailbox, void* payload, double bytes, double rate = -1.0);
  /// Blocking receive. Returns the payload; source (if non-null) receives the
  /// sending actor's id.
  void* recv(MailboxId mailbox, double timeout = -1.0, ActorId* source = nullptr);

  /// Asynchronous variants (used by SMPI's Isend/Irecv).
  CommPtr send_async(MailboxId mailbox, void* payload, double bytes, double rate = -1.0);
  CommPtr recv_async(MailboxId mailbox);

  /// Is a send already queued on this mailbox? (message probe)
  bool comm_waiting(MailboxId mailbox);

  // String-keyed convenience wrappers (one interning each; fine for cold
  // paths and tests, wasteful in per-message loops).
  void send(const std::string& mailbox, void* payload, double bytes, double timeout = -1.0,
            double rate = -1.0) {
    send(mailbox_by_name(mailbox), payload, bytes, timeout, rate);
  }
  void send_detached(const std::string& mailbox, void* payload, double bytes, double rate = -1.0) {
    send_detached(mailbox_by_name(mailbox), payload, bytes, rate);
  }
  void* recv(const std::string& mailbox, double timeout = -1.0, ActorId* source = nullptr) {
    return recv(mailbox_by_name(mailbox), timeout, source);
  }
  CommPtr send_async(const std::string& mailbox, void* payload, double bytes, double rate = -1.0) {
    return send_async(mailbox_by_name(mailbox), payload, bytes, rate);
  }
  CommPtr recv_async(const std::string& mailbox) { return recv_async(mailbox_by_name(mailbox)); }
  bool comm_waiting(const std::string& mailbox);

  /// Wait for an async comm; throws like send/recv. Returns the payload.
  void* comm_wait(const CommPtr& comm, double timeout = -1.0);
  /// Non-blocking completion test.
  bool comm_test(const CommPtr& comm);

  // -- actor management ---------------------------------------------------------
  void suspend(ActorId id);
  void resume(ActorId id);
  void kill(ActorId id);

  bool is_alive(ActorId id) const;
  Actor* actor(ActorId id);
  size_t alive_actor_count() const { return live_count_; }
  /// Ids of all live actors (snapshot, ascending).
  std::vector<ActorId> live_actors() const;

  // -- platform control (fault injection) ---------------------------------------
  void host_off(int host);
  void host_on(int host);

  // -- platform control (dynamic membership) ------------------------------------
  /// Join a new host to a sealed platform (cluster zone auto-wiring). Returns
  /// the new host index. Serial-section only (maestro / between runs).
  int join_host(platform::ZoneId zone, const std::string& name = "", double speed_flops = -1.0);
  /// Join with an explicit spec, attachment node and uplink (graph zones).
  int join_host(const platform::HostSpec& spec, platform::NodeId attach,
                const platform::LinkSpec& uplink);
  /// Remove a host from the membership: residents are killed, transit comms
  /// fail under `engine/kill-transit-comms`, constraints are released. Legal
  /// from an actor (a simcall) or from maestro.
  void leave_host(int host);
  /// Bring a departed host back: constraints are recreated through the
  /// id-recycling paths and auto-restart residents respawn.
  void rejoin_host(int host);

  // -- introspection -------------------------------------------------------------
  /// Scheduler counters (monotonic over the kernel's lifetime).
  struct Stats {
    std::uint64_t actors_spawned = 0;
    std::uint64_t wakeups = 0;           ///< blocked -> ready transitions
    std::uint64_t context_switches = 0;  ///< scheduler -> actor resumes
  };
  Stats stats() const { return stats_; }
  /// The context factory (fiber stack-pool stats).
  const ContextFactory& context_factory() const { return context_factory_; }

private:
  struct Timer {
    double time;
    ActorId actor;
    std::uint32_t gen;
    bool operator>(const Timer& o) const { return time > o.time; }
  };

  struct RestartSpec {
    std::string name;
    int host;
    std::function<void()> body;
    bool daemon;
  };

  // -- actor slot arena ---------------------------------------------------------
  // Chunked so Actor addresses are stable while slots of dead actors (and
  // their fiber stacks) are recycled. 256 actors per chunk.
  static constexpr unsigned kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  struct ActorChunk;

  Actor* slot(std::uint32_t s) const;
  Actor* allocate_actor(ActorId id, const std::string& name, int host, std::function<void()> body,
                        bool daemon, bool auto_restart);
  /// Destroy a dead actor and recycle its slot. Only legal once the actor is
  /// no longer in the ready queue (run() reaps zombies as it pops them).
  void reap_actor(Actor* a);
  void host_list_insert(Actor* a);
  void host_list_remove(Actor* a);

  /// Run one actor: publish it as current, resume its context, and handle
  /// its termination. Safe to call re-entrantly (an actor killing another).
  void resume_context(Actor* a);
  void handle_actor_end(Actor* a);
  void schedule(Actor* a);
  void wake(Actor* a, WakeStatus status);
  /// Park the calling actor until woken; returns the wake status.
  WakeStatus block_self(Actor* a, double timeout);

  CommPtr make_comm();
  Mailbox& mailbox_ref(MailboxId id) { return mailboxes_[static_cast<size_t>(id)]; }
  /// Throws xbt::InvalidArgument naming `call` unless `id` was interned by
  /// mailbox_by_name(): the id-keyed simcalls refuse it before queuing.
  void check_mailbox(MailboxId id, const char* call) const;
  CommPtr send_async_impl(Actor* a, MailboxId mb, void* payload, double bytes, double rate);
  void start_comm(const CommPtr& comm);
  void finish_comm(const CommPtr& comm, WakeStatus result);
  void handle_action_event(const core::ActionEvent& ev);
  void fire_due_timers();
  void detach_from_comm(Actor* a);
  /// `a` gives up its blocked comm. A queued one leaves its mailbox and
  /// finishes with `queued_result`; a started one finishes canceled, its
  /// waiting peer is woken with kNetworkFailure and its action canceled.
  /// With kTimeout, `a` itself is woken with kTimeout first.
  void abandon_comm(Actor* a, WakeStatus queued_result);
  void kill_internal(Actor* a, bool by_failure);
  void process_resource_changes();
  void remove_from_mailbox(const CommPtr& comm);
  /// Kill every live actor (id order) and reap zombies left in the queue.
  void teardown_all_actors();

  // Declared first so it is destroyed last: Actor teardown returns fiber
  // stacks to the factory's pool.
  ContextFactory context_factory_;
  core::Engine engine_;

  // Actor arena + indexes.
  std::vector<std::unique_ptr<ActorChunk>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t slot_high_ = 0;  ///< slots carved so far
  std::unordered_map<ActorId, std::uint32_t> id_to_slot_;  ///< live + zombie actors
  ActorId next_actor_id_ = 1;
  std::vector<std::int32_t> host_live_head_;  ///< per host: first live resident slot
  size_t live_count_ = 0;
  size_t live_nondaemon_ = 0;

  std::deque<Actor*> ready_;  ///< FIFO of runnable actors (see the file comment)

  // Interned mailboxes.
  std::deque<Mailbox> mailboxes_;  ///< by id; deque keeps references stable
  std::vector<std::string> mailbox_names_;
  std::unordered_map<std::string, MailboxId> mailbox_ids_;

  /// Comm-block pool, shared with every block's allocator so comms that
  /// outlive the kernel can still be freed.
  std::shared_ptr<xbt::BlockPool> comm_pool_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::vector<std::pair<int, bool>> host_changes_;  ///< deferred (host, now_on)
  std::vector<RestartSpec> pending_restarts_;  ///< respawn when host returns
  Stats stats_;
  bool deadlocked_ = false;
  bool running_ = false;
};

}  // namespace sg::kernel
