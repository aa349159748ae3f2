/// \file context.hpp
/// Cooperative execution contexts for simulated processes.
///
/// The paper's MSG model runs *all simulated application processes within a
/// single OS process*. Each simulated process runs in a Context: a stackful
/// fiber switched in user space, on the OS thread that runs the kernel.
/// Stacks are small (`contexts/stack-size`, default 128 KiB), carved out of
/// slab mmaps, committed lazily by the kernel page by page, and recycled
/// through a free list when an actor dies. A context costs a few hundred
/// bytes until it first runs, which is what lets the runtime scale to 1M+
/// simulated actors. On x86-64 a switch is ~20 instructions of assembly;
/// other architectures fall back to ucontext.
///
/// ## Switch protocol invariants
///
/// 1. **Serialization.** resume_and_wait() transfers control resumer->actor
///    and returns only when the actor has yielded or terminated; yield()
///    transfers actor->resumer and returns only at the next resume. The
///    maestro resumes actors one at a time, and an actor resumes another
///    only from inside its own quantum (a kill unwinds the victim on the
///    spot), so the whole simulation is strictly serialized. Such nested
///    resumes work because each context saves its resumer's stack pointer
///    (and sanitizer state) per resume.
/// 2. **Resumer-side calls vs actor-side calls.** resume_and_wait() and
///    request_kill() may only be called by the current resumer (the maestro
///    or the killing actor); yield() may only be called from inside the
///    context's body.
/// 3. **Kill protocol.** request_kill() arms the kill; the *next* wakeup of
///    the body (via resume_and_wait()) throws ForcedExit inside yield(), so
///    the body unwinds with normal C++ semantics (RAII runs). A context
///    whose body never started skips the body entirely. After ForcedExit —
///    or normal return, or an escaped exception — the context reports
///    finished() and must never be resumed again.
/// 4. **Termination switch.** The final switch back to the resumer happens
///    after the body has fully unwound; the stack returns to the pool as
///    soon as finished() is true. Under ASan the terminating switch passes
///    a null fake-stack save slot so the sanitizer retires the fiber's fake
///    stack; under TSan the resumer destroys the fiber's TSan state (see
///    context.cpp).
/// 5. **Exception containment.** Anything escaping the body except
///    ForcedExit is captured into failure(); it never crosses onto the
///    maestro stack.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "xbt/settings.hpp"

// x86-64 switches stacks with hand-rolled assembly (context.cpp); other
// architectures fall back to ucontext.
#if defined(__x86_64__) && defined(__GNUC__)
#define SG_RAW_CONTEXT 1
#else
#include <ucontext.h>
#endif

namespace sg::kernel {

/// Thrown inside an actor context to unwind its stack when it gets killed.
/// User code must let it propagate (catching it cancels the kill... just as
/// in real SimGrid).
struct ForcedExit {};

/// Typed config keys owned by the context layer; declare_context_config()
/// registers them.
inline constexpr config::IntKey kCfgContextStackSize{"contexts/stack-size"};
inline constexpr config::IntKey kCfgContextGuardPages{"contexts/guard-pages"};

/// Register the `contexts/*` config keys (idempotent).
void declare_context_config();

/// Slab-allocated stack pool. Stacks are carved out of large anonymous
/// mmaps (one VMA per 256 stacks instead of one per stack — Linux caps a
/// process at vm.max_map_count VMAs, which per-stack mmaps would exhaust
/// around 65k actors), committed lazily by the kernel as pages are touched,
/// and recycled LIFO so a respawned actor reuses cache- and TLB-hot pages.
class StackPool {
public:
  StackPool(size_t usable_bytes, size_t guard_bytes);
  ~StackPool();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  /// Returns the lowest usable address of a stack (just above its guard).
  void* acquire();
  void release(void* stack) { free_.push_back(stack); }

  size_t usable_bytes() const { return usable_; }
  size_t carved() const { return carved_; }
  size_t free_count() const { return free_.size(); }
  size_t slab_count() const { return slabs_.size(); }

private:
  static constexpr size_t kStacksPerSlab = 256;
  size_t slab_bytes() const { return stride_ * kStacksPerSlab; }

  size_t usable_;
  size_t guard_;
  size_t stride_;
  std::vector<void*> free_;  ///< LIFO of recycled usable-base pointers
  std::vector<void*> slabs_;
  size_t cursor_ = kStacksPerSlab;  ///< next uncarved stack in slabs_.back()
  size_t carved_ = 0;
};

/// One simulated process's execution context: a fiber whose stack comes
/// from the pool on its first resume and goes back when its body ends.
class Context {
public:
  Context(std::function<void()> body, StackPool* pool) : body_(std::move(body)), pool_(pool) {}
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Resumer side: let the actor run until it yields or terminates.
  /// Returns true when the body has finished (normally or by exception).
  bool resume_and_wait();

  /// Actor side: hand control back to the resumer. If a kill was requested
  /// while parked, throws ForcedExit upon wakeup.
  void yield();

  /// Resumer side: request the actor to die at its next wakeup. Call
  /// resume_and_wait() afterwards to actually unwind it.
  void request_kill() { kill_requested_ = true; }

  bool finished() const { return finished_; }

  /// The exception (if any) that escaped the body, for error reporting.
  std::exception_ptr failure() const { return failure_; }

  /// Body trampoline, running on the fiber stack (entered via the C entry
  /// point sg_fiber_main in context.cpp).
  void fiber_entry();

private:
  void start();
  void swap_to_fiber();
  void swap_to_resumer();

  std::function<void()> body_;
  StackPool* pool_;
  void* stack_ = nullptr;  ///< lowest usable address; allocated on first resume
  bool started_ = false;
  bool kill_requested_ = false;
  bool finished_ = false;
  std::exception_ptr failure_;

  // Sanitizer state. The resumer's slots live in the context being resumed
  // (not in a global): resumes nest, and each level keeps its own.
  void* fiber_fake_stack_ = nullptr;      ///< ASan fake-stack slot for this fiber
  void* resumer_fake_stack_ = nullptr;    ///< ASan fake-stack slot of whoever resumed us
  const void* resumer_bottom_ = nullptr;  ///< resumer's stack, target of our next yield
  size_t resumer_size_ = 0;
  void* tsan_fiber_ = nullptr;    ///< TSan state of this fiber
  void* tsan_resumer_ = nullptr;  ///< TSan state of whoever resumed us

#ifdef SG_RAW_CONTEXT
  void* fiber_sp_ = nullptr;    ///< fiber's saved stack pointer while parked
  void* resumer_sp_ = nullptr;  ///< resumer's saved stack pointer while the fiber runs
#else
  ucontext_t fiber_uc_;
  ucontext_t resumer_uc_;
#endif
};

/// Creates contexts and owns the stack pool they share, so stacks are
/// recycled across the whole kernel rather than per actor.
class ContextFactory {
public:
  /// Sizes the pool from `contexts/stack-size` and `contexts/guard-pages`.
  ContextFactory();

  std::unique_ptr<Context> create(std::function<void()> body) {
    return std::make_unique<Context>(std::move(body), &pool_);
  }

  /// Stack-pool accounting.
  struct PoolStats {
    size_t stacks_allocated = 0;  ///< stacks carved out of slabs so far
    size_t stacks_free = 0;       ///< currently parked in the free list
    size_t slabs = 0;             ///< slab mmaps backing the stacks
    size_t stack_bytes = 0;       ///< usable bytes per stack
  };
  PoolStats pool_stats() const {
    return {pool_.carved(), pool_.free_count(), pool_.slab_count(), pool_.usable_bytes()};
  }

private:
  StackPool pool_;
};

}  // namespace sg::kernel
