#include "kernel/context.hpp"

#include <cstdint>

#include <sys/mman.h>
#include <unistd.h>

#include "xbt/exception.hpp"

// AddressSanitizer must be told about every stack switch, or its fake-stack
// bookkeeping (and stack-use-after-return detection) corrupts the moment a
// fiber yields. The protocol: the departing context calls
// __sanitizer_start_switch_fiber(save_slot, dest_bottom, dest_size) — with a
// null save_slot when it is terminating, so ASan retires its fake stack —
// and the first thing code does on the destination stack is
// __sanitizer_finish_switch_fiber(own_saved_fake, &from_bottom, &from_size).
//
// ThreadSanitizer keeps one state per fiber: __tsan_create_fiber makes it
// on first resume, __tsan_switch_to_fiber(dest) runs right before every
// switch (with synchronization, so each quantum happens-after the switch
// that started it), and the resumer destroys it once the body has ended.
#if defined(__SANITIZE_ADDRESS__)
#define SG_ASAN_FIBER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SG_ASAN_FIBER 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define SG_TSAN_FIBER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SG_TSAN_FIBER 1
#endif
#endif

#ifdef SG_ASAN_FIBER
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef SG_TSAN_FIBER
#include <sanitizer/tsan_interface.h>
#endif

namespace sg::kernel {

void declare_context_config() {
  config::declare(kCfgContextStackSize, 128L << 10, 16L << 10, 1L << 30,
                  "usable stack bytes per fiber (rounded up to whole pages); pages are "
                  "committed lazily, so small per-actor footprints come from touching "
                  "few pages, not from tiny virtual sizes");
  config::declare(kCfgContextGuardPages, 1, 0, 64,
                  "inaccessible guard pages below each fiber stack; set 0 for 1M+ actor "
                  "runs — every guard splits a kernel VMA and vm.max_map_count caps those");
}

namespace {

inline void asan_start_switch(void** fake_stack_save, const void* dest_bottom, size_t dest_size) {
#ifdef SG_ASAN_FIBER
  __sanitizer_start_switch_fiber(fake_stack_save, dest_bottom, dest_size);
#else
  (void)fake_stack_save;
  (void)dest_bottom;
  (void)dest_size;
#endif
}

inline void asan_finish_switch(void* own_fake_stack, const void** from_bottom, size_t* from_size) {
#ifdef SG_ASAN_FIBER
  __sanitizer_finish_switch_fiber(own_fake_stack, from_bottom, from_size);
#else
  (void)own_fake_stack;
  (void)from_bottom;
  (void)from_size;
#endif
}

inline void* tsan_current_fiber() {
#ifdef SG_TSAN_FIBER
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

inline void* tsan_create_fiber() {
#ifdef SG_TSAN_FIBER
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

inline void tsan_switch_to(void* fiber) {
#ifdef SG_TSAN_FIBER
  __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

inline void tsan_destroy_fiber(void* fiber) {
#ifdef SG_TSAN_FIBER
  __tsan_destroy_fiber(fiber);
#else
  (void)fiber;
#endif
}

size_t round_up(size_t v, size_t to) { return (v + to - 1) / to * to; }
size_t page_bytes() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

}  // namespace

// ---------------------------------------------------------------------------
// Stack pool
// ---------------------------------------------------------------------------

StackPool::StackPool(size_t usable_bytes, size_t guard_bytes)
    : usable_(round_up(usable_bytes, page_bytes())),
      guard_(round_up(guard_bytes, page_bytes())),
      stride_(usable_ + guard_) {}

StackPool::~StackPool() {
  for (void* slab : slabs_)
    ::munmap(slab, slab_bytes());
}

void* StackPool::acquire() {
  if (!free_.empty()) {
    void* s = free_.back();
    free_.pop_back();
    return s;
  }
  if (slabs_.empty() || cursor_ == kStacksPerSlab) {
    void* slab = ::mmap(nullptr, slab_bytes(), PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (slab == MAP_FAILED)
      throw xbt::InvalidArgument("fiber stack pool: mmap failed (out of memory or VMAs?)");
    slabs_.push_back(slab);
    cursor_ = 0;
  }
  char* base = static_cast<char*>(slabs_.back()) + cursor_ * stride_;
  ++cursor_;
  ++carved_;
  if (guard_ > 0 && ::mprotect(base, guard_, PROT_NONE) != 0)
    throw xbt::InvalidArgument("fiber stack pool: mprotect(guard) failed");
  return base + guard_;
}

// ---------------------------------------------------------------------------
// Stack switching
// ---------------------------------------------------------------------------

extern "C" void sg_fiber_main(void* ctx);  // shared C entry, both switch flavors

#ifdef SG_RAW_CONTEXT

// sg_raw_swap(void** save_sp, void* restore_sp): push the callee-saved
// registers, publish the old stack pointer, adopt the new one, pop, return.
// The System V AMD64 callee-saved set is rbp/rbx/r12-r15; everything else is
// caller-saved and already spilled by the compiler around the call.
__asm__(
    ".text\n"
    ".globl sg_raw_swap\n"
    ".type sg_raw_swap,@function\n"
    "sg_raw_swap:\n"
    "    pushq %rbp\n"
    "    pushq %rbx\n"
    "    pushq %r12\n"
    "    pushq %r13\n"
    "    pushq %r14\n"
    "    pushq %r15\n"
    "    movq %rsp, (%rdi)\n"
    "    movq %rsi, %rsp\n"
    "    popq %r15\n"
    "    popq %r14\n"
    "    popq %r13\n"
    "    popq %r12\n"
    "    popq %rbx\n"
    "    popq %rbp\n"
    "    ret\n"
    ".size sg_raw_swap, .-sg_raw_swap\n"
    // First-entry stub: a fresh fiber's fake frame parks the entry function
    // in the r12 slot and its argument in the r13 slot; the ret in
    // sg_raw_swap lands here with the stack 16-byte aligned minus the usual
    // return-address slot (the push restores call-site alignment for the
    // callq). sg_fiber_main never returns.
    ".globl sg_fiber_boot\n"
    ".type sg_fiber_boot,@function\n"
    "sg_fiber_boot:\n"
    "    pushq %rbp\n"
    "    movq %r13, %rdi\n"
    "    callq *%r12\n"
    "    ud2\n"
    ".size sg_fiber_boot, .-sg_fiber_boot\n");

extern "C" {
void sg_raw_swap(void** save_sp, void* restore_sp);
void sg_fiber_boot();
}

#endif  // SG_RAW_CONTEXT

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

Context::~Context() {
  if (started_ && !finished_) {
    // Unwind the parked body (ForcedExit out of yield) so RAII runs; the
    // final resume returns the stack to the pool.
    kill_requested_ = true;
    while (!finished_)
      resume_and_wait();
  }
}

bool Context::resume_and_wait() {
  if (finished_)
    return true;
  if (!started_)
    start();
  asan_start_switch(&resumer_fake_stack_, stack_, pool_->usable_bytes());
  tsan_resumer_ = tsan_current_fiber();
  tsan_switch_to(tsan_fiber_);
  swap_to_fiber();
  asan_finish_switch(resumer_fake_stack_, nullptr, nullptr);
  if (finished_ && stack_ != nullptr) {
    // The body has fully unwound: recycle the stack right away so a dead
    // actor costs no committed pages while its Actor record lingers.
    tsan_destroy_fiber(tsan_fiber_);
    tsan_fiber_ = nullptr;
    pool_->release(stack_);
    stack_ = nullptr;
  }
  return finished_;
}

void Context::yield() {
  asan_start_switch(&fiber_fake_stack_, resumer_bottom_, resumer_size_);
  tsan_switch_to(tsan_resumer_);
  swap_to_resumer();
  // Re-learn who resumed us: it may be the maestro or another fiber.
  asan_finish_switch(fiber_fake_stack_, &resumer_bottom_, &resumer_size_);
  if (kill_requested_)
    throw ForcedExit{};
}

void Context::fiber_entry() {
  // Complete the very first switch; learn the resumer's stack identity.
  asan_finish_switch(nullptr, &resumer_bottom_, &resumer_size_);
  if (!kill_requested_) {
    try {
      body_();
    } catch (const ForcedExit&) {
      // normal kill path
    } catch (...) {
      failure_ = std::current_exception();
    }
  }
  finished_ = true;
  // Terminating switch: null save slot tells ASan to retire this fiber's
  // fake stack; a finished context is never resumed again, so the swap
  // never returns. Not marked unreachable: ASan would then treat the call
  // into fiber_entry as noreturn and check the fiber stack before the first
  // switch to it has completed, which aborts.
  asan_start_switch(nullptr, resumer_bottom_, resumer_size_);
  tsan_switch_to(tsan_resumer_);
  swap_to_resumer();
}

extern "C" void sg_fiber_main(void* ctx) { static_cast<Context*>(ctx)->fiber_entry(); }

#ifdef SG_RAW_CONTEXT

void Context::start() {
  stack_ = pool_->acquire();
  tsan_fiber_ = tsan_create_fiber();
  started_ = true;
  // Build the fake frame sg_raw_swap will pop on first entry (stack grows
  // down from the 16-byte-aligned top): a return-address slot pointing at
  // sg_fiber_boot, then the six callee-saved slots with the entry function
  // in r12 and its argument in r13.
  void** top = reinterpret_cast<void**>(
      reinterpret_cast<uintptr_t>(static_cast<char*>(stack_) + pool_->usable_bytes()) & ~uintptr_t{15});
  *--top = nullptr;                                     // padding: keeps boot entry misaligned-by-8
  *--top = reinterpret_cast<void*>(&sg_fiber_boot);     // popped by ret
  *--top = nullptr;                                     // rbp
  *--top = nullptr;                                     // rbx
  *--top = reinterpret_cast<void*>(&sg_fiber_main);     // r12: entry function
  *--top = this;                                        // r13: entry argument
  *--top = nullptr;                                     // r14
  *--top = nullptr;                                     // r15
  fiber_sp_ = top;
}

void Context::swap_to_fiber() { sg_raw_swap(&resumer_sp_, fiber_sp_); }
void Context::swap_to_resumer() { sg_raw_swap(&fiber_sp_, resumer_sp_); }

#else  // ucontext fallback

namespace {
void fiber_uc_entry(unsigned hi, unsigned lo) {
  sg_fiber_main(reinterpret_cast<void*>((static_cast<uintptr_t>(hi) << 32) |
                                        static_cast<uintptr_t>(lo)));
}
}  // namespace

void Context::start() {
  stack_ = pool_->acquire();
  tsan_fiber_ = tsan_create_fiber();
  started_ = true;
  getcontext(&fiber_uc_);
  fiber_uc_.uc_stack.ss_sp = stack_;
  fiber_uc_.uc_stack.ss_size = pool_->usable_bytes();
  fiber_uc_.uc_link = nullptr;
  const auto addr = reinterpret_cast<uintptr_t>(this);
  makecontext(&fiber_uc_, reinterpret_cast<void (*)()>(&fiber_uc_entry), 2,
              static_cast<unsigned>(addr >> 32), static_cast<unsigned>(addr & 0xffffffffu));
}

void Context::swap_to_fiber() { swapcontext(&resumer_uc_, &fiber_uc_); }
void Context::swap_to_resumer() { swapcontext(&fiber_uc_, &resumer_uc_); }

#endif  // SG_RAW_CONTEXT

// ---------------------------------------------------------------------------
// Context factory
// ---------------------------------------------------------------------------

namespace {
StackPool pool_from_config() {
  declare_context_config();
  const auto stack = static_cast<size_t>(config::get(kCfgContextStackSize));
  const auto guard_pages = static_cast<size_t>(config::get(kCfgContextGuardPages));
  return StackPool(stack, guard_pages * page_bytes());
}
}  // namespace

ContextFactory::ContextFactory() : pool_(pool_from_config()) {}

}  // namespace sg::kernel
