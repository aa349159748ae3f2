/// \file block_pool.hpp
/// LIFO recycler for one-size allocations, and the allocator that routes
/// std::allocate_shared through it.
///
/// allocate_shared fuses an object and its shared_ptr control block into one
/// allocation of a single size. The pool learns that size from its first
/// allocation and parks freed blocks of it on a LIFO free list, so
/// steady-state churn reuses the block freed by the previous event — still
/// cache-hot — instead of paying a malloc/free round trip and pulling cold
/// lines. The engine recycles its actions through one pool, the kernel its
/// comms. A pool is not thread-safe: everything that allocates or frees
/// through it runs on the thread that runs the simulation.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace sg::xbt {

struct BlockPool {
  /// Cap on retained free blocks (~10 MB at typical block sizes): beyond a
  /// concurrency spike of this size, freed blocks go back to the allocator
  /// instead of pinning peak memory for the rest of the run.
  static constexpr size_t kMaxFreeBlocks = 64 * 1024;
  std::vector<void*> free_blocks;
  size_t block_bytes = 0;  ///< learned from the first allocation

  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;
  ~BlockPool() {
    for (void* p : free_blocks)
      ::operator delete(p);
  }

  void* allocate(size_t bytes) {
    if (bytes == block_bytes && !free_blocks.empty()) {
      void* p = free_blocks.back();
      free_blocks.pop_back();
      return p;
    }
    if (block_bytes == 0)
      block_bytes = bytes;
    return ::operator new(bytes);
  }

  void deallocate(void* p, size_t bytes) {
    if (bytes == block_bytes && free_blocks.size() < kMaxFreeBlocks) {
      free_blocks.push_back(p);
      return;
    }
    ::operator delete(p);
  }
};

/// Routes allocate_shared through a BlockPool. Holds the pool by shared_ptr:
/// the copy stored in each control block keeps the pool alive until the last
/// object is gone, so objects may outlive the engine or kernel that made
/// them.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  std::shared_ptr<BlockPool> pool;

  explicit PoolAllocator(std::shared_ptr<BlockPool> p) : pool(std::move(p)) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : pool(other.pool) {}

  T* allocate(size_t n) { return static_cast<T*>(pool->allocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) { pool->deallocate(p, n * sizeof(T)); }
  template <typename U>
  bool operator==(const PoolAllocator<U>& other) const {
    return pool == other.pool;
  }
};

}  // namespace sg::xbt
