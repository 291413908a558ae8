// Per-thread recycling of small heap blocks.
//
// The hot paths allocate and free the same few object sizes over and over:
// a coroutine frame for every Port::receive, nic_bcast or barrier arrival,
// a NIC message assembly per delivered message, a replica-chain state per
// forward with two or more children.  BlockPool parks a freed block on a
// free list of its 16-byte size class and hands it out again, so once a
// run has warmed up these cost no malloc; sim::Task frames and the
// PoolAllocator below go through it.
//
// Rules:
//   - Ownership: the lists are thread_local and threaded through the
//     parked blocks themselves, so an idle thread costs one array of list
//     heads.  A block freed on a thread joins that thread's list, whichever
//     thread allocated it (blocks of one class are interchangeable).
//   - Memory: trim() hands a thread's parked blocks back to the heap, and
//     every sim::Simulator trims when it is destroyed.  So a thread parks
//     at most what one run had live at once, and a process that runs one
//     simulation after another (a sweep, a ParallelRunner worker) does not
//     carry the largest run's blocks into the next.
//   - Late release: the lists are freed at thread exit; a block released
//     on that thread afterwards (a thread_local that outlives the pool)
//     goes straight to ::operator delete.
//   - ASan: a parked block is poisoned, so a use after free of a recycled
//     frame, assembly or chain state still reports.
//   - Blocks above kMaxBytes are not pooled.
#pragma once

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace nicmcast::sim {

namespace detail {

inline void poison_block([[maybe_unused]] void* p,
                         [[maybe_unused]] std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, bytes);
#endif
}

inline void unpoison_block([[maybe_unused]] void* p,
                           [[maybe_unused]] std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
}

struct FreeBlock {
  FreeBlock* next;
};

// Trivially destructible, so it stays readable while the thread's other
// thread_locals are destroyed.
// NOLINTNEXTLINE(nicmcast-thread-nondeterminism): recycles memory only; no block address or count reaches event order or results
inline thread_local bool tls_pool_released = false;

template <std::size_t Classes>
struct PoolLists {
  FreeBlock* head[Classes] = {};

  PoolLists() = default;
  PoolLists(const PoolLists&) = delete;
  PoolLists& operator=(const PoolLists&) = delete;
  ~PoolLists() {
    tls_pool_released = true;
    release_all();
  }

  // Once per run and at thread exit.
  [[gnu::cold]] void release_all() noexcept {
    for (FreeBlock*& first : head) {
      while (first != nullptr) {
        FreeBlock* block = first;
        unpoison_block(block, sizeof(FreeBlock));
        first = block->next;
        ::operator delete(block);
      }
    }
  }
};

}  // namespace detail

class BlockPool {
 public:
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxBytes = 4096;

  // Out of line: a coroutine body that creates child frames pays one call
  // per allocation and release, as it did with ::operator new and delete.

  /// A block of at least `bytes`, aligned like ::operator new's.
  [[nodiscard, gnu::noinline]] static void* allocate(std::size_t bytes) {
    if (bytes > kMaxBytes || detail::tls_pool_released) {
      return ::operator new(bytes);
    }
    const std::size_t size_class = class_of(bytes);
    detail::FreeBlock*& head = tls_lists.head[size_class];
    detail::FreeBlock* block = head;
    if (block == nullptr) return ::operator new(class_bytes(size_class));
    detail::unpoison_block(block, class_bytes(size_class));
    head = block->next;
    return block;
  }

  /// Returns a block from allocate(`bytes`) with the same `bytes`.
  [[gnu::noinline]] static void deallocate(void* p,
                                           std::size_t bytes) noexcept {
    if (bytes > kMaxBytes || detail::tls_pool_released) {
      ::operator delete(p);
      return;
    }
    const std::size_t size_class = class_of(bytes);
    detail::FreeBlock*& head = tls_lists.head[size_class];
    auto* block = static_cast<detail::FreeBlock*>(p);
    block->next = head;
    head = block;
    detail::poison_block(block, class_bytes(size_class));
  }

  /// Returns every block parked on the calling thread to the heap.
  static void trim() noexcept {
    if (!detail::tls_pool_released) tls_lists.release_all();
  }

 private:
  static constexpr std::size_t kClasses = kMaxBytes / kGranule + 1;

  // A zero-byte request still gets a granule.
  static std::size_t class_of(std::size_t bytes) {
    return bytes == 0 ? 1 : (bytes + kGranule - 1) / kGranule;
  }
  static std::size_t class_bytes(std::size_t size_class) {
    return size_class * kGranule;
  }

  // NOLINTNEXTLINE(nicmcast-thread-nondeterminism): recycles memory only; no block address or count reaches event order or results
  static inline thread_local detail::PoolLists<kClasses> tls_lists;
};

/// Standard allocator over BlockPool, for std::allocate_shared and
/// containers on the hot paths.
template <class T>
struct PoolAllocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  PoolAllocator() = default;
  template <class U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor): allocator rebinding

  // Containers bound `n` by max_size() before they allocate.
  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(BlockPool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    BlockPool::deallocate(p, n * sizeof(T));
  }

  template <class U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace nicmcast::sim
