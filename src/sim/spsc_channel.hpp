// Bounded single-producer / single-consumer channel.
//
// The inter-shard message fabric of the sharded PDES engine
// (sim/sharded_engine.hpp): each ordered shard pair owns one channel, the
// source shard's worker is the only producer and the destination shard's
// worker the only consumer.  The ring is a fixed-capacity power-of-two
// array with acquire/release head/tail counters — no locks, no allocation
// on the push/pop path.  A full ring spills to an engine-owned overflow
// vector guarded by a per-channel mutex, because a producer may spill
// concurrently with a consumer's drain (see ShardedEngine::Channel).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/thread_annotations.hpp"

namespace nicmcast::sim {

/// Bounded lock-free SPSC ring.  T must be default-constructible and
/// movable.  Exactly one thread may push and exactly one may pop; the
/// sharded engine's channel matrix guarantees that by construction.
///
/// The single-producer/single-consumer contract is expressed as two
/// phantom role capabilities (see thread_annotations.hpp): push requires
/// the producer role, pop/peek/empty require the consumer role.  Under
/// Clang's -Wthread-safety a caller must hold a RoleGuard on the matching
/// role (or assert it at a structural boundary) or the call is rejected at
/// compile time; tests/static/thread_safety_violation.cpp pins that down.
template <typename T>
class SpscChannel {
 public:
  explicit SpscChannel(std::size_t capacity = 1024)
      : ring_(round_up_pow2(capacity)), mask_(ring_.size() - 1) {}

  SpscChannel(const SpscChannel&) = delete;
  SpscChannel& operator=(const SpscChannel&) = delete;

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// The "I am the single pushing thread" capability.
  [[nodiscard]] const Role& producer_role() const
      NM_RETURN_CAPABILITY(producer_role_) {
    return producer_role_;
  }

  /// The "I am the single popping thread" capability.
  [[nodiscard]] const Role& consumer_role() const
      NM_RETURN_CAPABILITY(consumer_role_) {
    return consumer_role_;
  }

  /// Producer side.  Returns false when the ring is full (the caller spills
  /// or retries); never blocks.
  [[nodiscard]] bool try_push(T&& value) NM_REQUIRES(producer_role_) {
    const std::uint64_t tail = push_cursor_.load(std::memory_order_relaxed);
    const std::uint64_t head = pop_cursor_.load(std::memory_order_acquire);
    if (tail - head == ring_.size()) return false;
    ring_[tail & mask_] = std::move(value);
    push_cursor_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.  Moves the oldest element into `out`; false when empty.
  [[nodiscard]] bool try_pop(T& out) NM_REQUIRES(consumer_role_) {
    const std::uint64_t head = pop_cursor_.load(std::memory_order_relaxed);
    const std::uint64_t tail = push_cursor_.load(std::memory_order_acquire);
    if (head == tail) return false;
    out = std::move(ring_[head & mask_]);
    pop_cursor_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.  Exposes the oldest element without consuming it; null
  /// when empty.  The pointer stays valid until the consumer's next
  /// try_pop() — the producer never touches an occupied slot.  The engine
  /// peeks a message's round stamp to decide whether the element belongs
  /// to the drain batch in progress before committing to the pop.
  [[nodiscard]] const T* try_peek() const NM_REQUIRES(consumer_role_) {
    const std::uint64_t head = pop_cursor_.load(std::memory_order_relaxed);
    const std::uint64_t tail = push_cursor_.load(std::memory_order_acquire);
    if (head == tail) return nullptr;
    return &ring_[head & mask_];
  }

  /// Consumer-side view; exact for the consumer (the producer can only make
  /// it grow).
  [[nodiscard]] bool empty() const NM_REQUIRES(consumer_role_) {
    return pop_cursor_.load(std::memory_order_relaxed) ==
           push_cursor_.load(std::memory_order_acquire);
  }

 private:
  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p < 2 ? 2 : p;
  }

  std::vector<T> ring_;
  std::size_t mask_;
  Role producer_role_;
  Role consumer_role_;
  // Monotonic counters; wrap-around of uint64 is out of reach.  Separate
  // cache lines keep producer stores from bouncing the consumer's line.
  // Ordering contract (DESIGN.md §4.9): each side loads its own counter
  // relaxed (it is the only writer), loads the peer's counter acquire
  // (synchronizes with the peer's release store below), and publishes its
  // progress with a release store.
  alignas(64) std::atomic<std::uint64_t> pop_cursor_{0};
  alignas(64) std::atomic<std::uint64_t> push_cursor_{0};
};

}  // namespace nicmcast::sim
