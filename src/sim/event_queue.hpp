// Deterministic pending-event set for the discrete-event engine.
//
// Events at equal timestamps fire in insertion order (FIFO), which makes
// whole-cluster simulations reproducible run to run: the ordering key is the
// pair (time, sequence number).  That tie-break is load-bearing — every
// BENCH_*.json trajectory and golden determinism test pins the event order
// it produces — so the storage scheme below may change, the key never.
//
// Storage is allocation-free in steady state:
//   - callbacks are InlineFunction (inline capture storage, heap fallback),
//   - they live in a pooled slot vector recycled through a free list,
//   - pending (when, seq, slot) items sit in a two-level hierarchical
//     timing wheel (sim/timing_wheel.hpp): O(1) schedule, amortized-O(1)
//     pop on the hot tick path, with far-future timers parked in a coarse
//     wheel / overflow heap until the cursor approaches.
// Cancellation is eager at the slot level: the callback (and everything its
// capture owns) is destroyed immediately and the slot returns to the free
// list; only the small wheel item stays behind, skipped on pop when its
// sequence number no longer matches the slot's.  This replaces the old
// grow-forever `cancelled_` hash set and its O(live) memory.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "sim/timing_wheel.hpp"

namespace nicmcast::sim {

/// Opaque handle used to cancel a scheduled event.  `seq` is the globally
/// unique schedule order; `slot` is the pool index it was stored in, kept
/// so cancel() is O(1) without any lookup structure.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  constexpr auto operator<=>(const EventId&) const = default;
};

class EventQueue {
 public:
  /// 88 inline bytes covers the NIC/net hot-path captures (a packet header
  /// plus a Buffer view plus a couple of handles); bigger captures spill to
  /// the heap and show up in Stats::heap_actions.
  using Action = InlineFunction<void(), 88>;

  /// Allocation/throughput counters, exposed per run for the perf
  /// trajectory (BENCH_simperf.json) and regression benches.
  struct Stats {
    std::uint64_t scheduled = 0;     // total schedule() calls
    std::uint64_t executed = 0;      // actions actually fired
    std::uint64_t cancelled = 0;     // successful cancel() calls
    std::uint64_t heap_actions = 0;  // actions that spilled to heap storage
    std::uint64_t pool_slots = 0;    // high-water pooled slot count
    // Timing-wheel behaviour (see sim/timing_wheel.hpp):
    std::uint64_t wheel_occupancy_peak = 0;  // high-water live pending events
    std::uint64_t wheel_cascades = 0;        // coarse buckets cascaded to fine
    std::uint64_t overflow_scheduled = 0;    // schedules beyond coarse horizon
    std::uint64_t overflow_promotions = 0;   // overflow items promoted inward
    std::uint64_t ready_shifts = 0;  // ready items moved by sorted inserts
  };

  /// Schedules `action` at absolute time `when`.  Returns an id usable with
  /// cancel().
  EventId schedule(TimePoint when, Action action) {
    const std::uint64_t seq = next_seq_++;
    std::uint32_t slot;
    if (free_head_ != kNilSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      stats_.pool_slots = slots_.size();
    }
    Slot& s = slots_[slot];
    s.seq = seq;
    s.armed = true;
    if (action.uses_heap()) ++stats_.heap_actions;
    s.action = std::move(action);
    wheel_.push(WheelItem{when, seq, slot});
    ++live_;
    if (live_ > stats_.wheel_occupancy_peak) stats_.wheel_occupancy_peak = live_;
    ++stats_.scheduled;
    return EventId{seq, slot};
  }

  /// Cancels a previously scheduled event: the action is destroyed now and
  /// its slot recycled.  A no-op returning false for ids that already
  /// fired, were already cancelled, or whose slot has been reused — firing
  /// disarms the slot, so a stale id can never match.
  bool cancel(EventId id) {
    if (id.slot >= slots_.size()) return false;
    Slot& s = slots_[id.slot];
    if (!s.armed || s.seq != id.seq) return false;
    release(id.slot);
    --live_;
    ++stats_.cancelled;
    return true;
  }

  /// Destroys every pending action unrun and empties the queue.  The
  /// order hash and the counters keep their values.  The actions die after
  /// the queue is empty, so a capture whose destructor cancels an event
  /// finds nothing to cancel.
  void clear() {
    std::vector<Slot> dropped;
    dropped.swap(slots_);
    wheel_ = TimingWheel{};
    free_head_ = kNilSlot;
    live_ = 0;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  [[nodiscard]] const Stats& stats() const {
    stats_.wheel_cascades = wheel_.cascades();
    stats_.overflow_scheduled = wheel_.overflow_scheduled();
    stats_.overflow_promotions = wheel_.overflow_promotions();
    stats_.ready_shifts = wheel_.ready_shifts();
    return stats_;
  }

  /// FNV-1a-style fold of the executed (time, seq) order.  Two runs that
  /// popped the same events at the same times in the same order have equal
  /// hashes — the determinism golden tests pin this value for fixed seeds.
  [[nodiscard]] std::uint64_t order_hash() const { return order_hash_; }

  /// Earliest pending (non-cancelled) event time.  Precondition: !empty().
  [[nodiscard]] TimePoint next_time() {
    skip_stale();
    return wheel_.top().when;
  }

  /// Pops and returns the earliest pending event: the only way an event
  /// leaves the queue to run.  Precondition: !empty().
  std::pair<TimePoint, Action> pop() {
    skip_stale();
    const WheelItem top = wheel_.top();
    wheel_.pop_top();
    std::pair<TimePoint, Action> out{top.when,
                                     std::move(slots_[top.slot].action)};
    release(top.slot);
    --live_;
    ++stats_.executed;
    fold_order(top.when, top.seq);
    return out;
  }

 private:
  static constexpr std::uint32_t kNilSlot =
      std::numeric_limits<std::uint32_t>::max();

  struct Slot {
    Action action;
    std::uint64_t seq = 0;
    std::uint32_t next_free = kNilSlot;
    bool armed = false;
  };

  /// Destroys the slot's action and pushes the slot onto the free list.
  /// Cancelled events leave their wheel item behind; skip_stale() drops it
  /// later because the slot is disarmed (or re-armed under a newer seq).
  void release(std::uint32_t index) {
    Slot& s = slots_[index];
    s.action = nullptr;
    s.armed = false;
    s.next_free = free_head_;
    free_head_ = index;
  }

  /// Discards lazily-cancelled items from the front of the wheel.  Only
  /// called with at least one live event pending, so it terminates with the
  /// wheel's top being live.
  void skip_stale() {
    for (;;) {
      const WheelItem& top = wheel_.top();
      const Slot& s = slots_[top.slot];
      if (s.armed && s.seq == top.seq) return;
      wheel_.pop_top();
    }
  }

  void fold_order(TimePoint when, std::uint64_t seq) {
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    order_hash_ =
        (order_hash_ ^ static_cast<std::uint64_t>(when.nanoseconds())) * kPrime;
    order_hash_ = (order_hash_ ^ seq) * kPrime;
  }

  TimingWheel wheel_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  mutable Stats stats_;  // wheel counters refreshed on read in stats()
  std::uint64_t order_hash_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

}  // namespace nicmcast::sim
