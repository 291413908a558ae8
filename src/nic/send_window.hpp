// Struct-of-arrays Go-back-N window.
//
// The per-packet work on a send window touches two fields: the cumulative
// ack compares front sequence numbers, and every wire transmission
// re-stamps one record's injection time (the on_transmit scan).  Stored
// as an array of full records — payload view, rebuilt header, completion
// bookkeeping — each of those touches drags a whole cache line per record
// through the scan.  SendWindow splits the window into two lockstep rings:
//
//   hot:  {seq, sent_at}            16 bytes, four records per cache line
//   cold: payload/header/handle     visited only on pop, retransmission
//                                   or failure
//
// Both rings are RingDeques, so the allocation-free drain/refill behaviour
// of the previous layout is unchanged; only the memory layout moved.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "nic/sequence.hpp"
#include "sim/ring_deque.hpp"
#include "sim/time.hpp"

namespace nicmcast::nic {

/// The fields every ack-prune, timer-arm and wire-restamp scan reads.
struct HotRecord {
  SeqNum seq = 0;
  sim::TimePoint sent_at{};
};

template <typename Cold>
class SendWindow {
 public:
  [[nodiscard]] bool empty() const { return hot_.empty(); }
  [[nodiscard]] std::size_t size() const { return hot_.size(); }

  void push_back(SeqNum seq, sim::TimePoint sent_at, Cold cold) {
    hot_.push_back(HotRecord{seq, sent_at});
    cold_.push_back(std::move(cold));
  }

  void pop_front() {
    hot_.pop_front();
    cold_.pop_front();
  }

  void clear() {
    hot_.clear();
    cold_.clear();
  }

  [[nodiscard]] SeqNum front_seq() const { return hot_.front().seq; }
  [[nodiscard]] sim::TimePoint front_sent_at() const {
    return hot_.front().sent_at;
  }
  [[nodiscard]] Cold& front_cold() { return cold_.front(); }
  [[nodiscard]] const Cold& front_cold() const { return cold_.front(); }

  [[nodiscard]] HotRecord& hot(std::size_t i) { return hot_[i]; }
  [[nodiscard]] const HotRecord& hot(std::size_t i) const { return hot_[i]; }
  [[nodiscard]] Cold& cold(std::size_t i) { return cold_[i]; }
  [[nodiscard]] const Cold& cold(std::size_t i) const { return cold_[i]; }

  /// When the front record times out, never in the past.  Precondition:
  /// !empty().
  [[nodiscard]] sim::TimePoint deadline(sim::Duration timeout,
                                        sim::TimePoint now) const {
    return std::max(front_sent_at() + timeout, now);
  }
  /// True when the front record is genuinely overdue: it may have been
  /// re-stamped with a later wire time after its timer was armed.
  /// Precondition: !empty().
  [[nodiscard]] bool overdue(sim::Duration timeout, sim::TimePoint now) const {
    return now - front_sent_at() >= timeout;
  }

  /// Timers measure from the wire, not from record creation: re-stamps
  /// record `seq`'s wire time after a (possibly queued) replica left the
  /// link.  Records are in ascending seq order and the touched one
  /// is usually at the back — the packet just handed to the wire — so the
  /// scan runs backwards over the hot ring only and stops as soon as it
  /// passes where `seq` would sit (already pruned by a racing ack).
  void touch(SeqNum seq, sim::TimePoint sent_at) {
    for (std::size_t i = hot_.size(); i-- > 0;) {
      HotRecord& h = hot_[i];
      if (h.seq == seq) {
        h.sent_at = std::max(h.sent_at, sent_at);
        return;
      }
      if (seq_before(h.seq, seq)) return;
    }
  }

 private:
  sim::RingDeque<HotRecord> hot_;
  sim::RingDeque<Cold> cold_;
};

}  // namespace nicmcast::nic
