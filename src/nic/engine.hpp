// A serialised hardware engine (LANai CPU, SDMA, RDMA).
//
// Work items execute strictly in submission order, each occupying the
// engine for its stated duration.  Submitting while busy queues implicitly:
// the reservation starts when the engine frees up.  This is what makes the
// slow-NIC-processor effect real: every send-token translation, header
// rewrite and ack competes for the one LANai CPU.
#pragma once

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace nicmcast::nic {

class Engine {
 public:
  Engine(sim::Simulator& sim, const char* name) : sim_(sim), name_(name) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Reserves the engine for `busy` starting at the earliest free instant
  /// and runs `on_complete` when the reservation ends.  Returns the
  /// completion time.  The callback goes straight into the event queue's
  /// inline-storage Action — no std::function wrapper, no heap allocation
  /// for the hot NIC captures.
  sim::TimePoint run(sim::Duration busy, sim::EventQueue::Action on_complete) {
    const sim::TimePoint start = std::max(sim_.now(), free_at_);
    free_at_ = start + busy;
    sim_.schedule_at(free_at_, std::move(on_complete));
    total_busy_ += busy;
    return free_at_;
  }

  [[nodiscard]] sim::TimePoint free_at() const { return free_at_; }
  [[nodiscard]] bool busy() const { return free_at_ > sim_.now(); }
  /// Cumulative busy time — utilisation statistics for the benches.
  [[nodiscard]] sim::Duration total_busy() const { return total_busy_; }
  [[nodiscard]] const char* name() const { return name_; }

 private:
  sim::Simulator& sim_;
  const char* name_;
  sim::TimePoint free_at_{0};
  sim::Duration total_busy_{0};
};

}  // namespace nicmcast::nic
