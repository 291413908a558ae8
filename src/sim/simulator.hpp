// The discrete-event simulator driving the whole Myrinet/GM model.
//
// A Simulator owns a deterministic event queue and a set of spawned root
// processes (coroutines).  Model components schedule plain callbacks;
// simulated programs co_await time and synchronisation primitives.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/block_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace nicmcast::sim {

class Simulator;

/// Shared completion state of a spawned process; await via join().
class ProcessState {
 public:
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  Trigger& on_done() { return on_done_; }

 private:
  friend class Simulator;
  std::string name_;
  bool done_ = false;
  std::exception_ptr error_;
  Trigger on_done_;
};

using ProcessRef = std::shared_ptr<ProcessState>;

class Simulator {
 public:
  Simulator() = default;
  explicit Simulator(std::uint64_t rng_seed) : rng_(rng_seed) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }

  // ---- Plain-callback scheduling (used by model components) ----

  EventId schedule_at(TimePoint when, EventQueue::Action action) {
    if (when < now_) {
      throw std::logic_error("schedule_at: time in the past");
    }
    return queue_.schedule(when, std::move(action));
  }
  EventId schedule_after(Duration delay, EventQueue::Action action) {
    if (delay < Duration{0}) {
      throw std::logic_error("schedule_after: negative delay");
    }
    return queue_.schedule(now_ + delay, std::move(action));
  }
  bool cancel(EventId id) { return queue_.cancel(id); }
  /// Cancels `timer` if it is armed, then forgets it.
  void cancel(std::optional<EventId>& timer) {
    if (timer) queue_.cancel(*timer);
    timer.reset();
  }

  // ---- Coroutine integration ----

  struct DelayAwaiter {
    Simulator& sim;
    Duration delay;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim.schedule_after(delay, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };

  /// `co_await sim.wait(usec(5))` — suspend for simulated time.
  DelayAwaiter wait(Duration d) { return DelayAwaiter{*this, d}; }

  /// Spawns `task` as a root process starting at the current instant.
  /// The returned handle reports completion and is awaitable via join().
  ProcessRef spawn(Task<void> task, std::string name = "process") {
    auto state = std::make_shared<ProcessState>();
    state->name_ = std::move(name);
    processes_.push_back(wrap(std::move(task), state));
    Task<void>& wrapper = processes_.back();
    schedule_after(Duration{0}, [&wrapper] { wrapper.resume(); });
    return state;
  }

  /// Awaitable that completes when the process finishes.
  static Trigger::Awaiter join(const ProcessRef& p) {
    return p->on_done().wait();
  }

  // ---- Execution ----
  //
  // Every run loop goes through step(), one event per step in (when, seq)
  // order, so event_order_hash folds the same sequence whichever loop ran.

  /// Pops the earliest pending event, moves the clock to it and runs it.
  /// An event that throws has already left the queue; the rest of its tick
  /// stays pending.  Precondition: pending_events() > 0.
  void step() {
    auto [when, action] = queue_.pop();
    now_ = when;
    action();
  }

  /// Runs until no events remain, then rethrows the first process failure.
  void run() {
    while (!queue_.empty()) step();
    rethrow_failure();
  }

  /// Runs until the clock would pass `deadline`.  Events exactly at the
  /// deadline are executed.  Returns true if events remain afterwards.
  bool run_until(TimePoint deadline) {
    while (!queue_.empty() && queue_.next_time() <= deadline) step();
    if (now_ < deadline) now_ = deadline;
    rethrow_failure();
    return !queue_.empty();
  }

  bool run_for(Duration d) { return run_until(now_ + d); }

  /// Runs every event strictly before `horizon` and returns how many ran.
  /// Unlike run_until, the clock is NOT advanced to the horizon: the next
  /// safe horizon of a conservative PDES round is a bound on other shards'
  /// sends, not a statement that this shard reached that instant.
  std::size_t run_before(TimePoint horizon) {
    std::size_t executed = 0;
    while (!queue_.empty() && queue_.next_time() < horizon) {
      step();
      ++executed;
    }
    rethrow_failure();
    return executed;
  }

  [[nodiscard]] std::size_t pending_events() { return queue_.size(); }

  /// Destroys every pending event unrun.  An owner whose model objects die
  /// before the Simulator calls this first: a pending action may hold
  /// references into them (a NIC's pooled descriptors).
  void drop_pending_events() { queue_.clear(); }

  /// Earliest pending event time.  Precondition: pending_events() > 0.
  /// The sharded engine publishes this as the shard's LBTS contribution.
  [[nodiscard]] TimePoint next_event_time() { return queue_.next_time(); }

  /// Event-queue throughput/allocation counters for this run.
  [[nodiscard]] const EventQueue::Stats& queue_stats() const {
    return queue_.stats();
  }

  /// Deterministic hash of the executed (time, seq) event order.
  [[nodiscard]] std::uint64_t event_order_hash() const {
    return queue_.order_hash();
  }

  /// True when every spawned process has completed.
  [[nodiscard]] bool all_processes_done() const {
    for (const auto& t : processes_) {
      if (!t.done()) return false;
    }
    return true;
  }

  /// Rethrows the first stored process failure, if any.
  void rethrow_failure() {
    for (auto& st : failed_) {
      if (st->error_) {
        auto err = st->error_;
        st->error_ = nullptr;
        std::rethrow_exception(err);
      }
    }
  }

 private:
  Task<void> wrap(Task<void> inner, ProcessRef state) {
    try {
      co_await inner;
    } catch (...) {
      state->error_ = std::current_exception();
      failed_.push_back(state);
    }
    state->done_ = true;
    state->on_done_.fire();
  }

  // First member, so destroyed last: the frames, NIC objects and closures
  // of this run are freed by then, and the blocks they parked in the
  // thread's sim::BlockPool go back to the heap.
  struct PoolTrim {
    PoolTrim() = default;
    PoolTrim(const PoolTrim&) = delete;
    PoolTrim& operator=(const PoolTrim&) = delete;
    ~PoolTrim() { BlockPool::trim(); }
  };
  PoolTrim pool_trim_;

  TimePoint now_{0};
  EventQueue queue_;
  Rng rng_{0x9e3779b97f4a7c15ULL};
  Tracer tracer_;
  std::deque<Task<void>> processes_;  // deque: stable element addresses
  std::vector<ProcessRef> failed_;
};

}  // namespace nicmcast::sim
