// Awaitable synchronisation primitives for simulated processes.
//
// Trigger  — one-shot broadcast event ("message fully received").
// Gate     — resettable broadcast event (barrier-style releases).
// Channel  — unbounded FIFO mailbox; the workhorse for event queues between
//            host processes and NIC firmware.
//
// All primitives resume waiters synchronously at the current simulation
// instant, in FIFO wait order, which keeps runs deterministic.
#pragma once

#include <coroutine>
#include <optional>
#include <utility>
#include <vector>

#include "sim/ring_deque.hpp"

namespace nicmcast::sim {

/// One-shot broadcast event.  Awaits after fire() complete immediately.
/// The first waiter is held inline, so a trigger with one waiter (an
/// operation's completion) allocates nothing.
class Trigger {
 public:
  Trigger() = default;
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  [[nodiscard]] bool fired() const { return fired_; }

  void fire() {
    if (fired_) return;
    fired_ = true;
    // A resumed waiter may destroy this trigger: take the waiters first.
    const std::coroutine_handle<> first = std::exchange(first_, nullptr);
    auto more = std::move(more_);
    more_.clear();
    if (first) first.resume();
    for (auto h : more) h.resume();
  }

  struct Awaiter {
    Trigger& trigger;
    bool await_ready() const noexcept { return trigger.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      if (trigger.first_) {
        trigger.more_.push_back(h);
      } else {
        trigger.first_ = h;
      }
    }
    void await_resume() const noexcept {}
  };
  Awaiter wait() { return Awaiter{*this}; }

 private:
  bool fired_ = false;
  std::coroutine_handle<> first_;  // the first waiter
  std::vector<std::coroutine_handle<>> more_;  // the rest, in wait order
};

/// Resettable broadcast event.  release() wakes everyone currently waiting;
/// subsequent waits block until the next release().
class Gate {
 public:
  Gate() = default;
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

  void release() {
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) h.resume();
  }

  struct Awaiter {
    Gate& gate;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      gate.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  Awaiter wait() { return Awaiter{*this}; }

 private:
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Unbounded FIFO channel.  Any number of producers (plain code or
/// coroutines) push; consumers `co_await ch.pop()`.  Values are handed to
/// waiters in push order; waiters are served in wait order.  A channel
/// that never sees a push allocates nothing.
template <class T>
class Channel {
 public:
  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void push(T value) {
    items_.push_back(std::move(value));
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      h.resume();
    }
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

  /// Non-blocking pop, for polling-style consumers.
  std::optional<T> try_pop() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  struct PopAwaiter {
    Channel& ch;
    bool await_ready() const noexcept { return !ch.items_.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      ch.waiters_.push_back(h);
    }
    T await_resume() {
      T v = std::move(ch.items_.front());
      ch.items_.pop_front();
      return v;
    }
  };
  PopAwaiter pop() { return PopAwaiter{*this}; }

 private:
  RingDeque<T> items_;
  RingDeque<std::coroutine_handle<>> waiters_;
};

}  // namespace nicmcast::sim
