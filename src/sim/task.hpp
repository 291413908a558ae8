// Coroutine task type for simulated processes.
//
// Host programs, GM library calls and MPI collectives are written as
// C++20 coroutines returning Task<T>.  A Task starts suspended; it runs when
// awaited (or when spawned onto the Simulator) and resumes its awaiter via
// symmetric transfer when it finishes.  The whole engine is single-threaded:
// a resume never races with anything.
//
// Frames come from sim::BlockPool: a finished frame's block serves the next
// coroutine of its size class on the same thread, so the per-message calls
// (Port::receive, nic_bcast, a barrier arrival) stop costing a malloc each
// once a run has warmed up.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/block_pool.hpp"

namespace nicmcast::sim {

template <class T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;  // who co_awaits us, if anyone
  std::exception_ptr error;

  static void* operator new(std::size_t size) {
    return BlockPool::allocate(size);
  }
  static void operator delete(void* frame, std::size_t size) noexcept {
    BlockPool::deallocate(frame, size);
  }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <class Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& promise = h.promise();
      if (promise.continuation) return promise.continuation;
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { error = std::current_exception(); }
};

template <class T>
struct Promise : PromiseBase {
  T value{};
  Task<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

/// An eagerly-destroyed, lazily-started coroutine.  Move-only; destroying a
/// Task destroys the (suspended) coroutine frame and, transitively, any
/// child Task frames it owns.
template <class T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }

  /// Starts (or resumes) the coroutine without an awaiter.  Used by the
  /// Simulator to kick off spawned root processes.
  void resume() { handle_.resume(); }

  /// Rethrows the coroutine's failure, if any.  Only meaningful once done().
  void rethrow_if_failed() {
    if (handle_ && handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
  }

  struct Awaiter {
    Handle handle;
    bool await_ready() const noexcept { return !handle || handle.done(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) noexcept {
      handle.promise().continuation = h;
      return handle;  // symmetric transfer: start the child immediately
    }
    T await_resume() {
      if (handle.promise().error) {
        std::rethrow_exception(handle.promise().error);
      }
      if constexpr (!std::is_void_v<T>) {
        return std::move(handle.promise().value);
      }
    }
  };

  Awaiter operator co_await() const& noexcept { return Awaiter{handle_}; }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

namespace detail {

template <class T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>{std::coroutine_handle<Promise<T>>::from_promise(*this)};
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>{std::coroutine_handle<Promise<void>>::from_promise(*this)};
}

}  // namespace detail

}  // namespace nicmcast::sim
