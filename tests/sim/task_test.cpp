#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <coroutine>
#include <cstddef>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace nicmcast::sim {
namespace {

Task<int> make_forty_two() { co_return 42; }

Task<int> add(int a, int b) { co_return a + b; }

Task<int> nested_sum() {
  const int x = co_await add(1, 2);
  const int y = co_await add(x, 10);
  co_return y;
}

Task<void> record(std::vector<int>& log, int value) {
  log.push_back(value);
  co_return;
}

Task<std::string> echo(std::string s) { co_return s; }

Task<int> throws_logic_error() {
  throw std::logic_error("boom");
  co_return 0;  // unreachable
}

Task<int> catches_child_error() {
  try {
    co_await throws_logic_error();
  } catch (const std::logic_error&) {
    co_return -1;
  }
  co_return 0;
}

Task<void> driver(int& out) { out = co_await nested_sum(); }

// Awaiting it records the awaiting coroutine's frame address.
struct FrameAddress {
  void* address = nullptr;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) noexcept {
    address = h.address();
    return false;  // resume at once
  }
  void await_resume() const noexcept {}
};

Task<void*> own_frame() {
  FrameAddress probe;
  co_await probe;
  co_return probe.address;
}

TEST(Task, StartsSuspended) {
  std::vector<int> log;
  Task<void> t = record(log, 7);
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(t.done());
  EXPECT_TRUE(log.empty());  // body has not run yet
}

TEST(Task, ResumeRunsBodyToCompletion) {
  std::vector<int> log;
  Task<void> t = record(log, 7);
  t.resume();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(log, (std::vector<int>{7}));
}

TEST(Task, AwaitPropagatesValue) {
  int out = 0;
  Task<void> d = driver(out);
  d.resume();
  EXPECT_TRUE(d.done());
  EXPECT_EQ(out, 13);
}

TEST(Task, ValueTaskReturnsValue) {
  int out = 0;
  auto run = [&]() -> Task<void> { out = co_await make_forty_two(); };
  Task<void> t = run();
  t.resume();
  EXPECT_EQ(out, 42);
}

TEST(Task, MoveOnlySemantics) {
  Task<int> a = make_forty_two();
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_TRUE(b.valid());
  Task<int> c;
  c = std::move(b);
  EXPECT_TRUE(c.valid());
}

TEST(Task, StringPayloadMoves) {
  std::string out;
  auto run = [&]() -> Task<void> {
    out = co_await echo("hello world, this string is long enough to heap");
  };
  Task<void> t = run();
  t.resume();
  EXPECT_EQ(out, "hello world, this string is long enough to heap");
}

TEST(Task, DestroyingUnstartedTaskIsSafe) {
  std::vector<int> log;
  { Task<void> t = record(log, 1); }
  EXPECT_TRUE(log.empty());
}

TEST(Task, ExceptionPropagatesThroughAwait) {
  int out = 0;
  auto run = [&]() -> Task<void> { out = co_await catches_child_error(); };
  Task<void> t = run();
  t.resume();
  EXPECT_EQ(out, -1);
}

TEST(Task, RethrowIfFailedOnRootTask) {
  Task<int> t = throws_logic_error();
  t.resume();
  EXPECT_TRUE(t.done());
  EXPECT_THROW(t.rethrow_if_failed(), std::logic_error);
}

TEST(Task, DeeplyNestedAwaitChain) {
  // Symmetric transfer must not overflow the stack on long chains.  Under
  // AddressSanitizer the fake-stack frames defeat the tail-call, so keep
  // the chain shallow there.
#if defined(__SANITIZE_ADDRESS__)
  constexpr int kDepth = 500;
#else
  constexpr int kDepth = 20'000;
#endif
  struct Chain {
    static Task<int> depth(int n) {
      if (n == 0) co_return 0;
      co_return 1 + co_await depth(n - 1);
    }
  };
  int out = -1;
  auto run = [&]() -> Task<void> { out = co_await Chain::depth(kDepth); };
  Task<void> t = run();
  t.resume();
  EXPECT_EQ(out, kDepth);
}

TEST(Task, FinishedFrameIsReusedBySameSize) {
  void* first = nullptr;
  void* second = nullptr;
  std::vector<void*> filler;
  filler.reserve(4096 / 8);  // no vector growth between the two frames
  auto run = [&]() -> Task<void> {
    {
      Task<void*> probe = own_frame();
      first = co_await probe;
    }  // the finished frame is destroyed here
    // Requests of every size up to 4 KiB would take a block that went back
    // to malloc's free lists; a parked frame stays out of their reach.
    for (std::size_t bytes = 8; bytes <= 4096; bytes += 8) {
      filler.push_back(::operator new(bytes));
    }
    second = co_await own_frame();
  };
  Task<void> t = run();
  t.resume();
  for (void* block : filler) ::operator delete(block);
  ASSERT_TRUE(t.done());
  EXPECT_NE(first, nullptr);
  EXPECT_EQ(first, second);
}

TEST(Task, FrameDestroyedOnAnotherThreadIsSafe) {
  std::vector<int> log;
  // Made here, run and destroyed on another thread: the block joins that
  // thread's free list.
  Task<void> here = record(log, 1);
  std::thread([&] {
    here.resume();
    here = Task<void>{};
  }).join();
  // Made on another thread, run and destroyed here.
  Task<void> there;
  std::thread([&] { there = record(log, 2); }).join();
  there.resume();
  there = Task<void>{};
  // A thread_local built before the thread's pool outlives it: its frame
  // is released after the pool is gone and goes back to the heap.
  std::thread([&] {
    // NOLINTNEXTLINE(nicmcast-thread-nondeterminism): the late-release case under test
    thread_local std::optional<Task<void>> outlives_pool;
    outlives_pool.emplace(record(log, 3));
  }).join();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  // This thread's pool still serves frames.
  int out = 0;
  Task<void> d = driver(out);
  d.resume();
  EXPECT_EQ(out, 13);
}

}  // namespace
}  // namespace nicmcast::sim
