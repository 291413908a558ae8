#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/task.hpp"

namespace nicmcast::sim {
namespace {

Task<void> wait_and_log(Trigger& t, std::vector<int>& log, int id) {
  co_await t.wait();
  log.push_back(id);
}

TEST(Trigger, FireWakesAllWaitersInOrder) {
  Trigger t;
  std::vector<int> log;
  Task<void> a = wait_and_log(t, log, 1);
  Task<void> b = wait_and_log(t, log, 2);
  Task<void> c = wait_and_log(t, log, 3);
  a.resume();
  b.resume();
  c.resume();
  EXPECT_TRUE(log.empty());
  t.fire();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(a.done());
  EXPECT_TRUE(b.done());
  EXPECT_TRUE(c.done());
}

Task<void> wait_then_destroy(std::unique_ptr<Trigger>& t,
                             std::vector<int>& log) {
  co_await t->wait();
  t.reset();
  log.push_back(1);
}

TEST(Trigger, FirstWaiterMayDestroyTheTrigger) {
  // gm::Port erases an operation's completion state, trigger included, as
  // soon as its waiter resumes; the later waiters must still run.
  auto t = std::make_unique<Trigger>();
  Trigger& trigger = *t;
  std::vector<int> log;
  Task<void> a = wait_then_destroy(t, log);
  Task<void> b = wait_and_log(trigger, log, 2);
  a.resume();
  b.resume();
  trigger.fire();
  EXPECT_EQ(t, nullptr);
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_TRUE(b.done());
}

TEST(Trigger, AwaitAfterFireCompletesImmediately) {
  Trigger t;
  t.fire();
  std::vector<int> log;
  Task<void> a = wait_and_log(t, log, 9);
  a.resume();
  EXPECT_EQ(log, (std::vector<int>{9}));
}

TEST(Trigger, DoubleFireIsIdempotent) {
  Trigger t;
  std::vector<int> log;
  Task<void> a = wait_and_log(t, log, 1);
  a.resume();
  t.fire();
  t.fire();
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_TRUE(t.fired());
}

Task<void> wait_gate(Gate& g, int& count) {
  co_await g.wait();
  ++count;
  co_await g.wait();
  ++count;
}

TEST(Gate, ReleaseWakesCurrentWaitersOnly) {
  Gate g;
  int count = 0;
  Task<void> a = wait_gate(g, count);
  a.resume();
  EXPECT_EQ(g.waiting(), 1u);
  g.release();
  EXPECT_EQ(count, 1);  // re-suspended on second wait
  EXPECT_EQ(g.waiting(), 1u);
  g.release();
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(a.done());
}

TEST(Gate, ReleaseWithNoWaitersIsNoop) {
  Gate g;
  g.release();
  EXPECT_EQ(g.waiting(), 0u);
}

Task<void> consume(Channel<int>& ch, std::vector<int>& out, int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(co_await ch.pop());
  }
}

TEST(Channel, PopBlocksUntilPush) {
  Channel<int> ch;
  std::vector<int> out;
  Task<void> c = consume(ch, out, 2);
  c.resume();
  EXPECT_TRUE(out.empty());
  ch.push(10);
  EXPECT_EQ(out, (std::vector<int>{10}));
  ch.push(20);
  EXPECT_EQ(out, (std::vector<int>{10, 20}));
  EXPECT_TRUE(c.done());
}

TEST(Channel, BufferedValuesPopImmediately) {
  Channel<int> ch;
  ch.push(1);
  ch.push(2);
  ch.push(3);
  std::vector<int> out;
  Task<void> c = consume(ch, out, 3);
  c.resume();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, FifoAcrossMultipleConsumers) {
  Channel<int> ch;
  std::vector<int> out_a;
  std::vector<int> out_b;
  Task<void> a = consume(ch, out_a, 1);
  Task<void> b = consume(ch, out_b, 1);
  a.resume();
  b.resume();
  ch.push(1);
  ch.push(2);
  EXPECT_EQ(out_a, (std::vector<int>{1}));  // first waiter gets first value
  EXPECT_EQ(out_b, (std::vector<int>{2}));
}

TEST(Channel, TryPopNonBlocking) {
  Channel<std::string> ch;
  EXPECT_EQ(ch.try_pop(), std::nullopt);
  ch.push("x");
  EXPECT_EQ(ch.try_pop(), std::optional<std::string>("x"));
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, SizeTracksContents) {
  Channel<int> ch;
  EXPECT_EQ(ch.size(), 0u);
  ch.push(1);
  ch.push(2);
  EXPECT_EQ(ch.size(), 2u);
  ch.try_pop();
  EXPECT_EQ(ch.size(), 1u);
}

TEST(Channel, MoveOnlyPayload) {
  Channel<std::unique_ptr<int>> ch;
  ch.push(std::make_unique<int>(5));
  auto v = ch.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

}  // namespace
}  // namespace nicmcast::sim
