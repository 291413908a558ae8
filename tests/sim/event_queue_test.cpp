#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "net/buffer.hpp"

namespace nicmcast::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{30}, [&] { order.push_back(3); });
  q.schedule(TimePoint{10}, [&] { order.push_back(1); });
  q.schedule(TimePoint{20}, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(TimePoint{100}, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PopReturnsTimestamp) {
  EventQueue q;
  q.schedule(TimePoint{42}, [] {});
  auto [when, action] = q.pop();
  EXPECT_EQ(when, TimePoint{42});
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(TimePoint{5}, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(TimePoint{5}, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelledEventSkippedByNextTime) {
  EventQueue q;
  const EventId early = q.schedule(TimePoint{5}, [] {});
  q.schedule(TimePoint{9}, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), TimePoint{9});
}

TEST(EventQueue, SizeTracksLiveEventsOnly) {
  EventQueue q;
  const EventId a = q.schedule(TimePoint{1}, [] {});
  q.schedule(TimePoint{2}, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedScheduleAndPop) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{10}, [&] { order.push_back(1); });
  q.pop().second();
  q.schedule(TimePoint{5}, [&] { order.push_back(2); });  // earlier than last
  q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Regression: cancelling an id whose event already fired used to corrupt
// the queue's bookkeeping.  It must be a no-op returning false.
TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  int runs = 0;
  const EventId id = q.schedule(TimePoint{5}, [&] { ++runs; });
  q.pop().second();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(runs, 1);
  // The queue must still be fully usable afterwards.
  q.schedule(TimePoint{6}, [&] { ++runs; });
  q.pop().second();
  EXPECT_EQ(runs, 2);
  EXPECT_TRUE(q.empty());
}

// A stale id whose slot has since been recycled for a newer event must not
// cancel that newer event: the sequence number disambiguates.
TEST(EventQueue, StaleCancelDoesNotKillSlotReuser) {
  EventQueue q;
  const EventId stale = q.schedule(TimePoint{1}, [] {});
  q.pop().second();  // slot returns to the free list
  bool reused_ran = false;
  const EventId fresh = q.schedule(TimePoint{2}, [&] { reused_ran = true; });
  EXPECT_EQ(fresh.slot, stale.slot);  // pool really recycled the slot
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_TRUE(reused_ran);
}

TEST(EventQueue, SlotPoolRecyclesInsteadOfGrowing) {
  EventQueue q;
  for (int i = 0; i < 1000; ++i) {
    q.schedule(TimePoint{i}, [] {});
    q.pop().second();
  }
  EXPECT_EQ(q.stats().scheduled, 1000u);
  EXPECT_EQ(q.stats().executed, 1000u);
  // One event in flight at a time => the pool never needed a second slot.
  EXPECT_EQ(q.stats().pool_slots, 1u);
}

TEST(EventQueue, SmallCapturesStayInline) {
  EventQueue q;
  std::uint64_t sink = 0;
  q.schedule(TimePoint{1}, [&sink] { ++sink; });
  EXPECT_EQ(q.stats().heap_actions, 0u);
  // A const Buffer member moves by copying; the copy is noexcept, so the
  // closure still counts as nothrow-movable and stays inline.
  const net::Buffer bytes = net::Buffer::filled(8, std::byte{1});
  q.schedule(TimePoint{2}, [&sink, bytes] { sink += bytes.size(); });
  EXPECT_EQ(q.stats().heap_actions, 0u);
  struct Huge {
    std::uint64_t words[32] = {};
  };
  q.schedule(TimePoint{3}, [&sink, huge = Huge{}] { sink += huge.words[0]; });
  EXPECT_EQ(q.stats().heap_actions, 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(sink, 9u);
}

TEST(EventQueue, ClearDestroysPendingActionsUnrun) {
  EventQueue q;
  auto owned = std::make_shared<int>(0);
  for (int i = 0; i < 3; ++i) {
    q.schedule(TimePoint{10 + i}, [owned] { ++*owned; });
  }
  EXPECT_EQ(owned.use_count(), 4);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(owned.use_count(), 1);
  // The queue stays usable.
  q.schedule(TimePoint{20}, [owned] { ++*owned; });
  q.pop().second();
  EXPECT_EQ(*owned, 1);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  std::vector<std::int64_t> popped;
  // Insert in a scrambled but deterministic order.
  for (std::int64_t i = 0; i < 1000; ++i) {
    const std::int64_t t = (i * 7919) % 1000;
    q.schedule(TimePoint{t}, [] {});
  }
  while (!q.empty()) popped.push_back(q.pop().first.nanoseconds());
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LE(popped[i - 1], popped[i]);
  }
  EXPECT_EQ(popped.size(), 1000u);
}

}  // namespace
}  // namespace nicmcast::sim
