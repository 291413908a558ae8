#include "sim/timing_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace nicmcast::sim {
namespace {

constexpr std::int64_t kFineNs = std::int64_t{1} << TimingWheel::kFineShift;
constexpr std::int64_t kFineSpanNs =
    kFineNs * static_cast<std::int64_t>(TimingWheel::kFineSlots);
constexpr std::int64_t kCoarseSpanNs =
    kFineSpanNs * static_cast<std::int64_t>(TimingWheel::kCoarseSlots);

/// Drains the wheel and returns the popped (when, seq) order.
std::vector<WheelItem> drain(TimingWheel& wheel) {
  std::vector<WheelItem> out;
  while (wheel.size() > 0) {
    out.push_back(wheel.top());
    wheel.pop_top();
  }
  return out;
}

void expect_sorted(const std::vector<WheelItem>& items) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    const WheelItem& a = items[i - 1];
    const WheelItem& b = items[i];
    const bool ordered =
        a.when < b.when || (a.when == b.when && a.seq < b.seq);
    ASSERT_TRUE(ordered) << "items " << i - 1 << " and " << i
                         << " popped out of (when, seq) order";
  }
}

TEST(TimingWheel, SameTickFifoAcrossSlotWrap) {
  // Schedule several same-timestamp batches at fine indexes more than one
  // full wheel revolution apart: the masked slot is identical, so the FIFO
  // tie-break must come from (when, seq), not bucket residency.
  TimingWheel wheel;
  std::uint64_t seq = 0;
  std::vector<TimePoint> stamps;
  for (int wrap = 0; wrap < 3; ++wrap) {
    stamps.push_back(TimePoint{kFineNs * 5 + wrap * kFineSpanNs});
  }
  // Interleave insertion across the batches so arrival order differs from
  // pop order for the batch as a whole but matches within a timestamp.
  for (int i = 0; i < 4; ++i) {
    for (const TimePoint t : stamps) {
      wheel.push(WheelItem{t, seq++, 0});
    }
  }
  const std::vector<WheelItem> popped = drain(wheel);
  ASSERT_EQ(popped.size(), 12u);
  expect_sorted(popped);
  // Within each timestamp, seqs ascend in insertion order: 0,3,6,9 became
  // the first batch, etc.
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 4; ++i) {
      const WheelItem& item = popped[batch * 4 + i];
      EXPECT_EQ(item.when, stamps[batch]);
      EXPECT_EQ(item.seq, static_cast<std::uint64_t>(batch + i * 3));
    }
  }
}

TEST(TimingWheel, FarFutureBeyondCoarseHorizonUsesOverflow) {
  TimingWheel wheel;
  wheel.push(WheelItem{TimePoint{kCoarseSpanNs * 3 + 17}, 1, 0});
  EXPECT_EQ(wheel.overflow_scheduled(), 1u);
  EXPECT_EQ(wheel.overflow_promotions(), 0u);
  wheel.push(WheelItem{TimePoint{10}, 0, 0});
  EXPECT_EQ(wheel.overflow_scheduled(), 1u);  // near item is not overflow

  EXPECT_EQ(wheel.top().seq, 0u);
  wheel.pop_top();
  // Popping the far item forces the cursor jump + promotion.
  EXPECT_EQ(wheel.top().seq, 1u);
  EXPECT_EQ(wheel.overflow_promotions(), 1u);
  wheel.pop_top();
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimingWheel, CascadeAtCoarseRollover) {
  // Two items in the same coarse slot but different fine slots must come
  // back in time order after the cascade redistributes them.
  TimingWheel wheel;
  const std::int64_t base = kFineSpanNs * 7;  // coarse slot 7
  wheel.push(WheelItem{TimePoint{base + kFineNs * 100}, 2, 0});
  wheel.push(WheelItem{TimePoint{base + kFineNs * 3}, 1, 0});
  wheel.push(WheelItem{TimePoint{kFineNs}, 0, 0});  // keeps cursor near 0

  EXPECT_EQ(wheel.top().seq, 0u);
  wheel.pop_top();
  EXPECT_EQ(wheel.cascades(), 0u);
  EXPECT_EQ(wheel.top().seq, 1u);
  EXPECT_EQ(wheel.cascades(), 1u);  // coarse slot 7 redistributed
  wheel.pop_top();
  EXPECT_EQ(wheel.top().seq, 2u);
  EXPECT_EQ(wheel.cascades(), 1u);  // same coarse bucket, no second cascade
  wheel.pop_top();
}

TEST(TimingWheel, ScheduleBehindCursorStaysOrdered) {
  // The raw wheel permits scheduling at-or-behind the cursor (the queue's
  // tests do); such items must still compete by (when, seq).
  TimingWheel wheel;
  wheel.push(WheelItem{TimePoint{kFineSpanNs * 2}, 0, 0});
  EXPECT_EQ(wheel.top().seq, 0u);  // cursor advanced to the item
  wheel.push(WheelItem{TimePoint{5}, 1, 0});
  EXPECT_EQ(wheel.top().seq, 1u);  // the past item pops first
  wheel.pop_top();
  EXPECT_EQ(wheel.top().seq, 0u);
  wheel.pop_top();
}

TEST(TimingWheel, SameInstantPushesAppendWithoutMoves) {
  // A cluster spawns one process per node at one instant before anything
  // runs.  Each push sorts after everything ready, so none moves an item.
  constexpr std::uint64_t kPushes = 65536;
  TimingWheel wheel;
  const TimePoint now{kFineSpanNs * 3 + 5};
  wheel.push(WheelItem{now, 0, 0});
  EXPECT_EQ(wheel.top().seq, 0u);  // cursor now sits on the instant's slot
  wheel.pop_top();
  for (std::uint64_t seq = 1; seq <= kPushes; ++seq) {
    wheel.push(WheelItem{now, seq, 0});
  }
  EXPECT_EQ(wheel.ready_shifts(), 0u);
  const std::vector<WheelItem> popped = drain(wheel);
  ASSERT_EQ(popped.size(), kPushes);
  for (std::uint64_t i = 0; i < kPushes; ++i) {
    ASSERT_EQ(popped[i].seq, i + 1) << "index " << i;
  }
  EXPECT_EQ(wheel.ready_shifts(), 0u);
}

TEST(TimingWheel, InsertIntoPoppedSlotMovesTheShorterSide) {
  // One fine slot holding 1,000 items at whens base+1 .. base+50, 20 per
  // nanosecond; 100 pops leave a gap at the front of the ready set.
  constexpr std::uint64_t kItems = 1000;
  constexpr std::uint64_t kPops = 100;
  TimingWheel wheel;
  const std::int64_t base = kFineNs * 100;
  std::uint64_t seq = 0;
  for (; seq < kItems; ++seq) {
    wheel.push(WheelItem{
        TimePoint{base + 1 + static_cast<std::int64_t>(seq / 20)}, seq, 0});
  }
  for (std::uint64_t i = 0; i < kPops; ++i) {
    ASSERT_EQ(wheel.top().seq, i);
    wheel.pop_top();
  }
  // Ready now holds seqs 100..999 at whens base+6 .. base+50.
  struct Case {
    std::int64_t offset;  // when - base
    std::uint64_t before;
    std::uint64_t after;
  };
  const Case cases[] = {
      {10, 100, 800},  // near the front: slides 100 items into the gap
      {48, 861, 40},   // near the back: shifts the 40 later items
      {5, 0, 902},     // before everything ready: fills the gap, no move
  };
  for (const Case& c : cases) {
    const std::uint64_t shifts = wheel.ready_shifts();
    wheel.push(WheelItem{TimePoint{base + c.offset}, seq++, 0});
    EXPECT_EQ(wheel.ready_shifts() - shifts, std::min(c.before, c.after))
        << "when base+" << c.offset;
  }
  const std::vector<WheelItem> popped = drain(wheel);
  ASSERT_EQ(popped.size(), kItems - kPops + std::size(cases));
  expect_sorted(popped);
  EXPECT_EQ(popped.front().seq, kItems + 2);  // the base+5 item
}

TEST(TimingWheel, RandomizedMatchesSortedReference) {
  // Mixed horizons (fine, coarse, overflow) and the current instant, with
  // interleaved pops: the pop sequence must equal the (when, seq)-sorted
  // reference.  Occasional wide bursts near the cursor fill the ready set,
  // so later pushes land inside a partly popped one.
  std::mt19937_64 rng(12345);
  TimingWheel wheel;
  std::vector<WheelItem> reference;
  std::vector<WheelItem> popped;
  std::uint64_t seq = 0;
  std::int64_t low_bound = 0;  // pops only move forward in time

  for (int round = 0; round < 2000; ++round) {
    const bool wide = rng() % 16 == 0;
    const int burst = wide ? 64 + static_cast<int>(rng() % 192)
                           : static_cast<int>(rng() % 4);
    for (int i = 0; i < burst; ++i) {
      std::int64_t when = 0;
      if (wide) {
        when = low_bound + static_cast<std::int64_t>(rng() % (2 * kFineNs));
      } else {
        switch (rng() % 5) {
          case 0: when = low_bound; break;
          case 1: when = low_bound + static_cast<std::int64_t>(rng() % 512); break;
          case 2: when = low_bound + static_cast<std::int64_t>(rng() % kFineSpanNs); break;
          case 3: when = low_bound + static_cast<std::int64_t>(rng() % kCoarseSpanNs); break;
          default: when = low_bound + kCoarseSpanNs + static_cast<std::int64_t>(rng() % (4 * kCoarseSpanNs)); break;
        }
      }
      const WheelItem item{TimePoint{when}, seq++, 0};
      wheel.push(item);
      reference.push_back(item);
    }
    const int pops = rng() % 2 == 0 ? 1 + static_cast<int>(rng() % 8) : 0;
    for (int i = 0; i < pops && wheel.size() > 0; ++i) {
      const WheelItem item = wheel.top();
      wheel.pop_top();
      low_bound = item.when.nanoseconds();
      popped.push_back(item);
    }
  }
  while (wheel.size() > 0) {
    popped.push_back(wheel.top());
    wheel.pop_top();
  }
  // Some pushes sorted inside the ready set rather than after it.
  EXPECT_GT(wheel.ready_shifts(), 0u);

  ASSERT_EQ(popped.size(), reference.size());
  expect_sorted(popped);
  std::sort(reference.begin(), reference.end(),
            [](const WheelItem& a, const WheelItem& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.seq < b.seq;
            });
  for (std::size_t i = 0; i < popped.size(); ++i) {
    ASSERT_EQ(popped[i].when, reference[i].when) << "index " << i;
    ASSERT_EQ(popped[i].seq, reference[i].seq) << "index " << i;
  }
}

// ---- Cancellation through the owning EventQueue ---------------------------
//
// The wheel itself never cancels; the queue skips stale items on pop.  The
// interesting split is where the stale item lives: a fine/coarse bucket vs
// the overflow heap.

TEST(TimingWheelCancel, CancelInWheelVsCancelInOverflow) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{100}, [&] { order.push_back(0); });
  const EventId in_wheel =
      q.schedule(TimePoint{kFineNs * 10}, [&] { order.push_back(-1); });
  const EventId in_overflow = q.schedule(TimePoint{kCoarseSpanNs * 2 + 50},
                                         [&] { order.push_back(-2); });
  q.schedule(TimePoint{kCoarseSpanNs * 2 + 50}, [&] { order.push_back(1); });

  EXPECT_TRUE(q.cancel(in_wheel));
  EXPECT_TRUE(q.cancel(in_overflow));
  EXPECT_FALSE(q.cancel(in_wheel));  // already cancelled
  EXPECT_EQ(q.size(), 2u);

  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.stats().cancelled, 2u);
}

TEST(TimingWheelCancel, StatsSurfaceWheelBehaviour) {
  EventQueue q;
  for (int i = 0; i < 8; ++i) {
    q.schedule(TimePoint{kCoarseSpanNs * 3 + i}, [] {});
  }
  q.schedule(TimePoint{10}, [] {});
  EXPECT_EQ(q.stats().overflow_scheduled, 8u);
  EXPECT_EQ(q.stats().wheel_occupancy_peak, 9u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(q.stats().overflow_promotions, 8u);
  EXPECT_EQ(q.stats().executed, 9u);
}

}  // namespace
}  // namespace nicmcast::sim
