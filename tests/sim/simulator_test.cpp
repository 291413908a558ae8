#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace nicmcast::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint{0});
}

TEST(Simulator, CallbacksRunAtScheduledTime) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule_after(usec(5), [&] { times.push_back(sim.now().nanoseconds()); });
  sim.schedule_after(usec(2), [&] { times.push_back(sim.now().nanoseconds()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{2000, 5000}));
  EXPECT_EQ(sim.now(), TimePoint{5000});
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_after(usec(10), [&] {
    EXPECT_THROW(sim.schedule_at(TimePoint{0}, [] {}), std::logic_error);
  });
  sim.run();
  EXPECT_THROW(sim.schedule_after(usec(-1), [] {}), std::logic_error);
}

TEST(Simulator, CancelledEventDoesNotRun) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_after(usec(1), [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_after(usec(i), [&] { ++count; });
  }
  const bool more = sim.run_until(TimePoint{usec(5).nanoseconds()});
  EXPECT_EQ(count, 5);
  EXPECT_TRUE(more);
  EXPECT_EQ(sim.now(), TimePoint{5000});
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  EXPECT_FALSE(sim.run_until(TimePoint{12345}));
  EXPECT_EQ(sim.now(), TimePoint{12345});
}

Task<void> waiter_program(Simulator& sim, std::vector<double>& log) {
  log.push_back(sim.now().microseconds());
  co_await sim.wait(usec(10));
  log.push_back(sim.now().microseconds());
  co_await sim.wait(usec(5));
  log.push_back(sim.now().microseconds());
}

TEST(Simulator, CoroutineDelaysAdvanceClock) {
  Simulator sim;
  std::vector<double> log;
  ProcessRef p = sim.spawn(waiter_program(sim, log));
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_EQ(log, (std::vector<double>{0.0, 10.0, 15.0}));
}

TEST(Simulator, ProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  auto prog = [&](int id, Duration step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await sim.wait(step);
      order.push_back(id);
    }
  };
  sim.spawn(prog(1, usec(10)));
  sim.spawn(prog(2, usec(15)));
  sim.run();
  // t=10:1, 15:2, 20:1, 30: both fire and 2's event was scheduled first
  // (at t=15 vs t=20), 45:2.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(Simulator, JoinWaitsForProcessCompletion) {
  Simulator sim;
  std::vector<int> order;
  auto worker = [&]() -> Task<void> {
    co_await sim.wait(usec(50));
    order.push_back(1);
  };
  ProcessRef w = sim.spawn(worker());
  auto joiner = [&]() -> Task<void> {
    co_await Simulator::join(w);
    order.push_back(2);
  };
  sim.spawn(joiner());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, JoinAfterCompletionReturnsImmediately) {
  Simulator sim;
  ProcessRef w = sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.wait(usec(1));
  }(sim));
  sim.run();
  ASSERT_TRUE(w->done());
  bool joined = false;
  sim.spawn([](ProcessRef proc, bool& flag) -> Task<void> {
    co_await Simulator::join(proc);
    flag = true;
  }(w, joined));
  sim.run();
  EXPECT_TRUE(joined);
}

TEST(Simulator, ProcessExceptionSurfacesFromRun) {
  Simulator sim;
  sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.wait(usec(1));
    throw std::runtime_error("process failed");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulator, AllProcessesDone) {
  Simulator sim;
  sim.spawn([](Simulator& s) -> Task<void> { co_await s.wait(usec(1)); }(sim));
  sim.spawn([](Simulator& s) -> Task<void> { co_await s.wait(usec(2)); }(sim));
  EXPECT_FALSE(sim.all_processes_done());
  sim.run();
  EXPECT_TRUE(sim.all_processes_done());
}

TEST(Simulator, SeededRngIsReproducible) {
  Simulator a(1234);
  Simulator b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.rng().next(), b.rng().next());
  }
}

TEST(Simulator, ChannelBetweenProcesses) {
  Simulator sim;
  Channel<int> ch;
  std::vector<int> received;
  sim.spawn([](Simulator& s, Channel<int>& c) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await s.wait(usec(10));
      c.push(i);
    }
  }(sim, ch));
  sim.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<void> {
    for (int i = 0; i < 3; ++i) out.push_back(co_await c.pop());
  }(ch, received));
  sim.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, ZeroDelayEventsPreserveFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration{0}, [&] { order.push_back(1); });
  sim.schedule_after(Duration{0}, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---- Events sharing one timestamp ------------------------------------------
//
// Each step pops one event, so a tick's members run one at a time, in seq
// order, with the rest of the tick still in the queue.  The reference is a
// bare EventQueue::pop() loop over the same history.

TEST(Simulator, EventCancelsALaterEventOfItsOwnTick) {
  Simulator sim;
  std::vector<int> order;
  EventId third{};
  sim.schedule_at(TimePoint{100}, [&] {
    order.push_back(0);
    EXPECT_TRUE(sim.cancel(third));
  });
  sim.schedule_at(TimePoint{100}, [&] { order.push_back(1); });
  third = sim.schedule_at(TimePoint{100}, [&] { order.push_back(2); });
  sim.schedule_at(TimePoint{200}, [&] { order.push_back(3); });
  // run_before counts the events that ran, not the cancelled one.
  EXPECT_EQ(sim.run_before(TimePoint{200}), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));

  EventQueue q;
  EventId q_third{};
  q.schedule(TimePoint{100}, [&] { q.cancel(q_third); });
  q.schedule(TimePoint{100}, [] {});
  q_third = q.schedule(TimePoint{100}, [] {});
  q.schedule(TimePoint{200}, [] {});
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(sim.queue_stats().executed, q.stats().executed);
  EXPECT_EQ(sim.queue_stats().cancelled, q.stats().cancelled);
  EXPECT_EQ(sim.queue_stats().executed, 3u);
  EXPECT_EQ(sim.queue_stats().cancelled, 1u);
  EXPECT_EQ(sim.event_order_hash(), q.order_hash());
}

TEST(Simulator, SameTickSuccessorRunsAfterTheTicksLowerSeqs) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint{50}, [&] {
    order.push_back(0);
    sim.schedule_at(TimePoint{50}, [&] {
      EXPECT_EQ(sim.now(), TimePoint{50});
      order.push_back(2);
    });
  });
  sim.schedule_at(TimePoint{50}, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), TimePoint{50});

  EventQueue q;
  q.schedule(TimePoint{50}, [&q] { q.schedule(TimePoint{50}, [] {}); });
  q.schedule(TimePoint{50}, [] {});
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(sim.event_order_hash(), q.order_hash());
  EXPECT_EQ(q.order_hash(), 0x7eb8049b1124fea6ULL);
}

TEST(Simulator, ThrowMidTickLeavesTheRestOfTheTickPending) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint{100}, [&] { order.push_back(0); });
  sim.schedule_at(TimePoint{100}, [] { throw std::runtime_error("boom"); });
  sim.schedule_at(TimePoint{100}, [&] { order.push_back(2); });
  sim.schedule_at(TimePoint{100}, [&] { order.push_back(3); });
  sim.schedule_at(TimePoint{200}, [&] { order.push_back(4); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(sim.now(), TimePoint{100});
  ASSERT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.next_event_time(), TimePoint{100});
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 4}));

  EventQueue q;
  for (int i = 0; i < 4; ++i) q.schedule(TimePoint{100}, [] {});
  q.schedule(TimePoint{200}, [] {});
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(sim.queue_stats().executed, 5u);  // the thrower ran too
  EXPECT_EQ(sim.event_order_hash(), q.order_hash());
}

}  // namespace
}  // namespace nicmcast::sim
