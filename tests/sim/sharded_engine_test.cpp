#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/time.hpp"

namespace nicmcast::sim {
namespace {

constexpr Duration kLookahead = usec(1);

void hop(ShardedEngine& engine, std::size_t at, int remaining);

constexpr TimePoint t_us(double us) { return TimePoint{0} + usec(us); }

// Every shard seeds a chain that hops to the next shard `hops` times.
void seed_ping_pong(ShardedEngine& engine, int hops) {
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    engine.shard(s).schedule_at(t_us(static_cast<double>(s + 1)),
                                [&engine, s, hops] { hop(engine, s, hops); });
  }
}

struct PingPong {
  std::vector<std::uint64_t> hashes;
  std::uint64_t merged = 0;
  std::uint64_t rounds = 0;
};

// A 50-hop ping-pong storm across 4 shards.
PingPong run_ping_pong() {
  ShardedEngine engine(4, kLookahead);
  seed_ping_pong(engine, 50);
  engine.run();
  return {engine.shard_order_hashes(), engine.merged_order_hash(),
          engine.lbts_rounds()};
}

// The ping-pong's schedule, pinned when a lockstep three-barrier loop was
// the reference implementation.
const std::vector<std::uint64_t> kPingPongHashes{
    0xe0a7c8653e89dcb4ULL, 0xa9f737d52939ad2cULL, 0xbe70e8a4fc03c2e4ULL,
    0x41a0a2fe5498257cULL};
constexpr std::uint64_t kPingPongRounds = 54;

TEST(ShardedEngine, RejectsDegenerateConfigs) {
  EXPECT_THROW(ShardedEngine(0, kLookahead), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(2, Duration{0}), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(2, Duration{-1}), std::invalid_argument);
}

TEST(ShardedEngine, SingleShardRunsLikeAPlainSimulator) {
  ShardedEngine engine(1, kLookahead);
  std::vector<int> order;
  engine.shard(0).schedule_at(t_us(5), [&] { order.push_back(2); });
  engine.shard(0).schedule_at(t_us(1), [&] { order.push_back(1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));

  // Identical schedule on a plain Simulator: same executed-order hash.
  Simulator seq;
  seq.schedule_at(t_us(5), [] {});
  seq.schedule_at(t_us(1), [] {});
  seq.run();
  EXPECT_EQ(engine.shard(0).event_order_hash(), seq.event_order_hash());
}

TEST(ShardedEngine, CrossShardDeliveryLandsAtRequestedTime) {
  ShardedEngine engine(2, kLookahead);
  TimePoint delivered{-1};
  engine.shard(0).schedule_at(t_us(2), [&] {
    engine.post(0, 1, engine.shard(0).now() + kLookahead, [&] {
      delivered = engine.shard(1).now();
    });
  });
  engine.run();
  EXPECT_EQ(delivered, TimePoint{0} + usec(3));
  EXPECT_EQ(engine.shard_stats(0).cross_shard_msgs_sent, 1u);
  EXPECT_EQ(engine.shard_stats(1).cross_shard_msgs_received, 1u);
  EXPECT_GE(engine.lbts_rounds(), 2u);
}

TEST(ShardedEngine, PostInsideLookaheadWindowThrows) {
  ShardedEngine engine(2, kLookahead);
  engine.shard(0).schedule_at(t_us(2), [&] {
    // 0.5us ahead < 1us lookahead: the conservative contract is violated.
    engine.post(0, 1, engine.shard(0).now() + usec(0.5), [] {});
  });
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(ShardedEngine, SameShardPostIgnoresLookahead) {
  ShardedEngine engine(2, kLookahead);
  bool ran = false;
  engine.shard(0).schedule_at(t_us(2), [&] {
    engine.post(0, 0, engine.shard(0).now(), [&] { ran = true; });
  });
  engine.run();
  EXPECT_TRUE(ran);
}

// The lookahead edge: an event scheduled EXACTLY at the safe horizon of a
// round must not run in that round — it waits for the next LBTS advance.
TEST(ShardedEngine, EventExactlyAtHorizonWaitsForNextRound) {
  ShardedEngine engine(2, kLookahead);
  // Shard 0's only event is at t=10us, so round 1 has LBTS=10us and
  // horizon=11us.  Shard 1 holds events at exactly 11us (the horizon — must
  // stall) and at 12us.
  std::vector<int> order;
  engine.shard(0).schedule_at(t_us(10), [&] { order.push_back(0); });
  engine.shard(1).schedule_at(t_us(11), [&] { order.push_back(1); });
  engine.shard(1).schedule_at(t_us(12), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // Round 1: shard 1 ran nothing (11us >= horizon 11us) — a horizon stall.
  EXPECT_GE(engine.shard_stats(1).horizon_stalls, 1u);
  EXPECT_GE(engine.lbts_rounds(), 2u);
}

// Cross-shard in-flight cancel: shard 0 arms a local retransmit timer and
// sends a packet to shard 1; shard 1 acks back; the ack cancels the timer
// before it fires.  This is the ARQ shape the sharded fabric relies on.
TEST(ShardedEngine, CrossShardAckCancelsInFlightTimer) {
  ShardedEngine engine(2, kLookahead);
  bool timer_fired = false;
  bool acked = false;
  EventId timer{};
  engine.shard(0).schedule_at(t_us(1), [&] {
    Simulator& s0 = engine.shard(0);
    timer = s0.schedule_at(s0.now() + usec(100), [&] { timer_fired = true; });
    engine.post(0, 1, s0.now() + kLookahead, [&] {
      Simulator& s1 = engine.shard(1);
      engine.post(1, 0, s1.now() + kLookahead, [&] {
        acked = true;
        EXPECT_TRUE(engine.shard(0).cancel(timer));
      });
    });
  });
  engine.run();
  EXPECT_TRUE(acked);
  EXPECT_FALSE(timer_fired);
  EXPECT_EQ(engine.shard_stats(0).cross_shard_msgs_sent, 1u);
  EXPECT_EQ(engine.shard_stats(1).cross_shard_msgs_sent, 1u);
}

// A ping-pong storm across 4 shards, run twice: per-shard hash vectors and
// counters must be bit-identical — thread scheduling may not leak into the
// executed order.
TEST(ShardedEngine, RepeatableAcrossRunsWithFourShards) {
  const PingPong a = run_ping_pong();
  const PingPong b = run_ping_pong();
  EXPECT_EQ(a.hashes, b.hashes);
  EXPECT_EQ(a.merged, b.merged);
  EXPECT_EQ(a.rounds, b.rounds);
  ASSERT_EQ(a.hashes.size(), 4u);
}

TEST(ShardedEngine, ShardFailurePropagatesWithoutDeadlock) {
  ShardedEngine engine(4, kLookahead);
  engine.shard(2).schedule_at(t_us(5), [] {
    throw std::runtime_error("shard 2 exploded");
  });
  // Keep the other shards busy so they are inside execute when it throws.
  for (std::size_t s = 0; s < 4; ++s) {
    if (s == 2) continue;
    engine.shard(s).schedule_at(t_us(1), [] {});
    engine.shard(s).schedule_at(t_us(1000), [] {});
  }
  EXPECT_THROW(engine.run(), std::runtime_error);
}

// A burst of 3,000 posts in one round, appended while the receiver is
// still inside the same round's execute (shard 1 holds an event until the
// burst is in).  The drain must take all of it and the merge must not
// depend on thread timing.
TEST(ShardedEngine, LargeBurstMergesDeterministically) {
  constexpr int kBurst = 3000;
  auto run_once = [] {
    ShardedEngine engine(2, kLookahead);
    std::atomic<bool> pushed{false};
    engine.shard(0).schedule_at(t_us(1), [&engine, &pushed] {
      Simulator& s0 = engine.shard(0);
      for (int i = 0; i < kBurst; ++i) {
        engine.post(0, 1, s0.now() + kLookahead + nsec(i), [] {});
      }
      pushed.store(true, std::memory_order_release);
    });
    engine.shard(1).schedule_at(t_us(1), [&pushed] {
      while (!pushed.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    engine.run();
    EXPECT_EQ(engine.shard_stats(1).cross_shard_msgs_received,
              static_cast<std::uint64_t>(kBurst));
    return engine.shard_order_hashes();
  };
  EXPECT_EQ(run_once(), run_once());
}

// Both shards post bursts toward each other across several waves, so a
// shard appends to one batch of a channel while its peer drains the other
// batch of the opposite channel.  Under the TSan job this test is the
// regression net for the batches' only guard, the e(r) acquire/release;
// the hash comparison keeps the merge deterministic besides.
TEST(ShardedEngine, BidirectionalBurstWavesStayDeterministic) {
  constexpr int kBurst = 3000;
  constexpr int kWaves = 3;
  auto run_once = [] {
    ShardedEngine engine(2, kLookahead);
    for (std::size_t from = 0; from < 2; ++from) {
      const std::size_t to = 1 - from;
      for (int wave = 0; wave < kWaves; ++wave) {
        engine.shard(from).schedule_at(
            t_us(1 + wave), [&engine, from, to] {
              Simulator& s = engine.shard(from);
              for (int i = 0; i < kBurst; ++i) {
                engine.post(from, to, s.now() + kLookahead + nsec(i),
                            [] {});
              }
            });
      }
    }
    engine.run();
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(engine.shard_stats(r).cross_shard_msgs_received,
                static_cast<std::uint64_t>(kBurst) * kWaves);
    }
    return engine.shard_order_hashes();
  };
  EXPECT_EQ(run_once(), run_once());
}

void hop(ShardedEngine& engine, std::size_t at, int remaining) {
  if (remaining == 0) return;
  const std::size_t next = (at + 1) % engine.shard_count();
  engine.post(at, next, engine.shard(at).now() + kLookahead,
              [&engine, next, remaining] { hop(engine, next, remaining - 1); });
}

// ---- The horizon rule: LBTS + lookahead ----

// Staggered pings with replies: every cross-shard message must land in the
// receiver's future (Simulator::schedule_at throws on a time in the past),
// including an almost-idle shard reacting to a post and replying within
// the round.  The round count pins the horizon rule.
TEST(ShardedEngine, StaggeredRepliesKeepPinnedRounds) {
  ShardedEngine engine(4, kLookahead);
  std::uint64_t replies = 0;
  std::uint64_t* count = &replies;
  // Shard 0 drives: a dense local event train plus pings to every other
  // shard; each target replies, and the reply bumps the count on shard 0.
  for (int i = 0; i < 200; ++i) {
    engine.shard(0).schedule_at(t_us(1.0 + 0.25 * i), [] {});
  }
  for (std::size_t target = 1; target < 4; ++target) {
    const double at = 2.0 + 17.0 * static_cast<double>(target);
    engine.shard(0).schedule_at(t_us(at), [&engine, target, count] {
      Simulator& s0 = engine.shard(0);
      engine.post(0, target, s0.now() + kLookahead, [&engine, target, count] {
        Simulator& st = engine.shard(target);
        engine.post(target, 0, st.now() + kLookahead, [count] { ++*count; });
      });
    });
  }
  engine.run();
  EXPECT_EQ(replies, 3u);
  EXPECT_EQ(engine.lbts_rounds(), 53u);
}

// One shard holds a local event train spaced exactly at the lookahead while
// the other is idle: the horizon advances one lookahead per round, so each
// round runs one event.
TEST(ShardedEngine, LocalEventTrainTakesOneRoundPerEvent) {
  constexpr int kTrain = 40;
  ShardedEngine engine(2, kLookahead);
  for (int i = 0; i < kTrain; ++i) {
    engine.shard(0).schedule_at(t_us(1.0 + static_cast<double>(i)), [] {});
  }
  engine.run();
  EXPECT_EQ(engine.lbts_rounds(), static_cast<std::uint64_t>(kTrain));
}

// ---- One exchange per round ----

// Publishing e(r) once per round must replay the pinned lockstep schedule
// exactly — it changes how shards wait, never what they execute or how
// many rounds it takes.
TEST(ShardedEngine, AsyncMatchesBarrierHashesOnPingPong) {
  const PingPong r = run_ping_pong();
  EXPECT_EQ(r.hashes, kPingPongHashes);
  EXPECT_EQ(r.merged, 0x261e67479f69c99eULL);
  EXPECT_EQ(r.rounds, kPingPongRounds);
}

TEST(ShardedEngine, AsyncIsRepeatableAcrossRuns) {
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(run_ping_pong().hashes, kPingPongHashes) << run;
  }
}

// A 3,000-post burst in one round: the merge must still reproduce the
// pinned lockstep schedule.
TEST(ShardedEngine, AsyncRingOverflowMatchesBarrier) {
  constexpr int kBurst = 3000;
  ShardedEngine engine(2, kLookahead);
  engine.shard(0).schedule_at(t_us(1), [&engine] {
    Simulator& s0 = engine.shard(0);
    for (int i = 0; i < kBurst; ++i) {
      engine.post(0, 1, s0.now() + kLookahead + nsec(i), [] {});
    }
  });
  engine.run();
  EXPECT_EQ(engine.shard_stats(1).cross_shard_msgs_received,
            static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(engine.shard_order_hashes(),
            (std::vector<std::uint64_t>{0x003b7807ae2707d5ULL,
                                        0x3b8be143ea2e32e5ULL}));
  EXPECT_EQ(engine.lbts_rounds(), 4u);
}

TEST(ShardedEngine, AsyncShardFailurePropagatesWithoutDeadlock) {
  ShardedEngine engine(4, kLookahead);
  engine.shard(2).schedule_at(t_us(5), [] {
    throw std::runtime_error("shard 2 exploded");
  });
  // The healthy shards hold far-future events, so without abort polling in
  // the wait they would spin forever on shard 2's e(r).
  for (std::size_t s = 0; s < 4; ++s) {
    if (s == 2) continue;
    engine.shard(s).schedule_at(t_us(1), [] {});
    engine.shard(s).schedule_at(t_us(1000), [] {});
  }
  EXPECT_THROW(engine.run(), std::runtime_error);
}

// One shard has no peers: it reads only the e(r) it published itself, so
// it never waits — the worker degenerates to a plain event loop.
TEST(ShardedEngine, SingleShardNeverWaits) {
  ShardedEngine engine(1, kLookahead);
  std::vector<int> order;
  engine.shard(0).schedule_at(t_us(5), [&] { order.push_back(2); });
  engine.shard(0).schedule_at(t_us(1), [&] { order.push_back(1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.shard_stats(0).blocked_waits, 0u);
}

// A second run() on the same engine synchronizes like a fresh engine: the
// first run's published e(r) slots must not let the second run skip
// rounds, and a post made between runs must be delivered.
TEST(ShardedEngine, SecondRunSynchronizesLikeAFreshEngine) {
  int ran = 0;
  // One local event per shard, 50us apart, plus a cross-shard post made
  // before run(): every event needs its own round.
  const auto schedule_second_run = [&ran](ShardedEngine& engine) {
    for (std::size_t s = 0; s < 4; ++s) {
      engine.shard(s).schedule_at(t_us(100.0 + 50.0 * static_cast<double>(s)),
                                  [&ran] { ++ran; });
    }
    engine.post(0, 1, t_us(175), [&ran] { ++ran; });
  };

  ShardedEngine fresh(4, kLookahead);
  schedule_second_run(fresh);
  fresh.run();
  ASSERT_EQ(ran, 5);
  EXPECT_EQ(fresh.lbts_rounds(), 5u);

  ShardedEngine reused(4, kLookahead);
  seed_ping_pong(reused, 20);
  reused.run();
  const std::uint64_t first_rounds = reused.lbts_rounds();
  ran = 0;
  schedule_second_run(reused);
  reused.run();
  EXPECT_EQ(ran, 5);
  EXPECT_EQ(reused.lbts_rounds() - first_rounds, fresh.lbts_rounds());
}

}  // namespace
}  // namespace nicmcast::sim
