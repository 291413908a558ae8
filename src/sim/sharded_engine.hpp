// Sharded conservative-synchronization PDES engine.
//
// N independent Simulators (one timing wheel, RNG stream, and clock each)
// advance in LBTS rounds on worker threads.  Each shard publishes one value
// per round, e(r): the earliest time it may still act.  Round r of shard i:
//
//   1. wait    — acquire-read every shard's e(r-1), its own included.
//                LBTS is their minimum; every shard folds the same values,
//                so all of them see LBTS = +inf (nothing pending, nothing
//                in flight) at the same round and return together.
//   2. drain   — take every message each peer posted to i during round
//                r-1, sort them by (when, src_shard, send_seq), and
//                schedule them locally.  The sort makes local seq
//                assignment — and therefore each shard's event_order_hash —
//                independent of thread timing.
//   3. execute — run every event strictly BEFORE the horizon LBTS +
//                lookahead (Simulator::run_before).  Cross-shard sends must
//                carry `when >= sender_now + lookahead`, which post()
//                enforces; with events never running before LBTS, every
//                send lands at or past the horizon, so no shard can receive
//                an event in its own past.
//   4. publish — e_i(r) = min(next local event, earliest `when` that i
//                posted cross-shard during r): the value stored relaxed,
//                then the round tag r store-released.
//
// Exactness: the acquire of e_j(r-1) happens after every post j made in
// round r-1, so the drained batch is complete.  After the drain every
// pending event is a local event or a round-(r-1) post, so min e(r-1)
// equals the minimum over every shard's queue after its drain: the LBTS a
// lockstep drain/reduce/execute round computes.  Rounds, horizons and the
// merge are that schedule's, and so is every per-shard hash.
//
// Two slots, two batches: e(r) goes to slot[r % 2] and round-r posts to
// batch[r % 2].  Shard j rewrites index r % 2 only in round r+2, after
// its round-(r+2) wait read every peer's e(r+1); a peer publishes e(r+1)
// only after its round-(r+1) wait read e_j(r) and its drain emptied j's
// round-r batch.  So no slot or batch is reused while a reader needs it.
//
// Determinism: with shard count fixed, the executed (when, seq) order of
// every shard is a pure function of the initial events and seeds — the
// drain sort removes the only interleaving-dependent input.  Across
// different shard counts the per-shard hash vector changes (seq values are
// assigned per queue); goldens therefore pin one vector per shard count.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace nicmcast::sim {

class ShardedEngine {
 public:
  /// Sentinel "no pending work" LBTS contribution.
  static constexpr TimePoint kNever{std::numeric_limits<std::int64_t>::max()};

  /// Per-shard synchronization counters, reported through RunResult.
  struct ShardStats {
    std::uint64_t cross_shard_msgs_sent = 0;
    std::uint64_t cross_shard_msgs_received = 0;
    std::uint64_t horizon_stalls = 0;  // rounds this shard ran zero events
    // Slot reads that spun: timing-dependent, never hashed.
    std::uint64_t blocked_waits = 0;
  };

  ShardedEngine(std::size_t shard_count, Duration lookahead,
                std::uint64_t base_seed = 0x9e3779b97f4a7c15ULL)
      : lookahead_(checked_lookahead(lookahead, "lookahead")),
        channels_(shard_count * shard_count) {
    if (shard_count == 0) {
      throw std::invalid_argument("ShardedEngine: shard_count must be >= 1");
    }
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
      // Distinct odd seeds per shard: each wheel owns an independent
      // deterministic RNG stream, as the determinism contract requires.
      shards_.push_back(std::make_unique<Shard>(
          base_seed + 0x2545f4914f6cdd1dULL * (i + 1)));
    }
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }
  [[nodiscard]] Simulator& shard(std::size_t i) { return shards_.at(i)->sim; }

  /// Schedules `action` on shard `to` at absolute time `when`.  Same-shard
  /// posts schedule directly; cross-shard posts must respect the lookahead
  /// (when >= sender's now + lookahead, validated > 0 by checked_lookahead)
  /// and wait in the channel's batch for the receiver's next drain.  May
  /// only be called from shard `from`'s worker thread while run() is
  /// executing that shard (or from any thread before run()).
  void post(std::size_t from, std::size_t to, TimePoint when,
            EventQueue::Action action) {
    if (from >= shards_.size() || to >= shards_.size()) {
      throw std::out_of_range("ShardedEngine::post: bad shard index");
    }
    if (from == to) {
      shards_[to]->sim.schedule_at(when, std::move(action));
      return;
    }
    Shard& sender = *shards_[from];
    if (when < sender.sim.now() + lookahead_) {
      throw std::logic_error(
          "ShardedEngine::post: cross-shard send inside the lookahead "
          "window — the conservative horizon would be violated");
    }
    Channel& ch = channel(from, to);
    // A post made between runs joins the round the last run ended in,
    // which the next run's first drain takes (see run()).
    ch.batch[sender.round % 2].msgs.push_back(
        CrossMsg{when, ch.send_seq++, static_cast<std::uint32_t>(from),
                 std::move(action)});
    sender.min_posted = std::min(sender.min_posted, when);
    ++sender.stats.cross_shard_msgs_sent;
  }

  /// Runs every shard to completion.  Worker 0 executes on the calling
  /// thread; shards 1..N-1 get their own threads.  Rethrows the first
  /// shard failure (by shard order) after all workers have stopped; after
  /// a failure the engine's queues and channels are unspecified.
  ///
  /// An engine may run again after a clean run.  Round numbering then
  /// continues: every shard ended the last run in the same round R and
  /// every post made since joined round R's batches.  Each shard's e(R) is
  /// published here, before any worker starts, so the first wait covers
  /// those posts and the first drain takes them.
  void run() {
    const std::size_t n = shards_.size();
    errors_.assign(n, nullptr);
    abort_.store(false, std::memory_order_relaxed);
    // Thread creation below orders these stores for every worker.
    for (const auto& s : shards_) publish(*s);
    {
      std::vector<std::jthread> workers;
      workers.reserve(n - 1);
      for (std::size_t i = 1; i < n; ++i) {
        workers.emplace_back([this, i] { worker_loop(i); });
      }
      worker_loop(0);
    }  // jthreads join here
    for (std::size_t i = 0; i < n; ++i) {
      if (errors_[i]) std::rethrow_exception(errors_[i]);
    }
  }

  [[nodiscard]] std::uint64_t lbts_rounds() const { return lbts_rounds_; }

  [[nodiscard]] const ShardStats& shard_stats(std::size_t i) const {
    return shards_.at(i)->stats;
  }

  /// The per-shard determinism contract: each shard's executed-order hash,
  /// in shard order.  Goldens pin this vector per (scenario, shard count).
  [[nodiscard]] std::vector<std::uint64_t> shard_order_hashes() const {
    std::vector<std::uint64_t> hashes;
    hashes.reserve(shards_.size());
    for (const auto& s : shards_) {
      hashes.push_back(s->sim.event_order_hash());
    }
    return hashes;
  }

  /// FNV-1a fold of the per-shard hashes in shard order — one pinnable
  /// value for bench JSON, same construction as EventQueue::order_hash.
  [[nodiscard]] std::uint64_t merged_order_hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& s : shards_) {
      std::uint64_t v = s->sim.event_order_hash();
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (byte * 8)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  }

 private:
  /// The constructor's lookahead guard: a non-positive lookahead collapses
  /// the safe horizon onto LBTS itself and conservative PDES cannot
  /// guarantee progress.
  static Duration checked_lookahead(Duration la, const char* what) {
    if (la <= Duration{0}) {
      throw std::invalid_argument(std::string("ShardedEngine: ") + what +
                                  " must be > 0");
    }
    return la;
  }

  struct CrossMsg {
    TimePoint when{0};
    std::uint64_t seq = 0;  // per-channel send counter: the merge tiebreak
    std::uint32_t src = 0;
    EventQueue::Action action;
  };

  /// One ordered shard pair.  The sender appends its round-r posts to
  /// batch[r % 2]; the receiver drains that batch in round r+1 while the
  /// sender fills the other one, so the two sit on separate cache lines.
  struct Channel {
    struct alignas(64) Batch {
      std::vector<CrossMsg> msgs;
    };
    std::array<Batch, 2> batch;
    std::uint64_t send_seq = 0;  // sender-owned
  };

  /// Where a shard publishes e(r): slot[r % 2].  e_ns is stored relaxed,
  /// then e_round is store-released, so an acquire of e_round == r sees
  /// e(r) and every post the shard made before it.
  struct PublishSlot {
    std::atomic<std::int64_t> e_ns{0};
    std::atomic<std::uint64_t> e_round{0};
  };

  struct Shard {
    explicit Shard(std::uint64_t seed) : sim(seed) {}
    Simulator sim;
    ShardStats stats;
    // Owner-written: the round in progress, which picks post()'s batch.
    std::uint64_t round = 0;
    // Owner-written: the earliest cross-shard post since the last publish.
    TimePoint min_posted = kNever;
    // Every peer reads these each round: keep them off the owner's hot
    // lines.
    alignas(64) std::array<PublishSlot, 2> slot;
  };

  Channel& channel(std::size_t from, std::size_t to) {
    return channels_[from * shards_.size() + to];
  }

  /// Step 4: publish e(s.round) and start the next round's post minimum.
  void publish(Shard& s) {
    const TimePoint next_local =
        s.sim.pending_events() > 0 ? s.sim.next_event_time() : kNever;
    PublishSlot& out = s.slot[s.round % 2];
    out.e_ns.store(std::min(next_local, s.min_posted).nanoseconds(),
                   std::memory_order_relaxed);
    out.e_round.store(s.round, std::memory_order_release);
    s.min_posted = kNever;
  }

  /// One shard's round loop (the four steps of the header comment).
  void worker_loop(std::size_t me) {
    Shard& my = *shards_[me];
    std::vector<CrossMsg> pending;
    for (std::uint64_t round = my.round + 1;; ++round) {
      my.round = round;
      const std::uint64_t prev = round - 1;
      // ---- 1. wait: LBTS = min over every shard's e(round - 1) ----
      TimePoint lbts = kNever;
      for (const auto& s : shards_) {
        const PublishSlot& in = s->slot[prev % 2];
        if (in.e_round.load(std::memory_order_acquire) != prev) {
          ++my.stats.blocked_waits;
          unsigned spins = 0;
          while (in.e_round.load(std::memory_order_acquire) != prev &&
                 !abort_.load(std::memory_order_relaxed)) {
            spin_relax(spins);
          }
        }
        lbts = std::min(
            lbts, TimePoint{in.e_ns.load(std::memory_order_relaxed)});
      }
      if (abort_.load(std::memory_order_relaxed) || lbts == kNever) break;
      if (me == 0) ++lbts_rounds_;
      try {
        // ---- 2. drain round - 1's posts; 3. execute below the horizon ----
        drain(me, prev % 2, pending);
        const std::size_t executed = my.sim.run_before(lbts + lookahead_);
        if (executed == 0 && my.sim.pending_events() > 0) {
          ++my.stats.horizon_stalls;
        }
      } catch (...) {
        fail(me);
        break;
      }
      // ---- 4. publish e(round) ----
      publish(my);
    }
  }

  /// Moves batch `parity` of every channel into `me`, then schedules the
  /// messages in (when, src_shard, send_seq) order, so local seq
  /// assignment never depends on thread timing.  clear() keeps each
  /// batch's capacity for the sender's next use.
  void drain(std::size_t me, std::size_t parity,
             std::vector<CrossMsg>& pending) {
    Shard& my = *shards_[me];
    pending.clear();
    for (std::size_t src = 0; src < shards_.size(); ++src) {
      if (src == me) continue;
      std::vector<CrossMsg>& msgs = channel(src, me).batch[parity].msgs;
      std::move(msgs.begin(), msgs.end(), std::back_inserter(pending));
      msgs.clear();
    }
    std::sort(pending.begin(), pending.end(),
              [](const CrossMsg& a, const CrossMsg& b) {
                if (a.when != b.when) return a.when < b.when;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    my.stats.cross_shard_msgs_received += pending.size();
    for (CrossMsg& msg : pending) {
      my.sim.schedule_at(msg.when, std::move(msg.action));
    }
  }

  /// One spin-wait step: a pause-class hint while the wait is short, a
  /// scheduler yield once it is clearly not (CI runs more shards than
  /// cores; a pure busy spin would starve the peer being waited on).
  static void spin_relax(unsigned& spins) {
    if (++spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#else
      std::this_thread::yield();
#endif
    } else {
      spins = 0;
      std::this_thread::yield();
    }
  }

  /// Records the shard's failure and trips the abort flag; every wait
  /// polls the flag and unwinds.
  void fail(std::size_t me) {
    if (!errors_[me]) errors_[me] = std::current_exception();
    abort_.store(true, std::memory_order_relaxed);
  }

  Duration lookahead_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Channel> channels_;  // [from * N + to]; diagonal unused
  // Indexed by shard; each slot written only by its own worker (fail()),
  // read after the workers joined.
  std::vector<std::exception_ptr> errors_;
  // Monotone false→true flag.  All accesses relaxed: readers act on it
  // only to stop early, and the join at the end of run()
  // provides the ordering for everything written before the abort.
  std::atomic<bool> abort_{false};
  std::uint64_t lbts_rounds_ = 0;
};

}  // namespace nicmcast::sim
