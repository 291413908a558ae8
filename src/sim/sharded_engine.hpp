// Sharded conservative-synchronization PDES engine.
//
// N independent Simulators (one timing wheel, RNG stream, and clock each)
// advance in LBTS rounds on worker threads:
//
//   1. drain   — each shard takes every message its peers sent in earlier
//                rounds, sorts them by (when, src_shard, send_seq), and
//                schedules them locally.  The sort makes local seq
//                assignment — and therefore each shard's event_order_hash —
//                independent of thread timing.
//   2. reduce  — each shard publishes its earliest pending event time m_i
//                and reads every peer's; all of them fold the same values
//                into LBTS = min over shards, and the safe horizon is
//                LBTS + lookahead.
//   3. execute — each shard runs every event strictly BEFORE the horizon
//                (Simulator::run_before).  Cross-shard sends made while
//                executing must carry `when >= sender_now + lookahead`,
//                which post() enforces; combined with events never running
//                before LBTS, every send lands at or past the horizon, so
//                no shard can receive an event in its own past.
//
// The engine terminates when LBTS is +inf (every queue empty and no
// message in flight — each drain takes every message of earlier rounds,
// so emptiness of the queues at the reduce implies emptiness of the
// system).
//
// Synchronization: there is no global barrier.  Shards wait with
// Chandy–Misra–Bryant-style per-channel data-flow waits, so a shard only
// stalls on peers it actually depends on.  The drain batches, reduce
// values and horizons are exactly those of a lockstep three-barrier round,
// so the round count and per-shard hashes equal that schedule's:
//
//   * Every cross-shard message is stamped with the sender's round.  Round
//     stamps are monotone along a FIFO channel, so a peeked message from a
//     newer round certifies the drain batch in progress is fully popped.
//   * Every shard store-releases its completed-round clock at each round
//     boundary, after the round's last push.  In shared memory that clock
//     is a continuously-available null message: an acquire read covering
//     round - 1 certifies the drain batch with no message traffic, and it
//     handles the dominant case of a producer blocked in its own next
//     drain (clock already at round - 1, reduce slot not yet published).
//   * A receiver still blocked after that raises the channel's demand
//     flag; the producer answers — at its round boundaries and from
//     inside its own spin loops, so mutually-blocked shards always unblock
//     each other — with an explicit null message (empty action) stamped
//     with its last completed round.
//   * The reduce is a per-shard atomic (round, value) slot: each shard
//     publishes m_i(r) and reads every peer's slot, computing the
//     identical LBTS and horizon locally.  A slot is released
//     round-tagged, and cannot be overwritten while any reader still needs
//     it: shard j only reaches its round r+1 publish after every peer
//     certified completion of round r, which a peer does only after
//     consuming m_j(r).
//
// Deadlock freedom: order shards by the round they are in; a least-round
// shard's drain only needs peers' previous rounds, which they have all
// completed, so each of those peers either answers its demand flag from a
// spin loop (it is blocked itself), or reaches its next round boundary in
// finitely many events and answers there.  Termination is symmetric: every
// shard computes the same m-vector, so all observe LBTS = kNever at the
// same round and exit together; shard failures trip an abort flag that
// every spin loop polls.
//
// Determinism: with shard count fixed, the executed (when, seq) order of
// every shard is a pure function of the initial events and seeds — the
// drain sort removes the only interleaving-dependent input.  Across
// different shard counts the per-shard hash vector changes (seq values are
// assigned per queue); goldens therefore pin one vector per shard count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/spsc_channel.hpp"
#include "sim/thread_annotations.hpp"
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
    std::uint64_t channel_spills = 0;  // sends that overflowed the ring
    // Null-message protocol counters (timing-dependent, never hashed).
    std::uint64_t null_msgs_sent = 0;      // demand answers this shard sent
    std::uint64_t null_msgs_demanded = 0;  // demand flags this shard raised
    std::uint64_t blocked_waits = 0;       // waits that actually spun
  };

  ShardedEngine(std::size_t shard_count, Duration lookahead,
                std::uint64_t base_seed = 0x9e3779b97f4a7c15ULL)
      : lookahead_(checked_lookahead(lookahead, "lookahead")) {
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
    channels_.resize(shard_count * shard_count);
    for (std::size_t from = 0; from < shard_count; ++from) {
      for (std::size_t to = 0; to < shard_count; ++to) {
        if (from != to) {
          channels_[from * shard_count + to] = std::make_unique<Channel>();
        }
      }
    }
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }
  [[nodiscard]] Simulator& shard(std::size_t i) { return shards_.at(i)->sim; }

  /// Schedules `action` on shard `to` at absolute time `when`.  Same-shard
  /// posts schedule directly; cross-shard posts must respect the lookahead
  /// (when >= sender's now + lookahead, validated > 0 by checked_lookahead)
  /// and travel through the channel matrix.  May only be called from shard
  /// `from`'s worker thread while run() is executing that shard (or from
  /// any thread before run()).
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
    Channel& ch = *channels_[from * shards_.size() + to];
    if (when < sender.sim.now() + lookahead_) {
      throw std::logic_error(
          "ShardedEngine::post: cross-shard send inside the lookahead "
          "window — the conservative horizon would be violated");
    }
    CrossMsg msg;
    msg.when = when;
    msg.seq = ch.send_seq++;
    msg.src = static_cast<std::uint32_t>(from);
    // Round stamp: the drain uses it to cut batch boundaries.  A post made
    // between runs carries the round the last run ended in, which the next
    // run's first drain takes (see run()).
    msg.round = sender.round;
    msg.action = std::move(action);
    ++sender.stats.cross_shard_msgs_sent;
    // post() runs on shard `from`'s worker thread (the method contract
    // above), which is by construction the single producer of this channel.
    RoleGuard produce(ch.ring.producer_role());
    if (!ch.ring.try_push(std::move(msg))) {
      ++sender.stats.channel_spills;
      // Overflow hand-off is mutex-guarded: a producer may spill while the
      // consumer drains.  The spill path is rare by design.
      MutexLock lock(ch.spill_mu);
      ch.spill.push_back(std::move(msg));
    }
  }

  /// Runs every shard to completion.  Worker 0 executes on the calling
  /// thread; shards 1..N-1 get their own threads.  Rethrows the first
  /// shard failure (by shard order) after all workers have stopped; after
  /// a failure the engine's queues and channels are unspecified.
  ///
  /// An engine may run again after a clean run.  Round numbering then
  /// continues: every shard ended the last run in the same round R, every
  /// post made since carries R, and R counts as complete before any worker
  /// starts, so the first drain takes those posts and no stale reduce slot
  /// or round clock can stand in for a round of the new run.
  void run() {
    const std::size_t n = shards_.size();
    errors_.assign(n, nullptr);
    abort_.store(false, std::memory_order_relaxed);
    // Relaxed: thread creation below orders these stores for every worker.
    for (const auto& s : shards_) {
      s->completed.store(s->round, std::memory_order_relaxed);
    }
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
  /// "No null message requested" value of a channel's demand flag.
  static constexpr std::uint64_t kNoDemand = ~std::uint64_t{0};

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
    std::uint64_t seq = 0;   // per-channel send counter: the merge tiebreak
    std::uint32_t src = 0;
    std::uint64_t round = 0;  // sender's round at post time (drain batching)
    EventQueue::Action action;  // empty ⇒ a pure-synchronization null

    [[nodiscard]] bool is_null() const { return !action; }
  };

  struct Channel {
    SpscChannel<CrossMsg> ring{1024};
    // Guards `spill`: a producer may overflow the ring while the consumer
    // drains, so the hand-off vector is mutex-protected (rare path).
    Mutex spill_mu;
    std::vector<CrossMsg> spill NM_GUARDED_BY(spill_mu);  // ring overflow
    // Producer-owned monotone counter; writing it requires the ring's
    // producer role, which pins it to the single pushing thread.
    std::uint64_t send_seq NM_GUARDED_BY(ring.producer_role()){0};
    // Consumer-raised, producer-cleared: the round whose completion the
    // blocked receiver wants certified with a null message.  Release on
    // store / acquire on load so the producer's answer covers everything
    // the consumer published before demanding.
    std::atomic<std::uint64_t> demand{kNoDemand};
  };

  struct Shard {
    explicit Shard(std::uint64_t seed) : sim(seed) {}
    Simulator sim;
    ShardStats stats;
    // Owner-written: the round in progress, stamped onto outbound messages.
    std::uint64_t round = 0;
    // The producer's clock: the last round whose sends are all pushed,
    // store-released after the final push of that round.  Consumers read
    // it (acquire) as drain evidence — in shared memory this published
    // clock is a continuously-available null message, so the explicit
    // demand-null path below only fires when the producer is strictly
    // behind the round the consumer is draining.  Also the newest round a
    // demand null from this shard may certify.
    std::atomic<std::uint64_t> completed{0};
    // Single-slot reduce publication: value stored relaxed, round released
    // after it, so an acquire of m_round >= r sees the round-r value and
    // every channel push that preceded the publish.  One slot suffices —
    // the shard cannot reach its round r+1 publish until every peer has
    // certified round r complete, which a peer does only after consuming
    // m(r) in its own reduce (see the header deadlock/overwrite argument).
    std::atomic<std::int64_t> m_value{0};
    std::atomic<std::uint64_t> m_round{0};
    alignas(64) char pad_[1]{};  // keep shard hot state off shared lines
  };

  /// One shard's round loop.  Phase waits are per-dependency — a channel
  /// drain blocks only until that channel's batch is certified, the reduce
  /// blocks only on peers whose slot has not reached this round yet.
  void worker_loop(std::size_t me) {
    Shard& my = *shards_[me];
    const std::size_t n = shards_.size();
    std::vector<CrossMsg> pending;
    std::vector<TimePoint> mins(n);
    for (std::uint64_t round = my.round + 1;; ++round) {
      my.round = round;
      // ---- Phase 1: drain, per channel, gated on round certification ----
      pending.clear();
      bool aborted = false;
      try {
        for (std::size_t src = 0; src < n; ++src) {
          if (src == me) continue;
          if (!drain_channel(src, me, round, pending)) {
            aborted = true;
            break;
          }
        }
        if (!aborted) merge_and_schedule(me, pending);
      } catch (...) {
        fail(me);
      }
      if (aborted || abort_.load(std::memory_order_relaxed)) break;
      // ---- Phase 2: slot-publish m(round); read every peer's m(round) ----
      const TimePoint local_min =
          my.sim.pending_events() > 0 ? my.sim.next_event_time() : kNever;
      my.m_value.store(local_min.nanoseconds(), std::memory_order_relaxed);
      my.m_round.store(round, std::memory_order_release);
      for (std::size_t j = 0; j < n && !aborted; ++j) {
        if (j == me) {
          mins[j] = local_min;
          continue;
        }
        Shard& peer = *shards_[j];
        if (peer.m_round.load(std::memory_order_acquire) < round) {
          ++my.stats.blocked_waits;
          unsigned spins = 0;
          while (peer.m_round.load(std::memory_order_acquire) < round) {
            if (abort_.load(std::memory_order_relaxed)) {
              aborted = true;
              break;
            }
            answer_demands(me);
            spin_relax(spins);
          }
        }
        if (!aborted) {
          mins[j] = TimePoint{peer.m_value.load(std::memory_order_relaxed)};
        }
      }
      if (aborted) break;
      // Every shard folds the same m-vector into the same LBTS and
      // horizon: all observe the all-idle LBTS at the same round and exit
      // together.
      const TimePoint lbts = *std::min_element(mins.begin(), mins.end());
      if (lbts == kNever) break;
      if (me == 0) ++lbts_rounds_;
      // ---- Phase 3: execute strictly below the safe horizon ----
      try {
        const std::size_t executed = my.sim.run_before(lbts + lookahead_);
        if (executed == 0 && my.sim.pending_events() > 0) {
          ++my.stats.horizon_stalls;
        }
      } catch (...) {
        fail(me);
      }
      // Round complete: every send of this round is pushed.  Release the
      // clock before re-entering the drain — blocked receivers certify off
      // it directly, and any demand raised meanwhile is answered below.
      my.completed.store(round, std::memory_order_release);
      answer_demands(me);
      if (abort_.load(std::memory_order_relaxed)) break;
    }
  }

  /// Drains every message the producer sent during rounds < `round` from
  /// channel src → me into `pending`.  Returns false only when the global
  /// abort flag tripped while waiting.  Completion of the batch is
  /// certified by (a) a peeked or spilled message from a newer round
  /// (stamps are FIFO-monotone), (b) a null message stamped at or past
  /// round - 1, or (c) the producer's completed-round clock reaching
  /// round - 1 (released after its last push of that round, so the acquire
  /// read covers every batch message — and, unlike the reduce slot, it is
  /// published at the round *boundary*, which certifies the common case of
  /// a producer blocked in its own next drain without any null traffic).
  /// While none of those hold the receiver raises the channel's demand
  /// flag and spins — answering its own inbound demands so mutually-
  /// blocked shards make progress.
  bool drain_channel(std::size_t src, std::size_t me, std::uint64_t round,
                     std::vector<CrossMsg>& pending) {
    Shard& my = *shards_[me];
    Channel& ch = *channels_[src * shards_.size() + me];
    // The drain runs on shard `me`'s worker — the channel's one consumer.
    RoleGuard consume(ch.ring.consumer_role());
    const std::uint64_t want = round - 1;  // newest round in this batch
    // Pops every available batch message; true once the batch is certified
    // complete.  Nulls never reach `pending`.
    const auto sweep = [&]() -> bool {
      // Clang's capability analysis treats the lambda as a separate
      // function; re-state the role the enclosing guard holds.
      ch.ring.consumer_role().assert_held();
      while (const CrossMsg* head = ch.ring.try_peek()) {
        if (head->round > want) return true;  // newer round: batch is done
        CrossMsg msg;
        const bool popped = ch.ring.try_pop(msg);
        (void)popped;  // cannot fail: the consumer just peeked this slot
        if (msg.is_null()) {
          // A null stamped `r` certifies every round <= r fully pushed
          // (FIFO: it was pushed after them).  Stale ones — answers to a
          // demand this drain no longer needs — are dropped.
          if (msg.round >= want) return true;
        } else {
          pending.push_back(std::move(msg));
        }
      }
      return false;
    };
    bool demanded = false;
    unsigned spins = 0;
    for (;;) {
      if (sweep()) break;
      if (shards_[src]->completed.load(std::memory_order_acquire) >= want) {
        // Every batch message is already pushed (the clock's release
        // ordered them first); one final sweep collects stragglers the
        // first pass raced.
        sweep();
        break;
      }
      if (abort_.load(std::memory_order_relaxed)) return false;
      if (!demanded) {
        demanded = true;
        ++my.stats.null_msgs_demanded;
        ++my.stats.blocked_waits;
      }
      // Re-asserted every iteration: the producer may have cleared the
      // flag while answering an older demand.
      ch.demand.store(want, std::memory_order_release);
      answer_demands(me);
      spin_relax(spins);
    }
    if (demanded) ch.demand.store(kNoDemand, std::memory_order_release);
    // Spilled messages: lift this batch's rounds out under the spill
    // mutex.  Newer-round spills (the producer ran ahead while its ring
    // was full) stay behind for the next drain.
    {
      MutexLock lock(ch.spill_mu);
      auto keep = ch.spill.begin();
      for (auto it = ch.spill.begin(); it != ch.spill.end(); ++it) {
        if (it->round > want) {
          if (keep != it) *keep = std::move(*it);
          ++keep;
          continue;
        }
        if (!it->is_null()) pending.push_back(std::move(*it));
      }
      ch.spill.erase(keep, ch.spill.end());
    }
    return true;
  }

  /// Producer-side demand service: push a null message certifying this
  /// shard's last completed round on every outbound channel whose consumer
  /// raised a demand it can satisfy.  Called at round boundaries and from
  /// inside every spin loop, so a blocked shard still serves its peers.
  void answer_demands(std::size_t me) {
    Shard& my = *shards_[me];
    // Owner thread: relaxed is enough, the release happened at the store.
    const std::uint64_t completed =
        my.completed.load(std::memory_order_relaxed);
    for (std::size_t to = 0; to < shards_.size(); ++to) {
      if (to == me) continue;
      Channel& ch = *channels_[me * shards_.size() + to];
      const std::uint64_t want = ch.demand.load(std::memory_order_acquire);
      if (want == kNoDemand || completed < want) continue;
      ch.demand.store(kNoDemand, std::memory_order_release);
      CrossMsg null_msg;
      null_msg.when = kNever;
      null_msg.src = static_cast<std::uint32_t>(me);
      null_msg.round = completed;
      // action left empty: a null never schedules anything.
      ++my.stats.null_msgs_sent;
      // answer_demands runs on shard `me`'s worker — the producer of every
      // outbound channel it services.
      RoleGuard produce(ch.ring.producer_role());
      if (!ch.ring.try_push(std::move(null_msg))) {
        ++my.stats.channel_spills;
        MutexLock lock(ch.spill_mu);
        ch.spill.push_back(std::move(null_msg));
      }
    }
  }

  /// The deterministic merge: sort the drained batch by (when, src_shard, send_seq) and schedule, so local seq assignment
  /// never depends on thread timing.
  void merge_and_schedule(std::size_t me, std::vector<CrossMsg>& pending) {
    Shard& my = *shards_[me];
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

  /// Records the shard's failure and trips the abort flag; every spin loop
  /// polls the flag and unwinds.
  void fail(std::size_t me) {
    if (!errors_[me]) errors_[me] = std::current_exception();
    abort_.store(true, std::memory_order_relaxed);
  }

  Duration lookahead_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Channel>> channels_;  // [from * N + to]
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
