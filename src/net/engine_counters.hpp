// Simulation-engine counters of one run, and the one mapping from each
// layer's own counter struct into them.
//
// A counter is declared once, in the struct of the layer that counts it:
// sim::EventQueue::Stats, net::RouteTableStats,
// sim::ShardedEngine::ShardStats (and nic::NicStats, which has its own
// field list in nic/types.hpp).  EngineCounters gathers the engine-side
// ones for a run, and every collector fills it only through the
// accumulate() overloads below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_engine.hpp"

namespace nicmcast::net {

/// What the simulator itself did in one run: event-queue churn, timing
/// wheel, lazy routes and, for sharded runs, the PDES synchronization.
/// Serialised under the bench JSON's "engine" key with one key set for
/// every run (the shard counters are zero/empty on the sequential engine).
struct EngineCounters {
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t heap_actions = 0;   // event callbacks that spilled to heap
  std::uint64_t pool_slots = 0;     // event-queue slot pool high water
  // Timing-wheel scheduler behaviour (sim/timing_wheel.hpp):
  std::uint64_t wheel_occupancy_peak = 0;  // busiest single wheel
  std::uint64_t wheel_cascades = 0;        // coarse buckets cascaded to fine
  std::uint64_t overflow_scheduled = 0;    // schedules beyond coarse horizon
  std::uint64_t overflow_promotions = 0;   // overflow items promoted inward
  std::uint64_t ready_shifts = 0;          // ready items moved by inserts
  // Lazy route-cache behaviour (net::RouteTable):
  std::uint64_t routes_materialized = 0;   // (src, dst) pairs computed
  std::uint64_t route_links_stored = 0;    // LinkIds held across all routes
  // Always 0: routes share no links.  Kept, with its JSON key, while the
  // frozen bench/suite still reads it.
  std::uint64_t route_links_shared = 0;
  std::uint64_t route_links_scanned = 0;   // adjacency entries read on misses
  /// Deterministic FNV fold of the executed (time, seq) event order.  For
  /// sharded runs this is the merged per-shard fold (ShardedEngine::
  /// merged_order_hash); shard_order_hashes below carries the full vector.
  std::uint64_t event_order_hash = 0;
  // Sharded-PDES counters (sim::ShardedEngine); zero/empty when the run
  // used the sequential engine.
  std::uint64_t shard_count = 0;       // 0 = sequential engine
  std::uint64_t cross_shard_msgs = 0;  // timestamped inter-shard messages
  std::uint64_t lbts_rounds = 0;       // LBTS synchronization rounds
  std::uint64_t horizon_stalls = 0;    // shard-rounds that ran zero events
  std::uint64_t cross_links = 0;       // topology links cut by the partition
  std::uint64_t blocked_waits = 0;     // slot reads that spun (timing-
                                       // dependent, never hashed)
  // Always 0: the engine has no ring to spill and sends no null messages.
  // Kept, with their JSON keys, while the frozen bench/suite still reads
  // them.
  std::uint64_t channel_spills = 0;
  std::uint64_t null_msgs_sent = 0;
  std::vector<std::uint64_t> shard_order_hashes;         // per-shard, in order
  std::vector<std::uint64_t> shard_wheel_occupancy_peak; // per-shard wheels
};

/// Adds one event queue's counters: summed, except the occupancy peak,
/// which keeps its sequential meaning (the busiest single wheel).
inline void accumulate(EngineCounters& into, const sim::EventQueue::Stats& q) {
  into.events_scheduled += q.scheduled;
  into.events_executed += q.executed;
  into.events_cancelled += q.cancelled;
  into.heap_actions += q.heap_actions;
  into.pool_slots += q.pool_slots;
  into.wheel_occupancy_peak =
      std::max(into.wheel_occupancy_peak, q.wheel_occupancy_peak);
  into.wheel_cascades += q.wheel_cascades;
  into.overflow_scheduled += q.overflow_scheduled;
  into.overflow_promotions += q.overflow_promotions;
  into.ready_shifts += q.ready_shifts;
}

/// Adds one route table's counters.
inline void accumulate(EngineCounters& into, const RouteTableStats& r) {
  into.routes_materialized += r.routes_materialized;
  into.route_links_stored += r.links_stored;
  into.route_links_shared += r.links_shared;
  into.route_links_scanned += r.links_scanned;
}

/// Adds one shard's synchronization counters.
inline void accumulate(EngineCounters& into,
                       const sim::ShardedEngine::ShardStats& s) {
  into.cross_shard_msgs += s.cross_shard_msgs_sent;
  into.horizon_stalls += s.horizon_stalls;
  into.blocked_waits += s.blocked_waits;
}

}  // namespace nicmcast::net
