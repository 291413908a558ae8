// The outcome of one executed RunSpec.
//
// Carries the per-iteration latency Series, the cluster-wide aggregated
// NIC counters (observability: sends, forwards, retransmissions, drops),
// and a small ordered map of experiment-specific scalar metrics (CPU time
// under skew, bandwidth, delivery flags, ...).
#pragma once

#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/run_spec.hpp"
#include "nic/types.hpp"
#include "sim/stats.hpp"

namespace nicmcast::harness {

/// Simulation-engine memory/throughput counters for one run.  These sit
/// beside (not inside) the protocol-level NicStats because they describe
/// the simulator's own hot paths: event-queue churn, descriptor pooling,
/// payload copies avoided by net::Buffer sharing.  Serialised under the
/// separate "engine" key so pre-existing JSON fields stay byte-stable.
struct EngineCounters {
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t heap_actions = 0;   // event callbacks that spilled to heap
  std::uint64_t pool_slots = 0;     // event-queue slot pool high water
  std::uint64_t descriptor_allocs = 0;
  std::uint64_t descriptor_reuses = 0;
  std::uint64_t payload_bytes_copied = 0;
  std::uint64_t payload_refs = 0;
  // Timing-wheel scheduler behaviour (sim/timing_wheel.hpp):
  std::uint64_t wheel_occupancy_peak = 0;  // high-water live pending events
  std::uint64_t wheel_cascades = 0;        // coarse buckets cascaded to fine
  std::uint64_t overflow_scheduled = 0;    // schedules beyond coarse horizon
  std::uint64_t overflow_promotions = 0;   // overflow items promoted inward
  // Lazy route-cache behaviour (net::RouteTable):
  std::uint64_t routes_materialized = 0;   // (src, dst) pairs computed
  std::uint64_t route_links_stored = 0;    // LinkIds held across arenas
  std::uint64_t route_links_shared = 0;    // LinkIds reused via interning
  /// Deterministic FNV fold of the executed (time, seq) event order.  For
  /// sharded runs this is the merged per-shard fold (ShardedEngine::
  /// merged_order_hash); shard_order_hashes below carries the full vector.
  std::uint64_t event_order_hash = 0;
  // Sharded-PDES counters (sim::ShardedEngine); all zero/empty when the
  // run used the sequential engine, so pre-existing JSON stays stable.
  std::uint64_t shard_count = 0;       // 0 = sequential engine
  std::uint64_t cross_shard_msgs = 0;  // timestamped inter-shard messages
  std::uint64_t lbts_rounds = 0;       // LBTS synchronization rounds
  std::uint64_t horizon_stalls = 0;    // shard-rounds that ran zero events
  std::uint64_t channel_spills = 0;    // SPSC ring overflows to spill vector
  std::uint64_t cross_links = 0;       // topology links cut by the partition
  // Null-message protocol counters (timing-dependent, never hashed).
  std::uint64_t null_msgs_sent = 0;      // demand-answer null messages
  std::uint64_t null_msgs_demanded = 0;  // receiver demand flags raised
  std::uint64_t blocked_waits = 0;       // waits that actually spun
  std::vector<std::uint64_t> shard_order_hashes;         // per-shard, in order
  std::vector<std::uint64_t> shard_wheel_occupancy_peak; // per-shard wheels
};

struct RunResult {
  RunSpec spec;
  /// One sample per measured iteration (simulated microseconds); empty for
  /// experiments that only report aggregate metrics.
  sim::Series latency_us;
  /// NicStats summed over every NIC in the cluster.
  nic::NicStats nic_totals;
  /// Simulator memory-model counters (see EngineCounters).
  EngineCounters engine;
  /// Named scalar metrics, in insertion order (stable JSON output).
  std::vector<std::pair<std::string, double>> metrics;

  [[nodiscard]] double mean_us() const { return latency_us.mean(); }

  void set_metric(std::string_view name, double value) {
    for (auto& [key, val] : metrics) {
      if (key == name) {
        val = value;
        return;
      }
    }
    metrics.emplace_back(std::string(name), value);
  }

  [[nodiscard]] double metric(std::string_view name,
                              double fallback = std::nan("")) const {
    for (const auto& [key, val] : metrics) {
      if (key == name) return val;
    }
    return fallback;
  }
};

}  // namespace nicmcast::harness
