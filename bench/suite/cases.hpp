// One benchmark case = one harness::RunSpec, executed by the suite's own
// copy of the stock runner for its family (src/harness/runners.cpp,
// sharded_runner.cpp).  The copies make the same public calls in the same
// order — so the event-order hash equals harness::run_one(spec)'s — and
// wrap each call in a span:
//
//   setup    net.topology, net.fabric_build, net.faults, gm.cluster,
//            mcast.tree, mcast.group, gm.rx_buffers, mpi.world, gm.spawn
//   sim      Cluster::run, World::run, run_skew_experiment,
//            ShardedFabric::run
//   collect  counter collection, output checks and teardown
//
// Outputs are checked rather than trusted: receivers count their
// deliveries and compare every payload byte against the sender's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/run_spec.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "nic/types.hpp"
#include "sim/event_queue.hpp"
#include "trace.hpp"

namespace nicmcast::suite {

/// sim::ShardedEngine counters of a sharded case (zero for classic ones).
struct ShardCounters {
  std::uint64_t lbts_rounds = 0;
  std::uint64_t horizon_stalls = 0;
  std::uint64_t cross_shard_msgs = 0;
  std::uint64_t channel_spills = 0;
  std::uint64_t blocked_waits = 0;
  std::uint64_t null_msgs_sent = 0;
  std::uint64_t cross_links = 0;
};

struct CaseOutcome {
  std::uint64_t hash = 0;  // event_order_hash (merged, when sharded)
  std::uint64_t deliveries = 0;
  std::uint64_t expected_deliveries = 0;
  bool counts_deliveries = false;  // false: the runner hides its receivers
  bool checks_payload = false;
  std::uint64_t payload_mismatches = 0;
  /// Simulated latency (mean over timed iterations), or the skew family's
  /// average host CPU time in MPI_Bcast; both in simulated microseconds.
  double sim_us = 0.0;
  /// Host time per simulated iteration (µs), see IterationMarks.  Sharded
  /// cases give one sample, their mean; skew cases, whose runner hides its
  /// iterations, give none.
  std::vector<double> iter_us;
  double first_iter_us = 0.0;

  sim::EventQueue::Stats queue;
  nic::NicStats nic;
  net::NetworkStats net;
  net::RouteTableStats routes;
  ShardCounters shard;
};

/// Runs `spec` with spans recorded into `rec`.  `shim` attaches the
/// NicRxShim to every NIC of a classic cluster.  Throws whatever the
/// simulation throws.
[[nodiscard]] CaseOutcome run_case(const harness::RunSpec& spec,
                                   SpanRecorder& rec, bool shim);

}  // namespace nicmcast::suite
