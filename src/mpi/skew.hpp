// Process-skew experiment harness (paper §6.3, Figures 6 and 7).
//
// All ranks synchronise with a barrier, then every non-root rank draws a
// uniform skew in [-max/2, +max/2]; ranks with a positive draw compute for
// that long before calling MPI_Bcast.  The measured quantity is the average
// host CPU time spent inside the (blocking, polling) MPI_Bcast — with the
// host-based algorithm a delayed intermediate process keeps its whole
// subtree spinning; with the NIC-based multicast the NIC forwards
// regardless of what the host process is doing.
#pragma once

#include <cstdint>

#include "mpi/mpi.hpp"
#include "nic/types.hpp"
#include "sim/event_queue.hpp"

namespace nicmcast::mpi {

struct SkewConfig {
  std::size_t nodes = 16;
  std::size_t message_bytes = 4;
  /// Width M of the uniform skew window [-M/2, +M/2].  The paper's x-axis
  /// plots the average skew; for this distribution the mean applied
  /// (positive-part) skew is M/8 and the mean |skew| is M/4.
  sim::Duration max_skew{0};
  int iterations = 60;
  int warmup = 5;
  int root = 0;
  BcastAlgorithm algorithm = BcastAlgorithm::kNicBased;
  std::uint64_t seed = 7;
};

struct SkewResult {
  /// Mean time inside MPI_Bcast across all ranks and measured iterations.
  double avg_bcast_cpu_us = 0.0;
  /// Mean over ranks of each rank's maximum bcast time (tail behaviour).
  double max_bcast_cpu_us = 0.0;
  /// Mean positive skew actually applied (the x-axis value).
  double avg_applied_skew_us = 0.0;
  /// NIC counters summed over every node (observability for the harness:
  /// sends, forwards, retransmissions under skew).
  nic::NicStats nic_totals;
  /// Event-queue counters and executed-order hash of the internal cluster
  /// simulator, so the harness can surface engine throughput per run.
  sim::EventQueue::Stats queue_stats;
  std::uint64_t event_order_hash = 0;
};

/// Runs the skewed-broadcast loop on `cluster` (whose size overrides
/// config.nodes) and reports the averages; the cluster's own counters stay
/// with the caller.
[[nodiscard]] SkewResult run_skew_experiment(const SkewConfig& config,
                                             gm::Cluster& cluster);

/// Builds the default single-switch cluster of config.nodes, runs the
/// loop on it and reports the averages plus that cluster's counters.
[[nodiscard]] SkewResult run_skew_experiment(const SkewConfig& config);

}  // namespace nicmcast::mpi
