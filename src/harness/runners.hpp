// Stock runners, one per experiment family.
//
// These own the measurement loops the bench/ drivers used to hand-roll:
// build the cluster a RunSpec describes, run the warm-up + timed iterations
// with a zero-cost simulation barrier aligning rounds, and return the
// latency Series plus cluster-wide NIC counters.  `run_one` dispatches on
// RunSpec::experiment; the per-family functions are exposed for benches
// that want to call a specific runner directly.
#pragma once

#include "harness/parallel_runner.hpp"
#include "harness/run_result.hpp"
#include "harness/run_spec.hpp"

namespace nicmcast::gm {
class Cluster;
}  // namespace nicmcast::gm

namespace nicmcast::harness {

/// Adds a finished cluster's counters to `result` (every NIC's NicStats
/// into nic_totals, the event queue and route cache into engine) and
/// records the simulator's event-order hash.  The stock runners end with
/// it; a bench with its own run body calls it the same way, once per
/// cluster.
void collect(gm::Cluster& cluster, RunResult& result);

/// GM-level broadcast over a spanning tree (Fig. 5, tree/loss ablations).
/// Metrics: "delivered" (1 when every payload arrived bit-exact).
[[nodiscard]] RunResult run_gm_mcast(const RunSpec& spec);

/// The NIC data path on the sharded conservative-PDES fabric
/// (net::ShardedFabric); this is what spec.shards > 1 dispatches to.
/// Supports kGmMulticast and kMultisend with the nic-based algo and
/// uniform loss; every other family (the MPI layer, the NIC barrier and
/// reduction), host-based staging and non-uniform faults stay on the
/// classic stack and throw std::invalid_argument.  Metrics: "delivered",
/// "deliveries".  engine.shard_order_hashes carries the per-shard
/// determinism hash vector (DESIGN.md §4.5-4.6).
[[nodiscard]] RunResult run_sharded(const RunSpec& spec);

/// NIC multisend vs host-based multiple unicasts (Fig. 3).  Uses
/// spec.destinations targets; spec.nodes must be destinations + 1.
[[nodiscard]] RunResult run_multisend(const RunSpec& spec);

/// MPI_Bcast latency (Fig. 4; RDMA extension with spec.rdma).
[[nodiscard]] RunResult run_mpi_bcast(const RunSpec& spec);

/// Host CPU time inside MPI_Bcast under process skew (Figs. 6-7).
/// Metrics: "avg_bcast_cpu_us", "max_bcast_cpu_us", "avg_applied_skew_us".
[[nodiscard]] RunResult run_skew_bcast(const RunSpec& spec);

/// MPI_Barrier: wall latency and per-entry blocked time under skew
/// (§7 extension).  The latency Series holds one blocked-time sample per
/// (rank, round); metrics: "wall_us_per_round".
[[nodiscard]] RunResult run_barrier(const RunSpec& spec);

/// Allreduce over int64 lanes, host-level vs NIC-level folding
/// (§7 extension).
[[nodiscard]] RunResult run_allreduce(const RunSpec& spec);

}  // namespace nicmcast::harness
