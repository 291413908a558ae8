// NIC-timing-faithful experiment fabric on the sharded PDES engine.
//
// The coroutine-based gm::Cluster stack is single-threaded by construction
// (shared closures, one global Network); what runs sharded is the NIC data
// path of two experiment families — NIC-based multicast and flat multisend
// — with injection/forward/ack/retransmit timing from nic::NicConfig,
// wormhole link contention from net::NetworkConfig and per-edge
// Go-back-N, expressed as shard-local state so the fabric parallelises:
//
//   - every tree node, link, and per-edge ARQ record is owned by exactly
//     one shard (net::switch_cut), and only that shard's worker touches it;
//   - packets crossing a shard boundary become ShardedEngine::post calls,
//     legal because every hand-off lies at least one hop_latency ahead;
//   - wormhole cut-through is net::reserve_links applied per owner-maximal
//     route segment: at shards=1 the single segment is Network::transmit's
//     reservation by construction, at shards>1 a stalled boundary simply
//     does not retro-extend upstream reservations (a slightly optimistic
//     upstream release; DESIGN.md §4.5);
//   - loss is decided by a counter hash of (seed, edge, iter, attempt) and
//     applied at the receiver like a CRC drop, so drop/retransmit counts —
//     and therefore total deliveries — are invariant across shard counts.
//
// The host layers (MPI_Bcast, process skew, the NIC barrier) exist only in
// mpi and nic, which do not run on the shards yet (ROADMAP.md item 5).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "net/engine_counters.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "nic/config.hpp"
#include "nic/packet_descriptor.hpp"
#include "nic/types.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"

namespace nicmcast::net {

/// A multicast spanning tree in flat arrays (65536 endpoints = 128k ids;
/// the unordered_map-based mcast::Tree is for protocol code, this is for
/// the data path).  Child order is meaningful: replicas to children are
/// serialised in this order, exactly like the GM send-record chain.
struct FabricTree {
  static constexpr NodeId kNoParent = std::numeric_limits<NodeId>::max();

  NodeId root = 0;
  std::vector<NodeId> parent;           // kNoParent at the root
  std::vector<std::uint32_t> child_off; // node -> first child; size n+1
  std::vector<NodeId> children;         // flattened child lists

  [[nodiscard]] std::size_t size() const { return parent.size(); }
  [[nodiscard]] std::size_t child_count(NodeId n) const {
    return child_off[n + 1u] - child_off[n];
  }
  [[nodiscard]] NodeId child(NodeId n, std::size_t slot) const {
    return children[child_off[n] + slot];
  }
};

/// Which NIC data path the fabric runs.  Both share the shard-local
/// link/route/descriptor machinery; they differ in who sends and what
/// completion means.
enum class FabricWorkload : std::uint8_t {
  /// Root multicasts down the tree each iteration; NICs forward; latency
  /// is the last host delivery (the original PR 6 fabric — its event
  /// schedule is pinned by goldens and must not change).
  kMcast,
  /// Flat NIC-based multisend: the tree must be a star (every endpoint a
  /// direct child of the root).  Completion is sender-side — the last
  /// Go-back-N ack landing back at the root, plus host event delivery —
  /// exactly what the paper's Figure 3 measures.
  kMultisend,
};

[[nodiscard]] constexpr const char* to_string(FabricWorkload w) {
  switch (w) {
    case FabricWorkload::kMcast: return "mcast";
    case FabricWorkload::kMultisend: return "multisend";
  }
  return "?";
}

struct FabricOptions {
  FabricWorkload workload = FabricWorkload::kMcast;
  std::size_t message_bytes = 512;
  int warmup = 1;
  int iterations = 2;
  double loss_rate = 0.0;
  /// Ignored; goes away at the next benchmark revision (bench/suite sets it).
  double avg_skew_us = 0.0;
  /// Ignored; goes away at the next benchmark revision (bench/suite sets it).
  bool batch_horizons = false;
  /// Ignored; goes away at the next benchmark revision (bench/suite sets it).
  bool async_sync = false;
  std::uint64_t seed = 1;
  nic::NicConfig nic;
};

/// Everything the harness folds into a RunResult.  The engine counters are
/// the inherited EngineCounters, aggregated over shards.
struct FabricResult : EngineCounters {
  std::vector<double> latency_us;          // timed iterations only
  nic::NicStats nic_totals;
  std::uint64_t deliveries = 0;            // first deliveries, all iters

  /// Equals event_order_hash; bench/suite reads it.  Goes away at the next
  /// benchmark revision.
  std::uint64_t merged_order_hash = 0;
};

class ShardedFabric {
 public:
  ShardedFabric(Topology topology, FabricTree tree, FabricOptions options,
                std::size_t shards);

  /// Runs warmup + timed iterations to completion and collects the result.
  /// Deterministic for a fixed (options, shards); throws when any edge
  /// exhausts nic.max_retries.
  FabricResult run();

 private:
  struct ShardState {
    explicit ShardState(const Topology& topology) : routes(topology) {}
    RouteTable routes;            // per-shard lazy cache over the topology
    nic::DescriptorPool pool;     // shard-local descriptor recycling
    nic::NicStats nic;
    std::uint64_t deliveries = 0;
  };

  /// Go-back-N record for the tree edge parent->child, stored at the
  /// child's index and owned by the parent's shard.
  struct EdgeState {
    std::optional<sim::EventId> timer;
    std::uint32_t attempt = 0;
    std::int32_t iter = -1;
  };

  [[nodiscard]] std::uint32_t shard_of(NodeId n) const {
    return partition_.vertex_shard[n];
  }
  [[nodiscard]] sim::Simulator& sim_of(std::uint32_t shard) {
    return engine_->shard(shard);
  }
  [[nodiscard]] bool dropped(NodeId child, std::int32_t iter,
                             std::uint32_t attempt) const;

  void start_iteration(std::int32_t iter) NM_REQUIRES(controller_role_);
  /// Schedules one data train per child of `node`, the first at `inject`
  /// and each further replica a header rewrite plus a serialisation later
  /// (the GM send-record chain), on `node`'s shard.
  void fan_out(NodeId node, std::int32_t iter, sim::TimePoint inject);
  /// Injects the data train for edge parent->child at `inject` (an absolute
  /// time on the parent's shard clock) and arms the retransmit timer.
  void send_data(NodeId from, NodeId to, std::int32_t iter,
                 std::uint32_t attempt, sim::TimePoint inject);
  /// Wormhole traversal of the owner-maximal route segment starting at
  /// link index `seg`, with virtual injection instant `inject`.  `owner`
  /// is the executing shard (= link_owner of route link `seg`); it is
  /// passed in because deriving it would need a route lookup in some other
  /// shard's table.
  void continue_segment(std::uint32_t owner, NodeId from, NodeId to,
                        std::size_t seg, sim::TimePoint inject,
                        std::int32_t iter, std::uint32_t attempt);
  void deliver(NodeId from, NodeId to, std::int32_t iter,
               std::uint32_t attempt, Buffer payload);
  void send_ack(NodeId from, NodeId to, std::int32_t iter);
  void ack_arrived(NodeId parent, NodeId child, std::int32_t iter);
  void retransmit(NodeId from, NodeId to, std::int32_t iter);
  void notify_controller(sim::TimePoint host_time)
      NM_REQUIRES(controller_role_);
  /// kMultisend: a root->child ack landed; executes on the root's shard
  /// (the star tree makes every ack's parent the root).
  void multisend_ack_completed(std::int32_t iter)
      NM_REQUIRES(controller_role_);

  [[nodiscard]] std::size_t packets_per_message() const;
  [[nodiscard]] std::size_t train_wire_bytes() const;

  Topology topology_;
  FabricTree tree_;
  FabricOptions options_;
  FabricPartition partition_;
  std::unique_ptr<sim::ShardedEngine> engine_;
  std::vector<std::unique_ptr<ShardState>> shards_;

  // The one message block every delivery slices (GM zero-copy): slices of
  // it cross shard boundaries inside posted closures, which is exactly the
  // traffic the atomic Buffer refcount exists for.
  Buffer payload_;

  // Node/link state: every element is touched by exactly one shard's
  // worker (the owner), which is what makes the fabric race-free.
  std::vector<sim::TimePoint> link_free_;     // owner(link) only
  std::vector<std::int32_t> received_iter_;   // owner(node) only
  std::vector<EdgeState> edges_;              // owner(parent(node)) only

  // Controller state: root's shard only.  The phantom controller role
  // (thread_annotations.hpp) makes that ownership checkable — closures
  // posted to the root's shard assert it, run() claims it before the
  // workers start and after they join, and any new code path touching
  // these members without either is a -Wthread-safety error in Clang CI.
  sim::Role controller_role_;
  std::int32_t ctrl_iter_ NM_GUARDED_BY(controller_role_) = 0;
  std::size_t ctrl_remaining_ NM_GUARDED_BY(controller_role_) = 0;
  sim::TimePoint ctrl_iter_start_ NM_GUARDED_BY(controller_role_){0};
  sim::TimePoint ctrl_last_delivery_ NM_GUARDED_BY(controller_role_){0};
  std::vector<double> latency_us_ NM_GUARDED_BY(controller_role_);
};

}  // namespace nicmcast::net
