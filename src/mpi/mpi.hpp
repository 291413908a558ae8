// Mini-MPI over the GM layer — the MPICH-GM analogue the paper modified.
//
// Protocols, mirroring MPICH-GM 1.2.4..8a:
//  * eager for messages <= 16287 bytes (copied through preposted GM
//    buffers),
//  * rendezvous (RTS/CTS + bulk transfer into an exact-size buffer) above,
//  * broadcast: the traditional host-based binomial algorithm, or the
//    paper's NIC-based multicast with demand-driven group creation — the
//    first broadcast per (communicator, root) builds the optimal tree at
//    the root's host, distributes per-member NIC group-table entries, and
//    every later broadcast is a single NIC multicast (eager sizes only;
//    larger broadcasts fall back to the host-based path, paper §5).
//
// Each rank is a simulated process; all blocking calls are coroutines.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gm/cluster.hpp"
#include "gm/port.hpp"
#include "mcast/postal_tree.hpp"
#include "mcast/tree.hpp"
#include "mpi/comm.hpp"
#include "mpi/envelope.hpp"

namespace nicmcast::mpi {

using gm::Payload;

enum class BcastAlgorithm : std::uint8_t {
  kHostBased,  // binomial tree of eager point-to-point sends
  kNicBased,   // NIC-based multicast over a preposted optimal tree
};

enum class BarrierAlgorithm : std::uint8_t {
  kDissemination,  // classic host-level log-round exchange
  kNicBased,       // NIC-level gather/release over the group tree (ext.)
};

/// Largest eager-mode message (paper §6.2: 16287 bytes), and the capacity
/// of every preposted eager receive buffer.
inline constexpr std::size_t kEagerLimit = 16287;
/// Preposted eager receive buffers per process (replenished on use).
inline constexpr std::size_t kEagerBuffers = 32;
/// Host memcpy bandwidth for eager-mode copies between the user buffer and
/// the pre-registered GM bounce buffers.  This is what makes the MPI-level
/// latency exceed the GM level, and causes the paper's dip at the
/// 16287-byte eager limit ("the larger cost of copying the data to their
/// final locations", §6.2).  Rendezvous transfers land directly (RDMA) and
/// pay no copy.  ~Pentium-III class memory bandwidth.
inline constexpr double kHostCopyMbps = 700.0;
/// Fixed host cost per MPI call (queue search, envelope handling).
inline constexpr sim::Duration kCallOverhead = sim::usec(0.3);

struct MpiConfig {
  BcastAlgorithm bcast_algorithm = BcastAlgorithm::kNicBased;
  BarrierAlgorithm barrier_algorithm = BarrierAlgorithm::kDissemination;
  /// Extension (paper §7): serve >kEagerLimit broadcasts with the NIC
  /// multicast too — an announce/ready handshake posts exact-size landing
  /// buffers (the RDMA targets) at every member, then the payload streams
  /// down the tree with per-packet NIC forwarding and no host copies.
  /// Off by default: the paper's modified MPICH-GM kept the rendezvous
  /// host path above the eager limit.
  bool rdma_multicast = false;
  /// Extension (paper §7 / "NIC-Based Reduction in Myrinet Clusters"):
  /// fold Allreduce contributions in NIC firmware on the way up the tree
  /// instead of at the hosts.  Beneficial for small vectors (the LANai
  /// combines slowly), exactly as that companion paper found.
  bool nic_reduction = false;
};

struct ProcessStats {
  std::uint64_t sends = 0;
  std::uint64_t receives = 0;
  std::uint64_t bcasts = 0;
  std::uint64_t barriers = 0;
  std::uint64_t groups_created = 0;
  /// Simulated time spent blocked inside MPI_Bcast (the paper's "host CPU
  /// time": with a polling blocking implementation, wall time in the call
  /// is CPU time).
  sim::Duration bcast_cpu_time{0};
  /// Duration of the most recent broadcast call.
  sim::Duration last_bcast_time{0};
};

class World;

/// One MPI rank.  All blocking operations must be called from this rank's
/// simulated process, one at a time (MPI serialises calls per rank).
class Process {
 public:
  Process(World& world, gm::Port& port);
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] int rank() const;
  [[nodiscard]] int size() const;
  [[nodiscard]] const Comm& world_comm() const;
  [[nodiscard]] const ProcessStats& stats() const { return stats_; }
  [[nodiscard]] gm::Port& port() { return port_; }
  [[nodiscard]] sim::Simulator& simulator() { return port_.simulator(); }

  /// Blocking standard-mode send (eager or rendezvous by size).
  sim::Task<void> send(int dest, std::uint16_t tag, Payload data);
  sim::Task<void> send(const Comm& comm, int dest, std::uint16_t tag,
                       Payload data);

  /// Blocking receive matching (source rank, tag).
  sim::Task<Payload> recv(int src, std::uint16_t tag);
  sim::Task<Payload> recv(const Comm& comm, int src, std::uint16_t tag);

  /// Barrier (dissemination or NIC-level per MpiConfig).
  sim::Task<void> barrier();
  sim::Task<void> barrier(const Comm& comm);
  sim::Task<void> barrier(const Comm& comm, BarrierAlgorithm algorithm);

  /// Broadcast.  MPI semantics: every rank passes a buffer of the SAME
  /// size (the protocol choice depends on it); the root's contents are
  /// written into everyone else's buffer.
  sim::Task<void> bcast(Payload& data, int root);
  sim::Task<void> bcast(const Comm& comm, Payload& data, int root);
  /// Broadcast with an explicit algorithm (benchmarks compare both).
  sim::Task<void> bcast(const Comm& comm, Payload& data, int root,
                        BcastAlgorithm algorithm);

  /// Allreduce (sum of int64 vectors) — future-work collective built on
  /// the NIC multicast: reduce up the tree, NIC-broadcast down.
  sim::Task<std::vector<std::int64_t>> allreduce_sum(
      const Comm& comm, std::vector<std::int64_t> contribution);

  /// All-to-all broadcast (MPI_Allgather) — the paper's other §7
  /// future-work collective: every rank's block reaches every rank, each
  /// block travelling down its root's NIC-multicast tree.  All blocks must
  /// have the same size.  Returns the blocks indexed by rank.
  sim::Task<std::vector<Payload>> allgather(const Comm& comm, Payload mine);

 private:
  friend class World;

  struct Matched {
    Envelope envelope;
    net::NodeId src_node = 0;
    net::GroupId group = net::kNoGroup;
    Payload data;
  };
  using Predicate = std::function<bool(const Matched&)>;

  /// Core matching loop: consults the unexpected queue, then pumps the GM
  /// port.  Broadcast-setup control messages are handled transparently
  /// whenever the process is inside any MPI call.
  sim::Task<Matched> match(Predicate predicate);
  /// Charges host CPU: the per-call overhead plus an eager-mode copy of
  /// `copy_bytes` through the bounce buffers.
  sim::Task<void> charge_host(std::size_t copy_bytes);
  void handle_setup(const Matched& msg);
  sim::Task<void> eager_send(const Comm& comm, int dest, Envelope env,
                             Payload data);
  sim::Task<void> rendezvous_send(const Comm& comm, int dest, Envelope env,
                                  Payload data);
  sim::Task<void> barrier_dissemination(const Comm& comm);
  sim::Task<void> barrier_nic(const Comm& comm);
  /// Receives one message from `peer` under (comm, tag): eager, or a
  /// rendezvous answered with a CTS and an exact-size landing buffer.
  sim::Task<Payload> receive_from(const Comm& comm, net::NodeId peer,
                                  std::uint16_t tag);
  /// Awaits one `kind` reply under (comm, tag) from every other member.
  sim::Task<void> gather_replies(const Comm& comm, Kind kind,
                                 std::uint16_t tag);
  /// The (comm, root 0) NIC group the NIC barrier and reduction run over,
  /// installed on first use.
  sim::Task<net::GroupId> nic_tree(const Comm& comm);
  sim::Task<void> bcast_host_based(const Comm& comm, Payload& data, int root,
                                   std::uint16_t tag);
  sim::Task<void> bcast_nic_based(const Comm& comm, Payload& data, int root,
                                  std::uint16_t tag);
  sim::Task<void> bcast_nic_rdma(const Comm& comm, Payload& data, int root,
                                 std::uint16_t tag);
  /// Demand-driven creation of the (comm, root) multicast group; no-op if
  /// already installed on this rank.  Root side distributes the tree and
  /// waits for acks; members install via setup messages inside match().
  sim::Task<void> ensure_group(const Comm& comm, int root,
                               std::size_t tree_hint_bytes);
  void replenish_eager_buffer();
  [[nodiscard]] net::GroupId group_for(const Comm& comm, int root) const;

  World& world_;
  gm::Port& port_;
  std::deque<Matched> unexpected_;
  // Per-(context, peer-kind) sequence counters for barrier/bcast matching.
  std::unordered_map<std::uint32_t, std::uint16_t> op_seq_;
  // Groups this rank has installed (demand-driven creation).
  std::unordered_set<net::GroupId> installed_groups_;
  bool in_call_ = false;
  ProcessStats stats_;
};

/// The MPI "job": one Process per cluster node, a world communicator and a
/// registry for derived communicators.
class World {
 public:
  World(gm::Cluster& cluster, MpiConfig config = {});

  [[nodiscard]] gm::Cluster& cluster() { return cluster_; }
  [[nodiscard]] const MpiConfig& config() const { return config_; }
  [[nodiscard]] const Comm& comm_world() const { return comm_world_; }
  [[nodiscard]] Process& process(int rank) { return *processes_.at(rank); }
  [[nodiscard]] int size() const {
    return static_cast<int>(processes_.size());
  }

  /// Creates a communicator over `members` (node ids); the same Comm object
  /// is visible to every process, as if created collectively.
  const Comm& create_comm(std::vector<net::NodeId> members);

  /// Spawns `main(process)` on every rank; returns the process handles.
  /// The callable is kept alive by the World: a coroutine lambda's captures
  /// live in its closure object, which every spawned coroutine keeps
  /// referencing until it completes.
  std::vector<sim::ProcessRef> launch(
      std::function<sim::Task<void>(Process&)> main);

  /// Runs the simulation to completion.
  void run() { cluster_.run(); }

 private:
  gm::Cluster& cluster_;
  MpiConfig config_;
  Comm comm_world_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::deque<Comm> comms_;
  // Launched rank programs; kept alive because the spawned coroutines read
  // their lambda captures out of these closure objects.
  std::deque<std::function<sim::Task<void>(Process&)>> mains_;
  std::uint8_t next_context_ = 1;
};

}  // namespace nicmcast::mpi
