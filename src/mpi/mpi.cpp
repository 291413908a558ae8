#include "mpi/mpi.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace nicmcast::mpi {

namespace {

/// Reserved tag space for internal broadcast traffic.
constexpr std::uint16_t kBcastTagBase = 0xB000;

Payload encode_u64(std::uint64_t v) {
  Payload p(8);
  for (int i = 0; i < 8; ++i) {
    p[i] = std::byte{static_cast<std::uint8_t>(v >> (8 * i))};
  }
  return p;
}

std::uint64_t decode_u64(const Payload& p, std::size_t offset = 0) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p.at(offset + i)) << (8 * i);
  }
  return v;
}

/// The group-setup payload serialises node ids in 16 bits (the historical
/// NodeId width); kNoNode maps onto the all-ones 16-bit pattern so the wire
/// bytes are unchanged by the NodeId widening.  The classic gm::Cluster
/// stack this path serves cannot build >65535-endpoint clusters (Topology
/// already guards), but the truncation check keeps the invariant loud.
constexpr std::uint16_t kWireNoNode = 0xFFFF;

std::uint16_t encode_node_id(net::NodeId id) {
  if (id == nic::kNoNode) return kWireNoNode;
  if (id >= kWireNoNode) {
    throw std::length_error(
        "mpi group setup: node id " + std::to_string(id) +
        " does not fit the 16-bit group-entry wire format");
  }
  return static_cast<std::uint16_t>(id);
}

net::NodeId decode_node_id(std::uint16_t wire) {
  return wire == kWireNoNode ? nic::kNoNode : static_cast<net::NodeId>(wire);
}

/// Serialised NIC group-table entry carried by a kBcastSetup message:
/// [0..7] group id, [8..9] parent, [10..11] child count, then children.
Payload encode_entry(net::GroupId group, const nic::GroupEntry& entry) {
  Payload p(12 + entry.children.size() * 2);
  for (int i = 0; i < 8; ++i) {
    p[i] = std::byte{static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(group) >> (8 * i))};
  }
  const std::uint16_t parent = encode_node_id(entry.parent);
  p[8] = std::byte{static_cast<std::uint8_t>(parent & 0xFF)};
  p[9] = std::byte{static_cast<std::uint8_t>(parent >> 8)};
  const auto count = static_cast<std::uint16_t>(entry.children.size());
  p[10] = std::byte{static_cast<std::uint8_t>(count & 0xFF)};
  p[11] = std::byte{static_cast<std::uint8_t>(count >> 8)};
  for (std::size_t i = 0; i < entry.children.size(); ++i) {
    const std::uint16_t child = encode_node_id(entry.children[i]);
    p[12 + 2 * i] = std::byte{static_cast<std::uint8_t>(child & 0xFF)};
    p[13 + 2 * i] = std::byte{static_cast<std::uint8_t>(child >> 8)};
  }
  return p;
}

std::pair<net::GroupId, nic::GroupEntry> decode_entry(const Payload& p) {
  const auto group = static_cast<net::GroupId>(decode_u64(p));
  nic::GroupEntry entry;
  entry.parent = decode_node_id(static_cast<std::uint16_t>(
      std::to_integer<std::uint16_t>(p.at(8)) |
      (std::to_integer<std::uint16_t>(p.at(9)) << 8)));
  const auto count = static_cast<std::uint16_t>(
      std::to_integer<std::uint16_t>(p.at(10)) |
      (std::to_integer<std::uint16_t>(p.at(11)) << 8));
  entry.children.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    entry.children.push_back(decode_node_id(static_cast<std::uint16_t>(
        std::to_integer<std::uint16_t>(p.at(12 + 2 * i)) |
        (std::to_integer<std::uint16_t>(p.at(13 + 2 * i)) << 8))));
  }
  return {group, entry};
}

/// Binomial-tree relations over relative ranks (MPICH mask<<=1 order).
struct BinomialRole {
  int parent_vrank = -1;
  std::vector<int> child_vranks;  // ascending mask: deepest subtree last
};

BinomialRole binomial_role(int vrank, int n) {
  BinomialRole role;
  if (vrank != 0) {
    role.parent_vrank = vrank & (vrank - 1);
  }
  // Children: vrank | mask for masks above vrank's lowest set bit.
  for (int mask = 1; mask < n; mask <<= 1) {
    if (vrank != 0 && (vrank & mask) != 0) break;  // past our lowest bit
    const int child = vrank | mask;
    if (child != vrank && child < n) role.child_vranks.push_back(child);
  }
  return role;
}

/// RAII guard: MPI calls are serialised per rank.
class CallGuard {
 public:
  explicit CallGuard(bool& flag) : flag_(flag) {
    if (flag_) {
      throw std::logic_error("concurrent MPI calls on one rank");
    }
    flag_ = true;
  }
  ~CallGuard() { flag_ = false; }
  CallGuard(const CallGuard&) = delete;
  CallGuard& operator=(const CallGuard&) = delete;

 private:
  bool& flag_;
};

}  // namespace

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

World::World(gm::Cluster& cluster, MpiConfig config)
    : cluster_(cluster), config_(config) {
  std::vector<net::NodeId> members;
  members.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    members.push_back(static_cast<net::NodeId>(i));
  }
  comm_world_ = Comm(0, std::move(members));
  processes_.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    gm::Port& port = cluster.port(i);
    port.provide_receive_buffers(kEagerBuffers, kEagerLimit);
    processes_.push_back(std::make_unique<Process>(*this, port));
  }
}

const Comm& World::create_comm(std::vector<net::NodeId> members) {
  if (next_context_ == 0) {
    throw std::runtime_error("communicator context ids exhausted");
  }
  comms_.emplace_back(next_context_++, std::move(members));
  return comms_.back();
}

std::vector<sim::ProcessRef> World::launch(
    std::function<sim::Task<void>(Process&)> main) {
  mains_.push_back(std::move(main));
  const auto& stored = mains_.back();
  std::vector<sim::ProcessRef> handles;
  handles.reserve(processes_.size());
  for (auto& process : processes_) {
    handles.push_back(cluster_.simulator().spawn(
        stored(*process), "rank" + std::to_string(process->rank())));
  }
  return handles;
}

// ---------------------------------------------------------------------------
// Process: plumbing
// ---------------------------------------------------------------------------

Process::Process(World& world, gm::Port& port)
    : world_(world), port_(port) {}

int Process::rank() const {
  return world_.comm_world().rank_of(port_.node());
}
int Process::size() const { return world_.comm_world().size(); }
const Comm& Process::world_comm() const { return world_.comm_world(); }

void Process::replenish_eager_buffer() {
  port_.provide_receive_buffer(kEagerLimit);
}

sim::Task<void> Process::charge_host(std::size_t copy_bytes) {
  sim::Duration cost = kCallOverhead;
  if (copy_bytes > 0) cost += sim::transfer_time(copy_bytes, kHostCopyMbps);
  co_await simulator().wait(cost);
}

net::GroupId Process::group_for(const Comm& comm, int root) const {
  // Unique, deterministic, never kNoGroup.
  return 0x01000000u | (static_cast<net::GroupId>(comm.context()) << 12) |
         static_cast<net::GroupId>(root + 1);
}

sim::Task<Process::Matched> Process::match(Predicate predicate) {
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (predicate(*it)) {
      Matched m = std::move(*it);
      unexpected_.erase(it);
      co_return m;
    }
  }
  for (;;) {
    gm::RecvMessage raw = co_await port_.receive();
    Matched m;
    m.envelope = Envelope::decode(raw.tag);
    m.src_node = raw.src;
    m.group = raw.group;
    m.data = std::move(raw.data);
    // Rendezvous bulk data used its own exact-size buffer; everything else
    // consumed one from the eager pool.
    if (m.envelope.kind != Kind::kRndvData) replenish_eager_buffer();
    if (m.envelope.kind == Kind::kBcastSetup) {
      // Demand-driven group creation: install and acknowledge whenever this
      // rank is inside any MPI call.
      handle_setup(m);
      const Envelope ack{Kind::kBcastSetupAck, m.envelope.context,
                         m.envelope.tag};
      const gm::SendStatus status = co_await port_.send(
          m.src_node, port_.port_id(), Payload{}, ack.encode());
      if (status != gm::SendStatus::kOk) {
        throw std::runtime_error("setup ack failed");
      }
      continue;
    }
    if (predicate(m)) co_return m;
    unexpected_.push_back(std::move(m));
  }
}

void Process::handle_setup(const Matched& msg) {
  auto [group, entry] = decode_entry(msg.data);
  port_.set_group(group, std::move(entry));
  installed_groups_.insert(group);
  ++stats_.groups_created;
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

sim::Task<void> Process::send(int dest, std::uint16_t tag, Payload data) {
  co_await send(world_.comm_world(), dest, tag, std::move(data));
}

sim::Task<void> Process::send(const Comm& comm, int dest, std::uint16_t tag,
                              Payload data) {
  CallGuard guard(in_call_);
  ++stats_.sends;
  if (comm.node_of(dest) == port_.node() && data.size() > kEagerLimit) {
    // A blocking rendezvous to self cannot complete (the matching receive
    // runs in the same, currently blocked, rank) — standard MPI declares
    // this erroneous.
    throw std::logic_error("send-to-self above the eager limit deadlocks");
  }
  const Envelope env{
      data.size() <= kEagerLimit ? Kind::kEager : Kind::kRndvRts,
      comm.context(), tag};
  if (env.kind == Kind::kEager) {
    co_await eager_send(comm, dest, env, std::move(data));
  } else {
    co_await rendezvous_send(comm, dest, env, std::move(data));
  }
}

sim::Task<void> Process::eager_send(const Comm& comm, int dest, Envelope env,
                                    Payload data) {
  // Eager mode copies the user buffer into a pre-registered bounce buffer.
  co_await charge_host(data.size());
  const gm::SendStatus status = co_await port_.send(
      comm.node_of(dest), port_.port_id(), std::move(data), env.encode());
  if (status != gm::SendStatus::kOk) {
    throw std::runtime_error("eager send failed (peer unreachable)");
  }
}

sim::Task<void> Process::rendezvous_send(const Comm& comm, int dest,
                                         Envelope env, Payload data) {
  co_await charge_host(0);  // handshake bookkeeping; RDMA path, no copy
  const net::NodeId peer = comm.node_of(dest);
  // RTS announces the size; the receiver posts an exact-size buffer and
  // clears us to send (MPICH-GM uses remote DMA here — the exact-size
  // preposted buffer models the RDMA target).
  Envelope rts{Kind::kRndvRts, env.context, env.tag};
  gm::SendStatus status = co_await port_.send(
      peer, port_.port_id(), encode_u64(data.size()), rts.encode());
  if (status != gm::SendStatus::kOk) {
    throw std::runtime_error("rendezvous RTS failed");
  }
  co_await match([&](const Matched& m) {
    return m.envelope.kind == Kind::kRndvCts &&
           m.envelope.context == env.context && m.envelope.tag == env.tag &&
           m.src_node == peer;
  });
  Envelope bulk{Kind::kRndvData, env.context, env.tag};
  status = co_await port_.send(peer, port_.port_id(), std::move(data),
                               bulk.encode());
  if (status != gm::SendStatus::kOk) {
    throw std::runtime_error("rendezvous data failed");
  }
}

sim::Task<Payload> Process::recv(int src, std::uint16_t tag) {
  co_return co_await recv(world_.comm_world(), src, tag);
}

sim::Task<Payload> Process::recv(const Comm& comm, int src,
                                 std::uint16_t tag) {
  CallGuard guard(in_call_);
  ++stats_.receives;
  co_return co_await receive_from(comm, comm.node_of(src), tag);
}

sim::Task<Payload> Process::receive_from(const Comm& comm, net::NodeId peer,
                                         std::uint16_t tag) {
  Matched first = co_await match([&](const Matched& m) {
    return (m.envelope.kind == Kind::kEager ||
            m.envelope.kind == Kind::kRndvRts) &&
           m.envelope.context == comm.context() && m.envelope.tag == tag &&
           m.src_node == peer && m.group == net::kNoGroup;
  });
  if (first.envelope.kind == Kind::kEager) {
    // Copy from the bounce buffer to the user's buffer.
    co_await charge_host(first.data.size());
    co_return std::move(first.data);
  }
  // Rendezvous: post the landing buffer, clear the sender, await the bulk.
  const std::uint64_t size = decode_u64(first.data);
  port_.provide_receive_buffer(size);
  const Envelope cts{Kind::kRndvCts, comm.context(), tag};
  const gm::SendStatus status = co_await port_.send(
      peer, port_.port_id(), Payload{}, cts.encode());
  if (status != gm::SendStatus::kOk) {
    throw std::runtime_error("rendezvous CTS failed");
  }
  Matched bulk = co_await match([&](const Matched& m) {
    return m.envelope.kind == Kind::kRndvData &&
           m.envelope.context == comm.context() && m.envelope.tag == tag &&
           m.src_node == peer;
  });
  co_return std::move(bulk.data);
}

sim::Task<void> Process::gather_replies(const Comm& comm, Kind kind,
                                        std::uint16_t tag) {
  for (int replies = 1; replies < comm.size(); ++replies) {
    co_await match([&](const Matched& m) {
      return m.envelope.kind == kind &&
             m.envelope.context == comm.context() && m.envelope.tag == tag;
    });
  }
}

sim::Task<net::GroupId> Process::nic_tree(const Comm& comm) {
  // The first call bootstraps the group with an empty NIC-based broadcast
  // (the same demand-driven creation the bcast path uses).
  const net::GroupId group = group_for(comm, /*root=*/0);
  if (!installed_groups_.contains(group)) {
    Payload empty;
    co_await bcast(comm, empty, 0, BcastAlgorithm::kNicBased);
  }
  co_return group;
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

sim::Task<void> Process::barrier() {
  co_await barrier(world_.comm_world());
}

sim::Task<void> Process::barrier(const Comm& comm) {
  co_await barrier(comm, world_.config().barrier_algorithm);
}

sim::Task<void> Process::barrier(const Comm& comm,
                                 BarrierAlgorithm algorithm) {
  if (comm.size() <= 1) co_return;
  if (algorithm == BarrierAlgorithm::kNicBased) {
    co_await barrier_nic(comm);
  } else {
    co_await barrier_dissemination(comm);
  }
}

sim::Task<void> Process::barrier_nic(const Comm& comm) {
  // NIC-level barrier over the (comm, root 0) multicast tree: entering the
  // barrier is a single NIC posting and the gather/release runs entirely
  // in the NIC firmware.
  const net::GroupId group = co_await nic_tree(comm);
  CallGuard guard(in_call_);
  ++stats_.barriers;
  co_await port_.nic_barrier(group);
}

sim::Task<void> Process::barrier_dissemination(const Comm& comm) {
  CallGuard guard(in_call_);
  ++stats_.barriers;
  const int n = comm.size();
  const int me = comm.rank_of(port_.node());
  if (me < 0) throw std::logic_error("barrier: not a member");
  if (n == 1) co_return;

  const std::uint32_t seq_key =
      (static_cast<std::uint32_t>(comm.context()) << 8) | 0x01;
  const std::uint16_t seq = op_seq_[seq_key]++;

  int round = 0;
  for (int dist = 1; dist < n; dist <<= 1, ++round) {
    const int to = (me + dist) % n;
    const int from = (me - dist % n + n) % n;
    const auto tag = static_cast<std::uint16_t>((seq << 4) | round);
    const Envelope env{Kind::kBarrier, comm.context(), tag};
    const gm::SendStatus status = co_await port_.send(
        comm.node_of(to), port_.port_id(), Payload{}, env.encode());
    if (status != gm::SendStatus::kOk) {
      throw std::runtime_error("barrier send failed");
    }
    const net::NodeId from_node = comm.node_of(from);
    co_await match([&](const Matched& m) {
      return m.envelope.kind == Kind::kBarrier &&
             m.envelope.context == comm.context() && m.envelope.tag == tag &&
             m.src_node == from_node;
    });
  }
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

sim::Task<void> Process::bcast(Payload& data, int root) {
  co_await bcast(world_.comm_world(), data, root);
}

sim::Task<void> Process::bcast(const Comm& comm, Payload& data, int root) {
  co_await bcast(comm, data, root, world_.config().bcast_algorithm);
}

sim::Task<void> Process::bcast(const Comm& comm, Payload& data, int root,
                               BcastAlgorithm algorithm) {
  CallGuard guard(in_call_);
  ++stats_.bcasts;
  const sim::TimePoint entered = simulator().now();
  if (comm.rank_of(port_.node()) < 0) {
    throw std::logic_error("bcast: not a member");
  }
  const std::uint32_t seq_key =
      (static_cast<std::uint32_t>(comm.context()) << 8) | 0x02u |
      (static_cast<std::uint32_t>(root) << 16);
  const std::uint16_t op_seq = op_seq_[seq_key]++;
  const auto tag =
      static_cast<std::uint16_t>(kBcastTagBase | (op_seq & 0x0FFF));

  if (comm.size() > 1) {
    // The NIC-based path serves eager-mode sizes; larger broadcasts keep
    // the original rendezvous-based host path (paper §5) unless the
    // RDMA-multicast extension is enabled (paper §7 future work).
    if (algorithm == BcastAlgorithm::kNicBased &&
        data.size() <= kEagerLimit) {
      co_await bcast_nic_based(comm, data, root, tag);
    } else if (algorithm == BcastAlgorithm::kNicBased &&
               world_.config().rdma_multicast) {
      co_await bcast_nic_rdma(comm, data, root, tag);
    } else {
      co_await bcast_host_based(comm, data, root, tag);
    }
  }
  const sim::Duration elapsed = simulator().now() - entered;
  stats_.last_bcast_time = elapsed;
  stats_.bcast_cpu_time += elapsed;
}

sim::Task<void> Process::bcast_host_based(const Comm& comm, Payload& data,
                                          int root, std::uint16_t tag) {
  const int n = comm.size();
  const int me = comm.rank_of(port_.node());
  const BinomialRole role = binomial_role((me - root + n) % n, n);
  auto node_of_vrank = [&](int vrank) {
    return comm.node_of((vrank + root) % n);
  };

  if (role.parent_vrank >= 0) {
    // Receive from the parent (eager or rendezvous by size).
    data = co_await receive_from(comm, node_of_vrank(role.parent_vrank), tag);
  }

  if (data.size() <= kEagerLimit) {
    // Eager: copy into the registered send buffer once, then post every
    // child's send back to back and await the completions (MPICH-GM's
    // gm_send_with_callback fan-out).
    if (!role.child_vranks.empty()) co_await charge_host(data.size());
    std::vector<net::NodeId> children;
    for (int child_vrank : role.child_vranks) {
      children.push_back(node_of_vrank(child_vrank));
    }
    const Envelope env{Kind::kEager, comm.context(), tag};
    if (co_await port_.send_each(children, port_.port_id(), data,
                                 env.encode()) != gm::SendStatus::kOk) {
      throw std::runtime_error("bcast send failed");
    }
  } else {
    // Rendezvous sends are inherently sequential handshakes.
    for (int child_vrank : role.child_vranks) {
      const int child_rank = (child_vrank + root) % n;
      const Envelope env{Kind::kRndvRts, comm.context(), tag};
      co_await rendezvous_send(comm, child_rank, env, data);
    }
  }
}

sim::Task<void> Process::ensure_group(const Comm& comm, int root,
                                      std::size_t tree_hint_bytes) {
  const net::GroupId group = group_for(comm, root);
  if (installed_groups_.contains(group)) co_return;
  if (comm.rank_of(port_.node()) != root) {
    // Members are installed via the setup message handled inside match();
    // nothing to do proactively.
    co_return;
  }
  // First broadcast from this (communicator, root): the root's host builds
  // the optimal tree and distributes group-table entries (demand-driven
  // creation, paper §5).  The tree shape is chosen for the first message's
  // size and reused afterwards.
  const auto cost = mcast::PostalCostModel::nic_based(
      tree_hint_bytes, port_.nic().config(), net::NetworkConfig{});
  std::vector<net::NodeId> dests = comm.members();
  std::erase(dests, port_.node());
  const mcast::Tree tree =
      mcast::build_postal_tree(port_.node(), std::move(dests), cost);

  const auto setup_tag = static_cast<std::uint16_t>(group & 0xFFFF);
  const Envelope setup{Kind::kBcastSetup, comm.context(), setup_tag};
  for (net::NodeId member : tree.nodes()) {
    if (member == port_.node()) continue;
    const gm::SendStatus status = co_await port_.send(
        member, port_.port_id(),
        encode_entry(group, tree.entry_for(member, port_.port_id())),
        setup.encode());
    if (status != gm::SendStatus::kOk) {
      throw std::runtime_error("group setup send failed");
    }
  }
  co_await gather_replies(comm, Kind::kBcastSetupAck, setup_tag);
  port_.set_group(group, tree.entry_for(port_.node(), port_.port_id()));
  installed_groups_.insert(group);
  ++stats_.groups_created;
}

sim::Task<void> Process::bcast_nic_based(const Comm& comm, Payload& data,
                                         int root, std::uint16_t data_tag) {
  const int me = comm.rank_of(port_.node());
  const net::GroupId group = group_for(comm, root);

  if (me == root) {
    co_await ensure_group(comm, root, data.size());
    const Envelope env{Kind::kBcast, comm.context(), data_tag};
    co_await charge_host(data.size());
    const gm::SendStatus status =
        co_await port_.mcast_send(group, data, env.encode());
    if (status != gm::SendStatus::kOk) {
      throw std::runtime_error("NIC multicast send failed");
    }
    co_return;
  }

  // Non-root: the group entry arrives via a setup message (handled inside
  // match() on the first broadcast); the data is a NIC-forwarded multicast.
  Matched m = co_await match([&](const Matched& msg) {
    return msg.envelope.kind == Kind::kBcast && msg.group == group &&
           msg.envelope.context == comm.context() &&
           msg.envelope.tag == data_tag;
  });
  if (m.data.size() != data.size()) {
    throw std::logic_error("bcast: buffer size mismatch across ranks");
  }
  co_await charge_host(m.data.size());
  data = std::move(m.data);
}

sim::Task<void> Process::bcast_nic_rdma(const Comm& comm, Payload& data,
                                        int root, std::uint16_t data_tag) {
  // Extension (paper §7): "NIC-based multicast using remote DMA
  // operations".  Protocol:
  //   1. the root NIC-multicasts a tiny announce carrying the size,
  //   2. every member registers an exact-size landing buffer (the RDMA
  //      target) and replies ready,
  //   3. the root NIC-multicasts the payload itself — per-packet NIC
  //      forwarding down the tree, straight into the registered buffers,
  //      no bounce-buffer copies at any host.
  const int me = comm.rank_of(port_.node());
  const net::GroupId group = group_for(comm, root);

  if (me == root) {
    co_await ensure_group(comm, root, data.size());
    // 1. Announce the size down the tree.
    const Envelope announce{Kind::kRndvRts, comm.context(), data_tag};
    gm::SendStatus status = co_await port_.mcast_send(
        group, encode_u64(data.size()), announce.encode());
    if (status != gm::SendStatus::kOk) {
      throw std::runtime_error("RDMA-multicast announce failed");
    }
    // 2. Collect every member's ready.
    co_await gather_replies(comm, Kind::kRndvCts, data_tag);
    // 3. Stream the payload (registration bookkeeping only; no copy).
    co_await charge_host(0);
    const Envelope bulk{Kind::kRndvData, comm.context(), data_tag};
    status = co_await port_.mcast_send(group, data, bulk.encode());
    if (status != gm::SendStatus::kOk) {
      throw std::runtime_error("RDMA-multicast data failed");
    }
    co_return;
  }

  // Member: wait for the announce (the group's setup message is handled
  // inside match() on a first-ever broadcast), post the landing buffer,
  // signal ready, receive the stream.
  Matched announce = co_await match([&](const Matched& m) {
    return m.envelope.kind == Kind::kRndvRts && m.group == group &&
           m.envelope.context == comm.context() &&
           m.envelope.tag == data_tag;
  });
  const std::uint64_t size = decode_u64(announce.data);
  if (size != data.size()) {
    throw std::logic_error("bcast: buffer size mismatch across ranks");
  }
  port_.provide_receive_buffer(size);
  co_await charge_host(0);  // registration bookkeeping
  const Envelope ready{Kind::kRndvCts, comm.context(), data_tag};
  const gm::SendStatus status = co_await port_.send(
      comm.node_of(root), port_.port_id(), Payload{}, ready.encode());
  if (status != gm::SendStatus::kOk) {
    throw std::runtime_error("RDMA-multicast ready failed");
  }
  Matched bulk = co_await match([&](const Matched& m) {
    return m.envelope.kind == Kind::kRndvData && m.group == group &&
           m.envelope.context == comm.context() &&
           m.envelope.tag == data_tag;
  });
  data = std::move(bulk.data);  // landed directly; no bounce copy
}

// ---------------------------------------------------------------------------
// Allreduce (future-work collective, paper §7)
// ---------------------------------------------------------------------------

sim::Task<std::vector<std::int64_t>> Process::allreduce_sum(
    const Comm& comm, std::vector<std::int64_t> contribution) {
  const int n = comm.size();
  const int me = comm.rank_of(port_.node());
  if (me < 0) throw std::logic_error("allreduce: not a member");

  if (world_.config().nic_reduction && n > 1) {
    // NIC-level reduction up the (comm, root 0) tree, then a NIC-based
    // broadcast of the sum back down.
    const net::GroupId group = co_await nic_tree(comm);
    Payload blob(contribution.size() * 8);
    std::memcpy(blob.data(), contribution.data(), blob.size());
    Payload reduced;
    {
      CallGuard guard(in_call_);
      reduced = co_await port_.nic_reduce(group, std::move(blob));
    }
    Payload result = me == 0 ? std::move(reduced)
                             : Payload(contribution.size() * 8);
    co_await bcast(comm, result, 0);
    std::vector<std::int64_t> sum(contribution.size());
    std::memcpy(sum.data(), result.data(), result.size());
    co_return sum;
  }

  const std::uint32_t seq_key =
      (static_cast<std::uint32_t>(comm.context()) << 8) | 0x03;
  std::uint16_t op_seq;
  {
    CallGuard guard(in_call_);
    op_seq = op_seq_[seq_key]++;
  }
  const auto tag = static_cast<std::uint16_t>(0xA000 | (op_seq & 0x0FFF));

  // Reduce up the binomial tree rooted at rank 0.
  const BinomialRole role = binomial_role(me, n);
  auto encode_vec = [](const std::vector<std::int64_t>& v) {
    Payload p(v.size() * 8);
    std::memcpy(p.data(), v.data(), p.size());
    return p;
  };
  auto decode_vec = [](const Payload& p) {
    std::vector<std::int64_t> v(p.size() / 8);
    std::memcpy(v.data(), p.data(), p.size());
    return v;
  };

  // Children are received deepest-subtree-first to overlap their arrival.
  // Contributions travel through the full MPI protocol (eager or
  // rendezvous by size) under a reserved tag.
  for (auto it = role.child_vranks.rbegin(); it != role.child_vranks.rend();
       ++it) {
    const Payload blob = co_await recv(comm, *it, tag);
    const auto partial = decode_vec(blob);
    if (partial.size() != contribution.size()) {
      throw std::logic_error("allreduce: mismatched vector sizes");
    }
    for (std::size_t i = 0; i < contribution.size(); ++i) {
      contribution[i] += partial[i];
    }
  }
  if (role.parent_vrank >= 0) {
    co_await send(comm, role.parent_vrank, tag, encode_vec(contribution));
  }

  // Broadcast the result down with the NIC-based multicast.
  Payload result = me == 0 ? encode_vec(contribution)
                           : Payload(contribution.size() * 8);
  co_await bcast(comm, result, 0);
  co_return decode_vec(result);
}

sim::Task<std::vector<Payload>> Process::allgather(const Comm& comm,
                                                   Payload mine) {
  const int n = comm.size();
  const int me = comm.rank_of(port_.node());
  if (me < 0) throw std::logic_error("allgather: not a member");
  const std::size_t block = mine.size();

  std::vector<Payload> blocks(n);
  for (int root = 0; root < n; ++root) {
    Payload buffer = root == me ? mine : Payload(block);
    co_await bcast(comm, buffer, root);
    blocks[root] = std::move(buffer);
  }
  co_return blocks;
}

}  // namespace nicmcast::mpi
