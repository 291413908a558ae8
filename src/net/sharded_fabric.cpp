#include "net/sharded_fabric.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace nicmcast::net {

namespace {

/// The fabric's channel: NetworkConfig's defaults, the same channel
/// gm::Cluster wires and the postal tree model assumes.
constexpr NetworkConfig kNet{};

/// The schedule-independent coin: uniform in [0, 1) from a counter hash of
/// `key`.  Deciding a drop from (seed, node, iter, attempt) instead of a
/// draw from a shared RNG stream keeps the outcome identical across shard
/// counts: no shard interleaving can reorder the draws.
double coin(std::uint64_t key) {
  return sim::unit_interval(sim::mix64(key + sim::kGoldenGamma));
}

}  // namespace

ShardedFabric::ShardedFabric(Topology topology, FabricTree tree,
                             FabricOptions options, std::size_t shards)
    : topology_(std::move(topology)),
      tree_(std::move(tree)),
      options_(options),
      partition_(switch_cut(topology_, shards)) {
  if (tree_.size() != topology_.endpoint_count()) {
    throw std::invalid_argument(
        "ShardedFabric: tree size != topology endpoint count");
  }
  if (tree_.child_off.size() != tree_.size() + 1) {
    throw std::invalid_argument("ShardedFabric: malformed child_off");
  }
  if (options_.workload == FabricWorkload::kMultisend &&
      tree_.child_count(tree_.root) + 1 != tree_.size()) {
    throw std::invalid_argument(
        "ShardedFabric: kMultisend needs a star tree (every endpoint a "
        "direct child of the root)");
  }
  // partition_.shards, not the requested count: switch_cut clamps to the
  // leaf-block count so no worker ends up owning zero endpoints.
  engine_ = std::make_unique<sim::ShardedEngine>(
      partition_.shards, partition_.lookahead, options_.seed);
  shards_.reserve(partition_.shards);
  for (std::size_t s = 0; s < partition_.shards; ++s) {
    shards_.push_back(std::make_unique<ShardState>(topology_));
  }
  link_free_.assign(topology_.link_count(), sim::TimePoint{0});
  received_iter_.assign(tree_.size(), -1);
  edges_.assign(tree_.size(), EdgeState{});
  // The single message allocation every delivery slices out of (the GM
  // zero-copy posture): slices travel inside cross-shard posted closures
  // and are released on whichever shard executes them.
  std::vector<std::byte> bytes(options_.message_bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(i & 0xff);
  }
  payload_ = Buffer::take(std::move(bytes));
}

std::size_t ShardedFabric::packets_per_message() const {
  return (options_.message_bytes + options_.nic.max_packet_payload - 1) /
         options_.nic.max_packet_payload;
}

std::size_t ShardedFabric::train_wire_bytes() const {
  // A >4096B message travels as a back-to-back packet train; the train
  // occupies the path for its summed wire size and is acked once.
  return options_.message_bytes +
         packets_per_message() * kNet.framing_bytes;
}

bool ShardedFabric::dropped(NodeId child, std::int32_t iter,
                            std::uint32_t attempt) const {
  if (options_.loss_rate <= 0.0) return false;
  return coin(options_.seed ^ (static_cast<std::uint64_t>(child) << 40) ^
              (static_cast<std::uint64_t>(static_cast<std::uint32_t>(iter))
               << 8) ^
              attempt) < options_.loss_rate;
}

void ShardedFabric::start_iteration(std::int32_t iter) {
  const sim::TimePoint now = sim_of(shard_of(tree_.root)).now();
  ctrl_iter_ = iter;
  ctrl_remaining_ = tree_.size() - 1;
  ctrl_iter_start_ = now;
  ctrl_last_delivery_ = now;
  if (ctrl_remaining_ == 0) return;  // single-node tree: nothing to send

  const nic::NicConfig& nic = options_.nic;
  // Host posts the multicast send; the NIC DMAs the payload once and chains
  // one replica per child off a single send token (the paper's alternative
  // 2: re-queue the packet descriptor with a rewritten header).
  fan_out(tree_.root, iter,
          now + nic.host_post_overhead + nic.host_to_nic_delay +
              nic.dma_startup +
              sim::transfer_time(options_.message_bytes, nic.host_dma_mbps) +
              nic.send_token_processing +
              nic.per_packet_processing *
                  static_cast<std::int64_t>(packets_per_message()));
}

void ShardedFabric::fan_out(NodeId node, std::int32_t iter,
                            sim::TimePoint inject) {
  const std::uint32_t me = shard_of(node);
  const std::size_t nc = tree_.child_count(node);
  if (nc == 0) return;
  // Counted per packet, the way nic::Nic counts: the root's first replica
  // keeps the header its host built, while a forwarding node forwards each
  // packet once and rewrites the header of every replica.
  nic::NicStats& stats = shards_[me]->nic;
  const std::size_t npkts = packets_per_message();
  if (node == tree_.root) {
    stats.header_rewrites += (nc - 1) * npkts;
  } else {
    stats.forwards += npkts;
    stats.header_rewrites += nc * npkts;
  }
  const sim::Duration gap =
      options_.nic.header_rewrite + kNet.serialization(train_wire_bytes());
  for (std::size_t q = 0; q < nc; ++q) {
    const NodeId child = tree_.child(node, q);
    sim_of(me).schedule_at(inject, [this, node, child, iter] {
      send_data(node, child, iter, 0, sim_of(shard_of(node)).now());
    });
    inject = inject + gap;
  }
}

void ShardedFabric::send_data(NodeId from, NodeId to, std::int32_t iter,
                              std::uint32_t attempt, sim::TimePoint inject) {
  const std::uint32_t me = shard_of(from);
  ShardState& st = *shards_[me];
  sim::Simulator& sim = sim_of(me);

  // Shard-local descriptor churn: acquired at injection, recycled when the
  // transmit completes (end of this event) — same lifecycle the firmware
  // model uses, now with one pool per shard.
  Packet packet;
  packet.header.type = PacketType::kMcastData;
  packet.header.src = from;
  packet.header.dst = to;
  packet.header.msg_length =
      static_cast<std::uint32_t>(options_.message_bytes);
  const nic::DescriptorRef descriptor = st.pool.acquire(std::move(packet));

  const std::size_t npkts = packets_per_message();
  st.nic.packets_sent += npkts;

  // Arm (or re-arm) the per-edge Go-back-N timer.  A stale timer from the
  // previous iteration can still be pending here — its ack raced the
  // controller's completion — and is simply replaced.
  EdgeState& edge = edges_[to];
  sim.cancel(edge.timer);
  edge.attempt = attempt;
  edge.iter = iter;
  edge.timer =
      sim.schedule_at(inject + options_.nic.retransmit_timeout,
                      [this, from, to, iter] { retransmit(from, to, iter); });

  const std::size_t wire = train_wire_bytes();
  if (kNet.bypasses(wire)) {
    // Control-sized data: flit-interleaved, no path reservation.
    const Route& path = st.routes.route(from, to);
    engine_->post(me, shard_of(to), kNet.arrival(inject, path.size(), wire),
                  [this, from, to, iter, attempt,
                   payload = payload_.slice(0, options_.message_bytes)] {
                    deliver(from, to, iter, attempt, payload);
                  });
    return;
  }
  // The first route link leaves `from` itself, so its owner is this shard.
  continue_segment(me, from, to, 0, inject, iter, attempt);
}

void ShardedFabric::continue_segment(std::uint32_t owner, NodeId from,
                                     NodeId to, std::size_t seg,
                                     sim::TimePoint inject, std::int32_t iter,
                                     std::uint32_t attempt) {
  // Route lookup from the executing shard's own table: a lookup inserts on
  // a miss, so one table shared by the shard threads would race.
  const Route& path = shards_[owner]->routes.route(from, to);

  // Owner-maximal segment [seg, end): all consecutive links this shard owns.
  std::size_t end = seg + 1;
  while (end < path.size() && partition_.link_owner[path[end]] == owner) {
    ++end;
  }

  // The wormhole rule (network.hpp) over the segment.  With one shard the
  // segment is the whole path, so this is Network::transmit's reservation.
  const std::size_t wire = train_wire_bytes();
  const sim::TimePoint v =
      reserve_links(kNet, link_free_, path, seg, end, inject, wire);

  if (end < path.size()) {
    // The head reaches the first foreign link at v + head_latency(end), at
    // least one full hop after this event: the post respects the lookahead.
    const std::uint32_t next_owner = partition_.link_owner[path[end]];
    engine_->post(owner, next_owner, v + kNet.head_latency(end),
                  [this, next_owner, from, to, end, v, iter, attempt] {
                    continue_segment(next_owner, from, to, end, v, iter,
                                     attempt);
                  });
    return;
  }
  // The payload slice rides the closure to the destination shard, where it
  // is released after delivery — the cross-shard refcount traffic the
  // atomic Buffer exists for.
  engine_->post(owner, shard_of(to), kNet.arrival(v, path.size(), wire),
                [this, from, to, iter, attempt,
                 payload = payload_.slice(0, options_.message_bytes)] {
                  deliver(from, to, iter, attempt, payload);
                });
}

void ShardedFabric::deliver(NodeId from, NodeId to, std::int32_t iter,
                            std::uint32_t attempt, Buffer payload) {
  const std::uint32_t me = shard_of(to);
  ShardState& st = *shards_[me];
  sim::Simulator& sim = sim_of(me);
  const std::size_t npkts = packets_per_message();
  const nic::NicConfig& nic = options_.nic;

  if (dropped(to, iter, attempt)) {
    // Receiver-side CRC failure: the train traversed (and charged) every
    // link but is not acknowledged; the sender's timer will drive a resend.
    st.nic.crc_drops += npkts;
    return;
  }
  // Every uncorrupted arrival is received, duplicates included.  A
  // duplicate comes from a retransmission whose original ack was in
  // flight: its payload is dropped, but it is re-acked so the sender's
  // timer is disarmed.
  st.nic.packets_received += npkts;
  const sim::TimePoint base =
      sim.now() + nic.recv_packet_processing * static_cast<std::int64_t>(npkts);
  sim.schedule_at(base + nic.ack_processing,
                  [this, from, to, iter] { send_ack(to, from, iter); });
  if (received_iter_[to] == iter) {
    st.nic.duplicate_drops += npkts;
    return;
  }
  received_iter_[to] = iter;
  ++st.deliveries;

  // Forward down the tree: the receive token transforms into a send token
  // for the first child; every further replica is a header rewrite.
  fan_out(to, iter, base + nic.forward_processing);

  // kMultisend completion is sender-side (the last ack landing back at the
  // root), so receivers stay silent towards the controller.
  if (options_.workload == FabricWorkload::kMultisend) return;

  // Land the payload in host memory and report completion to the
  // controller.  The notification travels at exactly +lookahead no matter
  // where the root shard is, so controller pacing — and with it the whole
  // iteration schedule — is identical across shard counts.  (payload.size()
  // == message_bytes: the DMA charges for the bytes that actually landed.)
  const sim::TimePoint host_time =
      base + nic.event_delivery + nic.dma_startup +
      sim::transfer_time(payload.size(), nic.host_dma_mbps);
  engine_->post(me, shard_of(tree_.root), sim.now() + partition_.lookahead,
                [this, host_time] {
                  // Runs on the root's shard worker: post() targeted it.
                  controller_role_.assert_held();
                  notify_controller(host_time);
                });
}

void ShardedFabric::send_ack(NodeId from, NodeId to, std::int32_t iter) {
  const std::uint32_t me = shard_of(from);
  nic::NicStats& stats = shards_[me]->nic;
  ++stats.acks_sent;
  ++stats.packets_sent;
  // A framing-only ack rides the wormhole bypass path: it neither waits on
  // nor adds to link occupancy, and it is always at least one hop out, so
  // posting at its arrival instant respects the lookahead.
  engine_->post(me, shard_of(to),
                kNet.arrival(sim_of(me).now(),
                             shards_[me]->routes.route(from, to).size(),
                             kNet.framing_bytes),
                [this, from, to, iter] { ack_arrived(to, from, iter); });
}

void ShardedFabric::ack_arrived(NodeId parent, NodeId child,
                                std::int32_t iter) {
  ++shards_[shard_of(parent)]->nic.packets_received;
  EdgeState& edge = edges_[child];
  if (edge.timer && edge.iter == iter) {
    // The cross-shard in-flight cancel: the ack disarms a retransmit timer
    // living on another shard's wheel.
    sim_of(shard_of(parent)).cancel(edge.timer);
    // Exactly one ack per (child, iter) reaches this branch: re-acks from
    // duplicate deliveries find the timer already disarmed above.
    if (options_.workload == FabricWorkload::kMultisend &&
        parent == tree_.root) {
      // This ack executes on parent's shard and parent is the root, so
      // the controller role is structurally held here.
      controller_role_.assert_held();
      multisend_ack_completed(iter);
    }
  }
}

void ShardedFabric::multisend_ack_completed(std::int32_t iter) {
  // Runs on the root's shard: the star tree makes the root every ack's
  // destination, and controller state is root-shard-owned.
  if (iter != ctrl_iter_) return;
  // Sender-side completion: the NIC raises the send-complete event to the
  // host once this child's ack lands (paper Figure 3's measured quantity).
  notify_controller(sim_of(shard_of(tree_.root)).now() +
                    options_.nic.event_delivery);
}

void ShardedFabric::retransmit(NodeId from, NodeId to, std::int32_t iter) {
  EdgeState& edge = edges_[to];
  edge.timer.reset();
  if (edge.iter != iter) return;  // iteration already moved on
  const std::uint32_t next_attempt = edge.attempt + 1;
  if (next_attempt > options_.nic.max_retries) {
    throw std::runtime_error(
        "ShardedFabric: retries exhausted on edge " + std::to_string(from) +
        "->" + std::to_string(to));
  }
  const std::uint32_t me = shard_of(from);
  shards_[me]->nic.retransmissions += packets_per_message();
  send_data(from, to, iter, next_attempt, sim_of(me).now());
}

void ShardedFabric::notify_controller(sim::TimePoint host_time) {
  ctrl_last_delivery_ = std::max(ctrl_last_delivery_, host_time);
  if (--ctrl_remaining_ > 0) return;

  if (ctrl_iter_ >= options_.warmup) {
    latency_us_.push_back(
        (ctrl_last_delivery_ - ctrl_iter_start_).microseconds());
  }
  const std::int32_t next = ctrl_iter_ + 1;
  if (next >= options_.warmup + options_.iterations) return;
  sim::Simulator& sim = sim_of(shard_of(tree_.root));
  // The next iteration starts once the slowest host delivery has landed —
  // max() because completion notifications outrun the host DMA by design.
  const sim::TimePoint start =
      std::max(sim.now(), ctrl_last_delivery_) + options_.nic.host_post_overhead;
  sim.schedule_at(start, [this, next] {
    controller_role_.assert_held();  // scheduled on the root's shard
    start_iteration(next);
  });
}

FabricResult ShardedFabric::run() {
  sim_of(shard_of(tree_.root)).schedule_at(sim::TimePoint{0}, [this] {
    controller_role_.assert_held();  // runs on the root's shard
    start_iteration(0);
  });
  engine_->run();

  FabricResult out;
  {
    // Workers joined in engine_->run(): the calling thread owns the
    // controller state again.
    const sim::RoleGuard controller(controller_role_);
    out.latency_us = std::move(latency_us_);
  }
  out.shard_count = engine_->shard_count();
  out.cross_links = partition_.cross_links;
  out.lbts_rounds = engine_->lbts_rounds();
  out.shard_order_hashes = engine_->shard_order_hashes();
  out.event_order_hash = engine_->merged_order_hash();
  out.merged_order_hash = out.event_order_hash;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardState& st = *shards_[s];
    nic::accumulate(out.nic_totals, st.nic);
    out.nic_totals.descriptor_allocs += st.pool.allocs();
    out.nic_totals.descriptor_reuses += st.pool.reuses();
    out.deliveries += st.deliveries;

    const sim::EventQueue::Stats& q = engine_->shard(s).queue_stats();
    accumulate(out, q);
    out.shard_wheel_occupancy_peak.push_back(q.wheel_occupancy_peak);
    accumulate(out, st.routes.stats());
    accumulate(out, engine_->shard_stats(s));
  }
  return out;
}

}  // namespace nicmcast::net
