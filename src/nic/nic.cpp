#include "nic/nic.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "nic/auditor.hpp"

namespace nicmcast::nic {

namespace {

// kCtrl subtypes, carried in msg_offset (the same discriminator trick the
// barrier uses for arrive/release).  After a max-retries failure the
// sender's next_seq is ahead of the receiver's expected_seq and every later
// send would be dropped as out-of-order; the reset request re-seats the
// receiver at the carried seq.
constexpr std::uint32_t kCtrlResetReq = 0;
constexpr std::uint32_t kCtrlResetAck = 1;

/// Builds the reverse-direction header for an acknowledgment of `data`.
net::PacketHeader ack_header_for(const net::Packet& data, SeqNum cumulative) {
  net::PacketHeader h;
  h.type = data.header.type == net::PacketType::kMcastData
               ? net::PacketType::kMcastAck
               : net::PacketType::kAck;
  h.src = data.header.dst;
  h.dst = data.header.src;
  h.src_port = data.header.dst_port;
  h.dst_port = data.header.src_port;
  h.seq = cumulative;
  h.group = data.header.group;
  return h;
}

}  // namespace

Nic::Nic(sim::Simulator& sim, net::Network& network, net::NodeId id,
         NicConfig config, NicOptions options)
    : sim_(sim),
      network_(network),
      id_(id),
      config_(config),
      options_(options),
      cpu_(sim, "lanai"),
      sdma_(sim, "sdma"),
      rdma_(sim, "rdma") {
  network_.attach(id_, *this);
}

// ---------------------------------------------------------------------------
// Host-facing interface
// ---------------------------------------------------------------------------

void Nic::post_send(SendRequest request) {
  if (request.port >= ports_.size()) {
    throw std::out_of_range("post_send: bad port");
  }
  if (request.dest == id_) {
    throw std::logic_error("post_send: self-send must be handled by the "
                           "library layer, not the NIC");
  }
  // Zero-copy host-post boundary: the request's bytes become the shared
  // block every fragment, record and retransmission will reference.
  MessageRef message = net::Buffer::take(std::move(request.data));
  open_op("post_send", request.port, request.handle,
          HostEvent::Type::kSendComplete, packet_count(message.size()));
  trace("nic", [&] {
    return "send token posted, " + std::to_string(message.size()) +
           "B to node " + std::to_string(request.dest);
  });
  send_message(request.port, NodeList{request.dest}, request.dest_port,
               std::move(message), request.tag, request.handle);
}

void Nic::post_multisend(MultisendRequest request) {
  if (request.port >= ports_.size()) {
    throw std::out_of_range("post_multisend: bad port");
  }
  if (request.dests.empty()) {
    throw std::invalid_argument("post_multisend: empty destination list");
  }
  MessageRef message = net::Buffer::take(std::move(request.data));
  open_op("post_multisend", request.port, request.handle,
          HostEvent::Type::kMultisendComplete,
          packet_count(message.size()) * request.dests.size());

  if (options_.multisend_uses_multiple_tokens) {
    // Ablation (paper §5 alternative 1): one full send-token translation
    // and one host DMA per destination; saves only the host postings.
    for (net::NodeId dest : request.dests) {
      send_message(request.port, NodeList{dest}, request.dest_port, message,
                   request.tag, request.handle);
    }
    return;
  }
  // Chosen design (alternative 2): one token translation, one host DMA per
  // packet, then replica chaining through the descriptor callback.
  send_message(request.port,
               NodeList(request.dests.begin(), request.dests.end()),
               request.dest_port, std::move(message), request.tag,
               request.handle);
}

void Nic::post_mcast_send(McastSendRequest request) {
  const GroupState& group =
      owned_group("post_mcast_send", request.port, request.group);
  if (group.entry.parent != kNoNode) {
    throw std::logic_error("post_mcast_send: only the tree root initiates "
                           "a multicast");
  }
  MessageRef message = net::Buffer::take(std::move(request.data));
  open_op("post_mcast_send", request.port, request.handle,
          HostEvent::Type::kMcastSendComplete, packet_count(message.size()));
  trace("mcast", [&] {
    return "mcast send posted grp=" + std::to_string(request.group) + " " +
           std::to_string(message.size()) + "B";
  });

  cpu_.run(config_.send_token_processing,
           [this, group_id = request.group, message = std::move(message),
            tag = request.tag, handle = request.handle] {
    for (std::size_t i = 0, n = packet_count(message.size()); i < n; ++i) {
      const Fragment frag = fragment(message.size(), i);
      sdma_then(frag.length, [this, group_id, message, frag, tag, handle] {
        GroupState& state = groups_.at(group_id);
        if (state.entry.children.empty()) {
          // Degenerate tree: nothing to transmit, the packet is "delivered".
          op_packet_acked(handle);
          return;
        }
        net::PacketHeader header;
        header.type = net::PacketType::kMcastData;
        header.src = id_;
        header.src_port = state.entry.port;
        header.dst_port = state.entry.port;
        // Paper §5: a multicast packet carries the SAME sequence number and
        // send record towards every child.
        header.seq = state.send_seq++;
        header.group = group_id;
        header.msg_offset = frag.offset;
        header.msg_length = static_cast<std::uint32_t>(message.size());
        header.tag = tag;
        send_tree_packet(group_id,
                         SendRecord{.message = message,
                                    .fragment = frag,
                                    .header = header,
                                    .handle = handle},
                         StagingRelease{});
      });
    }
  });
}

void Nic::post_barrier(net::PortId port, net::GroupId group,
                       OpHandle handle) {
  owned_group("post_barrier", port, group).barrier.enter("post_barrier");
  cpu_.run(config_.ack_processing, [this, group, handle] {
    TreeRound& barrier = groups_.at(group).barrier;
    barrier.host_arrived = true;
    barrier.handle = handle;
    barrier_check_complete(group);
  });
}

void Nic::post_reduce(net::PortId port, net::GroupId group, Payload data,
                      OpHandle handle) {
  GroupState& state = owned_group("post_reduce", port, group);
  if (data.empty() || data.size() % 8 != 0) {
    throw std::invalid_argument("post_reduce: data must be 8-byte lanes");
  }
  state.reduce.enter("post_reduce");
  // The contribution crosses the PCI bus like any send payload.
  sdma_then(data.size(),
            [this, group, data = net::Buffer::take(std::move(data)), handle] {
    ReduceRound& reduce = groups_.at(group).reduce;
    reduce_combine(group, data);
    reduce.host_arrived = true;
    reduce.handle = handle;
    reduce_check_complete(group);
  });
}

Nic::GroupState& Nic::owned_group(const char* op, net::PortId port,
                                  net::GroupId group) {
  if (port >= ports_.size()) {
    throw std::out_of_range(std::string(op) + ": bad port");
  }
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    throw std::logic_error(std::string(op) + ": unknown group");
  }
  if (it->second.entry.port != port) {
    throw std::logic_error(std::string(op) + ": protection violation — "
                           "group belongs to another port");
  }
  return it->second;
}

void Nic::post_recv_buffer(RecvBuffer buffer, std::size_t count) {
  if (buffer.port >= ports_.size()) {
    throw std::out_of_range("post_recv_buffer: bad port");
  }
  if (count == 0) return;
  // One LANai job for the whole batch: the CPU FIFO already holds every
  // receive-path job behind it, so no packet can see a partial batch.
  cpu_.run(config_.recv_token_processing * static_cast<std::int64_t>(count),
           [this, buffer, count] {
             auto& buffers = port_state(buffer.port).recv_buffers;
             buffers.insert(buffers.end(), count, buffer);
           });
}

void Nic::set_group(net::GroupId group, GroupEntry entry) {
  if (group == net::kNoGroup) {
    throw std::invalid_argument("set_group: kNoGroup is reserved");
  }
  if (entry.port >= ports_.size()) {
    throw std::out_of_range("set_group: bad port");
  }
  for (net::NodeId child : entry.children) {
    if (child == id_) {
      throw std::logic_error("set_group: node cannot be its own child");
    }
  }
  GroupState& state = groups_[group];
  if (!state.records.empty() || has_deferred_forward(group) ||
      (state.assembly && !state.assembly->fully_received())) {
    throw std::logic_error("set_group: group has traffic in flight");
  }
  state.entry = std::move(entry);
  state.child_next_acked.assign(state.entry.children.size(), 0);
  state.recv_seq = 0;
  state.send_seq = 0;
  state.barrier = TreeRound{};
  state.barrier.child_arrived.assign(state.entry.children.size(), false);
  state.reduce = ReduceRound{};
  state.reduce.child_arrived.assign(state.entry.children.size(), false);
}

bool Nic::has_group(net::GroupId group) const {
  return groups_.contains(group);
}

void Nic::remove_group(net::GroupId group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  // A forward stalled on send-token exhaustion (ablation mode) is traffic
  // in flight too: erasing the group under it would leave the deferred
  // entry pointing at nothing and crash the token-release restart path.
  if (!it->second.records.empty() || has_deferred_forward(group) ||
      (it->second.assembly && !it->second.assembly->fully_received())) {
    throw std::logic_error("remove_group: group has traffic in flight");
  }
  sim_.cancel(it->second.timer);
  sim_.cancel(it->second.barrier.resend_timer);
  sim_.cancel(it->second.reduce.resend_timer);
  groups_.erase(it);
}

bool Nic::has_deferred_forward(net::GroupId group) const {
  for (const DeferredForward& deferred : deferred_forwards_) {
    if (deferred.packet.header.group == group) return true;
  }
  return false;
}

void Nic::debug_set_group_seq(net::GroupId group, SeqNum seq) {
  GroupState& state = groups_.at(group);
  state.recv_seq = seq;
  state.send_seq = seq;
  std::fill(state.child_next_acked.begin(), state.child_next_acked.end(),
            seq);
}

sim::Channel<HostEvent>& Nic::events(net::PortId port) {
  return port_state(port).events;
}

std::size_t Nic::send_tokens_available(net::PortId port) const {
  const Port* p = ports_.at(port).get();
  return config_.send_tokens_per_port - (p ? p->send_tokens_in_use : 0);
}

std::size_t Nic::recv_buffers_posted(net::PortId port) const {
  const Port* p = ports_.at(port).get();
  return p ? p->recv_buffers.size() : 0;
}

Nic::Port& Nic::port_state(net::PortId port) {
  std::unique_ptr<Port>& slot = ports_.at(port);
  if (!slot) slot = std::make_unique<Port>();
  return *slot;
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

void Nic::send_message(net::PortId port, NodeList dests,
                       net::PortId dest_port, MessageRef message,
                       std::uint32_t tag, OpHandle handle) {
  cpu_.run(config_.send_token_processing,
           [this, dests = std::move(dests), message = std::move(message),
            handle, tag, port, dest_port] {
    for (std::size_t i = 0, n = packet_count(message.size()); i < n; ++i) {
      const Fragment frag = fragment(message.size(), i);
      sdma_then(frag.length, [this, dests, message, frag, handle, tag, port,
                              dest_port] {
        net::PacketHeader header;
        header.type = net::PacketType::kData;
        header.src = id_;
        header.src_port = port;
        header.dst_port = dest_port;
        header.msg_offset = frag.offset;
        header.msg_length = static_cast<std::uint32_t>(message.size());
        header.tag = tag;
        start_replica_chain(
            make_descriptor(build_packet(header, message, frag)), dests,
            [this, message, frag, handle](net::Packet& p, net::NodeId dest) {
              // Per replica: aim at the destination and stamp the
              // connection's Go-back-N sequence number and send record.
              p.header.dst = dest;
              SenderConn& conn = sender_conns_[conn_key(
                  p.header.src_port, dest, p.header.dst_port)];
              p.header.seq = conn.next_seq++;
              conn.records.push_back(p.header.seq, sim_.now(),
                                     SendRecord{.message = message,
                                                .fragment = frag,
                                                .header = p.header,
                                                .handle = handle});
            },
            [this](const net::Packet& p,
                   const net::Network::TxTiming& timing) {
              const std::uint64_t key = conn_key(
                  p.header.src_port, p.header.dst, p.header.dst_port);
              sender_conns_[key].records.touch(p.header.seq, timing.tx_done);
              arm_conn_timer(key);
            });
      });
    }
  });
}

void Nic::sdma_then(std::size_t bytes, sim::EventQueue::Action next) {
  const sim::Duration busy =
      config_.dma_startup + config_.per_packet_processing +
      sim::transfer_time(bytes, config_.host_dma_mbps);
  sdma_.run(busy, std::move(next));
}

DescriptorRef Nic::make_descriptor(net::Packet packet) {
  DescriptorRef descriptor = descriptors_.acquire(std::move(packet));
  stats_.descriptor_allocs = descriptors_.allocs();
  stats_.descriptor_reuses = descriptors_.reuses();
  return descriptor;
}

net::Packet Nic::build_packet(const net::PacketHeader& header,
                              const MessageRef& message,
                              Fragment fragment) {
  net::Packet packet;
  packet.header = header;
  // Refcount bump, no byte copy: the packet views its fragment of the
  // message block posted by the host.
  packet.payload = message.slice(fragment.offset, fragment.length);
  ++stats_.payload_refs;
  return packet;
}

net::Network::TxTiming Nic::transmit(DescriptorRef descriptor) {
  ++stats_.packets_sent;
  if (auditor_) auditor_->on_packet_sent(*this, descriptor->packet);
  const auto timing = network_.transmit(descriptor->packet);
  if (descriptor->on_tx_complete) {
    sim_.schedule_at(timing.tx_done, [descriptor] {
      descriptor->on_tx_complete(descriptor);
    });
  }
  return timing;
}

void Nic::start_replica_chain(DescriptorRef descriptor,
                              std::span<const net::NodeId> dests,
                              PrepareFn prepare, OnTransmitFn on_transmit) {
  struct ChainState {
    NodeList dests;
    std::size_t index = 0;
    PrepareFn prepare;
    OnTransmitFn on_transmit;
  };
  prepare(descriptor->packet, dests.front());
  std::shared_ptr<ChainState> state;
  if (dests.size() > 1) {
    state = std::allocate_shared<ChainState>(
        sim::PoolAllocator<ChainState>{});
    state->dests.assign(dests.begin(), dests.end());
    state->prepare = std::move(prepare);
    state->on_transmit = std::move(on_transmit);
    descriptor->on_tx_complete = [this, state](DescriptorRef d) {
      ++state->index;
      if (state->index >= state->dests.size()) return;  // chain done; freed
      ++stats_.header_rewrites;
      cpu_.run(config_.header_rewrite, [this, state, d] {
        state->prepare(d->packet, state->dests[state->index]);
        const auto timing = transmit(d);
        if (state->on_transmit) state->on_transmit(d->packet, timing);
      });
    };
  }
  const auto timing = transmit(descriptor);
  OnTransmitFn& report = state ? state->on_transmit : on_transmit;
  if (report) report(descriptor->packet, timing);
}

void Nic::send_tree_packet(net::GroupId group_id, SendRecord record,
                           StagingRelease on_forwarded) {
  GroupState& group = groups_.at(group_id);
  DescriptorRef descriptor = make_descriptor(
      build_packet(record.header, record.message, record.fragment));
  const SeqNum seq = record.header.seq;
  group.records.push_back(seq, sim_.now(), std::move(record));
  arm_group_timer(group_id);
  start_replica_chain(
      std::move(descriptor), group.entry.children,
      [](net::Packet& p, net::NodeId dest) { p.header.dst = dest; },
      // The on_transmit closure fires once per replica and lives exactly as
      // long as the chain, so the remaining-replica count rides in a
      // mutable by-value capture instead of a heap counter.
      [this, group_id,
       replicas_left = static_cast<std::uint32_t>(group.entry.children.size()),
       on_forwarded = std::move(on_forwarded)](
          const net::Packet& p,
          const net::Network::TxTiming& timing) mutable {
        touch_group_record(group_id, p.header.seq, timing.tx_done);
        arm_group_timer(group_id);
        if (--replicas_left == 0 && on_forwarded.pending()) {
          // The staging buffer is free once the last replica has left the
          // wire (retransmissions refetch from host memory).
          sim_.schedule_at(timing.tx_done,
                           [this, holder = std::move(on_forwarded)]() mutable {
                             finish_staging(holder);
                           });
        }
      });
}

void Nic::touch_group_record(net::GroupId group_id, SeqNum seq,
                             sim::TimePoint sent_at) {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) return;
  it->second.records.touch(seq, sent_at);
}

// ---------------------------------------------------------------------------
// Send records: one lifecycle for connections and groups.  Each caller
// keeps its own ack test (a cumulative seq, or every child's acked entry)
// and its own follow-up (the connection's reset handshake).
// ---------------------------------------------------------------------------

template <typename Acked>
void Nic::retire_acked(net::PortId port, SendWindow<SendRecord>& records,
                       Acked acked) {
  while (!records.empty() && acked(records.front_seq())) {
    const SendRecord& front = records.front_cold();
    if (front.handle != 0) op_packet_acked(front.handle);
    if (front.holds_token) release_send_token(port);
    if (front.holds_rx_buffer) release_rx_buffer();
    records.pop_front();
  }
}

void Nic::give_up(net::PortId port, SendWindow<SendRecord>& records) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SendRecord& record = records.cold(i);
    if (record.handle != 0) fail_operation(record.handle);
    if (record.holds_token) release_send_token(port);
    if (record.holds_rx_buffer) release_rx_buffer();
  }
  records.clear();
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void Nic::packet_arrived(net::Packet packet) {
  if (packet.corrupted) {
    // CRC failure: silently dropped; the sender's timeout recovers it.
    ++stats_.crc_drops;
    trace("nic", [&] { return "CRC drop " + packet.describe(); });
    return;
  }
  ++stats_.packets_received;
  switch (packet.header.type) {
    case net::PacketType::kData:
      cpu_.run(config_.recv_packet_processing,
               [this, p = std::move(packet)] { handle_data(p); });
      break;
    case net::PacketType::kAck:
      cpu_.run(config_.ack_processing,
               [this, p = std::move(packet)] { handle_ack(p); });
      break;
    case net::PacketType::kMcastData:
      cpu_.run(config_.recv_packet_processing,
               [this, p = std::move(packet)] { handle_mcast_data(p); });
      break;
    case net::PacketType::kMcastAck:
      cpu_.run(config_.ack_processing,
               [this, p = std::move(packet)] { handle_mcast_ack(p); });
      break;
    case net::PacketType::kBarrier:
      cpu_.run(config_.ack_processing,
               [this, p = std::move(packet)] { handle_barrier(p); });
      break;
    case net::PacketType::kReduce:
      cpu_.run(config_.recv_packet_processing,
               [this, p = std::move(packet)] { handle_reduce(p); });
      break;
    case net::PacketType::kReduceAck:
      cpu_.run(config_.ack_processing,
               [this, p = std::move(packet)] { handle_reduce_ack(p); });
      break;
    case net::PacketType::kCtrl:
      cpu_.run(config_.ack_processing,
               [this, p = std::move(packet)] { handle_ctrl(p); });
      break;
  }
}

void Nic::handle_data(const net::Packet& packet) {
  const std::uint64_t key = conn_key(packet.header.dst_port,
                                     packet.header.src,
                                     packet.header.src_port);
  ReceiverConn& conn = receiver_conns_[key];
  if (!accept_in_order(packet.header.dst_port, conn.expected_seq,
                       conn.assembly, packet, "nic")) {
    return;
  }
  accept_payload(packet.header.dst_port, conn.assembly, packet,
                 HostEvent::Type::kRecvComplete, StagingRelease::sole());
}

bool Nic::accept_in_order(net::PortId port, SeqNum& expected,
                          AssemblyRef& assembly, const net::Packet& packet,
                          const char* category) {
  if (packet.header.seq == expected) {
    if (!ensure_assembly(port, assembly, packet)) {
      // Receiver overrun: no receive token.  Do not ack; Go-back-N at the
      // sender retries until the host posts a buffer.
      ++stats_.no_token_drops;
      trace(category,
            [&] { return "no recv token, dropping " + packet.describe(); });
      return false;
    }
    if (!acquire_rx_buffer()) {
      // NIC SRAM exhausted: refuse the packet, the sender retries.
      ++stats_.nic_buffer_drops;
      return false;
    }
    if (auditor_) auditor_->on_data_accepted(*this, packet);
    ++expected;
    send_ack(packet, packet.header.seq);
    return true;
  }
  if (seq_before(packet.header.seq, expected)) {
    // Duplicate (our ack was lost): re-ack so the sender advances.
    ++stats_.duplicate_drops;
    send_ack(packet, expected - 1);
  } else {
    // Gap: a predecessor was lost.  Drop; Go-back-N resends the window.
    ++stats_.out_of_order_drops;
  }
  return false;
}

void Nic::handle_ack(const net::Packet& packet) {
  const std::uint64_t key = conn_key(packet.header.dst_port,
                                     packet.header.src,
                                     packet.header.src_port);
  auto it = sender_conns_.find(key);
  if (it == sender_conns_.end()) return;  // stale ack
  SenderConn& conn = it->second;
  // Cumulative ack: every record up to the acked seq arrived.
  retire_acked(packet.header.dst_port, conn.records, [&](SeqNum seq) {
    return seq_before_eq(seq, packet.header.seq);
  });
  sim_.cancel(conn.timer);
  arm_conn_timer(key);
}

void Nic::handle_mcast_data(const net::Packet& packet) {
  auto it = groups_.find(packet.header.group);
  if (it == groups_.end()) {
    // Demand-driven group creation hasn't reached this node yet; drop
    // without acking, the parent keeps retrying.
    ++stats_.no_token_drops;
    trace("mcast",
          [&] { return "unknown group, dropping " + packet.describe(); });
    return;
  }
  GroupState& group = it->second;
  if (!accept_in_order(group.entry.port, group.recv_seq, group.assembly,
                       packet, "mcast")) {
    return;
  }
  // Staging-buffer release policy (paper §5, "Messages Forwarding"):
  // chosen = release once the RDMA and every forwarding transmission
  // finished (the host replica covers retransmissions); naive ablation
  // (hold_buffers_until_acked) = pin until every child acknowledged.
  const bool forwards = !group.entry.children.empty();
  // In the naive ablation a FORWARDED packet's buffer is pinned by its
  // send record until every child acks; leaves (nothing to forward)
  // always release at RDMA completion.
  const bool record_pins = forwards && options_.hold_buffers_until_acked;
  // With record_pins, neither completion holds the buffer: it is released
  // when the record is pruned.
  StagingRelease rdma_release;
  StagingRelease forward_release;
  if (!record_pins) {
    rdma_release = StagingRelease::sole();
    // Shared between the RDMA completion and the last replica's wire
    // push: whichever finishes last returns the buffer.
    if (forwards) forward_release = rdma_release.share();
  }
  if (forwards) {
    // NIC-based forwarding: re-queue towards the children without any
    // host involvement, per-packet (pipelining across the tree).
    start_forward(packet, std::move(forward_release));
  }
  accept_payload(group.entry.port, group.assembly, packet,
                 HostEvent::Type::kMcastRecvComplete, std::move(rdma_release));
}

void Nic::handle_mcast_ack(const net::Packet& packet) {
  auto it = groups_.find(packet.header.group);
  if (it == groups_.end()) return;
  GroupState& group = it->second;
  const auto child = group.child_slot(packet.header.src);
  if (!child) return;  // stale/foreign ack

  const SeqNum next = packet.header.seq + 1;
  if (seq_before(group.child_next_acked[*child], next)) {
    group.child_next_acked[*child] = next;
  }

  // Retire the records every child has acknowledged.
  retire_acked(group.entry.port, group.records, [&](SeqNum seq) {
    return std::all_of(group.child_next_acked.begin(),
                       group.child_next_acked.end(),
                       [&](SeqNum n) { return seq_before(seq, n); });
  });
  sim_.cancel(group.timer);
  arm_group_timer(packet.header.group);
}

// ---------------------------------------------------------------------------
// kCtrl reset handshake
//
// Sent by a sender whose max-retries failure cleared its window: next_seq
// is now ahead of the receiver's expected_seq, and without a resync every
// later send on the connection would be dropped as out-of-order and time
// out as well (the connection is wedged forever).  The request carries the
// seq the receiver must expect next; any half-assembled message it was
// accumulating is abandoned (the sender already reported kSendFailed for
// it) and its host buffer returns to the port's pool.
//
// The request retries on the retransmit timeout, bounded by max_retries;
// an unreachable peer makes it give up silently (the next send failure
// re-initiates the reset).  Connection entries are never erased.
// ---------------------------------------------------------------------------

void Nic::handle_ctrl(const net::Packet& packet) {
  const std::uint64_t key = conn_key(packet.header.dst_port,
                                     packet.header.src,
                                     packet.header.src_port);
  switch (packet.header.msg_offset) {
    case kCtrlResetReq: {
      ReceiverConn& conn = receiver_conns_[key];
      // A reset can race data it was anchored before: if this receiver has
      // already accepted past the requested seq (the covering acks are in
      // flight back to the sender), re-seating backwards would re-open the
      // door to duplicate delivery.  Ignore the stale re-seat but still ack
      // so the sender's handshake converges.
      if (!seq_before(packet.header.seq, conn.expected_seq)) {
        if (conn.assembly && !conn.assembly->fully_accepted()) {
          // Abandon the partial message; the receive buffer it claimed goes
          // back to the pool (in-flight RDMA completions hold their own
          // reference to the assembly and release their staging buffers as
          // they land).
          port_state(packet.header.dst_port)
              .recv_buffers.push_back(conn.assembly->buffer);
          conn.assembly.reset();
        }
        conn.expected_seq = packet.header.seq;
        if (auditor_) {
          auditor_->on_conn_reset(*this, packet.header.dst_port,
                                  packet.header.src, packet.header.src_port,
                                  packet.header.seq);
        }
        trace("nic", [&] {
          return "conn reset from node" + std::to_string(packet.header.src) +
                 ", expecting seq " + std::to_string(packet.header.seq);
        });
      }
      send_ctrl(key, kCtrlResetAck, packet.header.seq);
      break;
    }
    case kCtrlResetAck: {
      auto it = sender_conns_.find(key);
      if (it == sender_conns_.end()) return;
      SenderConn& conn = it->second;
      if (conn.ctrl != Ctrl::kReset || packet.header.seq != conn.ctrl_seq) {
        return;  // stale ack from an earlier reset attempt
      }
      sim_.cancel(conn.ctrl_timer);
      conn.ctrl = Ctrl::kNone;
      break;
    }
    default:
      trace("nic", [&] {
        return "ignoring unknown CTRL subtype " + packet.describe();
      });
      break;
  }
}

void Nic::send_ctrl(std::uint64_t key, std::uint32_t subtype, SeqNum seq) {
  net::PacketHeader header;
  header.type = net::PacketType::kCtrl;
  header.src = id_;
  header.dst = conn_peer(key);
  header.src_port = conn_my_port(key);
  header.dst_port = conn_peer_port(key);
  header.seq = seq;
  header.msg_offset = subtype;
  ++stats_.ctrl_packets;
  cpu_.run(config_.ack_processing, [this, header] {
    transmit(make_descriptor(net::Packet{header, {}, false}));
  });
}

void Nic::begin_conn_reset(std::uint64_t key) {
  SenderConn& conn = sender_conns_[key];
  conn.ctrl = Ctrl::kReset;
  conn.ctrl_retries = 0;
  conn.ctrl_seq =
      conn.records.empty() ? conn.next_seq : conn.records.front_seq();
  ++stats_.conn_resets;
  trace("nic", [&] {
    return "conn to node" + std::to_string(conn_peer(key)) +
           " resetting at seq " + std::to_string(conn.ctrl_seq);
  });
  send_ctrl(key, kCtrlResetReq, conn.ctrl_seq);
  arm_ctrl_timer(key);
}

void Nic::arm_ctrl_timer(std::uint64_t key) {
  SenderConn& conn = sender_conns_[key];
  if (conn.ctrl_timer) return;
  conn.ctrl_timer = sim_.schedule_after(config_.retransmit_timeout,
                                        [this, key] { ctrl_timeout(key); });
}

void Nic::ctrl_timeout(std::uint64_t key) {
  SenderConn& conn = sender_conns_[key];
  conn.ctrl_timer.reset();
  if (conn.ctrl == Ctrl::kNone) return;
  if (conn.ctrl_retries >= config_.max_retries) {
    // Peer unreachable: give up — the next send failure initiates a fresh
    // handshake.
    conn.ctrl = Ctrl::kNone;
    return;
  }
  ++conn.ctrl_retries;
  // New sends may have been posted since the last attempt; re-anchor the
  // resync point at the oldest outstanding record.
  conn.ctrl_seq =
      conn.records.empty() ? conn.next_seq : conn.records.front_seq();
  send_ctrl(key, kCtrlResetReq, conn.ctrl_seq);
  arm_ctrl_timer(key);
}

void Nic::send_ack(const net::Packet& data_packet, SeqNum cumulative_seq) {
  net::Packet ack;
  ack.header = ack_header_for(data_packet, cumulative_seq);
  ++stats_.acks_sent;
  cpu_.run(config_.ack_processing, [this, ack = std::move(ack)] {
    transmit(make_descriptor(ack));
  });
}

bool Nic::ensure_assembly(net::PortId port, AssemblyRef& slot,
                          const net::Packet& packet) {
  // In-order delivery means a new message begins exactly when the previous
  // one has had all its bytes accepted (its RDMA may still be draining).
  if (slot && !slot->fully_accepted()) {
    // The sender interleaved another message's packet into this one on the
    // same connection: merging it would lose one message and corrupt the
    // other, so fail loudly instead.
    if (packet.header.msg_offset != slot->accepted ||
        packet.header.msg_length != slot->data.size()) [[unlikely]] {
      std::string what = "interleaved message: ";
      what += packet.describe();
      what += " does not continue the open ";
      what += std::to_string(slot->data.size());
      what += "-byte message at byte ";
      what += std::to_string(slot->accepted);
      throw std::logic_error(what);
    }
    return true;
  }

  // GM matches receive buffers by size: take the first posted buffer large
  // enough for the whole message.  No fit => receiver overrun; the sender's
  // Go-back-N retries until the host posts a suitable buffer.
  auto& buffers = port_state(port).recv_buffers;
  const auto fit = std::find_if(
      buffers.begin(), buffers.end(), [&](const RecvBuffer& b) {
        return b.capacity >= packet.header.msg_length;
      });
  if (fit == buffers.end()) return false;
  auto assembly =
      std::allocate_shared<Assembly>(sim::PoolAllocator<Assembly>{});
  assembly->buffer = *fit;
  buffers.erase(fit);
  assembly->data.resize(packet.header.msg_length);
  assembly->tag = packet.header.tag;
  slot = std::move(assembly);
  return true;
}

void Nic::accept_payload(net::PortId port, AssemblyRef assembly,
                         const net::Packet& packet,
                         HostEvent::Type event_type,
                         StagingRelease on_rdma_done) {
  const sim::Duration busy =
      config_.dma_startup +
      sim::transfer_time(packet.payload.size(), config_.host_dma_mbps);
  assembly->accepted += packet.payload.size();
  // Only the header fields the completion reads are captured, so the
  // closure fits the event queue's inline storage.
  rdma_.run(busy, [this, assembly = std::move(assembly),
                   payload = packet.payload,
                   on_rdma_done = std::move(on_rdma_done),
                   offset = packet.header.msg_offset, src = packet.header.src,
                   group = packet.header.group, event_type, port,
                   src_port = packet.header.src_port]() mutable {
    // The one copy on the receive side: RDMA lands the shared fragment
    // view into this message's host assembly buffer.
    std::copy(payload.begin(), payload.end(),
              assembly->data.begin() + offset);
    stats_.payload_bytes_copied += payload.size();
    assembly->received += payload.size();
    finish_staging(on_rdma_done);
    if (!assembly->fully_received()) return;

    HostEvent event;
    event.type = event_type;
    event.handle = assembly->buffer.handle;
    event.src = src;
    event.src_port = src_port;
    event.group = group;
    event.tag = assembly->tag;
    event.data = std::move(assembly->data);
    deliver_event(port, std::move(event));
  });
}

// ---------------------------------------------------------------------------
// NIC-level barrier (extension, paper §7)
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint32_t kBarrierArrive = 0;
constexpr std::uint32_t kBarrierRelease = 1;
}  // namespace

net::Packet Nic::tree_packet(net::PacketType type, net::GroupId group_id,
                             const GroupState& group, net::NodeId dst,
                             SeqNum epoch, std::uint32_t subtype) {
  net::Packet packet;
  packet.header.type = type;
  packet.header.src = id_;
  packet.header.dst = dst;
  packet.header.src_port = group.entry.port;
  packet.header.dst_port = group.entry.port;
  packet.header.seq = epoch;
  packet.header.group = group_id;
  packet.header.msg_offset = subtype;
  return packet;
}

void Nic::arm_round_timer(TreeRound& round, net::GroupId group_id,
                          void (Nic::*on_timeout)(net::GroupId)) {
  if (round.resend_timer) return;
  round.resend_timer = sim_.schedule_after(
      config_.retransmit_timeout,
      [this, group_id, on_timeout] { (this->*on_timeout)(group_id); });
}

template <typename Round>
bool Nic::round_retry(net::GroupId group_id, const GroupState& group,
                      Round& round, std::uint64_t& resends_stat) {
  round.resend_timer.reset();
  if (round.resends < config_.max_retries) {
    ++round.resends;
    ++resends_stat;
    return true;
  }
  // The parent is unreachable: fail the host's call and stay aligned with
  // the tree's round.  host_posted clears, so the host may re-enter.
  notify_host(group.entry.port, HostEvent::Type::kSendFailed, round.handle,
              group_id);
  round.open(round.epoch);
  return false;
}

void Nic::handle_barrier(const net::Packet& packet) {
  auto it = groups_.find(packet.header.group);
  if (it == groups_.end()) {
    // Group not installed yet (skewed first round); the child's arrive
    // resend recovers once the host programs the table.
    return;
  }
  GroupState& group = it->second;
  TreeRound& barrier = group.barrier;

  if (packet.header.msg_offset == kBarrierArrive) {
    const auto child = group.child_slot(packet.header.src);
    if (!child) return;  // stale/foreign arrive
    if (packet.header.seq == barrier.epoch) {
      barrier.child_arrived[*child] = true;
      barrier_check_complete(packet.header.group);
    } else if (seq_before(packet.header.seq, barrier.epoch)) {
      // The child missed our release for a past round: re-release it
      // directly (the release is the implicit ack of the arrive).
      transmit(make_descriptor(
          tree_packet(net::PacketType::kBarrier, packet.header.group, group,
                      packet.header.src, packet.header.seq,
                      kBarrierRelease)));
    }
    return;
  }

  // Release from the parent.
  if (packet.header.seq != barrier.epoch) return;  // duplicate old release
  barrier_release(packet.header.group);
}

void Nic::barrier_check_complete(net::GroupId group_id) {
  GroupState& group = groups_.at(group_id);
  if (!group.barrier.all_arrived()) return;
  if (group.entry.parent == kNoNode) {
    // Root: everyone is in — release the tree.
    barrier_release(group_id);
  } else {
    barrier_send_arrive(group_id);
  }
}

void Nic::barrier_send_arrive(net::GroupId group_id) {
  GroupState& group = groups_.at(group_id);
  transmit(make_descriptor(
      tree_packet(net::PacketType::kBarrier, group_id, group,
                  group.entry.parent, group.barrier.epoch, kBarrierArrive)));
  arm_round_timer(group.barrier, group_id, &Nic::barrier_resend_timeout);
}

void Nic::barrier_resend_timeout(net::GroupId group_id) {
  GroupState& group = groups_.at(group_id);
  // The release advances the epoch and cancels the timer; if we are here
  // the round is still pending — the arrive (or the release) was lost.
  if (round_retry(group_id, group, group.barrier, stats_.barrier_resends)) {
    barrier_send_arrive(group_id);
  }
}

void Nic::barrier_release(net::GroupId group_id) {
  GroupState& group = groups_.at(group_id);
  TreeRound& barrier = group.barrier;
  const SeqNum epoch = barrier.epoch;
  sim_.cancel(barrier.resend_timer);
  ++stats_.barriers_completed;
  notify_host(group.entry.port, HostEvent::Type::kBarrierDone, barrier.handle,
              group_id);
  barrier.open(epoch + 1);

  // Propagate the release down the tree (tiny control packets; children
  // that miss it will keep re-arriving and get a direct re-release).
  if (group.entry.children.empty()) return;
  start_replica_chain(
      make_descriptor(tree_packet(net::PacketType::kBarrier, group_id, group,
                                  group.entry.children.front(), epoch,
                                  kBarrierRelease)),
      group.entry.children,
      [](net::Packet& p, net::NodeId dest) { p.header.dst = dest; });
}

// ---------------------------------------------------------------------------
// NIC-level reduction (extension, paper §7)
// ---------------------------------------------------------------------------

void Nic::reduce_combine(net::GroupId group_id,
                         const net::Buffer& contribution) {
  ReduceRound& reduce = groups_.at(group_id).reduce;
  if (reduce.accumulator.empty()) {
    // The accumulator is the one mutable payload in the NIC: it must own
    // its bytes, so the first contribution is copied out of the shared
    // block (explicit copy point; lane-adds below mutate it in place).
    reduce.accumulator = contribution.to_vector();
    stats_.payload_bytes_copied += contribution.size();
  } else {
    if (reduce.accumulator.size() != contribution.size()) {
      throw std::logic_error("reduce: mismatched vector sizes in group");
    }
    // Lane-wise 64-bit add on the LANai.
    for (std::size_t lane = 0; lane + 8 <= contribution.size(); lane += 8) {
      std::uint64_t a = 0;
      std::uint64_t b = 0;
      for (int i = 0; i < 8; ++i) {
        a |= std::to_integer<std::uint64_t>(reduce.accumulator[lane + i])
             << (8 * i);
        b |= std::to_integer<std::uint64_t>(contribution[lane + i]) << (8 * i);
      }
      const std::uint64_t sum = a + b;
      for (int i = 0; i < 8; ++i) {
        reduce.accumulator[lane + i] =
            std::byte{static_cast<std::uint8_t>(sum >> (8 * i))};
      }
    }
  }
  ++stats_.reductions_combined;
  // The combine itself occupies the LANai.
  cpu_.run(sim::transfer_time(contribution.size(), config_.nic_combine_mbps),
           [] {});
}

void Nic::handle_reduce(const net::Packet& packet) {
  auto it = groups_.find(packet.header.group);
  if (it == groups_.end()) return;  // not installed yet; child resends
  GroupState& group = it->second;
  ReduceRound& reduce = group.reduce;
  const auto child = group.child_slot(packet.header.src);
  if (!child) return;

  if (packet.header.seq == reduce.epoch) {
    if (!reduce.child_arrived[*child]) {
      reduce.child_arrived[*child] = true;
      reduce_combine(packet.header.group, packet.payload);
      reduce_check_complete(packet.header.group);
    }
  } else if (!seq_before(packet.header.seq, reduce.epoch)) {
    // Future epochs are impossible unless our own round lags; ignore — the
    // child's resend recovers once we catch up.
    return;
  }
  // A duplicate from a completed round (our ack was lost) is re-acked,
  // never re-combined.
  transmit(make_descriptor(tree_packet(net::PacketType::kReduceAck,
                                       packet.header.group, group,
                                       packet.header.src, packet.header.seq)));
}

void Nic::reduce_check_complete(net::GroupId group_id) {
  GroupState& group = groups_.at(group_id);
  ReduceRound& reduce = group.reduce;
  if (reduce.sent_up || !reduce.all_arrived()) return;
  if (group.entry.parent == kNoNode) {
    // Root: the accumulator is the cluster-wide sum.
    HostEvent event;
    event.type = HostEvent::Type::kReduceDone;
    event.handle = reduce.handle;
    event.group = group_id;
    event.data = std::move(reduce.accumulator);
    // The result crosses back to host memory.
    const sim::Duration busy =
        config_.dma_startup +
        sim::transfer_time(event.data.size(), config_.host_dma_mbps);
    rdma_.run(busy, [this, group_id, event = std::move(event)]() mutable {
      GroupState& g = groups_.at(group_id);
      deliver_event(g.entry.port, std::move(event));
      g.reduce.open(g.reduce.epoch + 1);
    });
    return;
  }
  reduce.sent_up = true;
  reduce_send_up(group_id);
}

void Nic::reduce_send_up(net::GroupId group_id) {
  GroupState& group = groups_.at(group_id);
  ReduceRound& reduce = group.reduce;
  net::Packet packet = tree_packet(net::PacketType::kReduce, group_id, group,
                                   group.entry.parent, reduce.epoch);
  packet.header.msg_length =
      static_cast<std::uint32_t>(reduce.accumulator.size());
  // The accumulator keeps mutating after this send (later contributions
  // and the next round), so the wire snapshot must be a copy.
  packet.payload = net::Buffer::copy_of(reduce.accumulator);
  stats_.payload_bytes_copied += reduce.accumulator.size();
  transmit(make_descriptor(std::move(packet)));
  arm_round_timer(reduce, group_id, &Nic::reduce_resend_timeout);
}

void Nic::reduce_resend_timeout(net::GroupId group_id) {
  GroupState& group = groups_.at(group_id);
  if (!group.reduce.sent_up) {  // acked meanwhile
    group.reduce.resend_timer.reset();
    return;
  }
  if (round_retry(group_id, group, group.reduce, stats_.reduce_resends)) {
    reduce_send_up(group_id);
  }
}

void Nic::handle_reduce_ack(const net::Packet& packet) {
  auto it = groups_.find(packet.header.group);
  if (it == groups_.end()) return;
  GroupState& group = it->second;
  ReduceRound& reduce = group.reduce;
  if (packet.header.seq != reduce.epoch || !reduce.sent_up) return;
  sim_.cancel(reduce.resend_timer);
  notify_host(group.entry.port, HostEvent::Type::kSendComplete, reduce.handle,
              packet.header.group);
  reduce.open(reduce.epoch + 1);
}

// ---------------------------------------------------------------------------
// NIC-based forwarding
// ---------------------------------------------------------------------------

void Nic::start_forward(const net::Packet& packet,
                        StagingRelease on_forwarded) {
  bool holds_token = false;
  if (options_.forwarding_uses_send_tokens) {
    // Ablation: the rejected design — forwarding draws from the finite
    // send-token pool and stalls when it is empty.
    const net::PortId port_id = groups_.at(packet.header.group).entry.port;
    Port& port = port_state(port_id);
    if (port.send_tokens_in_use >= config_.send_tokens_per_port) {
      deferred_forwards_.push_back(
          DeferredForward{packet, std::move(on_forwarded)});
      trace("mcast",
            [] { return std::string("forward STALLED waiting for send token"); });
      return;
    }
    ++port.send_tokens_in_use;
    stats_.send_tokens_in_use_high_water =
        std::max<std::uint64_t>(stats_.send_tokens_in_use_high_water,
                                port.send_tokens_in_use);
    if (auditor_) {
      auditor_->on_send_tokens(*this, port_id, port.send_tokens_in_use);
    }
    holds_token = true;
  }
  // Chosen design: the receive token doubles as the transmission token, so
  // forwarding needs no extra NIC resource (paper §5, "Messages
  // Forwarding").
  ++stats_.forwards;
  ++stats_.header_rewrites;  // first replica needs its header rewritten too
  // The packet's header and payload are captured apart (an accepted
  // packet is never corrupted), so the closure fits the event queue's
  // inline storage.
  cpu_.run(config_.forward_processing + config_.header_rewrite,
           [this, payload = packet.payload,
            on_forwarded = std::move(on_forwarded), header = packet.header,
            holds_token]() mutable {
    // Zero-copy forwarding: the record and every replica share the
    // incoming packet's view of the root's block — a NIC hop never
    // duplicates bytes.  The view holds exactly this packet's bytes, so the
    // fragment is relative to it (offset 0); the wire offset within the
    // whole message lives in the header and is preserved across
    // retransmissions.
    SendRecord record{
        .message = payload,
        .fragment = {0, static_cast<std::uint32_t>(payload.size())},
        .header = header,
        .holds_token = holds_token,
        .holds_rx_buffer = options_.hold_buffers_until_acked};
    record.header.src = id_;  // acks must come back to this hop
    send_tree_packet(header.group, std::move(record), std::move(on_forwarded));
  });
}

// ---------------------------------------------------------------------------
// Reliability: timers and retransmission
// ---------------------------------------------------------------------------

void Nic::arm_conn_timer(std::uint64_t key) {
  SenderConn& conn = sender_conns_[key];
  if (conn.timer || conn.records.empty()) return;
  conn.timer = sim_.schedule_at(
      conn.records.deadline(config_.retransmit_timeout, sim_.now()),
      [this, key] { conn_timeout(key); });
}

void Nic::conn_timeout(std::uint64_t key) {
  SenderConn& conn = sender_conns_[key];
  conn.timer.reset();
  if (conn.records.empty()) return;

  if (!conn.records.overdue(config_.retransmit_timeout, sim_.now())) {
    arm_conn_timer(key);
    return;
  }

  if (conn.records.front_cold().retries >= config_.max_retries) {
    // Peer unreachable: fail every operation with records on this
    // connection and drop the window.
    give_up(conn_my_port(key), conn.records);
    // The receiver's expected_seq is now behind our next_seq (it never
    // accepted the abandoned window), so without a resync every later send
    // on this connection would be discarded as out-of-order and fail too —
    // the connection is wedged.  Handshake the receiver forward.
    begin_conn_reset(key);
    return;
  }
  // Go-back-N: retransmit the full outstanding window, refetching each
  // packet's bytes from (registered) host memory over the SDMA engine.
  trace("nic", [&] {
    return "timeout, retransmitting " + std::to_string(conn.records.size()) +
           " packet(s)";
  });
  for (std::size_t i = 0; i < conn.records.size(); ++i) {
    SendRecord& record = conn.records.cold(i);
    ++record.retries;
    conn.records.hot(i).sent_at = sim_.now();
    ++stats_.retransmissions;
    retransmit_record(record.header, record.message, record.fragment);
  }
  arm_conn_timer(key);
}

void Nic::arm_group_timer(net::GroupId group_id) {
  GroupState& group = groups_.at(group_id);
  if (group.timer || group.records.empty()) return;
  group.timer = sim_.schedule_at(
      group.records.deadline(config_.retransmit_timeout, sim_.now()),
      [this, group_id] { group_timeout(group_id); });
}

void Nic::group_timeout(net::GroupId group_id) {
  GroupState& group = groups_.at(group_id);
  group.timer.reset();
  if (group.records.empty()) return;

  if (!group.records.overdue(config_.retransmit_timeout, sim_.now())) {
    arm_group_timer(group_id);
    return;
  }

  if (group.records.front_cold().retries >= config_.max_retries) {
    give_up(group.entry.port, group.records);
    return;
  }
  // Selective Go-back-N (paper §5): retransmit a timed-out packet and its
  // successors ONLY towards children that have not acknowledged it.
  const auto& children = group.entry.children;
  for (std::size_t i = 0; i < group.records.size(); ++i) {
    SendRecord& record = group.records.cold(i);
    ++record.retries;
    group.records.hot(i).sent_at = sim_.now();
    const SeqNum record_seq = group.records.hot(i).seq;
    for (std::size_t c = 0; c < children.size(); ++c) {
      if (seq_before(record_seq, group.child_next_acked[c])) continue;
      ++stats_.retransmissions;
      net::PacketHeader header = record.header;
      header.dst = children[c];
      retransmit_record(header, record.message, record.fragment);
    }
  }
  arm_group_timer(group_id);
}

void Nic::retransmit_record(const net::PacketHeader& header,
                            const MessageRef& message, Fragment fragment) {
  // The replica lives in registered host memory (the NIC buffer was
  // released when forwarding/transmission completed), so a retransmission
  // pays a fresh host DMA — the paper's chosen alternative.
  sdma_then(fragment.length, [this, header, message, fragment] {
    transmit(make_descriptor(build_packet(header, message, fragment)));
  });
}

void Nic::fail_operation(OpHandle handle) {
  auto it = pending_ops_.find(handle);
  if (it == pending_ops_.end()) return;
  const net::PortId port = it->second.port;
  pending_ops_.erase(it);
  release_send_token(port);
  notify_host(port, HostEvent::Type::kSendFailed, handle);
}

// ---------------------------------------------------------------------------
// Completion plumbing
// ---------------------------------------------------------------------------

void Nic::op_packet_acked(OpHandle handle) {
  auto it = pending_ops_.find(handle);
  if (it == pending_ops_.end()) return;  // already failed
  if (--it->second.remaining > 0) return;
  const HostEvent::Type type = it->second.complete_type;
  const net::PortId port = it->second.port;
  pending_ops_.erase(it);
  release_send_token(port);
  notify_host(port, type, handle);
}

void Nic::open_op(const char* op, net::PortId port, OpHandle handle,
                  HostEvent::Type complete_type, std::uint64_t packets) {
  if (handle == 0) {
    // A send record with handle 0 belongs to no operation (a forward's).
    throw std::invalid_argument("a send handle must not be 0");
  }
  // Reject a duplicate before taking the token, or the token leaks.
  if (pending_ops_.contains(handle)) {
    throw std::logic_error(std::string(op) + ": duplicate handle " +
                           std::to_string(handle));
  }
  consume_send_token(port);
  pending_ops_.try_emplace(handle, PendingOp{complete_type, port, packets});
}

void Nic::notify_host(net::PortId port, HostEvent::Type type,
                      OpHandle handle, net::GroupId group) {
  HostEvent event;
  event.type = type;
  event.handle = handle;
  event.group = group;
  deliver_event(port, std::move(event));
}

void Nic::deliver_event(net::PortId port, HostEvent event) {
  if (auditor_) auditor_->on_event(*this, port, event);
  sim_.schedule_after(config_.event_delivery,
                      [this, port, event = std::move(event)]() mutable {
                        port_state(port).events.push(std::move(event));
                      });
}

bool Nic::acquire_rx_buffer() {
  if (rx_buffers_in_use_ >= config_.nic_rx_buffers) return false;
  ++rx_buffers_in_use_;
  stats_.rx_buffers_high_water = std::max<std::uint64_t>(
      stats_.rx_buffers_high_water, rx_buffers_in_use_);
  if (auditor_) auditor_->on_rx_buffers(*this, rx_buffers_in_use_);
  return true;
}

void Nic::release_rx_buffer() {
  if (rx_buffers_in_use_ == 0) {
    throw std::logic_error("NIC rx-buffer release underflow");
  }
  --rx_buffers_in_use_;
  if (auditor_) auditor_->on_rx_buffers(*this, rx_buffers_in_use_);
}

void Nic::consume_send_token(net::PortId port) {
  Port& p = port_state(port);
  if (p.send_tokens_in_use >= config_.send_tokens_per_port) {
    throw std::logic_error("send-token pool exhausted; the GM layer must "
                           "wait for a completion before posting");
  }
  ++p.send_tokens_in_use;
  stats_.send_tokens_in_use_high_water = std::max<std::uint64_t>(
      stats_.send_tokens_in_use_high_water, p.send_tokens_in_use);
  if (auditor_) auditor_->on_send_tokens(*this, port, p.send_tokens_in_use);
}

void Nic::release_send_token(net::PortId port) {
  Port& p = port_state(port);
  if (p.send_tokens_in_use == 0) {
    throw std::logic_error("send-token release underflow");
  }
  --p.send_tokens_in_use;
  if (auditor_) auditor_->on_send_tokens(*this, port, p.send_tokens_in_use);
  if (options_.forwarding_uses_send_tokens && !deferred_forwards_.empty()) {
    // A token freed up: restart the oldest stalled forward on this port.
    // A stalled entry's group may have been torn down while it waited
    // (remove_group now refuses that, but set_group replacing a tree does
    // not have to keep old group ids alive) — purge such orphans instead of
    // dereferencing a dead group, which used to crash here.
    for (auto it = deferred_forwards_.begin();
         it != deferred_forwards_.end();) {
      auto group_it = groups_.find(it->packet.header.group);
      if (group_it == groups_.end()) {
        finish_staging(it->on_forwarded);  // free the staging buffer
        it = deferred_forwards_.erase(it);
        continue;
      }
      if (group_it->second.entry.port == port) {
        DeferredForward deferred = std::move(*it);
        deferred_forwards_.erase(it);
        start_forward(deferred.packet, std::move(deferred.on_forwarded));
        break;
      }
      ++it;
    }
  }
}

void Nic::emit_trace(const char* category, const std::string& message) {
  if (sim_.tracer().enabled(category)) {
    sim_.tracer().emit(sim_.now(), category,
                       "node" + std::to_string(id_) + ".nic", message);
  }
}

}  // namespace nicmcast::nic
