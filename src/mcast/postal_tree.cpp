#include "mcast/postal_tree.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

namespace nicmcast::mcast {

namespace {

struct WireCosts {
  std::size_t packets;
  sim::Duration message_wire_time;   // serialisation of every packet
  sim::Duration first_packet_wire;   // serialisation of the first packet
  sim::Duration path_latency;        // switch hops
};

WireCosts wire_costs(std::size_t message_bytes, const nic::NicConfig& nic,
                     const net::NetworkConfig& net) {
  const std::size_t max_pkt = nic.max_packet_payload;
  const std::size_t packets =
      message_bytes == 0 ? 1 : (message_bytes + max_pkt - 1) / max_pkt;
  sim::Duration total{0};
  std::size_t remaining = message_bytes;
  sim::Duration first{0};
  for (std::size_t p = 0; p < packets; ++p) {
    const std::size_t chunk = std::min(max_pkt, remaining);
    const sim::Duration w = net.serialization(chunk + net.framing_bytes);
    if (p == 0) first = w;
    total += w;
    remaining -= chunk;
  }
  // Single-switch fabric: two hops endpoint->switch->endpoint.
  return WireCosts{packets, total, first, net.head_latency(2)};
}

sim::Duration dma_time(std::size_t bytes, const nic::NicConfig& nic) {
  return nic.dma_startup + nic.per_packet_processing +
         sim::transfer_time(bytes, nic.host_dma_mbps);
}

}  // namespace

PostalCostModel PostalCostModel::nic_based(std::size_t message_bytes,
                                           const nic::NicConfig& nic,
                                           const net::NetworkConfig& net) {
  const WireCosts wire = wire_costs(message_bytes, nic, net);
  PostalCostModel model;
  // g: the descriptor-callback replica chain pays a header rewrite plus the
  // full message serialisation per extra destination.
  model.gap = wire.message_wire_time +
              nic.header_rewrite * static_cast<std::int64_t>(wire.packets);
  // L: posting + token processing + first-packet DMA, the wire, then the
  // receive-side processing after which the intermediate NIC can forward
  // (it forwards per packet, so only the first packet's landing matters,
  // but it must finish *receiving* the whole message to have sent it on —
  // use the full message wire time as the stream cost).
  model.latency = nic.host_post_overhead + nic.host_to_nic_delay +
                  nic.send_token_processing +
                  dma_time(std::min<std::size_t>(message_bytes,
                                                 nic.max_packet_payload),
                           nic) +
                  wire.message_wire_time + wire.path_latency +
                  nic.recv_packet_processing + nic.header_rewrite;
  return model;
}

PostalCostModel PostalCostModel::host_based(std::size_t message_bytes,
                                            const nic::NicConfig& nic,
                                            const net::NetworkConfig& net) {
  const WireCosts wire = wire_costs(message_bytes, nic, net);
  PostalCostModel model;
  // g: a full send-token processing per destination, pipelined against the
  // DMA and the wire — the slowest stage dominates.
  const sim::Duration per_packet_dma =
      dma_time(std::min<std::size_t>(message_bytes, nic.max_packet_payload),
               nic);
  model.gap = std::max(
      {nic.send_token_processing,
       per_packet_dma * static_cast<std::int64_t>(wire.packets),
       wire.message_wire_time});
  // L: the receiver's host must see the complete message, return from its
  // blocking receive and post new sends before it can forward.
  model.latency = nic.host_post_overhead + nic.host_to_nic_delay +
                  nic.send_token_processing + per_packet_dma +
                  wire.message_wire_time + wire.path_latency +
                  nic.recv_packet_processing +
                  dma_time(message_bytes, nic) +  // RDMA to host memory
                  nic.event_delivery + nic.host_post_overhead;
  return model;
}

Tree build_postal_tree(net::NodeId root, std::vector<net::NodeId> dests,
                       const PostalCostModel& cost) {
  dests = normalize_destinations(root, std::move(dests));
  Tree tree(root);
  const sim::Duration gap = std::max(cost.gap, sim::nsec(1));
  // Postal model: latency includes the send gap (L >= g).  Without the
  // clamp, pipelined large messages (per-hop latency below the per-message
  // gap) would degenerate into chains instead of doubling trees.
  const sim::Duration latency = std::max(cost.latency, gap);

  // The paper's fan-out rule: a node sends to at most ceil(L/g) further
  // destinations — the number it can reach before its first receiver is
  // ready to take over.  The cap keeps mid-size messages (lambda near 1)
  // on binomial-like shapes instead of letting the greedy schedule pile
  // children onto the root.
  const double lambda = latency / gap;
  const std::size_t fanout_cap = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(lambda)));

  // (next send completion time, node); ties broken by node id so runs are
  // deterministic.
  struct Sender {
    sim::TimePoint ready;
    net::NodeId node;
    bool operator>(const Sender& other) const {
      if (ready != other.ready) return ready > other.ready;
      return node > other.node;
    }
  };
  std::priority_queue<Sender, std::vector<Sender>, std::greater<>> senders;
  senders.push(Sender{sim::TimePoint{0}, root});
  std::unordered_map<net::NodeId, std::size_t> child_count;

  for (net::NodeId dest : dests) {
    Sender s = senders.top();
    senders.pop();
    tree.add_edge(s.node, dest);
    // The new destination can start sending after the message lands.
    senders.push(Sender{s.ready + latency, dest});
    // The sender can reach one more destination after `gap`, until it hits
    // the fan-out cap.
    if (++child_count[s.node] < fanout_cap) {
      senders.push(Sender{s.ready + gap, s.node});
    }
  }
  return tree;
}

}  // namespace nicmcast::mcast
