#include "net/network.hpp"

#include <stdexcept>
#include <utility>

namespace nicmcast::net {

Network::Network(sim::Simulator& sim, Topology topology, NetworkConfig config)
    : sim_(sim),
      topology_(std::move(topology)),
      config_(config),
      routes_(topology_),
      link_free_at_(topology_.link_count(), sim::TimePoint{0}),
      sinks_(topology_.endpoint_count(), nullptr),
      faults_(std::make_unique<NoFaults>()) {}

void Network::attach(NodeId node, PacketSink& sink) {
  if (node >= sinks_.size()) throw std::out_of_range("attach: bad node id");
  sinks_[node] = &sink;
}

void Network::set_fault_injector(std::unique_ptr<FaultInjector> injector) {
  if (!injector) throw std::invalid_argument("null fault injector");
  faults_ = std::move(injector);
}

Network::TxTiming Network::transmit(Packet packet) {
  const NodeId src = packet.header.src;
  const NodeId dst = packet.header.dst;
  if (src >= sinks_.size() || dst >= sinks_.size()) {
    throw std::out_of_range("transmit: bad endpoint id");
  }
  if (src == dst) {
    throw std::logic_error("transmit: NIC loopback is handled in the NIC, "
                           "not the network");
  }

  const RouteView path = routes_.route(src, dst);
  const std::size_t wire_size = packet.wire_size(config_.framing_bytes);

  sim::TimePoint inject = sim_.now();
  if (!config_.bypasses(wire_size)) {
    inject = reserve_links(config_, link_free_at_, path, 0, path.size(),
                           inject, wire_size);
  }
  // else: control-sized packet — flit-interleaved, no path reservation.

  const sim::TimePoint tx_done = inject + config_.serialization(wire_size);
  const sim::TimePoint arrival =
      config_.arrival(inject, path.size(), wire_size);

  ++stats_.packets_injected;

  const FaultAction fault = faults_->on_packet(packet);
  TxTiming timing{tx_done, arrival, false};
  if (fault == FaultAction::kDrop) {
    ++stats_.packets_dropped;
    if (sim_.tracer().enabled("net")) {
      sim_.tracer().emit(sim_.now(), "net", "fabric",
                         "DROP " + packet.describe());
    }
    return timing;
  }
  if (fault == FaultAction::kCorrupt) {
    ++stats_.packets_corrupted;
    packet.corrupted = true;
  }

  PacketSink* sink = sinks_[dst];
  if (sink == nullptr) {
    throw std::logic_error("transmit: no sink attached at node " +
                           std::to_string(dst));
  }

  timing.delivered = true;
  stats_.payload_bytes_delivered += packet.payload_size();
  ++stats_.packets_delivered;

  if (sim_.tracer().enabled("net")) {
    sim_.tracer().emit(sim_.now(), "net", "fabric",
                       "XMIT " + packet.describe() + " arrival=" +
                           std::to_string(arrival.microseconds()) + "us");
  }

  sim_.schedule_at(arrival, [sink, p = std::move(packet)]() mutable {
    sink->packet_arrived(std::move(p));
  });
  return timing;
}

}  // namespace nicmcast::net
