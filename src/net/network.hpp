// The wormhole-routed network channel model.
//
// Myrinet switches are cut-through: the packet head advances one hop per
// `hop_latency` while the body streams behind it at link bandwidth, and the
// whole path is effectively occupied for the packet's serialisation time.
// We model exactly that: an injection time is chosen so that every link on
// the (source-routed) path is free when the head reaches it, then every link
// is marked busy for the serialisation window, staggered by hop latency.
// This captures first-order path contention without simulating flits.
//
// This header is the one place the rule is written: NetworkConfig's timing
// methods and reserve_links.  Network::transmit applies it to a whole
// route; ShardedFabric applies it to each owner-maximal route segment.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/fault_model.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace nicmcast::net {

struct NetworkConfig {
  /// Link bandwidth.  Myrinet-2000: 2 Gb/s = 250 MB/s.
  double bandwidth_mbps = 250.0;
  /// Per-switch-hop head latency (cut-through), including cable flight time.
  sim::Duration hop_latency = sim::usec(0.3);
  /// Route + header + CRC framing bytes added to every packet on the wire.
  std::size_t framing_bytes = 24;
  /// Packets at or below this wire size (acks and other control traffic)
  /// interleave at flit granularity in real wormhole switches instead of
  /// waiting for a whole-path slot.  They are charged serialisation and hop
  /// latency but neither wait on nor add to link occupancy.  The scalar
  /// per-link occupancy model would otherwise let a 24-byte ack reserve the
  /// sender's uplink tens of microseconds in the future and falsely block
  /// data behind it.
  std::size_t small_packet_bypass_bytes = 128;

  /// Time one link needs to carry `wire_bytes` (framing included).
  [[nodiscard]] constexpr sim::Duration serialization(
      std::size_t wire_bytes) const {
    return sim::transfer_time(wire_bytes, bandwidth_mbps);
  }
  /// Control-sized: charged latency and serialisation, but reserves no link.
  [[nodiscard]] constexpr bool bypasses(std::size_t wire_bytes) const {
    return wire_bytes <= small_packet_bypass_bytes;
  }
  /// How long after injection the packet head reaches route link `links`.
  [[nodiscard]] constexpr sim::Duration head_latency(std::size_t links) const {
    return hop_latency * static_cast<std::int64_t>(links);
  }
  /// When the last byte of a packet injected at `inject` leaves `hops` links.
  [[nodiscard]] constexpr sim::TimePoint arrival(
      sim::TimePoint inject, std::size_t hops, std::size_t wire_bytes) const {
    return inject + head_latency(hops) + serialization(wire_bytes);
  }
};

/// Reserves links [begin, end) of `path` for a packet of `wire_bytes`:
/// returns the earliest (virtual) injection instant v >= inject at which
/// the head, reaching link k at v + head_latency(k), finds each link free,
/// and marks each busy for one serialisation from then.  Reserving a route
/// in consecutive segments, each from the previous segment's v, gives the
/// whole route's v but frees upstream links early behind a busy one.
inline sim::TimePoint reserve_links(const NetworkConfig& config,
                                    std::vector<sim::TimePoint>& link_free,
                                    const Route& path, std::size_t begin,
                                    std::size_t end, sim::TimePoint inject,
                                    std::size_t wire_bytes) {
  sim::TimePoint v = inject;
  for (std::size_t k = begin; k < end; ++k) {
    v = std::max(v, link_free[path[k]] - config.head_latency(k));
  }
  const sim::Duration ser = config.serialization(wire_bytes);
  for (std::size_t k = begin; k < end; ++k) {
    link_free[path[k]] = v + config.head_latency(k) + ser;
  }
  return v;
}

/// Receiver interface implemented by the NIC model.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void packet_arrived(Packet packet) = 0;
};

struct NetworkStats {
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_corrupted = 0;
  std::uint64_t payload_bytes_delivered = 0;
};

class Network {
 public:
  Network(sim::Simulator& sim, Topology topology, NetworkConfig config = {});

  /// Registers the NIC receiving packets addressed to `node`.
  void attach(NodeId node, PacketSink& sink);

  /// Replaces the fault injector (default: NoFaults).
  void set_fault_injector(std::unique_ptr<FaultInjector> injector);

  struct TxTiming {
    /// When the source NIC has pushed the last byte onto its first link
    /// (its transmit DMA engine is free again).
    sim::TimePoint tx_done;
    /// When the last byte reaches the destination NIC (only meaningful if
    /// delivered).
    sim::TimePoint arrival;
    bool delivered = false;
  };

  /// Injects `packet` at the current simulation time.  Chooses the earliest
  /// conflict-free injection instant given current path occupancy, applies
  /// fault injection, and schedules delivery to the destination sink.
  TxTiming transmit(Packet packet);

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  /// Lazy route-cache counters (materialized pairs, stored links).
  [[nodiscard]] const RouteTableStats& route_stats() const {
    return routes_.stats();
  }

 private:
  sim::Simulator& sim_;
  Topology topology_;
  NetworkConfig config_;
  RouteTable routes_;  // lazy route cache: one entry per pair used
  std::vector<sim::TimePoint> link_free_at_;     // per-link occupancy
  std::vector<PacketSink*> sinks_;
  std::unique_ptr<FaultInjector> faults_;
  NetworkStats stats_;
};

}  // namespace nicmcast::net
