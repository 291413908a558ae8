// The wormhole-routed network channel model.
//
// Myrinet switches are cut-through: the packet head advances one hop per
// `hop_latency` while the body streams behind it at link bandwidth, and the
// whole path is effectively occupied for the packet's serialisation time.
// We model exactly that: an injection time is chosen so that every link on
// the (source-routed) path is free when the head reaches it, then every link
// is marked busy for the serialisation window, staggered by hop latency.
// This captures first-order path contention without simulating flits.
#pragma once

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
};

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
  /// Lazy route-cache counters (materialized pairs, arena sharing).
  [[nodiscard]] const RouteTableStats& route_stats() const {
    return routes_.stats();
  }

  /// Serialisation time of a packet of `payload` bytes on one link.
  [[nodiscard]] sim::Duration serialization_time(std::size_t payload) const {
    return sim::transfer_time(payload + config_.framing_bytes,
                              config_.bandwidth_mbps);
  }

 private:
  sim::Simulator& sim_;
  Topology topology_;
  NetworkConfig config_;
  RouteTable routes_;  // lazy interned per-source route cache
  std::vector<sim::TimePoint> link_free_at_;     // per-link occupancy
  std::vector<PacketSink*> sinks_;
  std::unique_ptr<FaultInjector> faults_;
  NetworkStats stats_;
};

}  // namespace nicmcast::net
