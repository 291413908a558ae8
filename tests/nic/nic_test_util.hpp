// Shared fixture helpers for NIC-level tests: a small cluster of NICs on a
// single-switch network, payload generators and event drains.
#pragma once

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "nic/nic.hpp"
#include "sim/simulator.hpp"

namespace nicmcast::nic::testing {

struct TestCluster {
  explicit TestCluster(std::size_t n, NicConfig config = {},
                       NicOptions options = {},
                       net::NetworkConfig net_config = {})
      : network(sim, net::Topology::single_switch(n), net_config) {
    nics.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      nics.push_back(std::make_unique<Nic>(
          sim, network, static_cast<net::NodeId>(i), config, options));
    }
  }

  // The NICs die before sim; a run cut short leaves events that still
  // reference them.
  ~TestCluster() { sim.drop_pending_events(); }

  Nic& nic(std::size_t i) { return *nics.at(i); }

  /// Posts `count` receive buffers of `capacity` bytes on port 0 of node i.
  void post_buffers(std::size_t node, std::size_t count, std::size_t capacity,
                    OpHandle first_handle = 1000) {
    for (std::size_t k = 0; k < count; ++k) {
      nic(node).post_recv_buffer(
          RecvBuffer{0, capacity, first_handle + k});
    }
  }

  /// Drains every event currently queued on port 0 of node i.
  std::vector<HostEvent> drain_events(std::size_t node) {
    std::vector<HostEvent> out;
    auto& ch = nic(node).events(0);
    while (auto ev = ch.try_pop()) out.push_back(std::move(*ev));
    return out;
  }

  sim::Simulator sim;
  net::Network network;
  std::vector<std::unique_ptr<Nic>> nics;
};

/// Deterministic payload: byte i = (i * 131 + salt) & 0xff.
inline Payload make_payload(std::size_t n, std::uint8_t salt = 0) {
  Payload p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = std::byte{static_cast<std::uint8_t>(i * 131u + salt)};
  }
  return p;
}

inline bool payload_equals(const Payload& a, const Payload& b) {
  return a == b;
}

}  // namespace nicmcast::nic::testing
