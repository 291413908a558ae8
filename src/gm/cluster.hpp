// Cluster builder: simulator + network + one NIC per node + GM ports.
//
// The entry point for examples, tests and benchmarks: constructs the whole
// simulated testbed (the paper's was 16 quad-Pentium-III nodes on a
// Myrinet-2000 Clos network) in a couple of lines.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "gm/port.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "nic/nic.hpp"
#include "sim/simulator.hpp"

namespace nicmcast::gm {

struct ClusterConfig {
  std::size_t nodes = 16;
  enum class Wiring { kSingleSwitch, kClos, kBackToBack } wiring =
      Wiring::kSingleSwitch;
  std::size_t switch_radix = 16;
  nic::NicConfig nic;
  nic::NicOptions nic_options;
  std::uint64_t seed = 1;
};

/// The topology `config` wires: its node count, wiring and switch radix.
[[nodiscard]] net::Topology build_topology(const ClusterConfig& config);

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  // The NICs, ports and network die before sim_; a run cut short leaves
  // events that still reference them.
  ~Cluster() { sim_.drop_pending_events(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::size_t size() const { return nics_.size(); }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] nic::Nic& nic(std::size_t node) { return *nics_.at(node); }

  /// GM port `port_id` on `node`, opened on first use.
  [[nodiscard]] Port& port(std::size_t node, net::PortId port_id = 0);

  /// Spawns `program(cluster, node)` on every node and returns the handles.
  /// The callable is kept alive by the Cluster: a coroutine lambda's
  /// captures live in its closure object, which the spawned coroutines keep
  /// referencing until they complete.
  std::vector<sim::ProcessRef> run_on_all(
      std::function<sim::Task<void>(Cluster&, net::NodeId)> program);

  /// Runs the simulator until every spawned process completes (or nothing
  /// is left to do), then surfaces any process failure.
  void run() { sim_.run(); }

 private:
  ClusterConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<nic::Nic>> nics_;
  // ports_[node * nic::kPortsPerNic + port_id], opened lazily.
  std::vector<std::unique_ptr<Port>> ports_;
  // Programs given to run_on_all; their closures must outlive the spawned
  // coroutines that reference them.
  std::deque<std::function<sim::Task<void>(Cluster&, net::NodeId)>> programs_;
};

}  // namespace nicmcast::gm
