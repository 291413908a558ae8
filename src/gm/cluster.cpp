#include "gm/cluster.hpp"

#include <stdexcept>

namespace nicmcast::gm {

net::Topology build_topology(const ClusterConfig& config) {
  switch (config.wiring) {
    case ClusterConfig::Wiring::kSingleSwitch:
      return net::Topology::single_switch(config.nodes);
    case ClusterConfig::Wiring::kClos:
      return net::Topology::clos(config.nodes, config.switch_radix);
    case ClusterConfig::Wiring::kBackToBack:
      if (config.nodes != 2) {
        throw std::invalid_argument("back-to-back wiring needs 2 nodes");
      }
      return net::Topology::back_to_back();
  }
  throw std::logic_error("unknown wiring");
}

Cluster::Cluster(ClusterConfig config)
    : config_(config), sim_(config.seed) {
  network_ = std::make_unique<net::Network>(sim_, build_topology(config_));
  nics_.reserve(config_.nodes);
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    nics_.push_back(std::make_unique<nic::Nic>(
        sim_, *network_, static_cast<net::NodeId>(i), config_.nic,
        config_.nic_options));
  }
  ports_.resize(config_.nodes * nic::kPortsPerNic);
}

Port& Cluster::port(std::size_t node, net::PortId port_id) {
  if (node >= nics_.size() || port_id >= nic::kPortsPerNic) {
    throw std::out_of_range("Cluster::port: bad node or port id");
  }
  auto& slot = ports_[node * nic::kPortsPerNic + port_id];
  if (!slot) {
    slot = std::make_unique<Port>(sim_, *nics_[node], port_id);
  }
  return *slot;
}

std::vector<sim::ProcessRef> Cluster::run_on_all(
    std::function<sim::Task<void>(Cluster&, net::NodeId)> program) {
  programs_.push_back(std::move(program));
  const auto& stored = programs_.back();
  std::vector<sim::ProcessRef> handles;
  handles.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    handles.push_back(sim_.spawn(stored(*this, static_cast<net::NodeId>(i)),
                                 "node" + std::to_string(i)));
  }
  return handles;
}

}  // namespace nicmcast::gm
