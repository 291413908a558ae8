#include "mcast/bcast.hpp"

#include <stdexcept>

namespace nicmcast::mcast {

void install_group(gm::Cluster& cluster, const Tree& tree, net::GroupId group,
                   net::PortId port) {
  tree.validate();
  for (net::NodeId node : tree.nodes()) {
    cluster.port(node, port).set_group(group, tree.entry_for(node, port));
  }
}

sim::Task<gm::Payload> host_bcast(gm::Port& port, const Tree& tree,
                                  gm::Payload data, std::uint32_t tag) {
  const net::NodeId me = port.node();
  if (!tree.contains(me)) {
    throw std::logic_error("host_bcast: node not in tree");
  }
  if (me != tree.root()) {
    // Blocking receive: the host must be in the call before it can forward
    // — exactly the skew sensitivity the NIC-based scheme removes.
    gm::RecvMessage msg = co_await port.receive();
    if (msg.tag != tag) {
      throw std::logic_error("host_bcast: unexpected message tag");
    }
    data = std::move(msg.data);
  }
  // Host-based forwarding: post one unicast per child back to back (the
  // MPICH-GM pattern — each posting costs < 1us of host time), then wait
  // for all of them to be acknowledged.
  if (co_await port.send_each(tree.children(me), port.port_id(), data,
                              tag) != gm::SendStatus::kOk) {
    throw std::runtime_error("host_bcast: send failed");
  }
  co_return data;
}

sim::Task<gm::Payload> nic_bcast(gm::Port& port, const Tree& tree,
                                 net::GroupId group, gm::Payload data,
                                 std::uint32_t tag) {
  const net::NodeId me = port.node();
  if (!tree.contains(me)) {
    throw std::logic_error("nic_bcast: node not in tree");
  }
  if (me == tree.root()) {
    // The NIC takes a copy across the PCI bus; the root keeps its payload.
    const gm::SendStatus status = co_await port.mcast_send(group, data, tag);
    if (status != gm::SendStatus::kOk) {
      throw std::runtime_error("nic_bcast: multicast send failed");
    }
    co_return data;
  }
  gm::RecvMessage msg = co_await port.receive();
  if (msg.group != group || msg.tag != tag) {
    throw std::logic_error("nic_bcast: unexpected message");
  }
  co_return std::move(msg.data);
}

}  // namespace nicmcast::mcast
