#include "nic/auditor.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "nic/nic.hpp"

namespace nicmcast::nic {

namespace {

// Drain violations are appended to a report that replay tests diff, so
// they must come out in a stable order; the connection/group tables are
// unordered_maps whose iteration order follows the hash seed.
template <typename Map>
std::vector<typename Map::key_type> sorted_keys(const Map& map) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool is_data(net::PacketType t) {
  return t == net::PacketType::kData || t == net::PacketType::kMcastData;
}

bool is_ack(net::PacketType t) {
  return t == net::PacketType::kAck || t == net::PacketType::kMcastAck ||
         t == net::PacketType::kReduceAck;
}

}  // namespace

void ProtocolAuditor::violation(const Nic& nic, std::string what) {
  violations_.push_back("node" + std::to_string(nic.id()) + ": " +
                        std::move(what));
}

void ProtocolAuditor::on_packet_sent(const Nic& nic,
                                     const net::Packet& packet) {
  if (is_data(packet.header.type)) {
    ++ledger_.data_sent;
  } else if (is_ack(packet.header.type)) {
    ++ledger_.acks_sent;
  } else if (packet.header.type == net::PacketType::kCtrl) {
    ++ledger_.ctrl_sent;
  } else {
    ++ledger_.other_sent;
  }
  // Every packet a NIC injects must carry that NIC as its source — the ack
  // and forwarding paths both rewrite src, and a violation here means a
  // stale header escaped onto the wire.
  if (packet.header.src != nic.id()) {
    violation(nic, "sent packet with foreign src " +
                       std::to_string(packet.header.src) + " (" +
                       packet.describe() + ")");
  }
  if (is_data(packet.header.type) &&
      packet.header.msg_offset + packet.payload.size() >
          packet.header.msg_length) {
    violation(nic, "data packet overruns its message: " + packet.describe());
  }
}

void ProtocolAuditor::on_data_accepted(const Nic& nic,
                                       const net::Packet& packet) {
  ++ledger_.data_accepted;
  const bool mcast = packet.header.type == net::PacketType::kMcastData;
  const std::uint64_t stream =
      mcast ? packet.header.group
            : Nic::conn_key(packet.header.dst_port, packet.header.src,
                            packet.header.src_port);
  const StreamKey key{nic.id(), mcast, stream};
  auto [it, first] = expected_.try_emplace(key, packet.header.seq);
  if (!first && packet.header.seq != it->second) {
    violation(nic, std::string(mcast ? "group" : "connection") +
                       " accepted seq " + std::to_string(packet.header.seq) +
                       " but " + std::to_string(it->second) +
                       " was next (duplicate or out-of-order acceptance)");
  }
  it->second = packet.header.seq + 1;
}

void ProtocolAuditor::on_conn_reset(const Nic& nic, net::PortId port,
                                    net::NodeId src, net::PortId src_port,
                                    SeqNum expected) {
  ++ledger_.conn_resets;
  const StreamKey key{nic.id(), false, Nic::conn_key(port, src, src_port)};
  // The sender abandoned everything before `expected`; acceptance resumes
  // there.  A reset that moved the expectation backwards would re-open the
  // door to duplicate delivery.
  auto it = expected_.find(key);
  if (it != expected_.end() && seq_before(expected, it->second)) {
    violation(nic, "connection reset moved expectation backwards: " +
                       std::to_string(it->second) + " -> " +
                       std::to_string(expected));
  }
  expected_[key] = expected;
}

void ProtocolAuditor::on_event(const Nic& nic, net::PortId port,
                               const HostEvent& event) {
  ++ledger_.events_delivered;
  if (event.type == HostEvent::Type::kSendFailed) ++ledger_.send_failures;
  if (port >= kPortsPerNic) {
    violation(nic, "event delivered to nonexistent port " +
                       std::to_string(port));
  }
}

void ProtocolAuditor::on_send_tokens(const Nic& nic, net::PortId port,
                                     std::size_t in_use) {
  if (in_use > nic.config().send_tokens_per_port) {
    violation(nic, "send-token conservation broken on port " +
                       std::to_string(port) + ": " + std::to_string(in_use) +
                       " in use, pool is " +
                       std::to_string(nic.config().send_tokens_per_port));
  }
}

void ProtocolAuditor::on_rx_buffers(const Nic& nic, std::size_t in_use) {
  if (in_use > nic.config().nic_rx_buffers) {
    violation(nic, "rx-buffer conservation broken: " +
                       std::to_string(in_use) + " in use, pool is " +
                       std::to_string(nic.config().nic_rx_buffers));
  }
}

void ProtocolAuditor::check_drained(const Nic& nic) {
  for (std::size_t p = 0; p < nic.ports_.size(); ++p) {
    const auto& port = nic.ports_[p];  // null: never used
    if (port && port->send_tokens_in_use != 0) {
      violation(nic, "port " + std::to_string(p) + " still holds " +
                         std::to_string(port->send_tokens_in_use) +
                         " send token(s) at drain");
    }
  }
  if (nic.rx_buffers_in_use_ != 0) {
    violation(nic, std::to_string(nic.rx_buffers_in_use_) +
                       " NIC rx staging buffer(s) still in use at drain");
  }
  if (!nic.pending_ops_.empty()) {
    violation(nic, std::to_string(nic.pending_ops_.size()) +
                       " pending operation(s) never completed nor failed");
  }
  if (!nic.deferred_forwards_.empty()) {
    violation(nic, std::to_string(nic.deferred_forwards_.size()) +
                       " forward(s) still stalled at drain");
  }
  for (const std::uint64_t key : sorted_keys(nic.sender_conns_)) {
    const auto& conn = nic.sender_conns_.at(key);
    const std::string peer = "conn to node" +
                             std::to_string(Nic::conn_peer(key));
    if (!conn.records.empty()) {
      violation(nic, peer + ": " + std::to_string(conn.records.size()) +
                         " unacked send record(s) at drain");
    }
    // Timer quiescence: at drain every scheduled event has fired, so any
    // still-set handle is leaked bookkeeping.
    if (conn.timer) violation(nic, peer + ": retransmit timer armed at drain");
    if (conn.ctrl_timer) violation(nic, peer + ": ctrl timer armed at drain");
    // A ctrl handshake either completes or gives up (ctrl -> kNone); a
    // pending state with no timer to drive it would hang forever.
    if (conn.ctrl != Nic::Ctrl::kNone) {
      violation(nic, peer + ": ctrl handshake still open at drain");
    }
  }
  for (const std::uint64_t key : sorted_keys(nic.receiver_conns_)) {
    const auto& conn = nic.receiver_conns_.at(key);
    if (conn.assembly && !conn.assembly->fully_accepted()) {
      violation(nic, "conn from node" + std::to_string(Nic::conn_peer(key)) +
                         ": partially assembled message stalled at drain");
    }
  }
  for (const net::GroupId group_id : sorted_keys(nic.groups_)) {
    const auto& group = nic.groups_.at(group_id);
    const std::string label = "group " + std::to_string(group_id);
    if (!group.records.empty()) {
      violation(nic, label + ": " + std::to_string(group.records.size()) +
                         " unacked forwarding record(s) at drain");
    }
    if (group.timer) violation(nic, label + ": group timer armed at drain");
    if (group.barrier.resend_timer) {
      violation(nic, label + ": barrier resend timer armed at drain");
    }
    if (group.reduce.resend_timer) {
      violation(nic, label + ": reduce resend timer armed at drain");
    }
    if (group.assembly && !group.assembly->fully_accepted()) {
      violation(nic,
                label + ": partially assembled message stalled at drain");
    }
  }
}

std::string ProtocolAuditor::report(std::size_t max_lines) const {
  std::string out;
  for (std::size_t i = 0; i < violations_.size() && i < max_lines; ++i) {
    out += violations_[i];
    out += '\n';
  }
  if (violations_.size() > max_lines) {
    out += "... and " + std::to_string(violations_.size() - max_lines) +
           " more violation(s)\n";
  }
  return out;
}

}  // namespace nicmcast::nic
