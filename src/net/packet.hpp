// Network packet representation.
//
// Models a Myrinet/GM packet: a source route (implicit — we precompute
// paths), a GM-style header and up to gm::kMaxPacketPayload bytes of data.
// Payload bytes are carried for real so end-to-end tests can verify content
// integrity through retransmissions and NIC-level forwarding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/buffer.hpp"

namespace nicmcast::net {

/// Network id of a NIC endpoint.  The deadlock-avoidance rule in the
/// multicast tree construction ("child id > parent id unless parent is the
/// root") is expressed in terms of this id.
///
/// 32-bit so fabrics beyond 65536 endpoints are expressible (the sharded
/// PDES sweep runs them); `Topology` rejects endpoint counts that the id
/// width cannot address.  Wire formats that still serialise 16-bit ids
/// (the MPI group-setup payload) guard against truncation at encode time.
using NodeId = std::uint32_t;

/// A communication endpoint within a node (GM port).
using PortId = std::uint8_t;

/// Multicast group identifier (paper §5: "each multicast group has a unique
/// group identifier").
using GroupId = std::uint32_t;

constexpr GroupId kNoGroup = 0;

enum class PacketType : std::uint8_t {
  kData,       // point-to-point GM data packet
  kAck,        // acknowledgment (positive, cumulative per port/group)
  kMcastData,  // multicast data packet (NIC-forwarded along the tree)
  kMcastAck,   // child -> parent multicast acknowledgment
  kCtrl,       // control: the connection reset handshake
  kBarrier,    // NIC-level barrier: arrive (up) / release (down)
  kReduce,     // NIC-level reduction: combined contribution (up)
  kReduceAck,  // parent -> child: contribution absorbed
};

[[nodiscard]] constexpr const char* to_string(PacketType t) {
  switch (t) {
    case PacketType::kData: return "DATA";
    case PacketType::kAck: return "ACK";
    case PacketType::kMcastData: return "MCAST";
    case PacketType::kMcastAck: return "MACK";
    case PacketType::kCtrl: return "CTRL";
    case PacketType::kBarrier: return "BARR";
    case PacketType::kReduce: return "REDU";
    case PacketType::kReduceAck: return "RACK";
  }
  return "?";
}

struct PacketHeader {
  PacketType type = PacketType::kData;
  NodeId src = 0;
  NodeId dst = 0;
  PortId src_port = 0;
  PortId dst_port = 0;
  /// Per-(port|group) packet sequence number (Go-back-N space).
  std::uint32_t seq = 0;
  /// Multicast group, kNoGroup for point-to-point traffic.
  GroupId group = kNoGroup;
  /// Byte offset of this packet's payload within the whole message.
  std::uint32_t msg_offset = 0;
  /// Total message length in bytes (so the receiver can detect completion).
  std::uint32_t msg_length = 0;
  /// Sender-chosen message tag; carried to the receive event (GM has a
  /// small "tag"/size field; the MPI layer uses it for matching).
  std::uint32_t tag = 0;
};

struct Packet {
  PacketHeader header;
  /// Immutable shared view of (a fragment of) the message bytes.  Copying
  /// a Packet shares the block — forwarding, retransmission and transit
  /// never duplicate payload bytes (see net/buffer.hpp).
  Buffer payload;
  /// Set by the fault injector; the receiving NIC's CRC check drops the
  /// packet without acknowledging it.  Kept outside the payload on purpose:
  /// corruption flips this flag, it must never mutate shared bytes.
  bool corrupted = false;

  [[nodiscard]] std::size_t payload_size() const { return payload.size(); }

  /// Bytes that occupy the wire: route/header/CRC framing plus payload.
  [[nodiscard]] std::size_t wire_size(std::size_t framing_bytes) const {
    return framing_bytes + payload.size();
  }

  [[nodiscard]] std::string describe() const {
    // Plain appends, not operator+ chains: GCC 12's -Wrestrict false-fires
    // on `const char* + std::string&&` once std::to_string takes the
    // 32-bit NodeId overload.
    std::string s(to_string(header.type));
    s += ' ';
    s += std::to_string(header.src);
    s += "->";
    s += std::to_string(header.dst);
    s += " seq=";
    s += std::to_string(header.seq);
    if (header.group != kNoGroup) {
      s += " grp=";
      s += std::to_string(header.group);
    }
    s += " off=";
    s += std::to_string(header.msg_offset);
    s += " len=";
    s += std::to_string(payload.size());
    return s;
  }
};

}  // namespace nicmcast::net
