// Host <-> NIC interface types.
//
// These mirror GM's host-visible objects: send events, receive descriptors,
// the receive-event queue, and (new in this work) multisend / multicast send
// events plus the NIC-resident group table that the host preposts spanning
// trees into.
#pragma once

#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace nicmcast::nic {

using Payload = std::vector<std::byte>;

/// Host-side cookie identifying an operation in completion events.
using OpHandle = std::uint64_t;

constexpr net::NodeId kNoNode = std::numeric_limits<net::NodeId>::max();

/// Point-to-point send event (GM's gm_send_with_callback).
struct SendRequest {
  net::PortId port = 0;
  net::NodeId dest = 0;
  net::PortId dest_port = 0;
  Payload data;
  std::uint32_t tag = 0;
  OpHandle handle = 0;
};

/// NIC-based multisend: one host posting, one host->NIC DMA, replicas to
/// every destination via packet-descriptor callback re-queueing (paper §5,
/// "Sending of Multiple Message Replicas", chosen alternative 2).
struct MultisendRequest {
  net::PortId port = 0;
  std::vector<net::NodeId> dests;
  net::PortId dest_port = 0;
  Payload data;
  std::uint32_t tag = 0;
  OpHandle handle = 0;
};

/// NIC-based multicast send over a preposted group tree.
struct McastSendRequest {
  net::PortId port = 0;
  net::GroupId group = net::kNoGroup;
  Payload data;
  std::uint32_t tag = 0;
  OpHandle handle = 0;
};

/// A registered receive buffer preposted to the NIC (receive token once
/// translated).  The multicast path reuses these tokens at intermediate
/// nodes both to land data in host memory and as the retransmission source.
struct RecvBuffer {
  net::PortId port = 0;
  std::size_t capacity = 0;
  OpHandle handle = 0;

  bool operator==(const RecvBuffer&) const = default;
};

/// Spanning-tree entry preposted into the NIC group table (paper §5, "the
/// host generates a spanning tree and inserts it into a group table stored
/// in the NIC").
struct GroupEntry {
  net::PortId port = 0;  // owning port; other ports may not touch the group
  net::NodeId parent = kNoNode;  // kNoNode at the root
  std::vector<net::NodeId> children;
};

/// NIC -> host completion/receive events (GM receive-event queue).
struct HostEvent {
  enum class Type {
    kSendComplete,       // all packets of a unicast message acked
    kMultisendComplete,  // every destination acked every packet
    kMcastSendComplete,  // every child acked every packet (root)
    kRecvComplete,       // unicast message landed in a host buffer
    kMcastRecvComplete,  // multicast message landed in a host buffer
    kBarrierDone,        // NIC-level barrier released at this node
    kReduceDone,         // NIC-level reduction result (root only; has data)
    kSendFailed,         // retries exhausted (peer unreachable)
  };

  Type type = Type::kSendComplete;
  OpHandle handle = 0;       // send handle or receive-buffer handle
  net::NodeId src = 0;       // message origin (receive events)
  net::PortId src_port = 0;
  net::GroupId group = net::kNoGroup;
  std::uint32_t tag = 0;
  Payload data;              // received payload

  [[nodiscard]] std::string describe() const {
    switch (type) {
      case Type::kSendComplete: return "send-complete";
      case Type::kMultisendComplete: return "multisend-complete";
      case Type::kMcastSendComplete: return "mcast-send-complete";
      case Type::kRecvComplete: return "recv-complete";
      case Type::kMcastRecvComplete: return "mcast-recv-complete";
      case Type::kBarrierDone: return "barrier-done";
      case Type::kReduceDone: return "reduce-done";
      case Type::kSendFailed: return "send-failed";
    }
    return "?";
  }
};

/// Counters exposed for tests and the benchmark harness.
struct NicStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t crc_drops = 0;
  std::uint64_t out_of_order_drops = 0;
  std::uint64_t no_token_drops = 0;
  std::uint64_t duplicate_drops = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t forwards = 0;       // packets forwarded by the NIC
  std::uint64_t header_rewrites = 0;
  std::uint64_t send_tokens_in_use_high_water = 0;
  std::uint64_t barriers_completed = 0;   // NIC-level barrier releases seen
  std::uint64_t barrier_resends = 0;      // arrive retransmissions
  std::uint64_t reductions_combined = 0;  // contributions folded in firmware
  std::uint64_t reduce_resends = 0;
  std::uint64_t nic_buffer_drops = 0;     // packets refused: SRAM pool empty
  std::uint64_t rx_buffers_high_water = 0;
  std::uint64_t ctrl_packets = 0;      // kCtrl reset handshake packets
  std::uint64_t conn_resets = 0;       // reset handshakes initiated
  // -- memory-model observability (perf trajectory, not protocol state) --
  std::uint64_t descriptor_allocs = 0;   // descriptor pool grew by one
  std::uint64_t descriptor_reuses = 0;   // descriptor served from free list
  std::uint64_t payload_bytes_copied = 0;  // bytes physically memcpy'd
  std::uint64_t payload_refs = 0;          // zero-copy buffer shares instead
  // Always 0: the tables have no growth counter.  Kept, with its JSON
  // key, while the frozen bench/suite still reads it.
  std::uint64_t map_growths = 0;
};

/// The one list of NicStats fields: each counter's name (its bench-JSON
/// key) and member.  Summing and serialising NicStats go through this list
/// only, so a new counter is one field plus one entry here.
struct NicStatsField {
  const char* name;
  std::uint64_t NicStats::*member;
};

inline constexpr NicStatsField kNicStatsFields[] = {
    {"packets_sent", &NicStats::packets_sent},
    {"packets_received", &NicStats::packets_received},
    {"crc_drops", &NicStats::crc_drops},
    {"out_of_order_drops", &NicStats::out_of_order_drops},
    {"no_token_drops", &NicStats::no_token_drops},
    {"duplicate_drops", &NicStats::duplicate_drops},
    {"acks_sent", &NicStats::acks_sent},
    {"retransmissions", &NicStats::retransmissions},
    {"forwards", &NicStats::forwards},
    {"header_rewrites", &NicStats::header_rewrites},
    {"send_tokens_in_use_high_water", &NicStats::send_tokens_in_use_high_water},
    {"barriers_completed", &NicStats::barriers_completed},
    {"barrier_resends", &NicStats::barrier_resends},
    {"reductions_combined", &NicStats::reductions_combined},
    {"reduce_resends", &NicStats::reduce_resends},
    {"nic_buffer_drops", &NicStats::nic_buffer_drops},
    {"rx_buffers_high_water", &NicStats::rx_buffers_high_water},
    {"ctrl_packets", &NicStats::ctrl_packets},
    {"conn_resets", &NicStats::conn_resets},
    {"descriptor_allocs", &NicStats::descriptor_allocs},
    {"descriptor_reuses", &NicStats::descriptor_reuses},
    {"payload_bytes_copied", &NicStats::payload_bytes_copied},
    {"payload_refs", &NicStats::payload_refs},
    {"map_growths", &NicStats::map_growths},
};
static_assert(std::size(kNicStatsFields) * sizeof(std::uint64_t) ==
                  sizeof(NicStats),
              "every NicStats field needs a kNicStatsFields entry");

/// Memberwise sum — aggregates per-NIC counters into cluster-wide totals
/// (high-water marks are summed too: the totals are a traffic-volume view,
/// not a point-in-time snapshot).
inline void accumulate(NicStats& into, const NicStats& from) {
  for (const NicStatsField& field : kNicStatsFields) {
    into.*field.member += from.*field.member;
  }
}

}  // namespace nicmcast::nic
