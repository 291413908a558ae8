// The LANai firmware model: GM's reliable ordered transport plus the
// paper's NIC-based multisend and multicast-forwarding extensions.
//
// Engines: one LANai CPU (every token translation, sequence check, ack and
// header rewrite serialises here), an SDMA engine (host -> NIC over PCI), an
// RDMA engine (NIC -> host), and the wire itself (modelled by the Network's
// link occupancy).
//
// Reliability: per-connection Go-back-N exactly as GM does it — send
// records with timeout/retransmission, cumulative acks, receivers accept
// only the expected sequence number.  The multicast extension keeps, per
// group: a receive sequence number (from the parent), a send sequence number
// (to the children) and an array of per-child acknowledged sequence numbers;
// a timeout retransmits only to the children that have not acked (paper §5,
// "Reliability and In Order Delivery").
//
// Deadlock policy (paper §5, "Deadlock"): no credit-based flow control;
// forwarding transforms the receive token instead of drawing from the send-
// token pool.  Setting NicOptions::forwarding_uses_send_tokens replicates
// the rejected alternative for the ablation study.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "nic/config.hpp"
#include "nic/engine.hpp"
#include "nic/packet_descriptor.hpp"
#include "nic/send_window.hpp"
#include "nic/sequence.hpp"
#include "nic/types.hpp"
#include "sim/block_pool.hpp"
#include "sim/ring_deque.hpp"
#include "sim/simulator.hpp"

namespace nicmcast::nic {

class ProtocolAuditor;

/// GM ports per NIC.
inline constexpr std::size_t kPortsPerNic = 4;

struct NicOptions {
  /// Ablation: make the forwarding path grab tokens from the free send-token
  /// pool (the deadlock-prone alternative the paper rejects).  Forwards
  /// stall while the pool is empty.
  bool forwarding_uses_send_tokens = false;
  /// Ablation: disable the descriptor-callback replica chain and process one
  /// full send token per destination (the paper's alternative 1).
  bool multisend_uses_multiple_tokens = false;
  /// Ablation: the "naive solution" of §5 — keep the received packet's NIC
  /// staging buffer until every child acknowledges, instead of releasing it
  /// once the forwarding transmissions (and the host RDMA) are done.
  bool hold_buffers_until_acked = false;
};

class Nic final : public net::PacketSink {
 public:
  Nic(sim::Simulator& sim, net::Network& network, net::NodeId id,
      NicConfig config = {}, NicOptions options = {});

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  // ---- Host-facing interface (called by the GM library layer) ----
  // These model writes that have already crossed the PCI bus; the GM layer
  // charges host-side overhead and enforces send-token availability before
  // calling.

  void post_send(SendRequest request);
  void post_multisend(MultisendRequest request);
  void post_mcast_send(McastSendRequest request);
  /// Posts `count` copies of `buffer` as one LANai job that costs
  /// `count` × recv_token_processing; none is usable before the job ends.
  void post_recv_buffer(RecvBuffer buffer, std::size_t count = 1);

  /// NIC-level barrier arrival (extension; paper §7).  The host announces
  /// it reached the barrier for `group`'s current epoch; the NICs gather
  /// arrivals up the tree and the root's NIC releases everyone — no host
  /// involvement between entry and the kBarrierDone event.
  void post_barrier(net::PortId port, net::GroupId group, OpHandle handle);

  /// NIC-level reduction contribution (extension; paper §7 / "NIC-Based
  /// Reduction in Myrinet Clusters").  `data` is a vector of 8-byte
  /// little-endian integer lanes; the NICs fold children's contributions
  /// lane-wise as they arrive and forward the partial sum up the tree.
  /// Completion: non-root hosts get kSendComplete when the parent absorbs
  /// their combined value; the root host gets kReduceDone carrying the
  /// cluster-wide sum.  All ranks must contribute equal-size vectors.
  void post_reduce(net::PortId port, net::GroupId group, Payload data,
                   OpHandle handle);

  /// Preposts/updates the spanning-tree entry for `group` in the NIC group
  /// table.  Constant-time for the NIC; the host built the tree.
  void set_group(net::GroupId group, GroupEntry entry);
  [[nodiscard]] bool has_group(net::GroupId group) const;
  /// Drops a group's table entry (communicator teardown).  Outstanding
  /// traffic for the group must have quiesced.
  void remove_group(net::GroupId group);

  /// The receive-event queue of a port.  Host processes co_await on this.
  [[nodiscard]] sim::Channel<HostEvent>& events(net::PortId port);

  // ---- Introspection ----

  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] const NicConfig& config() const { return config_; }
  [[nodiscard]] const NicStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t send_tokens_available(net::PortId port) const;
  [[nodiscard]] std::size_t recv_buffers_posted(net::PortId port) const;
  /// Cumulative LANai CPU busy time (NIC utilisation benches).
  [[nodiscard]] sim::Duration cpu_busy_time() const {
    return cpu_.total_busy();
  }

  // ---- Network-facing interface ----
  void packet_arrived(net::Packet packet) override;

  // ---- Protocol auditing ----
  /// Attaches an invariant auditor (nullptr detaches).  Not owned; must
  /// outlive the NIC.  With no auditor attached every hook is one pointer
  /// compare.
  void set_auditor(ProtocolAuditor* auditor) { auditor_ = auditor; }

  // ---- Test hooks ----
  // Forces connection sequence counters so tests can exercise 32-bit
  // wraparound without sending 4 billion packets.
  void debug_set_send_seq(net::PortId port, net::NodeId dest,
                          net::PortId dest_port, SeqNum seq) {
    sender_conns_[conn_key(port, dest, dest_port)].next_seq = seq;
  }
  void debug_set_recv_seq(net::PortId port, net::NodeId src,
                          net::PortId src_port, SeqNum seq) {
    receiver_conns_[conn_key(port, src, src_port)].expected_seq = seq;
  }
  /// Forces a group's whole sequence space (recv, send, per-child acked) so
  /// soak runs can drive the multicast path across the 2^32 wrap.  Call on
  /// every member NIC right after the group is installed.
  void debug_set_group_seq(net::GroupId group, SeqNum seq);
  [[nodiscard]] std::size_t debug_sender_conn_count() const {
    return sender_conns_.size();
  }
  [[nodiscard]] std::size_t debug_receiver_conn_count() const {
    return receiver_conns_.size();
  }
  [[nodiscard]] std::size_t debug_deferred_forward_count() const {
    return deferred_forwards_.size();
  }

 private:
  friend class ProtocolAuditor;
  // Shared, immutable message bytes; send records reference this instead of
  // copying the payload per destination.  Fragments slice views out of the
  // same block, so retransmission and multicast forwarding never duplicate
  // payload bytes (see net/buffer.hpp).
  using MessageRef = net::Buffer;

  // Who returns a received packet's NIC staging buffer (paper §5,
  // "Messages Forwarding"): nobody, when a send record pins it until every
  // child acked (the naive ablation); this completion alone (the host RDMA
  // of a packet nothing forwards); or the last of two holders, the RDMA
  // and the forward's last replica on the wire, over one recycled count.
  // A value rather than a callable, so the RDMA and forward closures that
  // carry it fit sim::EventQueue::Action's inline storage.  A holder
  // destroyed unfinished (pending events dropped at teardown) gives up its
  // share of the count and releases nothing.
  class StagingRelease {
   public:
    StagingRelease() = default;  // nobody
    static StagingRelease sole() {
      StagingRelease release;
      release.pending_ = true;
      return release;
    }
    /// Splits a sole holder in two over one recycled count: the buffer is
    /// free once both have finished.
    [[nodiscard]] StagingRelease share() {
      if (!pending_ || holders_ != nullptr) {
        throw std::logic_error("StagingRelease::share: not a sole holder");
      }
      holders_ = static_cast<std::uint32_t*>(
          sim::BlockPool::allocate(sizeof(std::uint32_t)));
      *holders_ = 2;
      return StagingRelease(holders_);
    }
    StagingRelease(StagingRelease&& other) noexcept
        : holders_(std::exchange(other.holders_, nullptr)),
          pending_(std::exchange(other.pending_, false)) {}
    StagingRelease& operator=(StagingRelease&& other) noexcept {
      if (this != &other) {
        static_cast<void>(finish());
        holders_ = std::exchange(other.holders_, nullptr);
        pending_ = std::exchange(other.pending_, false);
      }
      return *this;
    }
    StagingRelease(const StagingRelease&) = delete;
    StagingRelease& operator=(const StagingRelease&) = delete;
    ~StagingRelease() { static_cast<void>(finish()); }

    /// True until this holder has finished.
    [[nodiscard]] bool pending() const { return pending_; }
    /// This holder is done; true when the staging buffer is now free.
    [[nodiscard]] bool finish() {
      if (!pending_) return false;
      pending_ = false;
      if (holders_ == nullptr) return true;
      const bool last = --*holders_ == 0;
      if (last) sim::BlockPool::deallocate(holders_, sizeof(std::uint32_t));
      holders_ = nullptr;
      return last;
    }

   private:
    explicit StagingRelease(std::uint32_t* holders)
        : holders_(holders), pending_(true) {}
    std::uint32_t* holders_ = nullptr;  // the shared count; null otherwise
    bool pending_ = false;
  };

  // Destination lists in pooled storage: every fragment of a send token
  // and every replica chain keeps its own copy without a malloc.
  using NodeList = std::vector<net::NodeId, sim::PoolAllocator<net::NodeId>>;

  struct Fragment {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };

  // Cold half of a send record, for connections and groups alike:
  // everything retransmission, retirement and failure need, but the
  // steady-state ack/restamp scans never touch.  The hot {seq, sent_at}
  // pair lives in the SendWindow's parallel ring (nic/send_window.hpp).
  struct SendRecord {
    MessageRef message;
    Fragment fragment;
    net::PacketHeader header;  // re-created on retransmission
    std::uint32_t retries = 0;
    // Ablation mode: the forward grabbed a send token to release on
    // retirement.
    bool holds_token = false;
    // Naive-buffer ablation: the forwarded packet's staging buffer is
    // pinned until this record retires (all children acked).
    bool holds_rx_buffer = false;
    OpHandle handle = 0;  // 0 for a forward, which has no host operation
  };

  // -- Point-to-point Go-back-N state --

  // kCtrl handshake a sender connection may have in flight: a reset
  // resynchronises the receiver after a max-retries failure left next_seq
  // ahead of its expected_seq.
  enum class Ctrl : std::uint8_t { kNone, kReset };

  struct SenderConn {
    SeqNum next_seq = 0;
    // In seq order, all unacked.  The hot/cold rings keep their slots
    // across window drain/refill, so steady-state record churn never
    // touches the heap.
    SendWindow<SendRecord> records;
    std::optional<sim::EventId> timer;
    Ctrl ctrl = Ctrl::kNone;
    SeqNum ctrl_seq = 0;  // seq carried by the outstanding ctrl request
    std::uint32_t ctrl_retries = 0;
    std::optional<sim::EventId> ctrl_timer;
  };

  // One in-flight incoming message.  `accepted` counts bytes the receive
  // path has sequenced (claim/boundary decisions happen here); `received`
  // counts bytes the RDMA engine has landed in host memory.  Back-to-back
  // messages overlap: message m+1's packets can be accepted while message
  // m's RDMA is still draining, so each packet's completion must target its
  // own message's assembly — hence shared ownership.  ensure_assembly
  // allocates assemblies through sim::PoolAllocator; only `data`, the host
  // buffer the application receives, is a fresh allocation per message.
  struct Assembly {
    RecvBuffer buffer;
    Payload data;
    std::size_t accepted = 0;
    std::size_t received = 0;
    std::uint32_t tag = 0;

    [[nodiscard]] bool fully_accepted() const {
      return accepted >= data.size();
    }
    [[nodiscard]] bool fully_received() const {
      return received >= data.size();
    }
  };
  using AssemblyRef = std::shared_ptr<Assembly>;

  struct ReceiverConn {
    SeqNum expected_seq = 0;
    AssemblyRef assembly;  // the message currently being sequenced
  };

  // -- Multicast group state --

  // One round of a NIC-level tree collective (extension; paper §7): the
  // barrier (Buntinas et al.'s "Fast NIC-Level Barrier") and the reduction.
  // A round completes at a node when its host has arrived AND every child's
  // packet for the round was seen; then a non-root reports up to its parent
  // and resends the report every timeout until the parent acknowledges it.
  // The barrier's release is the implicit ack, and a parent answers a stale
  // arrive from a past epoch with an immediate re-release; the reduction
  // sends an explicit kReduceAck.  After max_retries the host's call fails
  // and the round restarts at the same epoch.
  struct TreeRound {
    SeqNum epoch = 0;                 // current (not yet completed) round
    std::vector<bool> child_arrived;  // indexed like entry.children
    bool host_posted = false;         // set synchronously at post time
    bool host_arrived = false;
    OpHandle handle = 0;              // host completion cookie
    std::optional<sim::EventId> resend_timer;
    std::uint32_t resends = 0;

    /// Marks the host's entry into the round; throws on a second entry.
    void enter(const char* op) {
      if (host_posted) {
        throw std::logic_error(std::string(op) + ": round already entered");
      }
      host_posted = true;
    }
    [[nodiscard]] bool all_arrived() const {
      return host_arrived && std::find(child_arrived.begin(),
                                       child_arrived.end(),
                                       false) == child_arrived.end();
    }
    /// Starts round `next`: the host may enter again and no child has
    /// arrived.  The resend timer must already be disarmed.
    void open(SeqNum next) {
      epoch = next;
      host_posted = false;
      host_arrived = false;
      handle = 0;
      resends = 0;
      std::fill(child_arrived.begin(), child_arrived.end(), false);
    }
  };

  // The reduction folds contributions lane-wise on the LANai as they
  // arrive; the partial sum travels up once the round is complete.
  // Duplicates of already-absorbed contributions are re-acked without
  // re-combining.
  struct ReduceRound : TreeRound {
    Payload accumulator;  // lane-wise sum of everything absorbed
    bool sent_up = false;

    void open(SeqNum next) {
      TreeRound::open(next);
      accumulator.clear();
      sent_up = false;
    }
  };

  struct GroupState {
    net::GroupId id = net::kNoGroup;  // the table's sort key
    GroupEntry entry;
    SeqNum recv_seq = 0;  // next expected from the parent
    SeqNum send_seq = 0;  // next to assign towards the children
    std::vector<SeqNum> child_next_acked;  // per child: next seq they expect
    SendWindow<SendRecord> records;  // pooled hot/cold, same as SenderConn
    AssemblyRef assembly;
    std::optional<sim::EventId> timer;
    TreeRound barrier;
    ReduceRound reduce;

    /// Index of `node` in entry.children; nullopt for a stale or foreign
    /// packet.
    [[nodiscard]] std::optional<std::size_t> child_slot(
        net::NodeId node) const {
      const auto& children = entry.children;
      const auto it = std::find(children.begin(), children.end(), node);
      if (it == children.end()) return std::nullopt;
      return static_cast<std::size_t>(it - children.begin());
    }
  };

  // -- Operation completion accounting --

  struct PendingOp {
    HostEvent::Type complete_type = HostEvent::Type::kSendComplete;
    net::PortId port = 0;
    std::uint64_t remaining = 0;  // packet-destination acks outstanding
  };

  // `count` equal receive buffers posted back to back.
  struct RecvRun {
    RecvBuffer buffer;
    std::size_t count = 0;
  };

  struct Port {
    sim::Channel<HostEvent> events;
    // Posted receive buffers in post order, equal neighbours merged into
    // one run: a batch post is one run, and a port with none posted
    // allocates nothing.
    std::vector<RecvRun> recv_buffers;
    std::size_t send_tokens_in_use = 0;

    /// Appends `count` copies of `buffer`, into the last run when equal.
    void post_recv_buffers(const RecvBuffer& buffer, std::size_t count);
    /// Takes the first posted buffer that holds `bytes` (GM matches
    /// receive buffers by size); nullopt when none does.
    std::optional<RecvBuffer> take_recv_buffer(std::size_t bytes);
  };

  // -- Key packing for connection maps --
  // Field-lexicographic (my_port, peer, peer_port): the peer field is 32
  // bits wide to match the widened NodeId, and the sorted-key drain audit
  // order is unchanged for all ids that fit the old 16-bit field.
  static std::uint64_t conn_key(net::PortId my_port, net::NodeId peer,
                                net::PortId peer_port) {
    return (static_cast<std::uint64_t>(my_port) << 40) |
           (static_cast<std::uint64_t>(peer) << 8) |
           static_cast<std::uint64_t>(peer_port);
  }
  static net::PortId conn_my_port(std::uint64_t key) {
    return static_cast<net::PortId>(key >> 40);
  }
  static net::NodeId conn_peer(std::uint64_t key) {
    return static_cast<net::NodeId>((key >> 8) & 0xFFFFFFFFu);
  }
  static net::PortId conn_peer_port(std::uint64_t key) {
    return static_cast<net::PortId>(key & 0xFF);
  }

  // -- Send path --
  /// Packets a `size`-byte message takes; an empty message sends one.
  [[nodiscard]] std::size_t packet_count(std::size_t size) const {
    if (size == 0) return 1;
    return (size + config_.max_packet_payload - 1) /
           config_.max_packet_payload;
  }
  /// Packet `index`'s slice of a `size`-byte message.
  [[nodiscard]] Fragment fragment(std::size_t size, std::size_t index) const {
    const std::size_t offset = index * config_.max_packet_payload;
    return Fragment{
        static_cast<std::uint32_t>(offset),
        static_cast<std::uint32_t>(
            std::min(config_.max_packet_payload, size - offset))};
  }
  /// One send token's work, for a unicast, a multisend and each
  /// destination of the multiple-token ablation alike: the LANai
  /// translates the token, then every packet crosses the PCI bus once and
  /// leaves on a replica chain to `dests`, stamped per connection.
  void send_message(net::PortId port, NodeList dests, net::PortId dest_port,
                    MessageRef message, std::uint32_t tag, OpHandle handle);
  void sdma_then(std::size_t bytes, sim::EventQueue::Action next);
  /// Checks out a pooled descriptor for `packet` (counted in NicStats).
  DescriptorRef make_descriptor(net::Packet packet);
  net::Network::TxTiming transmit(DescriptorRef descriptor);
  net::Packet build_packet(const net::PacketHeader& header,
                           const MessageRef& message, Fragment fragment);

  // -- Replica chain: the only way a data packet leaves the NIC --
  // Inline-storage callables sized for this file's captures (a MessageRef
  // view + fragment + handles); anything bigger spills to the heap and is
  // counted by the engine's heap_actions stat.
  using PrepareFn = sim::InlineFunction<void(net::Packet&, net::NodeId), 64>;
  using OnTransmitFn = sim::InlineFunction<
      void(const net::Packet&, const net::Network::TxTiming&), 64>;
  // `prepare` retargets the descriptor before each replica; `on_transmit`
  // (optional) reports the wire timing of each replica so callers can stamp
  // their send records with the true injection time (long streams queue on
  // the wire far behind the CPU, and retransmission timers must measure
  // from the wire, not from record creation).  A one-destination chain
  // sends once and keeps no chain state; a longer one copies `dests` into
  // a pooled chain state.
  void start_replica_chain(DescriptorRef descriptor,
                           std::span<const net::NodeId> dests,
                           PrepareFn prepare,
                           OnTransmitFn on_transmit = nullptr);

  // -- Tree send: the multicast root and every forwarder --
  /// Records `record`'s packet under its group seq, arms the group timer
  /// and starts a replica to each child.  A pending `on_forwarded` finishes
  /// once the last replica left the wire — a forward's chosen
  /// staging-buffer release point; it holds nothing at the root and in the
  /// naive ablation (the record pins the buffer until all children ack).
  void send_tree_packet(GroupState& group, SendRecord record,
                        StagingRelease on_forwarded);
  /// Forwards `packet` to the children of `group`, its group.
  void start_forward(const GroupState& group, const net::Packet& packet,
                     StagingRelease on_forwarded);

  // -- Receive path --
  void handle_data(const net::Packet& packet);
  void handle_ack(const net::Packet& packet);
  void handle_mcast_data(const net::Packet& packet);
  void handle_mcast_ack(const net::Packet& packet);
  // GM's Go-back-N receive rule, for connections and groups alike: the
  // `expected` seq is accepted (claim a receive buffer, then a NIC staging
  // buffer, audit, advance, ack), a duplicate is re-acked and a gap is
  // dropped.  Returns true when `packet` was accepted into `assembly`; the
  // caller then owns one staging buffer.
  bool accept_in_order(net::PortId port, SeqNum& expected,
                       AssemblyRef& assembly, const net::Packet& packet,
                       const char* category);

  // -- Group table --
  // An event resolves its group once and hands the entry on; a closure
  // that runs later looks the group up again by id, since a set_group or
  // remove_group in between may move the table's entries.
  /// `id`'s entry, or null when the group is not installed.
  GroupState* find_group(net::GroupId id);
  const GroupState* find_group(net::GroupId id) const;
  /// `id`'s entry; throws std::out_of_range when it is not installed.
  GroupState& group_at(net::GroupId id);

  // -- NIC-level tree rounds: barrier and reduction --
  /// The group `port` may post `op` on: the port exists, the group is
  /// installed and the port owns it.
  GroupState& owned_group(const char* op, net::PortId port,
                          net::GroupId group);
  /// A control packet of `group`'s tree towards `dst` for round `epoch`.
  net::Packet tree_packet(net::PacketType type, const GroupState& group,
                          net::NodeId dst, SeqNum epoch,
                          std::uint32_t subtype = 0);
  void arm_round_timer(TreeRound& round, net::GroupId group_id,
                       void (Nic::*on_timeout)(net::GroupId));
  /// A round's resend timer fired.  Returns true, counting the resend in
  /// `resends_stat`, when the caller should resend; after max_retries fails
  /// the host's call and restarts the round at the same epoch instead.
  template <typename Round>
  bool round_retry(const GroupState& group, Round& round,
                   std::uint64_t& resends_stat);

  // -- NIC-level barrier --
  void handle_barrier(const net::Packet& packet);
  void barrier_check_complete(GroupState& group);
  void barrier_send_arrive(GroupState& group);
  void barrier_release(GroupState& group);
  void barrier_resend_timeout(net::GroupId group_id);

  // -- NIC-level reduction --
  void handle_reduce(const net::Packet& packet);
  void handle_reduce_ack(const net::Packet& packet);
  void reduce_combine(ReduceRound& reduce, const net::Buffer& contribution);
  void reduce_check_complete(GroupState& group);
  void reduce_send_up(GroupState& group);
  void reduce_resend_timeout(net::GroupId group_id);
  void send_ack(const net::Packet& data_packet, SeqNum cumulative_seq);
  // Ensures `slot` holds the assembly for the message `packet` belongs to,
  // claiming a fresh receive buffer at message boundaries.  Returns false
  // when no fitting buffer is posted (receiver overrun).
  bool ensure_assembly(net::PortId port, AssemblyRef& slot,
                       const net::Packet& packet);
  // Counts `packet` as accepted into `assembly` and RDMAs it to the host.
  // `on_rdma_done` finishes when this packet's RDMA completes; if that
  // frees the NIC staging buffer, the buffer is returned.
  void accept_payload(net::PortId port, AssemblyRef assembly,
                      const net::Packet& packet, HostEvent::Type event_type,
                      StagingRelease on_rdma_done);
  /// Finishes `holder`; returns the staging buffer if that freed it.
  void finish_staging(StagingRelease& holder) {
    if (holder.finish()) release_rx_buffer();
  }

  // -- kCtrl reset handshake (resync after a max-retries failure) --
  void handle_ctrl(const net::Packet& packet);
  void begin_conn_reset(std::uint64_t key, SenderConn& conn);
  void send_ctrl(std::uint64_t key, std::uint32_t subtype, SeqNum seq);
  void arm_ctrl_timer(std::uint64_t key, SenderConn& conn);
  void ctrl_timeout(std::uint64_t key);

  // -- Send records: one lifecycle for connections and groups --
  /// Retires the window's front records while `acked(seq)` says every
  /// destination has the record's packet: counts it towards the operation
  /// and releases what the record held.
  template <typename Acked>
  void retire_acked(net::PortId port, SendWindow<SendRecord>& records,
                    Acked acked);
  /// Retries exhausted: fails every record's operation, releases what the
  /// records held and empties the window.
  void give_up(net::PortId port, SendWindow<SendRecord>& records);

  // -- Reliability --
  /// Arms `conn`'s retransmit timer, keyed `key`, unless it is armed or
  /// the window is empty.
  void arm_conn_timer(std::uint64_t key, SenderConn& conn);
  void conn_timeout(std::uint64_t key);
  void arm_group_timer(GroupState& group);
  void group_timeout(net::GroupId group_id);
  void retransmit_record(const net::PacketHeader& header,
                         const MessageRef& message, Fragment fragment);
  void fail_operation(OpHandle handle);

  // -- Completion --
  /// Takes a send token and records operation `handle`, complete once
  /// `packets` packet-destination acks arrive; throws on a duplicate handle
  /// and on handle 0, which marks a record with no host operation.
  void open_op(const char* op, net::PortId port, OpHandle handle,
               HostEvent::Type complete_type, std::uint64_t packets);
  void op_packet_acked(OpHandle handle);
  /// Delivers a completion that carries no payload.
  void notify_host(net::PortId port, HostEvent::Type type, OpHandle handle,
                   net::GroupId group = net::kNoGroup);
  void deliver_event(net::PortId port, HostEvent event);

  /// The record of `port`, created on first use; throws std::out_of_range
  /// past kPortsPerNic.
  Port& port_state(net::PortId port);

  // -- Send tokens --
  void consume_send_token(net::PortId port);
  void release_send_token(net::PortId port);

  // -- NIC SRAM staging buffers --
  [[nodiscard]] bool acquire_rx_buffer();
  void release_rx_buffer();

  [[nodiscard]] bool has_deferred_forward(net::GroupId group) const;

  /// Emits a trace record.  `build` (a callable returning the message)
  /// runs only when the category is enabled, so hot packet paths pay one
  /// branch for disabled tracing, never string formatting.
  template <typename Build>
  void trace(const char* category, Build&& build) {
    if (sim_.tracer().enabled(category)) {
      emit_trace(category, build());
    }
  }
  void emit_trace(const char* category, const std::string& message);

  sim::Simulator& sim_;
  net::Network& network_;
  net::NodeId id_;
  NicConfig config_;
  NicOptions options_;

  Engine cpu_;
  Engine sdma_;
  Engine rdma_;

  // One slot per port, each null until port_state() first names the port,
  // so a NIC pays only for the ports its host opens or its peers address.
  std::array<std::unique_ptr<Port>, kPortsPerNic> ports_;
  // Each table grows from empty as peers appear.  No event path iterates
  // one: only the auditor walks them, the hash maps through sorted_keys,
  // so hash order never reaches event order.
  std::unordered_map<std::uint64_t, SenderConn> sender_conns_;
  std::unordered_map<std::uint64_t, ReceiverConn> receiver_conns_;
  // The group table, sorted by id.  MPI installs one group per
  // (communicator, root) a rank takes part in: at most one per NIC in each
  // suite workload, n after an n-rank allgather.  A lookup is a binary
  // search; an insert below the largest id moves every later entry.
  std::vector<GroupState> groups_;
  std::unordered_map<OpHandle, PendingOp> pending_ops_;
  // Forwards stalled on send-token exhaustion (ablation mode only).
  struct DeferredForward {
    net::Packet packet;
    StagingRelease on_forwarded;
  };
  std::vector<DeferredForward> deferred_forwards_;
  std::size_t rx_buffers_in_use_ = 0;

  ProtocolAuditor* auditor_ = nullptr;
  DescriptorPool descriptors_;
  NicStats stats_;
};

}  // namespace nicmcast::nic
