// The GM user-level API: a port with blocking (coroutine) send/receive.
//
// This is the layer application code and the mini-MPI are written against.
// It mirrors how MPICH-GM uses GM: OS-bypass ports, pre-posted receive
// buffers, an event queue the host polls, and — new in this work —
// multisend and multicast send operations.
//
// Blocking semantics: `co_await port.send(...)` suspends the calling
// simulated process until the NIC reports completion (all packets
// acknowledged).  `co_await port.receive()` suspends until a message lands
// in host memory.  A per-port pump process demultiplexes the NIC's event
// queue into per-operation triggers and a receive mailbox.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "nic/nic.hpp"
#include "sim/simulator.hpp"

namespace nicmcast::gm {

using nic::Payload;

enum class SendStatus : std::uint8_t { kOk, kFailed };

/// A message delivered to the host.
struct RecvMessage {
  net::NodeId src = 0;
  net::PortId src_port = 0;
  net::GroupId group = net::kNoGroup;  // kNoGroup for point-to-point
  std::uint32_t tag = 0;
  Payload data;

  [[nodiscard]] bool is_multicast() const { return group != net::kNoGroup; }
};

struct PortStats {
  std::uint64_t sends = 0;
  std::uint64_t multisends = 0;
  std::uint64_t mcast_sends = 0;
  std::uint64_t receives = 0;
  std::uint64_t failed_sends = 0;
  std::uint64_t token_stalls = 0;  // times a send waited for a free token
};

class Port {
 public:
  Port(sim::Simulator& sim, nic::Nic& nic, net::PortId port_id);
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  [[nodiscard]] net::NodeId node() const { return nic_.id(); }
  [[nodiscard]] net::PortId port_id() const { return port_id_; }
  [[nodiscard]] nic::Nic& nic() { return nic_; }
  [[nodiscard]] const PortStats& stats() const { return stats_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  // ---- Blocking operations (call from a simulated process) ----

  /// Sends `data` to (dest, dest_port); completes when every packet is
  /// acknowledged.  Waits for a free send token if the pool is empty.
  sim::Task<SendStatus> send(net::NodeId dest, net::PortId dest_port,
                             Payload data, std::uint32_t tag = 0);

  /// NIC-based multisend: replicas to every destination, one host posting
  /// and one host->NIC DMA per packet.
  sim::Task<SendStatus> multisend(std::vector<net::NodeId> dests,
                                  net::PortId dest_port, Payload data,
                                  std::uint32_t tag = 0);

  /// Host-based multiple unicasts (MPICH-GM's fan-out; Fig. 3's
  /// baseline): posts one send per destination back to back, each charged
  /// the host posting overhead, then awaits every completion.  kFailed as
  /// soon as one send fails.  `dests` and `data` must outlive the call
  /// (co_await it at once); each send copies `data`.
  sim::Task<SendStatus> send_each(const std::vector<net::NodeId>& dests,
                                  net::PortId dest_port, const Payload& data,
                                  std::uint32_t tag = 0);

  /// NIC-based multicast over a preposted group tree (root only).
  sim::Task<SendStatus> mcast_send(net::GroupId group, Payload data,
                                   std::uint32_t tag = 0);

  /// NIC-level barrier over `group`'s tree (extension; paper §7): the NICs
  /// gather arrivals and the root's NIC releases everyone — the host only
  /// enters and leaves.  Throws on failure (unreachable parent).
  sim::Task<void> nic_barrier(net::GroupId group);

  /// NIC-level reduction (extension; paper §7): contributes a vector of
  /// 8-byte integer lanes; the NICs fold contributions up `group`'s tree.
  /// Returns the cluster-wide sum at the tree root, an empty payload
  /// elsewhere.  Throws on failure.
  sim::Task<Payload> nic_reduce(net::GroupId group, Payload data);

  /// Next message delivered to this port, in arrival order.
  sim::Task<RecvMessage> receive();

  // ---- Non-blocking operations ----

  /// Posts a send without blocking (the gm_send_with_callback pattern
  /// MPICH-GM uses to fan out to several children back to back).  The
  /// caller should charge its own host overhead (`sim.wait(host_post)`)
  /// between posts and later `co_await wait_completion(handle)`.
  /// Throws std::logic_error when no send token is free.
  nic::OpHandle post_send_nowait(net::NodeId dest, net::PortId dest_port,
                                 Payload data, std::uint32_t tag = 0);

  /// Completion of an operation started with post_send_nowait.
  sim::Task<SendStatus> wait_completion(nic::OpHandle handle);

  /// True when post_send_nowait would succeed right now (a send token is
  /// free and not already reserved by an in-flight nowait post).
  [[nodiscard]] bool can_post_nowait() const {
    return nic_.send_tokens_available(port_id_) > tokens_reserved_;
  }

  /// Pre-posts a receive buffer of `capacity` bytes (a receive token).
  void provide_receive_buffer(std::size_t capacity);
  /// Posts `count` buffers as one NIC job (nic::Nic::post_recv_buffer).
  void provide_receive_buffers(std::size_t count, std::size_t capacity);

  /// Writes this node's spanning-tree entry for `group` into the NIC group
  /// table (tree construction happened at the host; paper §5).
  void set_group(net::GroupId group, nic::GroupEntry entry);
  [[nodiscard]] bool has_group(net::GroupId group) const {
    return nic_.has_group(group);
  }
  void remove_group(net::GroupId group) { nic_.remove_group(group); }

  /// Messages received but not yet claimed by receive().
  [[nodiscard]] std::size_t pending_messages() const {
    return inbox_.size();
  }

 private:
  struct OpState {
    sim::Trigger done;
    SendStatus status = SendStatus::kOk;
    Payload result;  // reduction result (root side of nic_reduce)
  };

  /// Charges the host posting (build the event, cross the PCI bus), waits
  /// for a free send token when the operation `takes_token`, and returns
  /// the operation's handle.
  sim::Task<nic::OpHandle> enter_nic(bool takes_token);
  /// Registers completion state for `handle`; call before the NIC can
  /// possibly report back.
  OpState& track(nic::OpHandle handle);
  /// Awaits `handle`'s completion, forgets it and returns its status.  A
  /// reduction's result moves into `result` when given.
  sim::Task<SendStatus> finish(nic::OpHandle handle,
                               Payload* result = nullptr);
  sim::Task<void> pump();
  nic::OpHandle new_handle() { return next_handle_++; }

  sim::Simulator& sim_;
  nic::Nic& nic_;
  net::PortId port_id_;

  sim::Channel<RecvMessage> inbox_;
  // Node-based, so an entry stays put while its operation awaits it.
  std::unordered_map<nic::OpHandle, OpState> pending_;
  sim::Gate token_freed_;
  std::size_t tokens_reserved_ = 0;  // nowait posts still crossing the bus
  nic::OpHandle next_handle_ = 1;  // 0 is the NIC's "no handle" sentinel
  PortStats stats_;
  sim::ProcessRef pump_process_;
};

}  // namespace nicmcast::gm
