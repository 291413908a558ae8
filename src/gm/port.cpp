#include "gm/port.hpp"

#include <stdexcept>
#include <utility>

namespace nicmcast::gm {

Port::Port(sim::Simulator& sim, nic::Nic& nic, net::PortId port_id)
    : sim_(sim), nic_(nic), port_id_(port_id) {
  if (port_id >= nic::kPortsPerNic) {
    throw std::out_of_range("Port: NIC has no such port");
  }
  pump_process_ = sim_.spawn(pump(), "gm-pump");
}

// Demultiplexes the NIC event queue: completions resolve their operation's
// trigger; received messages go to the inbox.
sim::Task<void> Port::pump() {
  for (;;) {
    nic::HostEvent event = co_await nic_.events(port_id_).pop();
    switch (event.type) {
      case nic::HostEvent::Type::kSendComplete:
      case nic::HostEvent::Type::kMultisendComplete:
      case nic::HostEvent::Type::kMcastSendComplete:
      case nic::HostEvent::Type::kBarrierDone:
      case nic::HostEvent::Type::kReduceDone:
      case nic::HostEvent::Type::kSendFailed: {
        auto it = pending_.find(event.handle);
        if (it == pending_.end()) {
          throw std::logic_error("completion for unknown operation");
        }
        OpState& op = *it->second;
        op.status = event.type == nic::HostEvent::Type::kSendFailed
                        ? SendStatus::kFailed
                        : SendStatus::kOk;
        if (op.status == SendStatus::kFailed) ++stats_.failed_sends;
        op.result = std::move(event.data);
        op.done.fire();
        // A completed operation returned its send token.
        token_freed_.release();
        break;
      }
      case nic::HostEvent::Type::kRecvComplete:
      case nic::HostEvent::Type::kMcastRecvComplete: {
        ++stats_.receives;
        RecvMessage msg;
        msg.src = event.src;
        msg.src_port = event.src_port;
        msg.group = event.group;
        msg.tag = event.tag;
        msg.data = std::move(event.data);
        inbox_.push(std::move(msg));
        break;
      }
    }
  }
}

sim::Task<nic::OpHandle> Port::enter_nic(bool takes_token) {
  co_await sim_.wait(nic_.config().host_post_overhead +
                     nic_.config().host_to_nic_delay);
  if (takes_token) {
    while (!can_post_nowait()) {
      ++stats_.token_stalls;
      co_await token_freed_.wait();
    }
  }
  co_return new_handle();
}

Port::OpState& Port::track(nic::OpHandle handle) {
  auto op = std::make_unique<OpState>();
  OpState& state = *op;
  pending_.emplace(handle, std::move(op));
  return state;
}

sim::Task<SendStatus> Port::finish(nic::OpHandle handle, Payload* result) {
  auto it = pending_.find(handle);
  if (it == pending_.end()) {
    throw std::logic_error("wait_completion: unknown handle");
  }
  OpState& state = *it->second;
  co_await state.done.wait();
  const SendStatus status = state.status;
  if (result) *result = std::move(state.result);
  pending_.erase(handle);
  co_return status;
}

nic::OpHandle Port::post_send_nowait(net::NodeId dest, net::PortId dest_port,
                                     Payload data, std::uint32_t tag) {
  if (!can_post_nowait()) {
    throw std::logic_error("post_send_nowait: no free send token — use the "
                           "blocking send() to wait for one");
  }
  ++tokens_reserved_;  // held until the posted event reaches the NIC
  ++stats_.sends;
  const nic::OpHandle handle = new_handle();
  track(handle);
  // The posted event crosses the PCI bus asynchronously; the host moves on.
  sim_.schedule_after(
      nic_.config().host_to_nic_delay,
      [this, dest, dest_port, data = std::move(data), tag, handle]() mutable {
        --tokens_reserved_;
        nic_.post_send(nic::SendRequest{port_id_, dest, dest_port,
                                        std::move(data), tag, handle});
      });
  return handle;
}

sim::Task<SendStatus> Port::wait_completion(nic::OpHandle handle) {
  return finish(handle);
}

sim::Task<SendStatus> Port::send_each(const std::vector<net::NodeId>& dests,
                                      net::PortId dest_port,
                                      const Payload& data, std::uint32_t tag) {
  std::vector<nic::OpHandle> handles;
  for (net::NodeId dest : dests) {
    co_await sim_.wait(nic_.config().host_post_overhead);
    handles.push_back(post_send_nowait(dest, dest_port, data, tag));
  }
  for (nic::OpHandle handle : handles) {
    if (co_await finish(handle) != SendStatus::kOk) {
      co_return SendStatus::kFailed;
    }
  }
  co_return SendStatus::kOk;
}

sim::Task<SendStatus> Port::send(net::NodeId dest, net::PortId dest_port,
                                 Payload data, std::uint32_t tag) {
  ++stats_.sends;
  if (dest == nic_.id()) {
    // Loopback: GM short-circuits self-sends in the library with a host
    // memcpy; the NIC and the wire are never involved.
    if (dest_port != port_id_) {
      throw std::logic_error("loopback to a different port is unsupported");
    }
    co_await sim_.wait(nic_.config().host_post_overhead +
                       sim::transfer_time(data.size(),
                                          nic_.config().host_dma_mbps));
    RecvMessage msg;
    msg.src = nic_.id();
    msg.src_port = port_id_;
    msg.tag = tag;
    msg.data = std::move(data);
    ++stats_.receives;
    inbox_.push(std::move(msg));
    co_return SendStatus::kOk;
  }
  const nic::OpHandle handle = co_await enter_nic(true);
  track(handle);
  nic_.post_send(
      nic::SendRequest{port_id_, dest, dest_port, std::move(data), tag,
                       handle});
  co_return co_await finish(handle);
}

sim::Task<SendStatus> Port::multisend(std::vector<net::NodeId> dests,
                                      net::PortId dest_port, Payload data,
                                      std::uint32_t tag) {
  ++stats_.multisends;
  const nic::OpHandle handle = co_await enter_nic(true);
  track(handle);
  nic_.post_multisend(nic::MultisendRequest{
      port_id_, std::move(dests), dest_port, std::move(data), tag, handle});
  co_return co_await finish(handle);
}

sim::Task<SendStatus> Port::mcast_send(net::GroupId group, Payload data,
                                       std::uint32_t tag) {
  ++stats_.mcast_sends;
  const nic::OpHandle handle = co_await enter_nic(true);
  track(handle);
  nic_.post_mcast_send(
      nic::McastSendRequest{port_id_, group, std::move(data), tag, handle});
  co_return co_await finish(handle);
}

sim::Task<void> Port::nic_barrier(net::GroupId group) {
  const nic::OpHandle handle = co_await enter_nic(false);
  track(handle);
  nic_.post_barrier(port_id_, group, handle);
  if (co_await finish(handle) != SendStatus::kOk) {
    throw std::runtime_error("nic_barrier failed (parent unreachable)");
  }
}

sim::Task<Payload> Port::nic_reduce(net::GroupId group, Payload data) {
  const nic::OpHandle handle = co_await enter_nic(false);
  track(handle);
  nic_.post_reduce(port_id_, group, std::move(data), handle);
  Payload result;
  if (co_await finish(handle, &result) != SendStatus::kOk) {
    throw std::runtime_error("nic_reduce failed (parent unreachable)");
  }
  co_return result;
}

sim::Task<RecvMessage> Port::receive() {
  RecvMessage msg = co_await inbox_.pop();
  co_return msg;
}

void Port::provide_receive_buffer(std::size_t capacity) {
  provide_receive_buffers(1, capacity);
}

void Port::provide_receive_buffers(std::size_t count, std::size_t capacity) {
  nic_.post_recv_buffer(nic::RecvBuffer{port_id_, capacity, 0}, count);
}

void Port::set_group(net::GroupId group, nic::GroupEntry entry) {
  entry.port = port_id_;
  nic_.set_group(group, std::move(entry));
}

}  // namespace nicmcast::gm
