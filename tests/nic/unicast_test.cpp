// Point-to-point GM transport: delivery, assembly, ordering, tokens,
// protection and completion events.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "nic_test_util.hpp"

namespace nicmcast::nic {
namespace {

using testing::TestCluster;
using testing::make_payload;

TEST(Unicast, SmallMessageDelivered) {
  TestCluster c(2);
  c.post_buffers(1, 1, 4096);
  const Payload msg = make_payload(64);
  c.nic(0).post_send(SendRequest{0, 1, 0, msg, /*tag=*/7, /*handle=*/1});
  c.sim.run();

  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 1u);
  EXPECT_EQ(recv[0].type, HostEvent::Type::kRecvComplete);
  EXPECT_EQ(recv[0].src, 0);
  EXPECT_EQ(recv[0].tag, 7u);
  EXPECT_EQ(recv[0].data, msg);

  const auto sent = c.drain_events(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, HostEvent::Type::kSendComplete);
  EXPECT_EQ(sent[0].handle, 1u);
}

TEST(Unicast, OneWayLatencyMatchesCostModel) {
  TestCluster c(2);
  c.post_buffers(1, 1, 4096);
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(1), 0, 1});
  sim::TimePoint recv_time{0};
  bool got = false;
  c.sim.spawn([](TestCluster& cl, sim::TimePoint& t, bool& flag)
                  -> sim::Task<void> {
    co_await cl.nic(1).events(0).pop();
    t = cl.sim.now();
    flag = true;
  }(c, recv_time, got));
  c.sim.run();
  ASSERT_TRUE(got);
  // Calibration (DESIGN.md §5): GM-2 class one-way small-message latency,
  // ~6-9us on the paper's hardware.
  EXPECT_GT(recv_time.microseconds(), 5.0);
  EXPECT_LT(recv_time.microseconds(), 9.0);
}

TEST(Unicast, MultiPacketMessageReassembled) {
  TestCluster c(2);
  c.post_buffers(1, 1, 20000);
  const Payload msg = make_payload(10000);  // 3 packets at 4096
  c.nic(0).post_send(SendRequest{0, 1, 0, msg, 0, 1});
  c.sim.run();
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 1u);
  EXPECT_EQ(recv[0].data, msg);
  // 3 data packets crossed the wire (plus acks).
  EXPECT_GE(c.nic(0).stats().packets_sent, 3u);
}

TEST(Unicast, ExactPacketBoundarySizes) {
  for (std::size_t size : {4096u, 8192u, 4097u, 4095u}) {
    TestCluster c(2);
    c.post_buffers(1, 1, 2 * size);
    const Payload msg = make_payload(size);
    c.nic(0).post_send(SendRequest{0, 1, 0, msg, 0, 1});
    c.sim.run();
    const auto recv = c.drain_events(1);
    ASSERT_EQ(recv.size(), 1u) << "size " << size;
    EXPECT_EQ(recv[0].data, msg) << "size " << size;
  }
}

TEST(Unicast, ZeroByteMessage) {
  TestCluster c(2);
  c.post_buffers(1, 1, 64);
  c.nic(0).post_send(SendRequest{0, 1, 0, Payload{}, 3, 1});
  c.sim.run();
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 1u);
  EXPECT_TRUE(recv[0].data.empty());
  EXPECT_EQ(recv[0].tag, 3u);
  EXPECT_EQ(c.drain_events(0).size(), 1u);  // send completes too
}

TEST(Unicast, MessagesDeliveredInOrder) {
  TestCluster c(2);
  c.post_buffers(1, 5, 4096);
  for (std::uint32_t i = 0; i < 5; ++i) {
    c.nic(0).post_send(
        SendRequest{0, 1, 0, make_payload(100, static_cast<std::uint8_t>(i)),
                    i, 10 + i});
  }
  c.sim.run();
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(recv[i].tag, i);
    EXPECT_EQ(recv[i].data, make_payload(100, static_cast<std::uint8_t>(i)));
  }
}

TEST(Unicast, BidirectionalTraffic) {
  TestCluster c(2);
  c.post_buffers(0, 1, 4096);
  c.post_buffers(1, 1, 4096);
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(200, 1), 0, 1});
  c.nic(1).post_send(SendRequest{0, 0, 0, make_payload(300, 2), 0, 2});
  c.sim.run();
  const auto at0 = c.drain_events(0);
  const auto at1 = c.drain_events(1);
  ASSERT_EQ(at0.size(), 2u);  // recv + send-complete
  ASSERT_EQ(at1.size(), 2u);
}

TEST(Unicast, DistinctPortsAreIsolated) {
  TestCluster c(2);
  c.nic(1).post_recv_buffer(RecvBuffer{2, 4096, 50});
  c.nic(0).post_send(SendRequest{1, 1, 2, make_payload(64), 9, 1});
  c.sim.run();
  // Event arrives on port 2, not port 0.
  EXPECT_TRUE(c.drain_events(1).empty());
  auto ev = c.nic(1).events(2).try_pop();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->tag, 9u);
  EXPECT_EQ(ev->handle, 50u);
}

TEST(Unicast, NoBufferStallsUntilPosted) {
  TestCluster c(2);
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  c.sim.run_for(sim::usec(500));
  EXPECT_TRUE(c.drain_events(1).empty());
  EXPECT_GE(c.nic(1).stats().no_token_drops, 1u);
  // Host finally posts a buffer; the Go-back-N retransmission delivers.
  c.post_buffers(1, 1, 4096);
  c.sim.run();
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 1u);
  EXPECT_EQ(recv[0].data, make_payload(64));
  EXPECT_GE(c.nic(0).stats().retransmissions, 1u);
}

TEST(Unicast, PacketToUntouchedPortIsAnOverrunLikeAnyOther) {
  // Port 3 of node 1 is named first by the arriving packet.  The overrun
  // must play out exactly as on a port the host had already opened.
  const auto run = [](bool open_first) {
    TestCluster c(2);
    if (open_first) static_cast<void>(c.nic(1).events(3));
    c.nic(0).post_send(SendRequest{0, 1, 3, make_payload(64), 5, 1});
    c.sim.run_for(sim::usec(2500));
    EXPECT_EQ(c.nic(1).recv_buffers_posted(3), 0u);
    const NicStats before_post = c.nic(1).stats();
    c.nic(1).post_recv_buffer(RecvBuffer{3, 4096, 77});
    c.sim.run();
    auto ev = c.nic(1).events(3).try_pop();
    EXPECT_TRUE(ev.has_value() && ev->handle == 77u);
    return std::tuple{before_post.no_token_drops,
                      c.nic(0).stats().retransmissions, c.sim.now()};
  };
  const auto untouched = run(false);
  EXPECT_GE(std::get<0>(untouched), 2u);
  EXPECT_GE(std::get<1>(untouched), 2u);
  EXPECT_EQ(untouched, run(true));
}

TEST(Unicast, SendTokensConsumedAndReleased) {
  TestCluster c(2);
  const std::size_t total = c.nic(0).config().send_tokens_per_port;
  EXPECT_EQ(c.nic(0).send_tokens_available(0), total);
  c.post_buffers(1, 1, 4096);
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  EXPECT_EQ(c.nic(0).send_tokens_available(0), total - 1);
  c.sim.run();
  EXPECT_EQ(c.nic(0).send_tokens_available(0), total);
}

TEST(Unicast, TokenPoolExhaustionThrows) {
  TestCluster c(2);
  const std::size_t total = c.nic(0).config().send_tokens_per_port;
  for (std::size_t i = 0; i < total; ++i) {
    c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(8), 0, 100 + i});
  }
  EXPECT_THROW(
      c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(8), 0, 999}),
      std::logic_error);
}

TEST(Unicast, InvalidPostsRejected) {
  TestCluster c(2);
  EXPECT_THROW(c.nic(0).post_send(SendRequest{9, 1, 0, {}, 0, 1}),
               std::out_of_range);
  EXPECT_THROW(c.nic(0).post_send(SendRequest{0, 0, 0, {}, 0, 1}),
               std::logic_error);  // self-send
  EXPECT_THROW(c.nic(0).post_recv_buffer(RecvBuffer{9, 64, 1}),
               std::out_of_range);
  // Handle 0 marks a forward's send record, which has no host operation.
  EXPECT_THROW(c.nic(0).post_send(SendRequest{0, 1, 0, {}, 0, 0}),
               std::invalid_argument);
  EXPECT_EQ(c.nic(0).send_tokens_available(0),
            c.nic(0).config().send_tokens_per_port);
}

TEST(Unicast, DuplicateHandleRejected) {
  TestCluster c(2);
  c.post_buffers(1, 1, 4096);
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(8), 0, 7});
  EXPECT_THROW(c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(8), 0, 7}),
               std::logic_error);
  c.sim.run();
  // The rejected post took no send token.
  EXPECT_EQ(c.nic(0).send_tokens_available(0),
            c.nic(0).config().send_tokens_per_port);
}

TEST(Unicast, BufferBatchIsOneLanaiJob) {
  TestCluster c(2);
  const std::size_t before = c.sim.pending_events();
  c.nic(1).post_recv_buffer(RecvBuffer{0, 4096, 0}, 0);
  EXPECT_EQ(c.sim.pending_events(), before);  // an empty batch is no job
  c.nic(1).post_recv_buffer(RecvBuffer{0, 4096, 0}, 31);
  EXPECT_EQ(c.sim.pending_events(), before + 1);
  EXPECT_EQ(c.nic(1).cpu_busy_time(),
            c.nic(1).config().recv_token_processing * 31);
}

TEST(Unicast, BufferBatchPostsEveryBufferWhenItEnds) {
  TestCluster c(2);
  c.nic(1).post_recv_buffer(RecvBuffer{0, 4096, 0}, 31);
  const sim::TimePoint end =
      sim::TimePoint{} + c.nic(1).config().recv_token_processing * 31;
  c.sim.run_until(end - sim::nsec(1));
  EXPECT_EQ(c.nic(1).recv_buffers_posted(0), 0u);
  c.sim.run_until(end);
  EXPECT_EQ(c.nic(1).recv_buffers_posted(0), 31u);
}

TEST(Unicast, PacketArrivingMidBatchIsAccepted) {
  // The packet's receive job queues behind the batch on the LANai CPU, so
  // it finds the buffers posted: no overrun, no retransmission.
  TestCluster c(2);
  c.nic(1).post_recv_buffer(RecvBuffer{0, 4096, 5}, 1000);
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  const sim::TimePoint end =
      sim::TimePoint{} + c.nic(1).config().recv_token_processing * 1000;
  c.sim.run_until(end - sim::nsec(1));
  ASSERT_EQ(c.nic(1).stats().packets_received, 1u);
  EXPECT_EQ(c.nic(1).recv_buffers_posted(0), 0u);
  c.sim.run();
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 1u);
  EXPECT_EQ(recv[0].data, make_payload(64));
  EXPECT_EQ(c.nic(1).stats().no_token_drops, 0u);
  EXPECT_EQ(c.nic(0).stats().retransmissions, 0u);
  EXPECT_EQ(c.nic(1).recv_buffers_posted(0), 999u);
}

TEST(Unicast, ClusterDestroyedMidTransfer) {
  // A multisend's pending replica events hold pooled descriptors;
  // destroying the cluster drops them before the NICs that own the pools.
  auto c = std::make_unique<TestCluster>(3);
  c->post_buffers(1, 1, 65536);
  c->post_buffers(2, 1, 65536);
  c->nic(0).post_multisend(
      MultisendRequest{0, {1, 2}, 0, make_payload(65536), 0, 1});
  c->sim.run_for(sim::usec(20));
  EXPECT_GT(c->sim.pending_events(), 0u);
  c.reset();
}

TEST(Unicast, BuffersMatchedBySizeNotFifo) {
  // GM size-matching: an undersized buffer at the head of the queue is
  // skipped in favour of a later buffer that fits.
  TestCluster c(2);
  c.nic(1).post_recv_buffer(RecvBuffer{0, 16, 70});    // too small
  c.nic(1).post_recv_buffer(RecvBuffer{0, 4096, 71});  // fits
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  c.sim.run();
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 1u);
  EXPECT_EQ(recv[0].handle, 71u);
  // The small buffer is still posted for a future small message.
  EXPECT_EQ(c.nic(1).recv_buffers_posted(0), 1u);
}

TEST(Unicast, BufferRunsServeFirstFitInPostOrder) {
  // Equal buffers posted back to back share one run, yet each buffer is
  // served first fit in post order, and a kCtrl reset returns an abandoned
  // message's buffer to the end of the queue.  1 KB packets make a 2 KB
  // message two packets; 100-us timeouts and 3 retries make 4 drops of its
  // second packet fail the send and start the reset.
  NicConfig config;
  config.max_packet_payload = 1024;
  config.retransmit_timeout = sim::usec(100);
  config.max_retries = 3;
  TestCluster c(2, config);
  Nic& rx = c.nic(1);
  const auto post = [&](std::size_t capacity, OpHandle handle,
                        std::size_t count) {
    rx.post_recv_buffer(RecvBuffer{0, capacity, handle}, count);
    c.sim.run();
    return rx.recv_buffers_posted(0);
  };
  EXPECT_EQ(post(16, 10, 1), 1u);
  EXPECT_EQ(post(4096, 20, 3), 4u);
  EXPECT_EQ(post(4096, 30, 1), 5u);
  EXPECT_EQ(post(4096, 20, 3), 8u);

  OpHandle op = 1;
  // Sends one message and returns the handle of the buffer it landed in.
  const auto deliver = [&](std::size_t bytes) -> OpHandle {
    c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(bytes), 0, op++});
    c.sim.run();
    EXPECT_EQ(c.drain_events(0).size(), 1u);
    const auto recv = c.drain_events(1);
    EXPECT_EQ(recv.size(), 1u);
    return recv.empty() ? 0 : recv[0].handle;
  };
  EXPECT_EQ(deliver(64), 20u);  // the 16 B buffer is too small
  EXPECT_EQ(rx.recv_buffers_posted(0), 7u);
  EXPECT_EQ(deliver(8), 10u);
  EXPECT_EQ(rx.recv_buffers_posted(0), 6u);
  EXPECT_EQ(deliver(64), 20u);
  EXPECT_EQ(rx.recv_buffers_posted(0), 5u);
  EXPECT_EQ(deliver(64), 20u);
  EXPECT_EQ(rx.recv_buffers_posted(0), 4u);

  // Seqs 0-3 went above; the 2 KB message is seqs 4 and 5.
  auto faults = std::make_unique<net::ScriptedFaults>();
  faults->add_rule({.type = net::PacketType::kData, .seq = 5},
                   net::FaultAction::kDrop, 4);
  c.network.set_fault_injector(std::move(faults));
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(2048), 0, op++});
  c.sim.run_for(sim::usec(50));  // seq 4 accepted, before any timeout
  EXPECT_EQ(rx.recv_buffers_posted(0), 3u);
  c.sim.run();
  const auto failed = c.drain_events(0);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].type, HostEvent::Type::kSendFailed);
  EXPECT_EQ(c.nic(0).stats().conn_resets, 1u);
  EXPECT_TRUE(c.drain_events(1).empty());
  EXPECT_EQ(rx.recv_buffers_posted(0), 4u);

  EXPECT_EQ(deliver(64), 20u);
  EXPECT_EQ(deliver(64), 20u);
  EXPECT_EQ(deliver(64), 20u);
  EXPECT_EQ(rx.recv_buffers_posted(0), 1u);
  EXPECT_EQ(deliver(64), 30u);  // returned behind the second batch
  EXPECT_EQ(rx.recv_buffers_posted(0), 0u);
}

TEST(Unicast, NoFittingBufferStallsUntilOnePosted) {
  TestCluster c(2);
  c.post_buffers(1, 4, 16);  // plenty of buffers, all too small
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  c.sim.run_for(sim::usec(500));
  EXPECT_TRUE(c.drain_events(1).empty());
  EXPECT_GE(c.nic(1).stats().no_token_drops, 1u);
  c.nic(1).post_recv_buffer(RecvBuffer{0, 4096, 99});
  c.sim.run();
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 1u);
  EXPECT_EQ(recv[0].handle, 99u);
}

TEST(Unicast, SequenceWraparound) {
  TestCluster c(2);
  c.post_buffers(1, 3, 4096);
  // Start both ends 2 packets before the 32-bit wrap point.
  c.nic(0).debug_set_send_seq(0, 1, 0, 0xFFFFFFFEu);
  c.nic(1).debug_set_recv_seq(0, 0, 0, 0xFFFFFFFEu);
  for (std::uint32_t i = 0; i < 3; ++i) {
    c.nic(0).post_send(
        SendRequest{0, 1, 0, make_payload(50, static_cast<std::uint8_t>(i)),
                    i, 1 + i});
  }
  c.sim.run();
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 3u);  // messages cross the wrap cleanly
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(recv[i].tag, i);
  EXPECT_EQ(c.drain_events(0).size(), 3u);
}

TEST(Unicast, LargeTransferBandwidthBound) {
  TestCluster c(2);
  c.post_buffers(1, 1, 1 << 20);
  const std::size_t size = 256 * 1024;
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(size), 0, 1});
  sim::TimePoint recv_time{0};
  c.sim.spawn([](TestCluster& cl, sim::TimePoint& t) -> sim::Task<void> {
    co_await cl.nic(1).events(0).pop();
    t = cl.sim.now();
  }(c, recv_time));
  c.sim.run();
  // Wire-limited: >= size / 250 MB/s ~= 1049us; some overhead on top, but
  // pipelining should keep it within ~25%.
  const double wire_us = static_cast<double>(size) / 250.0;
  EXPECT_GT(recv_time.microseconds(), wire_us);
  EXPECT_LT(recv_time.microseconds(), wire_us * 1.25);
}

TEST(Unicast, EngineUtilisationAccounted) {
  TestCluster c(2);
  c.post_buffers(1, 1, 4096);
  EXPECT_EQ(c.nic(0).cpu_busy_time(), sim::Duration{0});
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(4096), 0, 1});
  c.sim.run();
  // Sender CPU: at least the send-token processing; receiver CPU: at
  // least the per-packet receive processing.
  EXPECT_GE(c.nic(0).cpu_busy_time(),
            c.nic(0).config().send_token_processing);
  EXPECT_GE(c.nic(1).cpu_busy_time(),
            c.nic(1).config().recv_packet_processing);
  // Utilisation stays far below wall time for a single message.
  EXPECT_LT(c.nic(0).cpu_busy_time().nanoseconds(),
            c.sim.now().nanoseconds());
}

TEST(Unicast, SendTokenHighWaterMark) {
  TestCluster c(2);
  c.post_buffers(1, 3, 4096);
  for (OpHandle h = 1; h <= 3; ++h) {
    c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, h});
  }
  c.sim.run();
  EXPECT_EQ(c.nic(0).stats().send_tokens_in_use_high_water, 3u);
  EXPECT_EQ(c.nic(0).send_tokens_available(0),
            c.nic(0).config().send_tokens_per_port);
}

TEST(Unicast, StatsCountTraffic) {
  TestCluster c(2);
  c.post_buffers(1, 1, 4096);
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(100), 0, 1});
  c.sim.run();
  EXPECT_EQ(c.nic(0).stats().packets_sent, 1u);
  EXPECT_EQ(c.nic(1).stats().acks_sent, 1u);
  EXPECT_EQ(c.nic(1).stats().packets_received, 1u);
  EXPECT_EQ(c.nic(0).stats().retransmissions, 0u);
}

}  // namespace
}  // namespace nicmcast::nic
