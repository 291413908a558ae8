// Go-back-N reliability under injected faults: drops, corruption, lost
// acks, bursty loss, peer death.
#include <gtest/gtest.h>

#include "nic/auditor.hpp"
#include "nic_test_util.hpp"

namespace nicmcast::nic {
namespace {

using testing::TestCluster;
using testing::make_payload;

std::unique_ptr<net::ScriptedFaults> scripted() {
  return std::make_unique<net::ScriptedFaults>();
}

TEST(Reliability, DroppedDataPacketRetransmitted) {
  TestCluster c(2);
  c.post_buffers(1, 1, 4096);
  auto faults = scripted();
  faults->add_rule({.type = net::PacketType::kData}, net::FaultAction::kDrop);
  c.network.set_fault_injector(std::move(faults));
  const Payload msg = make_payload(128);
  c.nic(0).post_send(SendRequest{0, 1, 0, msg, 0, 1});
  c.sim.run();
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 1u);
  EXPECT_EQ(recv[0].data, msg);
  EXPECT_EQ(c.nic(0).stats().retransmissions, 1u);
  EXPECT_EQ(c.drain_events(0).size(), 1u);  // send still completes
}

TEST(Reliability, CorruptedPacketDroppedByCrcAndRecovered) {
  TestCluster c(2);
  c.post_buffers(1, 1, 4096);
  auto faults = scripted();
  faults->add_rule({.type = net::PacketType::kData},
                   net::FaultAction::kCorrupt);
  c.network.set_fault_injector(std::move(faults));
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(128), 0, 1});
  c.sim.run();
  EXPECT_EQ(c.nic(1).stats().crc_drops, 1u);
  ASSERT_EQ(c.drain_events(1).size(), 1u);
  EXPECT_GE(c.nic(0).stats().retransmissions, 1u);
}

TEST(Reliability, LostAckCausesDuplicateWhichIsReAcked) {
  TestCluster c(2);
  c.post_buffers(1, 1, 4096);
  auto faults = scripted();
  faults->add_rule({.type = net::PacketType::kAck}, net::FaultAction::kDrop);
  c.network.set_fault_injector(std::move(faults));
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(128), 0, 1});
  c.sim.run();
  // Exactly one receive event despite the duplicate data packet.
  EXPECT_EQ(c.drain_events(1).size(), 1u);
  EXPECT_EQ(c.nic(1).stats().duplicate_drops, 1u);
  // Sender eventually completes off the re-ack.
  const auto sent = c.drain_events(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, HostEvent::Type::kSendComplete);
}

TEST(Reliability, MidMessageLossTriggersGoBackN) {
  TestCluster c(2);
  c.post_buffers(1, 1, 20000);
  auto faults = scripted();
  // Drop the second packet (seq=1) of a 3-packet message.
  faults->add_rule({.type = net::PacketType::kData, .seq = 1},
                   net::FaultAction::kDrop);
  c.network.set_fault_injector(std::move(faults));
  const Payload msg = make_payload(10000);
  c.nic(0).post_send(SendRequest{0, 1, 0, msg, 0, 1});
  c.sim.run();
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 1u);
  EXPECT_EQ(recv[0].data, msg);
  // Packet 2 arrived out of order and was discarded, then 1 and 2 were
  // both retransmitted (Go-back-N window resend).
  EXPECT_GE(c.nic(1).stats().out_of_order_drops, 1u);
  EXPECT_GE(c.nic(0).stats().retransmissions, 2u);
}

TEST(Reliability, RandomLossStressStillDeliversEverything) {
  NicConfig config;
  config.send_tokens_per_port = 64;  // post the whole burst at once
  TestCluster c(2, config);
  const int kMessages = 30;
  c.post_buffers(1, kMessages, 8192);
  c.network.set_fault_injector(
      std::make_unique<net::RandomFaults>(0.10, 0.05, sim::Rng(99)));
  for (int i = 0; i < kMessages; ++i) {
    c.nic(0).post_send(SendRequest{
        0, 1, 0, make_payload(500 + i * 37, static_cast<std::uint8_t>(i)),
        static_cast<std::uint32_t>(i), static_cast<OpHandle>(1 + i)});
  }
  c.sim.run();
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(recv[i].tag, static_cast<std::uint32_t>(i)) << "order broken";
    EXPECT_EQ(recv[i].data,
              make_payload(500 + i * 37, static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(c.drain_events(0).size(), static_cast<std::size_t>(kMessages));
  EXPECT_GT(c.nic(0).stats().retransmissions, 0u);
}

TEST(Reliability, UnreachablePeerFailsTheOperation) {
  NicConfig config;
  config.retransmit_timeout = sim::usec(100);
  config.max_retries = 3;
  TestCluster c(2, config);
  c.post_buffers(1, 1, 4096);
  auto faults = scripted();
  faults->add_rule({.type = net::PacketType::kData}, net::FaultAction::kDrop,
                   1000);  // black-hole every data packet
  c.network.set_fault_injector(std::move(faults));
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  c.sim.run();
  const auto sent = c.drain_events(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, HostEvent::Type::kSendFailed);
  EXPECT_EQ(sent[0].handle, 1u);
  // The send token came back despite the failure.
  EXPECT_EQ(c.nic(0).send_tokens_available(0),
            c.nic(0).config().send_tokens_per_port);
}

TEST(Reliability, RetriesBoundedUnderTotalBlackout) {
  NicConfig config;
  config.retransmit_timeout = sim::usec(100);
  config.max_retries = 5;
  TestCluster c(2, config);
  auto faults = scripted();
  faults->add_rule({}, net::FaultAction::kDrop, 1'000'000);
  c.network.set_fault_injector(std::move(faults));
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  c.sim.run();
  EXPECT_LE(c.nic(0).stats().retransmissions, 5u);
}

TEST(Reliability, BackToBackLossOnSamePacket) {
  TestCluster c(2);
  c.post_buffers(1, 1, 4096);
  auto faults = scripted();
  faults->add_rule({.type = net::PacketType::kData, .seq = 0},
                   net::FaultAction::kDrop, 3);  // drop 3 attempts
  c.network.set_fault_injector(std::move(faults));
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  c.sim.run();
  ASSERT_EQ(c.drain_events(1).size(), 1u);
  EXPECT_EQ(c.nic(0).stats().retransmissions, 3u);
}

TEST(Reliability, ConcurrentConnectionsIsolated) {
  // Loss on the 0->1 connection must not disturb 0->2 (per-connection
  // Go-back-N state).
  TestCluster c(3);
  c.post_buffers(1, 1, 4096);
  c.post_buffers(2, 1, 4096);
  auto faults = scripted();
  faults->add_rule({.type = net::PacketType::kData, .dst = 1},
                   net::FaultAction::kDrop, 2);
  c.network.set_fault_injector(std::move(faults));
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64, 1), 0, 1});
  c.nic(0).post_send(SendRequest{0, 2, 0, make_payload(64, 2), 0, 2});

  sim::TimePoint t2{0};
  c.sim.spawn([](TestCluster& cl, sim::TimePoint& t) -> sim::Task<void> {
    co_await cl.nic(2).events(0).pop();
    t = cl.sim.now();
  }(c, t2));
  c.sim.run();
  ASSERT_EQ(c.drain_events(1).size(), 1u);
  // Node 2 was not delayed by node 1's retransmission timeout.
  EXPECT_LT(t2.microseconds(), 100.0);
}

TEST(Reliability, UnicastSurvivesSequenceWrapUnderLoss) {
  // Start the connection's sequence space just below 2^32 so the Go-back-N
  // window, cumulative acks and duplicate detection all straddle the wrap,
  // with enough loss that retransmission comparisons cross it too.
  NicConfig config;
  config.send_tokens_per_port = 64;
  TestCluster c(2, config);
  const int kMessages = 32;
  c.post_buffers(1, kMessages, 4096);
  c.nic(0).debug_set_send_seq(0, 1, 0, 0xFFFFFFF0u);
  c.nic(1).debug_set_recv_seq(0, 0, 0, 0xFFFFFFF0u);
  c.network.set_fault_injector(
      std::make_unique<net::RandomFaults>(0.10, 0.05, sim::Rng(17)));
  for (int i = 0; i < kMessages; ++i) {
    c.nic(0).post_send(SendRequest{
        0, 1, 0, make_payload(200 + i * 13, static_cast<std::uint8_t>(i)),
        static_cast<std::uint32_t>(i), static_cast<OpHandle>(1 + i)});
  }
  c.sim.run();
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(recv[i].tag, static_cast<std::uint32_t>(i)) << "order broken";
    EXPECT_EQ(recv[i].data,
              make_payload(200 + i * 13, static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(c.drain_events(0).size(), static_cast<std::size_t>(kMessages));
}

TEST(Reliability, ConnectionRecoversAfterMaxRetriesFailure) {
  // Regression: a max-retries failure cleared the sender's window but left
  // next_seq ahead of the receiver's expected_seq, permanently wedging the
  // connection — every subsequent send was discarded as out-of-order and
  // timed out too.  The kCtrl reset handshake re-seats the receiver.
  NicConfig config;
  config.retransmit_timeout = sim::usec(100);
  config.max_retries = 3;
  TestCluster c(2, config);
  c.post_buffers(1, 1, 4096);
  auto faults = scripted();
  // Eat exactly the first message's attempts: initial send + 3 retries.
  faults->add_rule({.type = net::PacketType::kData}, net::FaultAction::kDrop,
                   4);
  c.network.set_fault_injector(std::move(faults));
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  c.sim.run();
  auto sent = c.drain_events(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, HostEvent::Type::kSendFailed);
  EXPECT_EQ(c.nic(0).stats().conn_resets, 1u);

  // The connection must be usable again after the failure.
  const Payload msg = make_payload(128, 7);
  c.nic(0).post_send(SendRequest{0, 1, 0, msg, 1, 2});
  c.sim.run();
  sent = c.drain_events(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, HostEvent::Type::kSendComplete);
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 1u);
  EXPECT_EQ(recv[0].data, msg);
}

TEST(Reliability, DrainAuditSkipsUnusedPortsAndFlagsHeldTokens) {
  TestCluster c(2);
  ProtocolAuditor auditor;
  for (auto& nic : c.nics) nic->set_auditor(&auditor);
  c.post_buffers(1, 1, 4096);
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  c.sim.run();
  // Ports 1-3 of both NICs were never used.
  auditor.check_drained(c.nic(0));
  auditor.check_drained(c.nic(1));
  EXPECT_TRUE(auditor.ok()) << auditor.report();

  c.nic(0).post_send(SendRequest{2, 1, 0, make_payload(8), 0, 2});
  auditor.check_drained(c.nic(0));
  EXPECT_NE(auditor.report().find("port 2 still holds 1 send token(s)"),
            std::string::npos)
      << auditor.report();
}

// Both reset-handshake tests: a 100-us retransmit timeout and 3 retries, so
// 4 dropped data packets fail a one-packet send and start a reset.
NicConfig reset_config() {
  NicConfig config;
  config.retransmit_timeout = sim::usec(100);
  config.max_retries = 3;
  return config;
}

TEST(Reliability, ResetHandshakeRetriesALostRequest) {
  TestCluster c(2, reset_config());
  ProtocolAuditor auditor;
  for (auto& nic : c.nics) nic->set_auditor(&auditor);
  c.post_buffers(1, 1, 4096);
  auto faults = scripted();
  faults->add_rule({.type = net::PacketType::kData}, net::FaultAction::kDrop,
                   4);
  // The first ResetReq is lost; the ctrl timer must resend it.
  faults->add_rule({.type = net::PacketType::kCtrl}, net::FaultAction::kDrop,
                   1);
  c.network.set_fault_injector(std::move(faults));
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  c.sim.run();
  auto sent = c.drain_events(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, HostEvent::Type::kSendFailed);
  EXPECT_EQ(c.nic(0).stats().conn_resets, 1u);
  EXPECT_EQ(c.nic(0).stats().ctrl_packets, 2u);  // the lost request + retry
  EXPECT_EQ(c.nic(1).stats().ctrl_packets, 1u);  // one ResetAck

  const Payload msg = make_payload(128, 7);
  c.nic(0).post_send(SendRequest{0, 1, 0, msg, 1, 2});
  c.sim.run();
  sent = c.drain_events(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, HostEvent::Type::kSendComplete);
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 1u);
  EXPECT_EQ(recv[0].data, msg);
  auditor.check_drained(c.nic(0));
  auditor.check_drained(c.nic(1));
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(Reliability, ResetHandshakeGivesUpAndTheNextFailureRestartsIt) {
  TestCluster c(2, reset_config());
  ProtocolAuditor auditor;
  for (auto& nic : c.nics) nic->set_auditor(&auditor);
  c.post_buffers(1, 1, 4096);
  auto faults = scripted();
  faults->add_rule({.type = net::PacketType::kData}, net::FaultAction::kDrop,
                   4);
  // Every attempt of the first reset is lost: ResetReq + 3 retries.
  faults->add_rule({.type = net::PacketType::kCtrl}, net::FaultAction::kDrop,
                   4);
  c.network.set_fault_injector(std::move(faults));
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  c.sim.run();
  auto sent = c.drain_events(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, HostEvent::Type::kSendFailed);
  EXPECT_EQ(c.nic(0).stats().conn_resets, 1u);
  EXPECT_EQ(c.nic(0).stats().ctrl_packets, 4u);
  EXPECT_EQ(c.nic(1).stats().ctrl_packets, 0u);

  // The receiver was never re-seated, so the next send is dropped as
  // out-of-order until it fails too; that failure starts a fresh reset.
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(96, 3), 1, 2});
  c.sim.run();
  sent = c.drain_events(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, HostEvent::Type::kSendFailed);
  EXPECT_EQ(c.nic(0).stats().conn_resets, 2u);
  EXPECT_EQ(c.nic(1).stats().out_of_order_drops, 4u);
  EXPECT_EQ(c.nic(0).stats().ctrl_packets, 5u);
  EXPECT_EQ(c.nic(1).stats().ctrl_packets, 1u);

  const Payload msg = make_payload(128, 7);
  c.nic(0).post_send(SendRequest{0, 1, 0, msg, 2, 3});
  c.sim.run();
  sent = c.drain_events(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, HostEvent::Type::kSendComplete);
  const auto recv = c.drain_events(1);
  ASSERT_EQ(recv.size(), 1u);
  EXPECT_EQ(recv[0].data, msg);
  auditor.check_drained(c.nic(0));
  auditor.check_drained(c.nic(1));
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(Reliability, DrainedConnectionKeepsItsState) {
  // Connection entries live for the run: a drained connection keeps its
  // Go-back-N state on both ends.
  TestCluster c(2);
  c.post_buffers(1, 1, 4096);
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64), 0, 1});
  c.sim.run();
  EXPECT_EQ(c.nic(0).debug_sender_conn_count(), 1u);
  EXPECT_EQ(c.nic(1).debug_receiver_conn_count(), 1u);
}

}  // namespace
}  // namespace nicmcast::nic
