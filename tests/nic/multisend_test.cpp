// NIC-based multisend: one posting, one host DMA, replica chaining through
// the GM-2 descriptor callback — versus host-based multiple unicasts.
#include <gtest/gtest.h>

#include "nic_test_util.hpp"

namespace nicmcast::nic {
namespace {

using testing::TestCluster;
using testing::make_payload;

TEST(Multisend, AllDestinationsReceiveIdenticalData) {
  TestCluster c(5);
  for (std::size_t i = 1; i < 5; ++i) c.post_buffers(i, 1, 4096);
  const Payload msg = make_payload(256);
  c.nic(0).post_multisend(MultisendRequest{0, {1, 2, 3, 4}, 0, msg, 5, 1});
  c.sim.run();
  for (std::size_t i = 1; i < 5; ++i) {
    const auto recv = c.drain_events(i);
    ASSERT_EQ(recv.size(), 1u) << "node " << i;
    EXPECT_EQ(recv[0].data, msg);
    EXPECT_EQ(recv[0].tag, 5u);
  }
}

TEST(Multisend, SingleCompletionEventAfterAllAcks) {
  TestCluster c(4);
  for (std::size_t i = 1; i < 4; ++i) c.post_buffers(i, 1, 4096);
  c.nic(0).post_multisend(MultisendRequest{0, {1, 2, 3}, 0, make_payload(64),
                                           0, 42});
  c.sim.run();
  const auto sent = c.drain_events(0);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, HostEvent::Type::kMultisendComplete);
  EXPECT_EQ(sent[0].handle, 42u);
}

TEST(Multisend, HeaderRewritesCountReplicas) {
  TestCluster c(5);
  for (std::size_t i = 1; i < 5; ++i) c.post_buffers(i, 1, 4096);
  c.nic(0).post_multisend(
      MultisendRequest{0, {1, 2, 3, 4}, 0, make_payload(64), 0, 1});
  c.sim.run();
  // One packet, 4 destinations: 3 rewrites (first replica is built fresh).
  EXPECT_EQ(c.nic(0).stats().header_rewrites, 3u);
  EXPECT_EQ(c.nic(0).stats().packets_sent, 4u);
}

TEST(Multisend, MultiPacketMessageToMultipleDests) {
  TestCluster c(4);
  for (std::size_t i = 1; i < 4; ++i) c.post_buffers(i, 1, 20000);
  const Payload msg = make_payload(9000);  // 3 packets
  c.nic(0).post_multisend(MultisendRequest{0, {1, 2, 3}, 0, msg, 0, 1});
  c.sim.run();
  for (std::size_t i = 1; i < 4; ++i) {
    const auto recv = c.drain_events(i);
    ASSERT_EQ(recv.size(), 1u);
    EXPECT_EQ(recv[0].data, msg);
  }
  // 3 packets x 3 dests.
  EXPECT_EQ(c.nic(0).stats().packets_sent, 9u);
  EXPECT_EQ(c.nic(0).stats().header_rewrites, 6u);
}

TEST(Multisend, FasterThanHostBasedUnicastsForSmallMessages) {
  // The paper's Figure 3: NIC-based multisend saves the repeated send-token
  // processing for small messages.
  auto measure = [](bool nic_based) {
    TestCluster c(5);
    for (std::size_t i = 1; i < 5; ++i) c.post_buffers(i, 1, 4096);
    const Payload msg = make_payload(64);
    if (nic_based) {
      c.nic(0).post_multisend(MultisendRequest{0, {1, 2, 3, 4}, 0, msg, 0, 1});
    } else {
      for (std::uint32_t i = 1; i < 5; ++i) {
        c.nic(0).post_send(SendRequest{0, static_cast<net::NodeId>(i), 0, msg,
                                       0, i});
      }
    }
    // Latency to the LAST destination's receive event.
    sim::TimePoint last{0};
    for (std::size_t i = 1; i < 5; ++i) {
      c.sim.spawn([](TestCluster& cl, std::size_t node,
                     sim::TimePoint& t) -> sim::Task<void> {
        co_await cl.nic(node).events(0).pop();
        t = std::max(t, cl.sim.now());
      }(c, i, last));
    }
    c.sim.run();
    return last;
  };
  const sim::TimePoint host_based = measure(false);
  const sim::TimePoint nic_based = measure(true);
  EXPECT_LT(nic_based.nanoseconds(), host_based.nanoseconds());
  // Figure 3(b): improvement factor around 2 for small messages, 4 dests.
  const double factor = static_cast<double>(host_based.nanoseconds()) /
                        static_cast<double>(nic_based.nanoseconds());
  EXPECT_GT(factor, 1.4);
  EXPECT_LT(factor, 2.6);
}

TEST(Multisend, AblationMultipleTokensSlowerButCorrect) {
  auto run = [](bool multiple_tokens) {
    NicOptions options;
    options.multisend_uses_multiple_tokens = multiple_tokens;
    TestCluster c(5, NicConfig{}, options);
    for (std::size_t i = 1; i < 5; ++i) c.post_buffers(i, 1, 4096);
    c.nic(0).post_multisend(
        MultisendRequest{0, {1, 2, 3, 4}, 0, make_payload(64), 0, 1});
    sim::TimePoint last{0};
    for (std::size_t i = 1; i < 5; ++i) {
      c.sim.spawn([](TestCluster& cl, std::size_t node,
                     sim::TimePoint& t) -> sim::Task<void> {
        co_await cl.nic(node).events(0).pop();
        t = std::max(t, cl.sim.now());
      }(c, i, last));
    }
    c.sim.run();
    struct Result {
      sim::TimePoint last;
      std::uint64_t rewrites;
      std::size_t completions;
    };
    return Result{last, c.nic(0).stats().header_rewrites,
                  c.drain_events(0).size()};
  };
  const auto chained = run(false);
  const auto tokens = run(true);
  EXPECT_EQ(tokens.completions, 1u);
  EXPECT_EQ(tokens.rewrites, 0u);       // never uses the callback path
  EXPECT_EQ(chained.rewrites, 3u);
  EXPECT_LT(chained.last.nanoseconds(), tokens.last.nanoseconds());
}

TEST(Multisend, ReplicaLossRetransmittedToThatDestinationOnly) {
  TestCluster c(4);
  for (std::size_t i = 1; i < 4; ++i) c.post_buffers(i, 1, 4096);
  auto faults = std::make_unique<net::ScriptedFaults>();
  faults->add_rule({.type = net::PacketType::kData, .dst = 2},
                   net::FaultAction::kDrop);
  c.network.set_fault_injector(std::move(faults));
  c.nic(0).post_multisend(MultisendRequest{0, {1, 2, 3}, 0, make_payload(64),
                                           0, 1});
  c.sim.run();
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(c.drain_events(i).size(), 1u) << "node " << i;
  }
  EXPECT_EQ(c.nic(0).stats().retransmissions, 1u);
  EXPECT_EQ(c.nic(1).stats().duplicate_drops, 0u);
  EXPECT_EQ(c.nic(3).stats().duplicate_drops, 0u);
  ASSERT_EQ(c.drain_events(0).size(), 1u);
}

TEST(Multisend, SingleDestinationDegeneratesToUnicast) {
  TestCluster c(2);
  c.post_buffers(1, 1, 4096);
  c.nic(0).post_multisend(MultisendRequest{0, {1}, 0, make_payload(64), 0, 1});
  c.sim.run();
  EXPECT_EQ(c.drain_events(1).size(), 1u);
  EXPECT_EQ(c.nic(0).stats().header_rewrites, 0u);
}

// A unicast is a one-destination replica chain: the same bytes posted as a
// unicast and as a one-destination multisend run the same events, send the
// same packets and acks (a lost packet's retransmission included) and
// deliver the same message.  Only the completion type differs.
TEST(Multisend, OneDestinationRunsTheUnicastEvents) {
  struct Outcome {
    std::uint64_t event_order_hash;
    std::uint64_t packets_sent;
    std::uint64_t acks_sent;
    std::uint64_t retransmissions;
    std::vector<HostEvent> completions;
    std::vector<HostEvent> deliveries;
  };
  auto run = [](bool multisend) {
    TestCluster c(2);
    c.post_buffers(1, 1, 16384);
    auto faults = std::make_unique<net::ScriptedFaults>();
    faults->add_rule({.type = net::PacketType::kData, .seq = 1},
                     net::FaultAction::kDrop);
    c.network.set_fault_injector(std::move(faults));
    const Payload msg = make_payload(9000, 5);  // 3 packets
    if (multisend) {
      c.nic(0).post_multisend(MultisendRequest{0, {1}, 0, msg, 4, 7});
    } else {
      c.nic(0).post_send(SendRequest{0, 1, 0, msg, 4, 7});
    }
    c.sim.run();
    Outcome out{c.sim.event_order_hash(), 0, 0, 0, c.drain_events(0),
                c.drain_events(1)};
    for (const auto& nic : c.nics) {
      out.packets_sent += nic->stats().packets_sent;
      out.acks_sent += nic->stats().acks_sent;
      out.retransmissions += nic->stats().retransmissions;
    }
    return out;
  };
  const Outcome unicast = run(false);
  const Outcome multisend = run(true);
  EXPECT_EQ(multisend.event_order_hash, unicast.event_order_hash);
  EXPECT_EQ(multisend.packets_sent, unicast.packets_sent);
  EXPECT_EQ(multisend.acks_sent, unicast.acks_sent);
  EXPECT_GT(unicast.retransmissions, 0u);
  EXPECT_EQ(multisend.retransmissions, unicast.retransmissions);
  ASSERT_EQ(unicast.deliveries.size(), 1u);
  ASSERT_EQ(multisend.deliveries.size(), 1u);
  EXPECT_EQ(multisend.deliveries[0].data, unicast.deliveries[0].data);
  EXPECT_EQ(multisend.deliveries[0].data, make_payload(9000, 5));
  ASSERT_EQ(unicast.completions.size(), 1u);
  ASSERT_EQ(multisend.completions.size(), 1u);
  EXPECT_EQ(unicast.completions[0].type, HostEvent::Type::kSendComplete);
  EXPECT_EQ(multisend.completions[0].type,
            HostEvent::Type::kMultisendComplete);
  EXPECT_EQ(multisend.completions[0].handle, unicast.completions[0].handle);
}

// Receivers frame messages per connection and assume one message at a
// time, but a multisend replica can be stamped between a multi-packet
// unicast's fragments on the same connection.  Merging the two would lose
// one message and corrupt the other, so the receiver throws instead.
// Here node 2's connection gets fragment 0 of its 16 KB unicast as seq 0
// and the 1 KB multisend replica as seq 1.
TEST(Multisend, ReplicaInterleavedIntoAUnicastThrows) {
  constexpr std::size_t kNodes = 64;
  TestCluster c(kNodes);
  std::vector<net::NodeId> dests;
  for (std::size_t i = 1; i < kNodes; ++i) {
    dests.push_back(static_cast<net::NodeId>(i));
    c.post_buffers(i, 2, 16384);
  }
  c.nic(0).post_multisend(
      MultisendRequest{0, dests, 0, make_payload(1024, 7), 1, 1});
  for (std::size_t i = 1; i <= 15; ++i) {
    c.nic(0).post_send(SendRequest{0, static_cast<net::NodeId>(i), 0,
                                   make_payload(16384), 2, 1 + i});
  }
  // An event that throws has left the queue, so the run can resume: the
  // replica is never accepted, node 0 retransmits it until max_retries,
  // fails the connection's operations and resets it, and the run ends.
  // Running it out also retires the events that still hold the NICs'
  // descriptors, which the cluster would otherwise destroy first.
  std::vector<std::string> errors;
  for (;;) {
    try {
      c.sim.run();
      break;
    } catch (const std::logic_error& e) {
      errors.emplace_back(e.what());
    }
  }
  ASSERT_FALSE(errors.empty())
      << "the interleaved replica was merged without an error";
  EXPECT_NE(errors[0].find("DATA 0->2 seq=1 off=0 len=1024"),
            std::string::npos)
      << errors[0];
}

TEST(Multisend, EmptyDestinationListRejected) {
  TestCluster c(2);
  EXPECT_THROW(
      c.nic(0).post_multisend(MultisendRequest{0, {}, 0, make_payload(8), 0, 1}),
      std::invalid_argument);
}

TEST(Multisend, InterleavesWithPointToPointTraffic) {
  TestCluster c(4);
  for (std::size_t i = 1; i < 4; ++i) c.post_buffers(i, 2, 4096);
  c.nic(0).post_multisend(MultisendRequest{0, {1, 2, 3}, 0, make_payload(64, 1),
                                           1, 1});
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64, 2), 2, 2});
  c.sim.run();
  const auto at1 = c.drain_events(1);
  ASSERT_EQ(at1.size(), 2u);
  // Same connection (port 0 -> node1 port 0): order preserved.
  EXPECT_EQ(at1[0].tag, 1u);
  EXPECT_EQ(at1[1].tag, 2u);
  EXPECT_EQ(c.drain_events(0).size(), 2u);
}

}  // namespace
}  // namespace nicmcast::nic
