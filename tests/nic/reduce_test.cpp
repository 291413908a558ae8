// NIC-level reduction (extension; paper §7 / "NIC-Based Reduction in
// Myrinet Clusters"): lane-wise combining in firmware, epochs, reliability.
#include <gtest/gtest.h>

#include "nic_test_util.hpp"

namespace nicmcast::nic {
namespace {

using testing::TestCluster;

constexpr net::GroupId kGroup = 7;

/// 0 -> {1, 2}, 1 -> {3}.
void setup_tree(TestCluster& c) {
  c.nic(0).set_group(kGroup, GroupEntry{0, kNoNode, {1, 2}});
  c.nic(1).set_group(kGroup, GroupEntry{0, 0, {3}});
  c.nic(2).set_group(kGroup, GroupEntry{0, 0, {}});
  c.nic(3).set_group(kGroup, GroupEntry{0, 1, {}});
}

Payload encode(std::vector<std::int64_t> values) {
  Payload p(values.size() * 8);
  for (std::size_t v = 0; v < values.size(); ++v) {
    auto raw = static_cast<std::uint64_t>(values[v]);
    for (int i = 0; i < 8; ++i) {
      p[v * 8 + i] = std::byte{static_cast<std::uint8_t>(raw >> (8 * i))};
    }
  }
  return p;
}

std::vector<std::int64_t> decode(const Payload& p) {
  std::vector<std::int64_t> values(p.size() / 8);
  for (std::size_t v = 0; v < values.size(); ++v) {
    std::uint64_t raw = 0;
    for (int i = 0; i < 8; ++i) {
      raw |= std::to_integer<std::uint64_t>(p[v * 8 + i]) << (8 * i);
    }
    values[v] = static_cast<std::int64_t>(raw);
  }
  return values;
}

/// Posts one contribution per node and returns the root's result.
std::vector<std::int64_t> run_reduce(TestCluster& c,
                                     std::vector<Payload> contributions) {
  for (net::NodeId n = 0; n < contributions.size(); ++n) {
    c.nic(n).post_reduce(0, kGroup, std::move(contributions[n]), 100 + n);
  }
  c.sim.run();
  for (auto& ev : c.drain_events(0)) {
    if (ev.type == HostEvent::Type::kReduceDone) return decode(ev.data);
  }
  throw std::logic_error("no kReduceDone at root");
}

TEST(NicReduce, SumsAcrossTheTree) {
  TestCluster c(4);
  setup_tree(c);
  const auto sum = run_reduce(
      c, {encode({1, 10}), encode({2, 20}), encode({3, 30}), encode({4, 40})});
  EXPECT_EQ(sum, (std::vector<std::int64_t>{10, 100}));
  // Non-roots saw their contribution absorbed.
  for (std::size_t n = 1; n < 4; ++n) {
    bool complete = false;
    for (auto& ev : c.drain_events(n)) {
      if (ev.type == HostEvent::Type::kSendComplete) complete = true;
    }
    EXPECT_TRUE(complete) << "node " << n;
  }
}

TEST(NicReduce, NegativeValuesAndZero) {
  TestCluster c(4);
  setup_tree(c);
  const auto sum = run_reduce(c, {encode({-5}), encode({3}), encode({0}),
                                  encode({-8})});
  EXPECT_EQ(sum, (std::vector<std::int64_t>{-10}));
}

TEST(NicReduce, CombinesInFirmwareNotAtHosts) {
  TestCluster c(4);
  setup_tree(c);
  run_reduce(c, {encode({1}), encode({1}), encode({1}), encode({1})});
  // Node 1 combined its own + node 3's contribution (2 combines);
  // node 0 combined its own + nodes 1 and 2's partials (3 combines).
  EXPECT_EQ(c.nic(1).stats().reductions_combined, 2u);
  EXPECT_EQ(c.nic(0).stats().reductions_combined, 3u);
  // No reduce data ever reached a non-root host.
  for (std::size_t n = 1; n < 4; ++n) {
    for (auto& ev : c.drain_events(n)) {
      EXPECT_NE(ev.type, HostEvent::Type::kReduceDone);
    }
  }
}

TEST(NicReduce, SkewedArrivalsStillExact) {
  TestCluster c(4);
  setup_tree(c);
  c.nic(2).post_reduce(0, kGroup, encode({200}), 2);
  c.sim.run_for(sim::usec(300));
  c.nic(3).post_reduce(0, kGroup, encode({300}), 3);
  c.sim.run_for(sim::usec(300));
  c.nic(0).post_reduce(0, kGroup, encode({0}), 0);
  c.sim.run_for(sim::usec(300));
  c.nic(1).post_reduce(0, kGroup, encode({100}), 1);
  c.sim.run();
  for (auto& ev : c.drain_events(0)) {
    if (ev.type == HostEvent::Type::kReduceDone) {
      EXPECT_EQ(decode(ev.data), (std::vector<std::int64_t>{600}));
      return;
    }
  }
  FAIL() << "root never completed";
}

TEST(NicReduce, RepeatedEpochs) {
  TestCluster c(4);
  setup_tree(c);
  auto host = [](TestCluster& cl, net::NodeId me) -> sim::Task<void> {
    for (std::int64_t round = 1; round <= 4; ++round) {
      cl.nic(me).post_reduce(0, kGroup, encode({round * (me + 1)}),
                             100 * (me + 1) + round);
      for (;;) {
        HostEvent ev = co_await cl.nic(me).events(0).pop();
        if (me == 0 && ev.type == HostEvent::Type::kReduceDone) {
          // sum over nodes of round*(n+1) = round * 10.
          if (decode(ev.data) != std::vector<std::int64_t>{round * 10}) {
            throw std::logic_error("wrong sum in round");
          }
          break;
        }
        if (me != 0 && ev.type == HostEvent::Type::kSendComplete) break;
      }
    }
  };
  for (net::NodeId n = 0; n < 4; ++n) c.sim.spawn(host(c, n));
  c.sim.run();
}

TEST(NicReduce, LostContributionResent) {
  NicConfig config;
  config.retransmit_timeout = sim::usec(200);
  TestCluster c(4, config);
  setup_tree(c);
  auto faults = std::make_unique<net::ScriptedFaults>();
  faults->add_rule({.type = net::PacketType::kReduce, .src = 3},
                   net::FaultAction::kDrop);
  c.network.set_fault_injector(std::move(faults));
  const auto sum = run_reduce(
      c, {encode({1}), encode({2}), encode({3}), encode({4})});
  EXPECT_EQ(sum, (std::vector<std::int64_t>{10}));
  EXPECT_GE(c.nic(3).stats().reduce_resends, 1u);
}

TEST(NicReduce, LostAckDoesNotDoubleCount) {
  NicConfig config;
  config.retransmit_timeout = sim::usec(200);
  TestCluster c(4, config);
  setup_tree(c);
  auto faults = std::make_unique<net::ScriptedFaults>();
  faults->add_rule({.type = net::PacketType::kReduceAck},
                   net::FaultAction::kDrop);
  c.network.set_fault_injector(std::move(faults));
  const auto sum = run_reduce(
      c, {encode({1}), encode({2}), encode({3}), encode({4})});
  // The duplicate resend must be re-acked, never re-combined.
  EXPECT_EQ(sum, (std::vector<std::int64_t>{10}));
}

TEST(NicReduce, UnreachableParentFailsAfterRetries) {
  NicConfig config;
  config.retransmit_timeout = sim::usec(100);
  config.max_retries = 3;
  TestCluster c(4, config);
  setup_tree(c);
  // Node 3's first contribution and all three resends are lost.
  auto faults = std::make_unique<net::ScriptedFaults>();
  faults->add_rule({.type = net::PacketType::kReduce, .src = 3},
                   net::FaultAction::kDrop, 4);
  c.network.set_fault_injector(std::move(faults));
  for (net::NodeId n = 0; n < 4; ++n) {
    c.nic(n).post_reduce(0, kGroup, encode({n + 1}), 100 + n);
  }
  c.sim.run();
  std::vector<HostEvent> failed;
  for (auto& ev : c.drain_events(3)) {
    if (ev.type == HostEvent::Type::kSendFailed) failed.push_back(ev);
  }
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].handle, 103u);
  EXPECT_EQ(c.nic(3).stats().reduce_resends, 3u);

  // The give-up restarted the round at the same epoch: node 3 contributes
  // again and the root's sum holds every contribution once.
  c.nic(3).post_reduce(0, kGroup, encode({4}), 203);
  c.sim.run();
  std::vector<std::vector<std::int64_t>> sums;
  for (auto& ev : c.drain_events(0)) {
    if (ev.type == HostEvent::Type::kReduceDone) {
      sums.push_back(decode(ev.data));
    }
  }
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums[0], (std::vector<std::int64_t>{10}));
}

TEST(NicReduce, RandomLossStress) {
  NicConfig config;
  config.retransmit_timeout = sim::usec(150);
  TestCluster c(4, config);
  setup_tree(c);
  c.network.set_fault_injector(
      std::make_unique<net::RandomFaults>(0.10, 0.05, sim::Rng(23)));
  const auto sum = run_reduce(
      c, {encode({7, -1}), encode({8, -2}), encode({9, -3}),
          encode({10, -4})});
  EXPECT_EQ(sum, (std::vector<std::int64_t>{34, -10}));
}

TEST(NicReduce, InvalidPostsRejected) {
  TestCluster c(4);
  setup_tree(c);
  EXPECT_THROW(c.nic(0).post_reduce(0, 999, encode({1}), 1),
               std::logic_error);
  EXPECT_THROW(c.nic(0).post_reduce(9, kGroup, encode({1}), 1),
               std::out_of_range);
  EXPECT_THROW(c.nic(0).post_reduce(1, kGroup, encode({1}), 1),
               std::logic_error);  // protection: wrong port
  EXPECT_THROW(c.nic(0).post_reduce(0, kGroup, Payload(7), 1),
               std::invalid_argument);  // not 8-byte lanes
  EXPECT_THROW(c.nic(0).post_reduce(0, kGroup, Payload{}, 1),
               std::invalid_argument);
  c.nic(0).post_reduce(0, kGroup, encode({1}), 1);
  EXPECT_THROW(c.nic(0).post_reduce(0, kGroup, encode({2}), 2),
               std::logic_error);  // double entry
}

TEST(NicReduce, WideVector) {
  TestCluster c(4);
  setup_tree(c);
  std::vector<std::int64_t> v(256);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::int64_t>(i);
  }
  const auto sum = run_reduce(c, {encode(v), encode(v), encode(v), encode(v)});
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(sum[i], static_cast<std::int64_t>(4 * i));
  }
}

}  // namespace
}  // namespace nicmcast::nic
