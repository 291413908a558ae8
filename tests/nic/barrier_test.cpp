// NIC-level barrier (extension; paper §7): gather/release in firmware,
// epochs, skewed arrivals, loss of arrives and releases.
#include <gtest/gtest.h>

#include <algorithm>

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

std::vector<HostEvent> barrier_events(TestCluster& c, std::size_t node) {
  std::vector<HostEvent> out;
  for (auto& ev : c.drain_events(node)) {
    if (ev.type == HostEvent::Type::kBarrierDone ||
        ev.type == HostEvent::Type::kSendFailed) {
      out.push_back(ev);
    }
  }
  return out;
}

TEST(NicBarrier, AllNodesReleasedOnce) {
  TestCluster c(4);
  setup_tree(c);
  for (net::NodeId n = 0; n < 4; ++n) {
    c.nic(n).post_barrier(0, kGroup, 100 + n);
  }
  c.sim.run();
  for (std::size_t n = 0; n < 4; ++n) {
    const auto evs = barrier_events(c, n);
    ASSERT_EQ(evs.size(), 1u) << "node " << n;
    EXPECT_EQ(evs[0].type, HostEvent::Type::kBarrierDone);
    EXPECT_EQ(evs[0].handle, 100 + n);
    EXPECT_EQ(c.nic(n).stats().barriers_completed, 1u);
  }
}

TEST(NicBarrier, NobodyReleasedUntilLastArrives) {
  TestCluster c(4);
  setup_tree(c);
  // Everyone but node 3 arrives immediately.
  for (net::NodeId n = 0; n < 3; ++n) {
    c.nic(n).post_barrier(0, kGroup, 100 + n);
  }
  c.sim.run_for(sim::usec(500));
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_TRUE(barrier_events(c, n).empty()) << "node " << n;
  }
  // The straggler arrives 500us late; everyone releases.
  c.nic(3).post_barrier(0, kGroup, 103);
  c.sim.run();
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_EQ(barrier_events(c, n).size(), 1u) << "node " << n;
  }
}

TEST(NicBarrier, RepeatedEpochsStayInLockstep) {
  TestCluster c(4);
  setup_tree(c);
  // Hosts re-enter as soon as they are released, 5 rounds.
  auto host = [](TestCluster& cl, net::NodeId me) -> sim::Task<void> {
    for (OpHandle round = 0; round < 5; ++round) {
      cl.nic(me).post_barrier(0, kGroup, 1000 * (me + 1) + round);
      for (;;) {
        HostEvent ev = co_await cl.nic(me).events(0).pop();
        if (ev.type == HostEvent::Type::kBarrierDone) {
          if (ev.handle != 1000 * (me + 1) + round) {
            throw std::logic_error("wrong round released");
          }
          break;
        }
      }
    }
  };
  for (net::NodeId n = 0; n < 4; ++n) {
    c.sim.spawn(host(c, n));
  }
  c.sim.run();
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_EQ(c.nic(n).stats().barriers_completed, 5u) << "node " << n;
  }
}

TEST(NicBarrier, LostArriveRecoveredByResend) {
  NicConfig config;
  config.retransmit_timeout = sim::usec(200);
  TestCluster c(4, config);
  setup_tree(c);
  auto faults = std::make_unique<net::ScriptedFaults>();
  faults->add_rule({.type = net::PacketType::kBarrier, .src = 3},
                   net::FaultAction::kDrop);
  c.network.set_fault_injector(std::move(faults));
  for (net::NodeId n = 0; n < 4; ++n) {
    c.nic(n).post_barrier(0, kGroup, 100 + n);
  }
  c.sim.run();
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_EQ(barrier_events(c, n).size(), 1u) << "node " << n;
  }
  EXPECT_GE(c.nic(3).stats().barrier_resends, 1u);
}

TEST(NicBarrier, LostReleaseRecoveredByRerelease) {
  NicConfig config;
  config.retransmit_timeout = sim::usec(200);
  TestCluster c(4, config);
  setup_tree(c);
  auto faults = std::make_unique<net::ScriptedFaults>();
  // Drop the release from node 1 to node 3.
  faults->add_predicate_rule(
      [](const net::Packet& p) {
        return p.header.type == net::PacketType::kBarrier &&
               p.header.src == 1 && p.header.dst == 3 &&
               p.header.msg_offset == 1;
      },
      net::FaultAction::kDrop);
  c.network.set_fault_injector(std::move(faults));
  for (net::NodeId n = 0; n < 4; ++n) {
    c.nic(n).post_barrier(0, kGroup, 100 + n);
  }
  c.sim.run();
  // Node 3 missed the release but its resent arrive for the old epoch
  // triggers a direct re-release from node 1.
  EXPECT_EQ(barrier_events(c, 3).size(), 1u);
  EXPECT_GE(c.nic(3).stats().barrier_resends, 1u);
}

TEST(NicBarrier, RandomLossStressManyRounds) {
  NicConfig config;
  config.retransmit_timeout = sim::usec(150);
  TestCluster c(4, config);
  setup_tree(c);
  c.network.set_fault_injector(
      std::make_unique<net::RandomFaults>(0.10, 0.05, sim::Rng(21)));
  auto host = [](TestCluster& cl, net::NodeId me) -> sim::Task<void> {
    for (OpHandle round = 0; round < 8; ++round) {
      cl.nic(me).post_barrier(0, kGroup, 100 * (me + 1) + round);
      for (;;) {
        HostEvent ev = co_await cl.nic(me).events(0).pop();
        if (ev.type == HostEvent::Type::kBarrierDone) break;
        if (ev.type == HostEvent::Type::kSendFailed) {
          throw std::logic_error("barrier failed under recoverable loss");
        }
      }
    }
  };
  for (net::NodeId n = 0; n < 4; ++n) c.sim.spawn(host(c, n));
  c.sim.run();
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_EQ(c.nic(n).stats().barriers_completed, 8u) << "node " << n;
  }
}

TEST(NicBarrier, HostNeverInvolvedAtIntermediateBetweenEntryAndExit) {
  // Node 1 (intermediate) posts its arrival, then its host goes silent —
  // the gather of node 3's arrive and the forwarding of the release happen
  // in node 1's NIC alone.
  TestCluster c(4);
  setup_tree(c);
  c.nic(1).post_barrier(0, kGroup, 101);
  c.sim.run_for(sim::usec(100));
  c.nic(0).post_barrier(0, kGroup, 100);
  c.nic(2).post_barrier(0, kGroup, 102);
  c.nic(3).post_barrier(0, kGroup, 103);
  c.sim.run();
  EXPECT_EQ(barrier_events(c, 3).size(), 1u);
  EXPECT_EQ(barrier_events(c, 1).size(), 1u);
}

TEST(NicBarrier, InvalidPostsRejected) {
  TestCluster c(4);
  setup_tree(c);
  EXPECT_THROW(c.nic(0).post_barrier(0, 999, 1), std::logic_error);
  EXPECT_THROW(c.nic(0).post_barrier(9, kGroup, 1), std::out_of_range);
  EXPECT_THROW(c.nic(0).post_barrier(1, kGroup, 1),
               std::logic_error);  // wrong port (protection)
  c.nic(0).post_barrier(0, kGroup, 1);
  EXPECT_THROW(c.nic(0).post_barrier(0, kGroup, 2),
               std::logic_error);  // double entry
}

TEST(NicBarrier, UnreachableParentFailsAfterRetries) {
  NicConfig config;
  config.retransmit_timeout = sim::usec(100);
  config.max_retries = 3;
  TestCluster c(4, config);
  setup_tree(c);
  // Node 3's first arrive and all three resends are lost.
  auto faults = std::make_unique<net::ScriptedFaults>();
  faults->add_rule({.type = net::PacketType::kBarrier, .src = 3},
                   net::FaultAction::kDrop, 4);
  c.network.set_fault_injector(std::move(faults));
  for (net::NodeId n = 0; n < 4; ++n) {
    c.nic(n).post_barrier(0, kGroup, 100 + n);
  }
  c.sim.run();
  const auto evs = barrier_events(c, 3);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].type, HostEvent::Type::kSendFailed);
  EXPECT_EQ(evs[0].handle, 103u);
  EXPECT_EQ(c.nic(3).stats().barrier_resends, 3u);

  // The give-up restarted the round at the same epoch: node 3 re-enters
  // and every node is released exactly once.  (Node 2, whose arrive the
  // stalled root could not answer, gave up too but is still released.)
  c.nic(3).post_barrier(0, kGroup, 203);
  c.sim.run();
  for (std::size_t n = 0; n < 4; ++n) {
    const auto events = c.drain_events(n);
    EXPECT_EQ(std::count_if(events.begin(), events.end(),
                            [](const HostEvent& ev) {
                              return ev.type ==
                                     HostEvent::Type::kBarrierDone;
                            }),
              1)
        << "node " << n;
    EXPECT_EQ(c.nic(n).stats().barriers_completed, 1u) << "node " << n;
  }
}

TEST(NicBarrier, WideFlatTree) {
  const std::size_t n = 8;
  TestCluster c(n);
  GroupEntry root_entry{0, kNoNode, {}};
  for (net::NodeId i = 1; i < n; ++i) root_entry.children.push_back(i);
  c.nic(0).set_group(kGroup, root_entry);
  for (net::NodeId i = 1; i < n; ++i) {
    c.nic(i).set_group(kGroup, GroupEntry{0, 0, {}});
  }
  for (net::NodeId i = 0; i < n; ++i) {
    c.nic(i).post_barrier(0, kGroup, 100 + i);
  }
  c.sim.run();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(barrier_events(c, i).size(), 1u) << "node " << i;
  }
}

}  // namespace
}  // namespace nicmcast::nic
