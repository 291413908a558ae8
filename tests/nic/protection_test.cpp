// The paper's "Protection" feature (§2): several user processes share one
// NIC through separate ports; one process must not be able to touch
// another's NIC state, and concurrent per-port traffic must not cross.
// Plus the §5 "Deadlock" argument: id-ordered trees make cyclic
// parent-child waits impossible even under receive-token scarcity.
#include <gtest/gtest.h>

#include "mcast/tree.hpp"
#include "nic_test_util.hpp"

namespace nicmcast::nic {
namespace {

using testing::TestCluster;
using testing::make_payload;

TEST(Protection, PortsHaveIsolatedEventQueues) {
  TestCluster c(2);
  c.nic(1).post_recv_buffer(RecvBuffer{0, 4096, 1});
  c.nic(1).post_recv_buffer(RecvBuffer{2, 4096, 2});
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(64, 1), 0, 1});
  c.nic(0).post_send(SendRequest{2, 1, 2, make_payload(64, 2), 0, 2});
  c.sim.run();
  const auto port0 = c.drain_events(1);
  ASSERT_EQ(port0.size(), 1u);
  EXPECT_EQ(port0[0].data, make_payload(64, 1));
  auto ev = c.nic(1).events(2).try_pop();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->data, make_payload(64, 2));
}

TEST(Protection, GroupsAreOwnedByTheirPort) {
  TestCluster c(2);
  c.nic(0).set_group(5, GroupEntry{1, kNoNode, {1}});
  // A different port on the same NIC cannot multicast, barrier or reduce
  // on port 1's group.
  EXPECT_THROW(c.nic(0).post_mcast_send(McastSendRequest{0, 5, {}, 0, 1}),
               std::logic_error);
  EXPECT_THROW(c.nic(0).post_barrier(0, 5, 1), std::logic_error);
  EXPECT_THROW(c.nic(0).post_reduce(0, 5, Payload(8), 1), std::logic_error);
}

TEST(Protection, PerPortSendTokenPoolsAreIndependent) {
  NicConfig config;
  config.send_tokens_per_port = 2;
  TestCluster c(2, config);
  // Exhaust port 0's pool...
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(8), 0, 1});
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(8), 0, 2});
  EXPECT_EQ(c.nic(0).send_tokens_available(0), 0u);
  // ...port 2's pool is untouched and still usable.
  EXPECT_EQ(c.nic(0).send_tokens_available(2), 2u);
  c.nic(1).post_recv_buffer(RecvBuffer{2, 4096, 9});
  c.nic(0).post_send(SendRequest{2, 1, 2, make_payload(8), 0, 3});
  c.post_buffers(1, 2, 4096);
  c.sim.run();
  EXPECT_EQ(c.nic(0).send_tokens_available(0), 2u);
  EXPECT_EQ(c.nic(0).send_tokens_available(2), 2u);
}

TEST(Protection, UntouchedPortReportsAFullPoolAndNoBuffers) {
  NicConfig config;
  config.send_tokens_per_port = 5;
  TestCluster c(2, config);
  c.nic(0).post_send(SendRequest{0, 1, 0, make_payload(8), 0, 1});
  for (net::PortId port = 1; port < 4; ++port) {
    EXPECT_EQ(c.nic(0).send_tokens_available(port), 5u);
    EXPECT_EQ(c.nic(0).recv_buffers_posted(port), 0u);
  }
  EXPECT_THROW(static_cast<void>(c.nic(0).send_tokens_available(4)),
               std::out_of_range);
  EXPECT_THROW(static_cast<void>(c.nic(0).recv_buffers_posted(4)),
               std::out_of_range);
}

TEST(Protection, ConcurrentGroupsOnDistinctPortsOfOneNic) {
  // Two "processes" (ports 0 and 1) on every node, each with its own
  // multicast group over the same physical NICs; payloads never cross.
  TestCluster c(3);
  const net::GroupId ga = 10;
  const net::GroupId gb = 20;
  c.nic(0).set_group(ga, GroupEntry{0, kNoNode, {1, 2}});
  c.nic(1).set_group(ga, GroupEntry{0, 0, {}});
  c.nic(2).set_group(ga, GroupEntry{0, 0, {}});
  c.nic(2).set_group(gb, GroupEntry{1, kNoNode, {0, 1}});
  c.nic(0).set_group(gb, GroupEntry{1, 2, {}});
  c.nic(1).set_group(gb, GroupEntry{1, 2, {}});
  for (net::NodeId n = 0; n < 3; ++n) {
    c.nic(n).post_recv_buffer(RecvBuffer{0, 4096, OpHandle{100} + n});
    c.nic(n).post_recv_buffer(RecvBuffer{1, 4096, OpHandle{200} + n});
  }
  c.nic(0).post_mcast_send(McastSendRequest{0, ga, make_payload(100, 1), 1, 1});
  c.nic(2).post_mcast_send(McastSendRequest{1, gb, make_payload(100, 2), 2, 2});
  c.sim.run();
  // Port 0 inboxes: only group A traffic.
  for (net::NodeId n : {net::NodeId{1}, net::NodeId{2}}) {
    const auto evs = c.drain_events(n);
    ASSERT_EQ(evs.size(), 1u) << "node " << n;
    EXPECT_EQ(evs[0].group, ga);
    EXPECT_EQ(evs[0].data, make_payload(100, 1));
  }
  // Port 1 inboxes: only group B traffic.
  for (net::NodeId n : {net::NodeId{0}, net::NodeId{1}}) {
    auto ev = c.nic(n).events(1).try_pop();
    ASSERT_TRUE(ev.has_value()) << "node " << n;
    EXPECT_EQ(ev->group, gb);
    EXPECT_EQ(ev->data, make_payload(100, 2));
  }
}

TEST(Deadlock, OpposingMulticastsUnderTokenScarcityMakeProgress) {
  // The paper's §5 scenario: concurrent broadcasts whose trees include
  // each other's nodes, with each node down to its LAST receive token.
  // Because every builder enforces "child id > parent id unless the parent
  // is the root", the parent-child relation cannot close a cycle and both
  // multicasts complete.
  TestCluster c(4);
  const net::GroupId ga = 1;  // root 0: 0 -> 1 -> 2 -> 3 (ascending chain)
  c.nic(0).set_group(ga, GroupEntry{0, kNoNode, {1}});
  c.nic(1).set_group(ga, GroupEntry{0, 0, {2}});
  c.nic(2).set_group(ga, GroupEntry{0, 1, {3}});
  c.nic(3).set_group(ga, GroupEntry{0, 2, {}});
  // root 3: 3 -> {0, 1, 2} — root may feed smaller ids directly, but no
  // non-root parent has a larger id than its child.
  const net::GroupId gb = 2;
  c.nic(3).set_group(gb, GroupEntry{0, kNoNode, {0, 1, 2}});
  c.nic(0).set_group(gb, GroupEntry{0, 3, {}});
  c.nic(1).set_group(gb, GroupEntry{0, 3, {}});
  c.nic(2).set_group(gb, GroupEntry{0, 3, {}});

  // Exactly ONE receive buffer per node: the scarce-receive-token regime.
  for (net::NodeId n = 0; n < 4; ++n) {
    c.nic(n).post_recv_buffer(RecvBuffer{0, 4096, OpHandle{50} + n});
  }
  c.nic(0).post_mcast_send(McastSendRequest{0, ga, make_payload(512, 1), 1, 1});
  c.nic(3).post_mcast_send(McastSendRequest{0, gb, make_payload(512, 2), 2, 2});
  // First buffers get consumed; hosts repost as messages land (client
  // responsibility, paper §5).  The monitor also records the roots'
  // completion events (6 deliveries expected: A->1,2,3 and B->0,1,2).
  auto root_a_done = std::make_shared<bool>(false);
  auto root_b_done = std::make_shared<bool>(false);
  c.sim.spawn([](TestCluster& cl, std::shared_ptr<bool> a,
                 std::shared_ptr<bool> b) -> sim::Task<void> {
    while (!(*a && *b)) {
      for (net::NodeId n = 0; n < 4; ++n) {
        auto& ch = cl.nic(n).events(0);
        while (auto ev = ch.try_pop()) {
          if (ev->type == HostEvent::Type::kMcastRecvComplete) {
            cl.nic(n).post_recv_buffer(RecvBuffer{0, 4096, 90});
            if (ev->group == 1 && ev->data != make_payload(512, 1)) {
              throw std::logic_error("group A payload corrupted");
            }
            if (ev->group == 2 && ev->data != make_payload(512, 2)) {
              throw std::logic_error("group B payload corrupted");
            }
          } else if (ev->type == HostEvent::Type::kMcastSendComplete) {
            if (n == 0) *a = true;
            if (n == 3) *b = true;
          }
        }
      }
      co_await cl.sim.wait(sim::usec(20));
    }
  }(c, root_a_done, root_b_done));
  // Bounded time: a deadlock would leave retransmission timers churning
  // past this horizon with the roots' operations incomplete.
  c.sim.run_until(sim::TimePoint{sim::msec(50).nanoseconds()});
  EXPECT_TRUE(*root_a_done);
  EXPECT_TRUE(*root_b_done);
}

TEST(Deadlock, TreeBuildersRefuseNothingButOrderingHolds) {
  // Sanity net: every canned builder, any member set — the invariant that
  // makes the above theorem apply is structural, not situational.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    sim::Rng rng(seed);
    std::vector<net::NodeId> members;
    for (net::NodeId i = 0; i < 32; ++i) {
      if (rng.chance(0.5)) members.push_back(i);
    }
    if (members.size() < 3) continue;
    const net::NodeId root = members[members.size() / 2];
    std::vector<net::NodeId> dests = members;
    std::erase(dests, root);
    EXPECT_TRUE(
        mcast::build_binomial_tree(root, dests).satisfies_id_ordering());
    EXPECT_TRUE(mcast::build_chain_tree(root, dests).satisfies_id_ordering());
  }
}

}  // namespace
}  // namespace nicmcast::nic
