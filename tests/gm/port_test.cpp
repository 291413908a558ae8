// GM port API: blocking coroutine send/receive over the full stack.
#include "gm/port.hpp"

#include <gtest/gtest.h>

#include "gm/cluster.hpp"

namespace nicmcast::gm {
namespace {

Payload make_payload(std::size_t n, std::uint8_t salt = 0) {
  Payload p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = std::byte{static_cast<std::uint8_t>(i * 131u + salt)};
  }
  return p;
}

ClusterConfig small_cluster(std::size_t n) {
  ClusterConfig config;
  config.nodes = n;
  return config;
}

TEST(GmPort, BlockingSendReceive) {
  Cluster c(small_cluster(2));
  c.port(1).provide_receive_buffer(4096);
  const Payload msg = make_payload(100);
  bool sent = false;
  bool received = false;
  c.simulator().spawn([](Cluster& cl, const Payload& m,
                         bool& done) -> sim::Task<void> {
    const SendStatus st = co_await cl.port(0).send(1, 0, m, 42);
    EXPECT_EQ(st, SendStatus::kOk);
    done = true;
  }(c, msg, sent));
  c.simulator().spawn([](Cluster& cl, const Payload& m,
                         bool& done) -> sim::Task<void> {
    RecvMessage r = co_await cl.port(1).receive();
    EXPECT_EQ(r.src, 0);
    EXPECT_EQ(r.tag, 42u);
    EXPECT_EQ(r.data, m);
    EXPECT_FALSE(r.is_multicast());
    done = true;
  }(c, msg, received));
  c.run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(received);
}

TEST(GmPort, PingPongLatency) {
  Cluster c(small_cluster(2));
  c.port(0).provide_receive_buffers(1, 4096);
  c.port(1).provide_receive_buffers(1, 4096);
  sim::TimePoint done_at{0};
  c.simulator().spawn([](Cluster& cl, sim::TimePoint& t) -> sim::Task<void> {
    co_await cl.port(0).send(1, 0, Payload(1), 0);
    co_await cl.port(0).receive();
    t = cl.simulator().now();
  }(c, done_at));
  c.simulator().spawn([](Cluster& cl) -> sim::Task<void> {
    co_await cl.port(1).receive();
    co_await cl.port(1).send(0, 0, Payload(1), 0);
  }(c));
  c.run();
  // Round trip of two one-way ~8us latencies, plus the responder's host
  // overhead; well under 25us.
  EXPECT_GT(done_at.microseconds(), 12.0);
  EXPECT_LT(done_at.microseconds(), 25.0);
}

TEST(GmPort, SendBlocksUntilAcked) {
  Cluster c(small_cluster(2));
  // No buffer at the receiver: the send cannot complete yet.
  bool send_done = false;
  c.simulator().spawn([](Cluster& cl, bool& done) -> sim::Task<void> {
    co_await cl.port(0).send(1, 0, make_payload(64), 0);
    done = true;
  }(c, send_done));
  c.simulator().run_for(sim::usec(500));
  EXPECT_FALSE(send_done);
  c.port(1).provide_receive_buffer(4096);
  c.run();
  EXPECT_TRUE(send_done);
}

TEST(GmPort, TokenExhaustionStallsInsteadOfThrowing) {
  ClusterConfig config = small_cluster(2);
  config.nic.send_tokens_per_port = 2;
  Cluster c(config);
  c.port(1).provide_receive_buffers(8, 4096);
  int completed = 0;
  // 8 concurrent senders over 2 tokens: all must finish, with stalls.
  for (int i = 0; i < 8; ++i) {
    c.simulator().spawn([](Cluster& cl, int id, int& n) -> sim::Task<void> {
      const SendStatus st = co_await cl.port(0).send(
          1, 0, make_payload(64, static_cast<std::uint8_t>(id)), id);
      EXPECT_EQ(st, SendStatus::kOk);
      ++n;
    }(c, i, completed));
  }
  c.run();
  EXPECT_EQ(completed, 8);
  EXPECT_GT(c.port(0).stats().token_stalls, 0u);
}

TEST(GmPort, FailedSendReportsStatus) {
  ClusterConfig config = small_cluster(2);
  config.nic.retransmit_timeout = sim::usec(100);
  config.nic.max_retries = 2;
  Cluster c(config);
  auto faults = std::make_unique<net::ScriptedFaults>();
  faults->add_rule({.type = net::PacketType::kData}, net::FaultAction::kDrop,
                   1000);
  c.network().set_fault_injector(std::move(faults));
  SendStatus status = SendStatus::kOk;
  c.simulator().spawn([](Cluster& cl, SendStatus& st) -> sim::Task<void> {
    st = co_await cl.port(0).send(1, 0, make_payload(64), 0);
  }(c, status));
  c.run();
  EXPECT_EQ(status, SendStatus::kFailed);
  EXPECT_EQ(c.port(0).stats().failed_sends, 1u);
}

TEST(GmPort, MultisendCompletesOnce) {
  Cluster c(small_cluster(4));
  for (std::size_t i = 1; i < 4; ++i) c.port(i).provide_receive_buffer(4096);
  int receipts = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    c.simulator().spawn([](Cluster& cl, std::size_t node,
                           int& n) -> sim::Task<void> {
      RecvMessage r = co_await cl.port(node).receive();
      EXPECT_EQ(r.data, make_payload(256));
      ++n;
    }(c, i, receipts));
  }
  bool sent = false;
  c.simulator().spawn([](Cluster& cl, bool& done) -> sim::Task<void> {
    // Note: the destination list is built before the co_await expression;
    // GCC 12 miscompiles initializer-list temporaries inside co_await.
    std::vector<net::NodeId> dests{1, 2, 3};
    const SendStatus st =
        co_await cl.port(0).multisend(std::move(dests), 0, make_payload(256),
                                      0);
    EXPECT_EQ(st, SendStatus::kOk);
    done = true;
  }(c, sent));
  c.run();
  EXPECT_TRUE(sent);
  EXPECT_EQ(receipts, 3);
}

TEST(GmPort, McastSendOverTree) {
  Cluster c(small_cluster(4));
  const net::GroupId g = 5;
  c.port(0).set_group(g, nic::GroupEntry{0, nic::kNoNode, {1, 2}});
  c.port(1).set_group(g, nic::GroupEntry{0, 0, {3}});
  c.port(2).set_group(g, nic::GroupEntry{0, 0, {}});
  c.port(3).set_group(g, nic::GroupEntry{0, 1, {}});
  for (std::size_t i = 1; i < 4; ++i) c.port(i).provide_receive_buffer(4096);
  int receipts = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    c.simulator().spawn([](Cluster& cl, std::size_t node,
                           int& n) -> sim::Task<void> {
      RecvMessage r = co_await cl.port(node).receive();
      EXPECT_TRUE(r.is_multicast());
      EXPECT_EQ(r.group, 5u);
      ++n;
    }(c, i, receipts));
  }
  c.simulator().spawn([](Cluster& cl) -> sim::Task<void> {
    EXPECT_EQ(co_await cl.port(0).mcast_send(5, make_payload(512), 1),
              SendStatus::kOk);
  }(c));
  c.run();
  EXPECT_EQ(receipts, 3);
}

TEST(GmPort, ReceiveOrderMatchesArrival) {
  Cluster c(small_cluster(3));
  c.port(2).provide_receive_buffers(4, 4096);
  std::vector<std::uint32_t> tags;
  c.simulator().spawn([](Cluster& cl,
                         std::vector<std::uint32_t>& t) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      t.push_back((co_await cl.port(2).receive()).tag);
    }
  }(c, tags));
  // Node 0 sends two then node 1 sends two, staggered so arrival order is
  // deterministic.
  c.simulator().spawn([](Cluster& cl) -> sim::Task<void> {
    co_await cl.port(0).send(2, 0, Payload(8), 1);
    co_await cl.port(0).send(2, 0, Payload(8), 2);
  }(c));
  c.simulator().spawn([](Cluster& cl) -> sim::Task<void> {
    co_await cl.simulator().wait(sim::usec(200));
    co_await cl.port(1).send(2, 0, Payload(8), 3);
    co_await cl.port(1).send(2, 0, Payload(8), 4);
  }(c));
  c.run();
  EXPECT_EQ(tags, (std::vector<std::uint32_t>{1, 2, 3, 4}));
}

TEST(GmPort, PendingMessagesCountsUnclaimed) {
  Cluster c(small_cluster(2));
  c.port(1).provide_receive_buffers(2, 4096);
  c.simulator().spawn([](Cluster& cl) -> sim::Task<void> {
    co_await cl.port(0).send(1, 0, Payload(8), 1);
    co_await cl.port(0).send(1, 0, Payload(8), 2);
  }(c));
  c.run();
  EXPECT_EQ(c.port(1).pending_messages(), 2u);
}

TEST(GmPort, LoopbackSendDeliversLocally) {
  Cluster c(small_cluster(2));
  bool done = false;
  c.simulator().spawn([](Cluster& cl, bool& flag) -> sim::Task<void> {
    EXPECT_EQ(co_await cl.port(0).send(0, 0, make_payload(256), 7),
              gm::SendStatus::kOk);
    gm::RecvMessage m = co_await cl.port(0).receive();
    EXPECT_EQ(m.src, 0);
    EXPECT_EQ(m.tag, 7u);
    EXPECT_EQ(m.data, make_payload(256));
    flag = true;
  }(c, done));
  c.run();
  EXPECT_TRUE(done);
  // The NIC and the wire were never involved.
  EXPECT_EQ(c.nic(0).stats().packets_sent, 0u);
}

TEST(GmPort, LoopbackIsCheaperThanWire) {
  Cluster c(small_cluster(2));
  c.port(1).provide_receive_buffer(4096);
  sim::Duration loop{0};
  sim::Duration wire{0};
  c.simulator().spawn([](Cluster& cl, sim::Duration& l,
                         sim::Duration& w) -> sim::Task<void> {
    sim::TimePoint t = cl.simulator().now();
    co_await cl.port(0).send(0, 0, Payload(512), 0);
    co_await cl.port(0).receive();
    l = cl.simulator().now() - t;
    t = cl.simulator().now();
    co_await cl.port(0).send(1, 0, Payload(512), 0);
    w = cl.simulator().now() - t;
  }(c, loop, wire));
  c.run();
  EXPECT_LT(loop.nanoseconds(), wire.nanoseconds());
}

TEST(GmPort, LoopbackToOtherPortRejected) {
  Cluster c(small_cluster(2));
  bool threw = false;
  c.simulator().spawn([](Cluster& cl, bool& flag) -> sim::Task<void> {
    try {
      co_await cl.port(0).send(0, 1, Payload(8), 0);
    } catch (const std::logic_error&) {
      flag = true;
    }
  }(c, threw));
  c.run();
  EXPECT_TRUE(threw);
}

TEST(GmPort, NicBarrierBlocksUntilRelease) {
  Cluster c(small_cluster(3));
  const net::GroupId g = 6;
  c.port(0).set_group(g, nic::GroupEntry{0, nic::kNoNode, {1, 2}});
  c.port(1).set_group(g, nic::GroupEntry{0, 0, {}});
  c.port(2).set_group(g, nic::GroupEntry{0, 0, {}});
  std::vector<double> exits(3, 0.0);
  for (net::NodeId n = 0; n < 3; ++n) {
    c.simulator().spawn([](Cluster& cl, net::NodeId me, net::GroupId grp,
                           double& out) -> sim::Task<void> {
      co_await cl.simulator().wait(sim::usec(100.0 * me));
      co_await cl.port(me).nic_barrier(grp);
      out = cl.simulator().now().microseconds();
    }(c, n, g, exits[n]));
  }
  c.run();
  for (double t : exits) EXPECT_GE(t, 200.0);  // slowest entry gates all
}

TEST(GmPort, NicReduceReturnsSumAtRoot) {
  Cluster c(small_cluster(2));
  const net::GroupId g = 6;
  c.port(0).set_group(g, nic::GroupEntry{0, nic::kNoNode, {1}});
  c.port(1).set_group(g, nic::GroupEntry{0, 0, {}});
  auto lane = [](std::int64_t v) {
    Payload p(8);
    for (int i = 0; i < 8; ++i) {
      p[i] = std::byte{static_cast<std::uint8_t>(
          static_cast<std::uint64_t>(v) >> (8 * i))};
    }
    return p;
  };
  Payload root_result;
  Payload member_result;
  c.simulator().spawn([](Cluster& cl, net::GroupId grp, Payload in,
                         Payload& out) -> sim::Task<void> {
    out = co_await cl.port(0).nic_reduce(grp, std::move(in));
  }(c, g, lane(30), root_result));
  c.simulator().spawn([](Cluster& cl, net::GroupId grp, Payload in,
                         Payload& out) -> sim::Task<void> {
    out = co_await cl.port(1).nic_reduce(grp, std::move(in));
  }(c, g, lane(12), member_result));
  c.run();
  EXPECT_EQ(root_result, lane(42));
  EXPECT_TRUE(member_result.empty());
}

TEST(GmPort, InvalidPortThrows) {
  Cluster c(small_cluster(2));
  EXPECT_THROW(static_cast<void>(c.port(0, 99)), std::out_of_range);
}

}  // namespace
}  // namespace nicmcast::gm
