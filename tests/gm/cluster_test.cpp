#include "gm/cluster.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "mcast/bcast.hpp"
#include "mcast/tree.hpp"

namespace nicmcast::gm {
namespace {

TEST(Cluster, DefaultsTo16Nodes) {
  Cluster c;
  EXPECT_EQ(c.size(), 16u);
  EXPECT_EQ(c.nic(0).id(), 0);
  EXPECT_EQ(c.nic(15).id(), 15);
}

TEST(Cluster, PortIsLazilyCreatedAndCached) {
  Cluster c(ClusterConfig{.nodes = 2});
  Port& a = c.port(0);
  Port& b = c.port(0);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.node(), 0);
  EXPECT_EQ(a.port_id(), 0);
}

TEST(Cluster, MultiplePortsPerNode) {
  Cluster c(ClusterConfig{.nodes = 2});
  EXPECT_NE(&c.port(0, 0), &c.port(0, 1));
}

TEST(Cluster, OutOfRangeThrows) {
  Cluster c(ClusterConfig{.nodes = 2});
  EXPECT_THROW(static_cast<void>(c.port(5)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(c.nic(5)), std::out_of_range);
}

TEST(Cluster, BackToBackWiringNeedsTwoNodes) {
  EXPECT_THROW(Cluster(ClusterConfig{
                   .nodes = 3, .wiring = ClusterConfig::Wiring::kBackToBack}),
               std::invalid_argument);
}

TEST(Cluster, DestroyedMidRunWithPacketsInFlight) {
  // A run cut short leaves packet events holding pooled NIC descriptors;
  // the cluster drops them before its NICs go.
  auto c = std::make_unique<Cluster>(ClusterConfig{.nodes = 4});
  for (std::size_t node = 1; node < 4; ++node) {
    c->port(node).provide_receive_buffer(65536);
  }
  c->simulator().spawn([](Cluster& cl) -> sim::Task<void> {
    std::vector<net::NodeId> dests{1, 2, 3};
    co_await cl.port(0).multisend(std::move(dests), 0, Payload(65536), 0);
  }(*c));
  c->simulator().run_for(sim::usec(50));
  EXPECT_GT(c->simulator().pending_events(), 0u);
  c.reset();
}

TEST(Cluster, ClosWiringConnectsEveryPair) {
  Cluster c(ClusterConfig{.nodes = 24,
                          .wiring = ClusterConfig::Wiring::kClos,
                          .switch_radix = 8});
  c.port(23).provide_receive_buffer(4096);
  bool done = false;
  c.simulator().spawn([](Cluster& cl, bool& flag) -> sim::Task<void> {
    EXPECT_EQ(co_await cl.port(0).send(23, 0, Payload(100), 0),
              SendStatus::kOk);
    flag = true;
  }(c, done));
  c.run();
  EXPECT_TRUE(done);
}

TEST(Cluster, RunOnAllSpawnsEveryNode) {
  Cluster c(ClusterConfig{.nodes = 4});
  int ran = 0;
  auto handles = c.run_on_all(
      [&ran](Cluster& cl, net::NodeId) -> sim::Task<void> {
        co_await cl.simulator().wait(sim::usec(1));
        ++ran;
      });
  c.run();
  EXPECT_EQ(ran, 4);
  for (const auto& h : handles) EXPECT_TRUE(h->done());
}

TEST(Cluster, BringUpMovesNoReadyItem) {
  // install_group opens every node's port, which spawns its pump, and
  // run_on_all spawns every node's program: 2,048 processes scheduled at
  // t = 0 before anything runs.  Each sorts after everything already
  // ready, so bring-up is linear in the node count.
  constexpr std::size_t kNodes = 1024;
  Cluster c(ClusterConfig{.nodes = kNodes,
                          .wiring = ClusterConfig::Wiring::kClos,
                          .switch_radix = 16});
  std::vector<net::NodeId> dests(kNodes - 1);
  std::iota(dests.begin(), dests.end(), net::NodeId{1});
  const mcast::Tree tree = mcast::build_binomial_tree(0, std::move(dests));
  mcast::install_group(c, tree, 1);
  for (std::size_t node = 1; node < kNodes; ++node) {
    c.port(node).provide_receive_buffer(64);
  }
  std::size_t delivered = 0;
  c.run_on_all([&tree, &delivered](Cluster& cl,
                                   net::NodeId me) -> sim::Task<void> {
    // Hoisted out of the call: GCC 12 double-frees conditional temporaries
    // in coroutine argument lists.
    Payload data = me == 0 ? Payload(64) : Payload{};
    const Payload got =
        co_await mcast::nic_bcast(cl.port(me), tree, 1, std::move(data));
    if (got.size() == 64) ++delivered;
  });
  const sim::EventQueue::Stats& q = c.simulator().queue_stats();
  EXPECT_GE(q.scheduled, 2 * kNodes);
  EXPECT_EQ(q.ready_shifts, 0u);
  c.run();
  EXPECT_EQ(delivered, kNodes);
}

TEST(Cluster, AllToAllExchange) {
  // Every node sends to every other node; everything arrives.
  const std::size_t n = 6;
  Cluster c(ClusterConfig{.nodes = n,
                          .nic = {.send_tokens_per_port = 32}});
  for (std::size_t i = 0; i < n; ++i) {
    c.port(i).provide_receive_buffers(n - 1, 4096);
  }
  std::vector<int> received(n, 0);
  c.run_on_all([&received](Cluster& cl, net::NodeId me) -> sim::Task<void> {
    for (net::NodeId peer = 0; peer < cl.size(); ++peer) {
      if (peer == me) continue;
      co_await cl.port(me).send(peer, 0, Payload(64), me);
    }
    for (std::size_t k = 0; k + 1 < cl.size(); ++k) {
      co_await cl.port(me).receive();
      ++received[me];
    }
  });
  c.run();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(received[i], static_cast<int>(n - 1)) << "node " << i;
  }
}

TEST(Cluster, SeedControlsDeterminism) {
  auto fingerprint = [](std::uint64_t seed) {
    ClusterConfig config;
    config.nodes = 3;
    config.seed = seed;
    Cluster c(config);
    c.network().set_fault_injector(std::make_unique<net::RandomFaults>(
        0.2, 0.0, c.simulator().rng().fork()));
    c.port(1).provide_receive_buffers(4, 4096);
    c.run_on_all([](Cluster& cl, net::NodeId me) -> sim::Task<void> {
      if (me == 1) co_return;
      for (int k = 0; k < 2; ++k) {
        co_await cl.port(me).send(1, 0, Payload(64), 0);
      }
    });
    c.run();
    return c.simulator().now().nanoseconds();
  };
  EXPECT_EQ(fingerprint(7), fingerprint(7));
  EXPECT_NE(fingerprint(7), fingerprint(8));
}

}  // namespace
}  // namespace nicmcast::gm
