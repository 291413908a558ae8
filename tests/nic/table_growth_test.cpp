// Table size never reaches event order (DESIGN.md §4.2): a NIC's
// connection, group and pending-op tables are hash maps, and no event path
// iterates one.  The same 64-node round runs twice, the second time while
// node 0's tables grow by about 1,000 idle entries: a ninth of them before
// the round and the rest in steps while it runs, so that the tables also
// rehash with live connections in them.  An event path that walked a table
// in hash order would meet the live entries in another order after a
// rehash, and the event-order hash would move.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "nic/auditor.hpp"
#include "nic_test_util.hpp"

namespace nicmcast::nic {
namespace {

using testing::TestCluster;
using testing::make_payload;

constexpr std::size_t kNodes = 64;
// Node 0 also sends one unicast to each of peers 1..kUnicastPeers.
constexpr std::size_t kUnicastPeers = 15;
// Idle connections: ports 1-3, peers 1-63, peer ports 0-1, each once as a
// sender and once as a receiver.  Idle groups: ids 1-250.
constexpr std::size_t kIdleConns = 3 * (kNodes - 1) * 2;
constexpr std::size_t kIdleGroups = 250;
constexpr std::size_t kGrowSteps = 9;

/// Adds step `step` of kGrowSteps of the idle entries to `nic`'s tables.
/// The round uses port 0 and no group, so it touches none of them.
void grow_tables(Nic& nic, std::size_t step) {
  for (std::size_t k = kIdleConns * step / kGrowSteps;
       k < kIdleConns * (step + 1) / kGrowSteps; ++k) {
    const auto port = static_cast<net::PortId>(1 + k / (2 * (kNodes - 1)));
    const auto peer = static_cast<net::NodeId>(1 + k / 2 % (kNodes - 1));
    const auto peer_port = static_cast<net::PortId>(k % 2);
    nic.debug_set_send_seq(port, peer, peer_port, 0);
    nic.debug_set_recv_seq(port, peer, peer_port, 0);
  }
  for (std::size_t g = kIdleGroups * step / kGrowSteps;
       g < kIdleGroups * (step + 1) / kGrowSteps; ++g) {
    nic.set_group(static_cast<net::GroupId>(1 + g),
                  GroupEntry{1, kNoNode, {}});
  }
}

struct Round {
  std::uint64_t event_order_hash = 0;
  std::uint64_t events_executed = 0;
  std::size_t deliveries = 0;
  std::size_t root_sender_conns = 0;
};

/// Node 0 multisends 1 KB to every other node and sends 4 KB to each of
/// peers 1..kUnicastPeers, so that many of its connections await acks at
/// once; node i sends node 0 one unicast of 64 * i bytes, so that acks
/// come back at different times.  Every message is one packet and uses
/// port 0.  Both runs schedule the growth steps; only `grow` adds entries.
Round run_round(bool grow) {
  TestCluster c(kNodes);
  ProtocolAuditor auditor;
  for (auto& nic : c.nics) nic->set_auditor(&auditor);

  Nic& root = c.nic(0);
  if (grow) grow_tables(root, 0);
  for (std::size_t step = 1; step < kGrowSteps; ++step) {
    c.sim.schedule_after(sim::usec(60.0 * static_cast<double>(step)),
                         [&root, grow, step] {
                           if (grow) grow_tables(root, step);
                         });
  }

  std::vector<net::NodeId> dests;
  for (std::size_t i = 1; i < kNodes; ++i) {
    dests.push_back(static_cast<net::NodeId>(i));
    c.post_buffers(i, 2, 4096);
  }
  c.post_buffers(0, kNodes - 1, 4096);
  root.post_multisend(MultisendRequest{0, dests, 0, make_payload(1024), 1, 1});
  for (std::size_t i = 1; i <= kUnicastPeers; ++i) {
    root.post_send(SendRequest{0, static_cast<net::NodeId>(i), 0,
                               make_payload(4096), 2, 1 + i});
  }
  for (std::size_t i = 1; i < kNodes; ++i) {
    c.nic(i).post_send(SendRequest{0, 0, 0, make_payload(64 * i), 3, 1});
  }
  c.sim.run();

  Round round;
  round.event_order_hash = c.sim.event_order_hash();
  round.events_executed = c.sim.queue_stats().executed;
  round.root_sender_conns = root.debug_sender_conn_count();
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (const HostEvent& event : c.drain_events(i)) {
      if (event.type == HostEvent::Type::kRecvComplete) ++round.deliveries;
    }
    auditor.check_drained(c.nic(i));
  }
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  return round;
}

TEST(NicTables, GrowthMovesNoEvent) {
  const Round small = run_round(false);
  const Round grown = run_round(true);
  // Every message landed both times: 63 multisend copies, node 0's
  // unicasts and one unicast from every other node.
  constexpr std::size_t kMessages = 2 * (kNodes - 1) + kUnicastPeers;
  EXPECT_EQ(small.deliveries, kMessages);
  EXPECT_EQ(grown.deliveries, kMessages);
  // The grown run's idle sender connections are all there.
  EXPECT_EQ(small.root_sender_conns, kNodes - 1);
  EXPECT_EQ(grown.root_sender_conns, kNodes - 1 + kIdleConns);
  EXPECT_EQ(grown.event_order_hash, small.event_order_hash);
  EXPECT_EQ(grown.events_executed, small.events_executed);
}

}  // namespace
}  // namespace nicmcast::nic
