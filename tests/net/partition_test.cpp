#include "net/partition.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/topology.hpp"

namespace nicmcast::net {
namespace {

TEST(SwitchCut, RejectsZeroShards) {
  const Topology topo = Topology::single_switch(4);
  EXPECT_THROW(switch_cut(topo, 0), std::invalid_argument);
}

TEST(SwitchCut, SingleShardOwnsEverything) {
  const Topology topo = Topology::clos(64, 16);
  const FabricPartition part = switch_cut(topo, 1);
  EXPECT_EQ(part.shards, 1u);
  EXPECT_EQ(part.cross_links, 0u);
  for (const std::uint32_t s : part.vertex_shard) EXPECT_EQ(s, 0u);
  for (const std::uint32_t s : part.link_owner) EXPECT_EQ(s, 0u);
}

TEST(SwitchCut, LookaheadIsHopLatency) {
  NetworkConfig config;
  config.hop_latency = sim::usec(0.7);
  const FabricPartition part =
      switch_cut(Topology::single_switch(4), 2, config);
  EXPECT_EQ(part.lookahead, sim::usec(0.7));
}

TEST(SwitchCut, EndpointsStayWithTheirLeafSwitch) {
  // clos(64, 16): 8 leaves x 8 endpoints, 8 spines.
  const Topology topo = Topology::clos(64, 16);
  const FabricPartition part = switch_cut(topo, 4, {});
  ASSERT_EQ(part.vertex_shard.size(), topo.vertex_count());

  // Every endpoint shares a shard with at least one adjacent switch, and
  // endpoints cabled to the same leaf share a shard with each other.
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    const LinkDesc& link = topo.link(l);
    if (topo.is_endpoint(link.from) && !topo.is_endpoint(link.to)) {
      EXPECT_EQ(part.vertex_shard[link.from], part.vertex_shard[link.to])
          << "endpoint " << link.from << " split from its leaf " << link.to;
    }
  }

  // All 4 shards are populated, and endpoint blocks are contiguous (leaves
  // are dealt in blocks, and clos() creates leaves in endpoint order).
  std::set<std::uint32_t> used;
  for (std::size_t e = 0; e < topo.endpoint_count(); ++e) {
    used.insert(part.vertex_shard[e]);
    if (e > 0) {
      EXPECT_LE(part.vertex_shard[e - 1], part.vertex_shard[e]);
    }
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST(SwitchCut, LinkOwnerIsSourceVertexShard) {
  const Topology topo = Topology::clos(128, 16);
  const FabricPartition part = switch_cut(topo, 8, {});
  std::uint64_t cross = 0;
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    const LinkDesc& link = topo.link(l);
    EXPECT_EQ(part.link_owner[l], part.vertex_shard[link.from]);
    if (part.vertex_shard[link.from] != part.vertex_shard[link.to]) ++cross;
  }
  EXPECT_EQ(part.cross_links, cross);
  EXPECT_GT(part.cross_links, 0u);  // leaves uplink to spines across shards
}

TEST(SwitchCut, BackToBackSplitsEndpointsDirectly) {
  const Topology topo = Topology::back_to_back();
  const FabricPartition part = switch_cut(topo, 2, {});
  EXPECT_EQ(part.vertex_shard[0], 0u);
  EXPECT_EQ(part.vertex_shard[1], 1u);
  EXPECT_EQ(part.cross_links, 2u);  // both directions of the one cable
}

TEST(SwitchCut, MoreShardsThanLeavesClampsToTheLeafBlockCount) {
  // single_switch(8): one leaf switch, 13 shards requested.  Everything
  // must collapse onto one shard — the old behaviour kept shards = 13 and
  // left 12 workers spinning through LBTS rounds with nothing to do.
  const Topology topo = Topology::single_switch(8);
  const FabricPartition part = switch_cut(topo, 13, {});
  EXPECT_EQ(part.shards, 1u);
  for (std::size_t e = 0; e < topo.endpoint_count(); ++e) {
    EXPECT_EQ(part.vertex_shard[e], part.vertex_shard[topo.endpoint_count()]);
  }
  EXPECT_EQ(part.cross_links, 0u);
}

TEST(SwitchCut, ClampedPartitionPopulatesEveryShard) {
  // clos(64, 32): 4 leaf blocks of 16.  Requesting 8 shards used to leave
  // shards 1/3/5/7 without a single endpoint; now the cut clamps to 4 and
  // every shard owns at least one endpoint.
  const Topology topo = Topology::clos(64, 32);
  const FabricPartition part = switch_cut(topo, 8, {});
  EXPECT_EQ(part.shards, 4u);
  std::set<std::uint32_t> used;
  for (std::size_t e = 0; e < topo.endpoint_count(); ++e) {
    used.insert(part.vertex_shard[e]);
  }
  EXPECT_EQ(used.size(), part.shards);
}

TEST(SwitchCut, BackToBackClampsToTheEndpointCount) {
  const Topology topo = Topology::back_to_back();
  const FabricPartition part = switch_cut(topo, 5, {});
  EXPECT_EQ(part.shards, 2u);  // one endpoint per shard is the ceiling
  EXPECT_NE(part.vertex_shard[0], part.vertex_shard[1]);
}

}  // namespace
}  // namespace nicmcast::net
