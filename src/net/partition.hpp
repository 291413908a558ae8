// Switch-granularity topology partitioning for the sharded PDES engine.
//
// The Clos is cut at switch boundaries: every switch (and the endpoints
// cabled to it) is assigned to exactly one shard, and every link is owned
// by the shard of its source vertex.  Because each endpoint's first route
// link leaves the endpoint itself, a packet always starts on its source's
// shard, and every shard hand-off happens at least one `hop_latency` after
// the previous shard touched the packet — which is exactly why
// `lookahead = hop_latency` is a valid conservative bound (see DESIGN.md
// §4.5 for the derivation).
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace nicmcast::net {

struct FabricPartition {
  std::size_t shards = 1;
  /// Shard of every vertex (endpoints and switches share the id space).
  std::vector<std::uint32_t> vertex_shard;
  /// Shard owning each unidirectional link: vertex_shard[link.from].
  std::vector<std::uint32_t> link_owner;
  /// Links whose endpoints live on different shards.
  std::uint64_t cross_links = 0;
  /// Conservative synchronization window: the minimum latency any packet
  /// needs to cross a shard boundary.  Every link crosses in the same
  /// `hop_latency`, so this one value is also every shard pair's minimum.
  sim::Duration lookahead{0};
};

/// Cuts `topology` into `shards` parts at switch granularity.
///
/// Leaf switches (those with at least one endpoint neighbour) are dealt
/// round-robin in contiguous blocks — leaf i goes to shard i*S/L — so a
/// Clos leaf and all its endpoints stay together and most tree edges in a
/// leaf-local subtree never cross a shard.  Spine switches are spread the
/// same way.  Endpoints inherit the shard of their lowest-id neighbouring
/// switch; in switchless (back-to-back) topologies they fall back to
/// node_id % shards.
///
/// `shards` is clamped to the number of leaf blocks (endpoint count for
/// switchless wirings): requesting more would leave shards that own no
/// endpoints, spinning through LBTS rounds for nothing.  Check the
/// returned partition's `shards` for the effective count.
[[nodiscard]] FabricPartition switch_cut(const Topology& topology,
                                         std::size_t shards,
                                         const NetworkConfig& config = {});

}  // namespace nicmcast::net
