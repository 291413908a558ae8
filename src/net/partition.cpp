#include "net/partition.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace nicmcast::net {

FabricPartition switch_cut(const Topology& topology, std::size_t shards,
                           const NetworkConfig& config) {
  if (shards == 0) {
    throw std::invalid_argument("switch_cut: shards must be >= 1");
  }
  const std::size_t vertices = topology.vertex_count();
  const std::size_t endpoints = topology.endpoint_count();

  FabricPartition part;
  part.shards = 1;
  part.lookahead = config.hop_latency;
  part.vertex_shard.assign(vertices, 0);
  part.link_owner.assign(topology.link_count(), 0);
  if (shards == 1) return part;  // everything on shard 0, no cross links

  // One pass over the links classifies switches (leaf = endpoint-adjacent)
  // and records each endpoint's lowest-id neighbouring switch.
  std::vector<bool> is_leaf(vertices, false);
  constexpr VertexId kNoSwitch = static_cast<VertexId>(-1);
  std::vector<VertexId> endpoint_switch(endpoints, kNoSwitch);
  for (LinkId l = 0; l < topology.link_count(); ++l) {
    const LinkDesc& link = topology.link(l);
    if (topology.is_endpoint(link.from) && !topology.is_endpoint(link.to)) {
      is_leaf[link.to] = true;
      VertexId& sw = endpoint_switch[link.from];
      if (sw == kNoSwitch || link.to < sw) sw = link.to;
    }
  }

  // Contiguous block assignment in switch-id order: leaf i of L leaves goes
  // to shard i*S/L (spines likewise).  Canned topologies create leaves in
  // endpoint order, so neighbouring leaves — and the tree subtrees rooted
  // under them — land on the same shard.
  std::size_t leaf_count = 0;
  std::size_t spine_count = 0;
  for (VertexId v = static_cast<VertexId>(endpoints); v < vertices; ++v) {
    (is_leaf[v] ? leaf_count : spine_count) += 1;
  }

  // A shard with no leaf block would own no endpoints — its worker would
  // spin through every LBTS round contributing nothing, and with S > L the
  // leaf/spine deals stop aligning, splitting leaf-local subtrees across
  // shards.  Clamp instead of erroring: callers (the soak randomizes shard
  // counts; benches sweep them) get the largest partition that still puts
  // endpoints on every shard.  Switchless wirings deal endpoints directly,
  // so the endpoint count is the block count there.
  const std::size_t blocks = leaf_count > 0 ? leaf_count : endpoints;
  shards = std::min(shards, blocks);
  part.shards = shards;
  if (shards == 1) return part;

  std::size_t leaf_index = 0;
  std::size_t spine_index = 0;
  for (VertexId v = static_cast<VertexId>(endpoints); v < vertices; ++v) {
    if (is_leaf[v]) {
      part.vertex_shard[v] =
          static_cast<std::uint32_t>(leaf_index * shards / leaf_count);
      ++leaf_index;
    } else {
      part.vertex_shard[v] =
          static_cast<std::uint32_t>(spine_index * shards / spine_count);
      ++spine_index;
    }
  }
  for (std::size_t e = 0; e < endpoints; ++e) {
    part.vertex_shard[e] =
        endpoint_switch[e] == kNoSwitch
            // Switchless wiring (back-to-back): split endpoints directly.
            ? static_cast<std::uint32_t>(e % shards)
            : part.vertex_shard[endpoint_switch[e]];
  }

  for (LinkId l = 0; l < topology.link_count(); ++l) {
    const LinkDesc& link = topology.link(l);
    const std::uint32_t from_shard = part.vertex_shard[link.from];
    part.link_owner[l] = from_shard;
    if (from_shard != part.vertex_shard[link.to]) ++part.cross_links;
  }

  // Post-condition of the clamp: every shard owns at least one endpoint.
  // i*S/L with S <= L maps the block index onto all of 0..S-1, so a gap
  // here means the dealing logic regressed, not that the caller over-asked.
  std::vector<bool> populated(shards, false);
  for (std::size_t e = 0; e < endpoints; ++e) {
    populated[part.vertex_shard[e]] = true;
  }
  for (std::size_t s = 0; s < shards; ++s) {
    if (!populated[s]) {
      throw std::logic_error("switch_cut: shard " + std::to_string(s) +
                             " owns no endpoints");
    }
  }
  return part;
}

}  // namespace nicmcast::net
