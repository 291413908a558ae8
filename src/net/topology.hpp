// Switched-network topology and source-route computation.
//
// A topology is a graph over two vertex kinds: NIC endpoints (the leaves)
// and crossbar switches.  Myrinet uses source routing: the sending NIC knows
// the full path.  Each pair's route is the shortest path a BFS finds,
// computed on first use (RouteTable) and handed to the channel model as a
// link sequence.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"

namespace nicmcast::net {

/// Index of a vertex in the topology graph (endpoints and switches share
/// one id space internally; NodeId maps onto the first `endpoint_count`
/// vertices).
using VertexId = std::uint32_t;

/// Index of a (unidirectional) link.
using LinkId = std::uint32_t;

struct LinkDesc {
  VertexId from = 0;
  VertexId to = 0;
};

/// A source route: the sequence of links a packet traverses from the source
/// NIC to the destination NIC.
using Route = std::vector<LinkId>;

class Topology {
 public:
  /// Builds an empty topology with `endpoints` NIC endpoints and no links.
  /// Rejects counts the NodeId width cannot address: before NodeId was
  /// widened to 32 bits, a 65536-endpoint fabric silently wrapped endpoint
  /// ids to 0 and aliased distinct endpoints — the guard turns any future
  /// recurrence into a loud construction error instead.
  explicit Topology(std::size_t endpoints) : endpoint_count_(endpoints) {
    if (endpoints == 0) throw std::invalid_argument("topology needs >=1 node");
    if (endpoints > max_addressable_endpoints()) {
      throw std::invalid_argument(
          "topology: " + std::to_string(endpoints) +
          " endpoints exceeds the NodeId width (max " +
          std::to_string(max_addressable_endpoints()) + ")");
    }
    vertex_count_ = static_cast<VertexId>(endpoints);
  }

  /// Largest endpoint count whose ids fit NodeId, with the top id reserved
  /// for the nic::kNoNode / FabricTree::kNoParent sentinel.
  [[nodiscard]] static constexpr std::size_t max_addressable_endpoints() {
    return static_cast<std::size_t>(std::numeric_limits<NodeId>::max());
  }

  /// Adds a crossbar switch vertex and returns its id.
  VertexId add_switch() { return vertex_count_++; }

  /// Adds a bidirectional cable as two unidirectional links.
  /// Returns the id of the a->b link (the b->a link is id+1).
  LinkId add_cable(VertexId a, VertexId b) {
    check_vertex(a);
    check_vertex(b);
    const LinkId id = static_cast<LinkId>(links_.size());
    links_.push_back(LinkDesc{a, b});
    links_.push_back(LinkDesc{b, a});
    return id;
  }

  [[nodiscard]] std::size_t endpoint_count() const { return endpoint_count_; }
  [[nodiscard]] std::size_t vertex_count() const { return vertex_count_; }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const LinkDesc& link(LinkId id) const { return links_.at(id); }

  [[nodiscard]] bool is_endpoint(VertexId v) const {
    return v < endpoint_count_;
  }

  /// Computes the shortest route (fewest links) between two endpoints via
  /// BFS.  Direct endpoint-to-endpoint cables are allowed (back-to-back
  /// two-node setups).  Throws if no path exists.  The reference the lazy
  /// RouteTable below is tested against; the data path never calls it.
  [[nodiscard]] Route route(NodeId from, NodeId to) const;

  // ---- Canned topologies ----

  /// All `n` endpoints on one crossbar switch (a Myrinet-2000 line card;
  /// the paper's 16-node cluster fits one 16-port switch).
  static Topology single_switch(std::size_t n);

  /// Two-level Clos (leaf/spine) network of `radix`-port switches, the
  /// default Myrinet wiring for larger clusters.  Each leaf switch hosts
  /// radix/2 endpoints and uplinks to radix/2 spine switches.
  static Topology clos(std::size_t n, std::size_t radix = 16);

  /// Two endpoints wired back to back (no switch).
  static Topology back_to_back();

 private:
  void check_vertex(VertexId v) const {
    if (v >= vertex_count_) throw std::out_of_range("bad vertex id");
  }

  std::size_t endpoint_count_;
  VertexId vertex_count_ = 0;
  std::vector<LinkDesc> links_;
};

/// Observability counters for RouteTable (surfaced per run through
/// net::EngineCounters so the scale benches can record route memory).
struct RouteTableStats {
  std::uint64_t routes_materialized = 0;  // distinct (src, dst) pairs computed
  std::uint64_t links_stored = 0;         // LinkIds held across all routes
  // Always 0: routes share no links.  Kept while the frozen bench/suite
  // still reads it.
  std::uint64_t links_shared = 0;
  std::uint64_t links_scanned = 0;        // adjacency entries read on misses
};

/// Lazy source-route cache: a pair's route is computed on its first use and
/// stored once, whole, in one hash map keyed by the pair.  An all-pairs
/// table costs O(n^2 * hops) memory and setup time; a run holds only the
/// routes its traffic uses.
///
/// A pair's route is the one Topology::route()'s BFS finds: of the shortest
/// paths whose interior vertices are all switches, the one whose sequence of
/// link ids is lexicographically smallest.  A miss computes it with a
/// bidirectional search that keeps nothing per source:
///   1. expand one whole level at a time, forward over out-links from `from`
///      or backward over in-links from `to`, whichever frontier has fewer
///      links to read, until a level reaches the other side;
///   2. the forward levels grow in BFS order, so the first meeting vertex in
///      that order ends the smallest shortest prefix, and the link each
///      vertex was found through leads back to `from`;
///   3. on to `to`, each hop takes the lowest-id link into the next backward
///      level, recorded while that level was expanded.
/// Per-vertex marks carry the stamp of the level that set them, so a miss
/// never resets state sized by the graph: it costs the adjacency entries its
/// levels read (at most 34 for any route of a radix-16 Clos, at any size).
class RouteTable {
 public:
  explicit RouteTable(const Topology& topology) : topo_(&topology) {}
  /// Out of line: its owners' implicit destructors call it instead of each
  /// inlining the map's teardown.
  ~RouteTable();

  /// The (possibly cached) route from `from` to `to`.  Lazy: first use
  /// materializes, later uses are a hash lookup.  Map nodes never move, so
  /// the reference stays valid through later misses, for the table's
  /// lifetime.  Throws like Topology::route on bad ids or unreachable
  /// destinations.
  [[nodiscard]] const Route& route(NodeId from, NodeId to);

  [[nodiscard]] const RouteTableStats& stats() const { return stats_; }

 private:
  /// Compressed sparse rows: vertex v's links are
  /// links[begin[v] .. begin[v + 1]), in increasing id order.
  struct Adjacency {
    std::vector<std::uint32_t> begin;
    std::vector<LinkId> links;
  };
  /// A vertex's search state.  A stamp below the current miss's first
  /// stamp is stale: the vertex is unreached.
  struct Mark {
    std::uint32_t fwd = 0;  // stamp of the forward level that reached it
    std::uint32_t bwd = 0;  // stamp of the backward level that reached it
    LinkId via = 0;   // the link the forward search reached it through
    LinkId next = 0;  // lowest-id link from it into the backward level below
  };

  static Adjacency adjacency(const Topology& topology, VertexId LinkDesc::*end);
  VertexId search(NodeId from, NodeId to);
  const Route& materialize(NodeId from, NodeId to, std::uint64_t key);

  const Topology* topo_;
  std::unordered_map<std::uint64_t, Route> routes_;  // (from << 32) | to
  // Built once, on the first miss.
  Adjacency out_;
  Adjacency in_;
  std::vector<Mark> marks_;
  std::uint32_t stamp_ = 0;  // last stamp handed out
  // The current miss's levels, each in discovery order.
  std::vector<VertexId> fwd_;
  std::vector<VertexId> bwd_;
  RouteTableStats stats_;
};

}  // namespace nicmcast::net
