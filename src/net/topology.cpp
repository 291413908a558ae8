#include "net/topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace nicmcast::net {

namespace {
constexpr VertexId kNoVertex = std::numeric_limits<VertexId>::max();
constexpr LinkId kNoLink = std::numeric_limits<LinkId>::max();
}  // namespace

Route Topology::route(NodeId from, NodeId to) const {
  if (from >= endpoint_count_ || to >= endpoint_count_) {
    throw std::out_of_range("route: endpoint id out of range");
  }
  if (from == to) return {};

  // BFS over vertices; packets may not pass *through* an endpoint vertex
  // (NICs do not cut through), so intermediate hops must be switches.
  std::vector<LinkId> via(vertex_count_, kNoLink);
  std::vector<VertexId> prev(vertex_count_, kNoVertex);
  std::queue<VertexId> frontier;
  frontier.push(from);
  prev[from] = from;

  while (!frontier.empty() && prev[to] == kNoVertex) {
    const VertexId v = frontier.front();
    frontier.pop();
    if (v != from && is_endpoint(v)) continue;  // endpoints terminate paths
    for (LinkId id = 0; id < links_.size(); ++id) {
      const LinkDesc& l = links_[id];
      if (l.from != v || prev[l.to] != kNoVertex) continue;
      prev[l.to] = v;
      via[l.to] = id;
      frontier.push(l.to);
    }
  }

  if (prev[to] == kNoVertex) {
    throw std::runtime_error("no route between endpoints " +
                             std::to_string(from) + " and " +
                             std::to_string(to));
  }

  Route path;
  for (VertexId v = to; v != from; v = prev[v]) {
    path.push_back(via[v]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::vector<Route>> Topology::all_routes() const {
  // One full BFS per *source* instead of one per pair: the BFS exploration
  // order is deterministic, so the predecessor tree — and every extracted
  // route — is bit-identical to what per-pair route() calls produce, at
  // 1/endpoint_count the cost.  Cluster construction runs this for every
  // simulated network, so it is on the benchmark setup path.
  std::vector<std::vector<LinkId>> adjacency(vertex_count_);
  for (LinkId id = 0; id < links_.size(); ++id) {
    // Links appended in id order keep each vertex's out-links in increasing
    // id order — the same order the per-pair BFS discovers them in.
    adjacency[links_[id].from].push_back(id);
  }

  std::vector<std::vector<Route>> out(endpoint_count_);
  std::vector<LinkId> via(vertex_count_);
  std::vector<VertexId> prev(vertex_count_);
  for (NodeId from = 0; from < endpoint_count_; ++from) {
    std::fill(via.begin(), via.end(), kNoLink);
    std::fill(prev.begin(), prev.end(), kNoVertex);
    std::queue<VertexId> frontier;
    frontier.push(from);
    prev[from] = from;
    while (!frontier.empty()) {
      const VertexId v = frontier.front();
      frontier.pop();
      if (v != from && is_endpoint(v)) continue;  // endpoints terminate paths
      for (const LinkId id : adjacency[v]) {
        const LinkDesc& l = links_[id];
        if (prev[l.to] != kNoVertex) continue;
        prev[l.to] = v;
        via[l.to] = id;
        frontier.push(l.to);
      }
    }

    out[from].resize(endpoint_count_);
    for (NodeId to = 0; to < endpoint_count_; ++to) {
      if (to == from) continue;
      if (prev[to] == kNoVertex) {
        throw std::runtime_error("no route between endpoints " +
                                 std::to_string(from) + " and " +
                                 std::to_string(to));
      }
      Route& path = out[from][to];
      for (VertexId v = to; v != from; v = prev[v]) {
        path.push_back(via[v]);
      }
      std::reverse(path.begin(), path.end());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// RouteTable

/// Groups every link under its `end` vertex by a counting sort over link
/// ids, so each vertex's links stay in increasing id order — the order
/// Topology::route()'s BFS scans them in.
RouteTable::Adjacency RouteTable::adjacency(const Topology& topology,
                                            VertexId LinkDesc::*end) {
  Adjacency a;
  a.begin.assign(topology.vertex_count() + 1, 0);
  for (LinkId id = 0; id < topology.link_count(); ++id) {
    ++a.begin[topology.link(id).*end + 1];
  }
  for (std::size_t v = 1; v < a.begin.size(); ++v) {
    a.begin[v] += a.begin[v - 1];
  }
  a.links.resize(topology.link_count());
  std::vector<std::uint32_t> fill(a.begin.begin(), a.begin.end() - 1);
  for (LinkId id = 0; id < topology.link_count(); ++id) {
    a.links[fill[topology.link(id).*end]++] = id;
  }
  return a;
}

/// Finds the route's meeting vertex: the forward search reached it through
/// marks_[v].via, and marks_[v].next leads on towards `to`.  Throws if no
/// route exists.
VertexId RouteTable::search(NodeId from, NodeId to) {
  const Topology& topo = *topo_;
  if (marks_.empty()) {
    out_ = adjacency(topo, &LinkDesc::from);
    in_ = adjacency(topo, &LinkDesc::to);
    marks_.resize(topo.vertex_count());
  }
  // A miss takes one stamp per level plus one.  Stamps restart long before
  // they could wrap: the only reset sized by the graph, once in 2^32 levels.
  constexpr std::size_t kLastStamp = std::numeric_limits<std::uint32_t>::max();
  if (stamp_ > kLastStamp - marks_.size() - 2) {
    std::fill(marks_.begin(), marks_.end(), Mark{});
    stamp_ = 0;
  }
  const std::uint32_t first = ++stamp_;
  marks_[from].fwd = first;
  marks_[to].bwd = first;
  fwd_.assign(1, from);
  bwd_.assign(1, to);
  std::size_t fwd_level = 0;  // where each side's frontier starts
  std::size_t bwd_level = 0;
  const auto degree = [](const Adjacency& a, VertexId v) {
    return a.begin[v + 1] - a.begin[v];
  };
  std::uint64_t fwd_cost = degree(out_, from);  // links the frontier reads
  std::uint64_t bwd_cost = degree(in_, to);
  // Endpoints terminate paths (NICs do not cut through), so no endpoint but
  // the pair's own ever joins a level.
  const auto may_join = [&](VertexId v) {
    return !topo.is_endpoint(v) || v == from || v == to;
  };

  while (fwd_level < fwd_.size() && bwd_level < bwd_.size()) {
    const std::uint32_t level = ++stamp_;
    if (fwd_cost <= bwd_cost) {
      const std::size_t end = fwd_.size();
      fwd_cost = 0;
      for (std::size_t i = fwd_level; i < end; ++i) {
        const VertexId v = fwd_[i];
        for (std::uint32_t k = out_.begin[v]; k < out_.begin[v + 1]; ++k) {
          ++stats_.links_scanned;
          const LinkId id = out_.links[k];
          const VertexId w = topo.link(id).to;
          Mark& m = marks_[w];
          if (m.fwd >= first || !may_join(w)) continue;
          m.fwd = level;
          m.via = id;
          // Levels grow in BFS order, so the first meeting vertex found
          // ends the lexicographically smallest shortest prefix.
          if (m.bwd >= first) return w;
          fwd_.push_back(w);
          fwd_cost += degree(out_, w);
        }
      }
      fwd_level = end;
    } else {
      const std::size_t end = bwd_.size();
      bwd_cost = 0;
      bool met = false;
      for (std::size_t i = bwd_level; i < end; ++i) {
        const VertexId w = bwd_[i];
        for (std::uint32_t k = in_.begin[w]; k < in_.begin[w + 1]; ++k) {
          ++stats_.links_scanned;
          const LinkId id = in_.links[k];
          const VertexId u = topo.link(id).from;
          Mark& m = marks_[u];
          if (m.bwd == level) {  // another of its links into the level below
            m.next = std::min(m.next, id);
            continue;
          }
          if (m.bwd >= first || !may_join(u)) continue;
          m.bwd = level;
          m.next = id;
          met = met || m.fwd >= first;
          bwd_.push_back(u);
          bwd_cost += degree(in_, u);
        }
      }
      if (met) {
        // Every meeting vertex is in the forward frontier (a shallower one
        // would have met an earlier level); the first in BFS order ends the
        // smallest prefix.
        const auto frontier =
            fwd_.begin() + static_cast<std::ptrdiff_t>(fwd_level);
        return *std::find_if(frontier, fwd_.end(), [&](VertexId v) {
          return marks_[v].bwd >= first;
        });
      }
      bwd_level = end;
    }
  }
  throw std::runtime_error("no route between endpoints " +
                           std::to_string(from) + " and " +
                           std::to_string(to));
}

RouteView RouteTable::route(NodeId from, NodeId to) {
  if (from >= topo_->endpoint_count() || to >= topo_->endpoint_count()) {
    throw std::out_of_range("route: endpoint id out of range");
  }
  if (from == to) return {};
  if (sources_.empty()) sources_.resize(topo_->endpoint_count());
  auto& sp = sources_[from];
  if (!sp) {
    sp = std::make_unique<SourceRoutes>();
    ++stats_.sources_touched;
  }
  const auto it = sp->by_dst.find(to);
  if (it != sp->by_dst.end()) return view_of(*sp, it->second);
  return materialize(from, to, *sp);
}

RouteView RouteTable::materialize(NodeId from, NodeId to, SourceRoutes& sr) {
  const VertexId meet = search(from, to);
  Route links;  // links[i] enters the path's vertex i + 1
  for (VertexId v = meet; v != from; v = topo_->link(links.back()).from) {
    links.push_back(marks_[v].via);
  }
  std::reverse(links.begin(), links.end());
  for (VertexId v = meet; v != to; v = topo_->link(links.back()).to) {
    links.push_back(marks_[v].next);
  }
  const std::size_t hops = links.size();
  const auto vertex = [&](std::size_t j) {
    return topo_->link(links[j - 1]).to;
  };

  // Longest interned prefix: the deepest on-path switch whose route from
  // this source is already in the arena.  Every destination behind the same
  // last switch shares that span.
  Entry entry;
  std::size_t shared = 0;  // links covered by the interned head
  for (std::size_t j = hops; j-- > 1;) {
    const auto hit = sr.prefix_of.find(vertex(j));
    if (hit != sr.prefix_of.end()) {
      entry.head = hit->second;
      shared = j;
      break;
    }
  }

  entry.tail.off = static_cast<std::uint32_t>(sr.arena.size());
  entry.tail.len = static_cast<std::uint32_t>(hops - shared);
  for (std::size_t i = shared; i < hops; ++i) sr.arena.push_back(links[i]);
  stats_.links_stored += hops - shared;
  stats_.links_shared += shared;

  if (shared == 0) {
    // The whole route is contiguous: intern every proper prefix ending at a
    // switch so later destinations behind those switches can share it.
    for (std::size_t j = 1; j < hops; ++j) {
      sr.prefix_of.emplace(vertex(j),
                           Span{entry.tail.off, static_cast<std::uint32_t>(j)});
    }
  }

  ++stats_.routes_materialized;
  const auto [pos, inserted] = sr.by_dst.emplace(to, entry);
  (void)inserted;
  return view_of(sr, pos->second);
}

Topology Topology::single_switch(std::size_t n) {
  Topology t(n);
  const VertexId sw = t.add_switch();
  for (VertexId e = 0; e < n; ++e) {
    t.add_cable(e, sw);
  }
  return t;
}

Topology Topology::clos(std::size_t n, std::size_t radix) {
  if (radix < 2 || radix % 2 != 0) {
    throw std::invalid_argument("clos: radix must be even and >= 2");
  }
  if (n <= radix) return single_switch(n);

  const std::size_t per_leaf = radix / 2;
  const std::size_t leaves = (n + per_leaf - 1) / per_leaf;
  const std::size_t spines = radix / 2;

  Topology t(n);
  std::vector<VertexId> leaf_ids;
  std::vector<VertexId> spine_ids;
  leaf_ids.reserve(leaves);
  spine_ids.reserve(spines);
  for (std::size_t i = 0; i < leaves; ++i) leaf_ids.push_back(t.add_switch());
  for (std::size_t i = 0; i < spines; ++i) spine_ids.push_back(t.add_switch());

  for (VertexId e = 0; e < n; ++e) {
    t.add_cable(e, leaf_ids[e / per_leaf]);
  }
  for (VertexId leaf : leaf_ids) {
    for (VertexId spine : spine_ids) {
      t.add_cable(leaf, spine);
    }
  }
  return t;
}

Topology Topology::back_to_back() {
  Topology t(2);
  t.add_cable(0, 1);
  return t;
}

}  // namespace nicmcast::net
