#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace nicmcast::net {
namespace {

TEST(Topology, BackToBackRouteIsOneLink) {
  const Topology t = Topology::back_to_back();
  EXPECT_EQ(t.endpoint_count(), 2u);
  const Route r = t.route(0, 1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(t.link(r[0]).from, 0u);
  EXPECT_EQ(t.link(r[0]).to, 1u);
}

TEST(Topology, RouteToSelfIsEmpty) {
  const Topology t = Topology::single_switch(4);
  EXPECT_TRUE(t.route(2, 2).empty());
}

TEST(Topology, SingleSwitchRoutesAreTwoLinks) {
  const Topology t = Topology::single_switch(16);
  for (NodeId i = 0; i < 16; ++i) {
    for (NodeId j = 0; j < 16; ++j) {
      if (i == j) continue;
      const Route r = t.route(i, j);
      EXPECT_EQ(r.size(), 2u) << i << "->" << j;
      EXPECT_EQ(t.link(r.front()).from, i);
      EXPECT_EQ(t.link(r.back()).to, j);
    }
  }
}

TEST(Topology, RouteLinksAreContiguous) {
  const Topology t = Topology::clos(32, 8);
  const Route r = t.route(0, 31);
  ASSERT_FALSE(r.empty());
  for (std::size_t i = 1; i < r.size(); ++i) {
    EXPECT_EQ(t.link(r[i - 1]).to, t.link(r[i]).from);
  }
}

TEST(Topology, ClosSmallFallsBackToSingleSwitch) {
  const Topology t = Topology::clos(8, 16);
  EXPECT_EQ(t.route(0, 7).size(), 2u);
}

TEST(Topology, ClosSameLeafIsTwoHops) {
  // radix 8 -> 4 endpoints per leaf; nodes 0..3 share a leaf.
  const Topology t = Topology::clos(32, 8);
  EXPECT_EQ(t.route(0, 3).size(), 2u);
}

TEST(Topology, ClosCrossLeafIsFourHops) {
  // leaf -> spine -> leaf: 4 links endpoint to endpoint.
  const Topology t = Topology::clos(32, 8);
  EXPECT_EQ(t.route(0, 31).size(), 4u);
}

TEST(Topology, ClosConnectsAllPairs) {
  const Topology t = Topology::clos(20, 8);
  for (NodeId i = 0; i < 20; ++i) {
    for (NodeId j = 0; j < 20; ++j) {
      if (i == j) continue;
      EXPECT_NO_THROW(static_cast<void>(t.route(i, j)));
    }
  }
}

TEST(Topology, RoutesNeverCutThroughEndpoints) {
  const Topology t = Topology::clos(32, 8);
  for (NodeId i : {NodeId{0}, NodeId{5}, NodeId{17}}) {
    for (NodeId j : {NodeId{3}, NodeId{12}, NodeId{31}}) {
      if (i == j) continue;
      const Route r = t.route(i, j);
      for (std::size_t k = 0; k + 1 < r.size(); ++k) {
        EXPECT_FALSE(t.is_endpoint(t.link(r[k]).to));
      }
    }
  }
}

TEST(Topology, AllRoutesMatrixShape) {
  const Topology t = Topology::single_switch(4);
  const auto routes = t.all_routes();
  ASSERT_EQ(routes.size(), 4u);
  for (NodeId i = 0; i < 4; ++i) {
    ASSERT_EQ(routes[i].size(), 4u);
    EXPECT_TRUE(routes[i][i].empty());
  }
  EXPECT_EQ(routes[1][3].size(), 2u);
}

TEST(Topology, DisconnectedThrows) {
  Topology t(3);
  t.add_cable(0, 1);
  EXPECT_THROW(static_cast<void>(t.route(0, 2)), std::runtime_error);
}

TEST(Topology, InvalidArgumentsThrow) {
  EXPECT_THROW(Topology t(0), std::invalid_argument);
  EXPECT_THROW(Topology::clos(32, 7), std::invalid_argument);
  Topology t(2);
  EXPECT_THROW(t.add_cable(0, 99), std::out_of_range);
  EXPECT_THROW(static_cast<void>(t.route(0, 5)), std::out_of_range);
}

TEST(Topology, CableCreatesBothDirections) {
  Topology t(2);
  const LinkId id = t.add_cable(0, 1);
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.link(id).from, 0u);
  EXPECT_EQ(t.link(id + 1).from, 1u);
  EXPECT_EQ(t.link(id + 1).to, 0u);
}

TEST(Topology, ForwardAndReverseRoutesUseDistinctLinks) {
  const Topology t = Topology::single_switch(3);
  const Route fwd = t.route(0, 1);
  const Route rev = t.route(1, 0);
  std::set<LinkId> fwd_set(fwd.begin(), fwd.end());
  for (LinkId l : rev) {
    EXPECT_FALSE(fwd_set.contains(l));
  }
}

// ---- RouteTable -----------------------------------------------------------

TEST(RouteTable, MatchesEagerRoutesOnEveryTopology) {
  const Topology topos[] = {Topology::back_to_back(),
                            Topology::single_switch(16),
                            Topology::clos(32, 8), Topology::clos(40, 16)};
  for (const Topology& t : topos) {
    RouteTable table(t);
    const auto eager = t.all_routes();
    const std::size_t n = t.endpoint_count();
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        const RouteView v = table.route(i, j);
        ASSERT_EQ(v.to_route(), eager[i][j])
            << i << "->" << j << " (n=" << n << ")";
        ASSERT_EQ(v.size(), eager[i][j].size());
      }
    }
  }
}

TEST(RouteTable, LazyPerSourceFill) {
  const Topology t = Topology::clos(32, 8);
  RouteTable table(t);
  EXPECT_EQ(table.stats().routes_materialized, 0u);
  EXPECT_EQ(table.stats().sources_touched, 0u);

  (void)table.route(0, 31);
  EXPECT_EQ(table.stats().routes_materialized, 1u);
  EXPECT_EQ(table.stats().sources_touched, 1u);

  // Repeat lookups are cache hits, not recomputations.
  (void)table.route(0, 31);
  EXPECT_EQ(table.stats().routes_materialized, 1u);

  (void)table.route(5, 2);
  EXPECT_EQ(table.stats().routes_materialized, 2u);
  EXPECT_EQ(table.stats().sources_touched, 2u);

  // Self routes are free.
  EXPECT_TRUE(table.route(7, 7).empty());
  EXPECT_EQ(table.stats().routes_materialized, 2u);
}

TEST(RouteTable, InternsSharedPrefixSpans) {
  // Destinations behind the same leaf switch share the source's path to
  // that leaf; the second route must reuse the interned span instead of
  // storing its full hop sequence again.
  const Topology t = Topology::clos(32, 8);  // 4 endpoints per leaf
  RouteTable table(t);
  const RouteView a = table.route(0, 28);  // cross-leaf: 4 links
  ASSERT_EQ(a.size(), 4u);
  const std::uint64_t stored_after_first = table.stats().links_stored;
  EXPECT_EQ(table.stats().links_shared, 0u);

  const RouteView b = table.route(0, 29);  // same destination leaf
  ASSERT_EQ(b.size(), 4u);
  EXPECT_GT(table.stats().links_shared, 0u);
  // The second route stored strictly fewer new links than its length.
  EXPECT_LT(table.stats().links_stored - stored_after_first, b.size());
  // Shared prefix: identical links up to the destination leaf.
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
  EXPECT_NE(a[3], b[3]);  // different final hop
}

TEST(RouteTable, ViewsStayValidAsArenaGrows) {
  const Topology t = Topology::single_switch(32);
  RouteTable table(t);
  const RouteView first = table.route(0, 1);
  const Route snapshot = first.to_route();
  for (NodeId j = 2; j < 32; ++j) {
    (void)table.route(0, j);  // grows the source arena
  }
  EXPECT_EQ(first.to_route(), snapshot);  // offsets, not pointers
}

// Regression for the pre-widening NodeId wrap: with a 16-bit id,
// endpoint 65536 aliased endpoint 0 and id loops never terminated at
// n == 65536.  The 32-bit id keeps every id below the guard distinct,
// and construction rejects counts the id width cannot address.
TEST(Topology, EndpointCountsBeyondTheIdWidthAreRejected) {
  static_assert(sizeof(NodeId) >= 4,
                ">65536-endpoint fabrics require a 32-bit NodeId");
  // The ctor allocates nothing per endpoint, so the boundary is testable.
  EXPECT_NO_THROW(Topology{Topology::max_addressable_endpoints()});
  EXPECT_THROW(Topology{Topology::max_addressable_endpoints() + 1},
               std::invalid_argument);
}

TEST(Topology, IdsPastTheOldSixteenBitWrapStayDistinct) {
  const std::size_t n = 65536 + 64;
  std::set<NodeId> seen;
  for (std::size_t i = 0; i < n; ++i) {  // wrapped forever with 16-bit ids
    seen.insert(static_cast<NodeId>(i));
  }
  EXPECT_EQ(seen.size(), n);  // 16-bit ids aliased 65536 -> 0 here
  EXPECT_NE(static_cast<NodeId>(65536), static_cast<NodeId>(0));
}

// What a lookup gave: its links, or the kind of exception it threw.
struct Outcome {
  Route route;
  std::string thrown;
  bool operator==(const Outcome&) const = default;
};

template <typename Lookup>
Outcome outcome_of(Lookup&& lookup) {
  try {
    return {lookup(), ""};
  } catch (const std::out_of_range&) {
    return {{}, "out_of_range"};
  } catch (const std::runtime_error&) {
    return {{}, "runtime_error"};
  }
}

// A random graph with the shapes the canned topologies lack: parallel
// cables, endpoint-to-endpoint cables, endpoints with several cables, and
// pairs with no route.
Topology random_topology(std::mt19937_64& rng) {
  const auto below = [&](std::size_t n) {
    return static_cast<VertexId>(rng() % n);
  };
  Topology t(2 + below(9));
  const std::size_t switches = below(13);
  for (std::size_t i = 0; i < switches; ++i) t.add_switch();
  const std::size_t cables = below(3 * t.vertex_count());
  for (std::size_t i = 0; i < cables; ++i) {
    const VertexId a = below(t.vertex_count());
    const VertexId b = below(t.vertex_count());
    t.add_cable(a, b);
    if (rng() % 4 == 0) t.add_cable(b, a);  // a parallel cable
  }
  return t;
}

// Every lookup order the simulator produces must give Topology::route's
// route or exception, and a failed lookup must leave the table usable.
TEST(RouteTable, MatchesTopologyRouteOnRandomGraphsInEveryLookupOrder) {
  std::mt19937_64 rng(20031006);
  for (int graph = 0; graph < 300; ++graph) {
    const Topology t = random_topology(rng);
    // Ids up to n, one past the last endpoint, so bad ids are looked up too.
    const auto n = static_cast<NodeId>(t.endpoint_count());
    using Pairs = std::vector<std::pair<NodeId, NodeId>>;
    Pairs source_major;
    Pairs destination_major;  // an ack storm
    Pairs alternating;        // each data segment, then its ack
    for (NodeId a = 0; a <= n; ++a) {
      for (NodeId b = 0; b <= n; ++b) {
        source_major.emplace_back(a, b);
        destination_major.emplace_back(b, a);
        alternating.emplace_back(a, b);
        alternating.emplace_back(b, a);
      }
    }
    Pairs shuffled = source_major;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    for (const auto* order :
         {&source_major, &destination_major, &alternating, &shuffled}) {
      RouteTable table(t);
      for (const auto& [s, d] : *order) {
        const Outcome want = outcome_of([&] { return t.route(s, d); });
        const Outcome got =
            outcome_of([&] { return table.route(s, d).to_route(); });
        ASSERT_EQ(got, want) << "graph " << graph << ": " << s << "->" << d
                             << " threw '" << got.thrown << "', want '"
                             << want.thrown << "'";
      }
    }
  }
}

// The fabric's multisend pattern: the root's data segment to each
// destination, then that destination's ack back to the root.  Each miss
// must read a bounded number of adjacency entries, whatever the fabric's
// size: a spine of the 16k Clos has 2,048 out-links, so the search must
// reach a destination leaf through that leaf's in-links.
TEST(RouteTable, LinksScannedPerRouteDoNotGrowWithTheFabric) {
  constexpr std::size_t kRadix = 16;
  // Two levels per side, each reading one leaf's radix links, after the
  // two endpoints' single cables.
  constexpr std::uint64_t kBound = 2 * (kRadix + 1);
  for (const std::size_t n : {std::size_t{1024}, std::size_t{16384}}) {
    const Topology t = Topology::clos(n, kRadix);
    RouteTable table(t);
    std::uint64_t worst = 0;
    const auto miss = [&](NodeId from, NodeId to) {
      const std::uint64_t before = table.stats().links_scanned;
      const bool same_leaf = from / (kRadix / 2) == to / (kRadix / 2);
      EXPECT_EQ(table.route(from, to).size(), same_leaf ? 2u : 4u);
      worst = std::max(worst, table.stats().links_scanned - before);
    };
    for (NodeId d = 1; d < n; ++d) {
      miss(0, d);  // the data segment
      miss(d, 0);  // its ack
    }
    EXPECT_EQ(table.stats().routes_materialized, 2 * (n - 1));
    EXPECT_LE(worst, kBound) << "n=" << n;
  }
}

TEST(RouteTable, ThrowsLikeTopologyRoute) {
  Topology t(3);
  t.add_cable(0, 1);
  RouteTable table(t);
  EXPECT_THROW((void)table.route(0, 5), std::out_of_range);
  EXPECT_THROW((void)table.route(0, 2), std::runtime_error);
  // A failed destination must not poison later lookups.
  EXPECT_EQ(table.route(0, 1).size(), 1u);
}

}  // namespace
}  // namespace nicmcast::net
