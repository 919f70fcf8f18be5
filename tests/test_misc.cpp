// Assorted edge-case tests: collision-heavy hash maps, exhaustive
// distribution properties, disconnected-graph diameter estimation,
// metrics with empty parts, and exchange-protocol corner cases.
#include <gtest/gtest.h>

#include "core/exchange.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/dist_graph.hpp"
#include "graph/halo.hpp"
#include "metrics/quality.hpp"
#include "mpisim/comm.hpp"
#include "util/flat_map.hpp"

namespace xtra {
namespace {

using graph::EdgeList;
using graph::VertexDist;

TEST(FlatMapCollisions, KeysForcedIntoSameBucketStillResolve) {
  // Keys chosen so splitmix64(key) collides in the low bits often
  // enough to exercise long probe chains: use a small map kept at high
  // load by interleaving lookups.
  GidToLidMap m;
  constexpr std::uint64_t kStride = 1ull << 32;  // vary only high bits
  for (std::uint64_t i = 0; i < 5000; ++i)
    ASSERT_TRUE(m.insert(i * kStride, i));
  for (std::uint64_t i = 0; i < 5000; ++i)
    ASSERT_EQ(m.find(i * kStride), i);
  for (std::uint64_t i = 0; i < 5000; ++i)
    ASSERT_EQ(m.find(i * kStride + 1), kInvalidLid);
}

TEST(VertexDistExhaustive, BlockRangePartitionsEveryN) {
  for (gid_t n : {1u, 2u, 5u, 16u, 17u, 100u}) {
    for (int p : {1, 2, 3, 7, 16}) {
      const VertexDist d = VertexDist::block(n, p);
      gid_t covered = 0;
      for (int r = 0; r < p; ++r) {
        const auto [lo, hi] = d.block_range(r);
        EXPECT_EQ(lo, covered);
        covered = hi;
        for (gid_t v = lo; v < hi && v < n; ++v) EXPECT_EQ(d.owner(v), r);
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(DiameterEstimate, DisconnectedGraphTerminates) {
  EdgeList el;
  el.n = 20;
  // Two paths: 0..9 and 10..19 (each diameter 9), no connection.
  for (gid_t v = 0; v + 1 < 10; ++v) el.edges.push_back({v, v + 1});
  for (gid_t v = 10; v + 1 < 20; ++v) el.edges.push_back({v, v + 1});
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, 2));
    // Root in the first component: estimator must terminate and report
    // that component's diameter.
    const count_t d = graph::estimate_diameter(comm, g, 6, 0);
    EXPECT_EQ(d, 9);
  });
}

TEST(DiameterEstimate, IsolatedRootReportsZero) {
  EdgeList el;
  el.n = 5;
  el.edges = {{1, 2}, {2, 3}};
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, 2));
    EXPECT_EQ(graph::estimate_diameter(comm, g, 3, /*first_root=*/0), 0);
  });
}

TEST(Metrics, EmptyPartsStillScoreConsistently) {
  EdgeList el;
  el.n = 6;
  el.edges = {{0, 1}, {2, 3}, {4, 5}};
  // Only parts 0 and 3 of 4 used.
  const std::vector<part_t> parts{0, 0, 3, 3, 0, 3};
  const auto q = metrics::evaluate(el, parts, 4);
  EXPECT_EQ(q.cut, 1);  // edge 4-5 spans parts 0 and 3
  // Max part holds 3 of 6 vertices; average per part is 1.5.
  EXPECT_NEAR(q.vertex_imbalance, 2.0, 1e-12);
}

TEST(Exchange, DoubleQueuedVertexIsIdempotent) {
  EdgeList el;
  el.n = 4;
  el.edges = {{0, 1}, {1, 2}, {2, 3}};
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, 2));
    std::vector<part_t> parts(g.n_total(), 0);
    std::vector<lid_t> queue;
    for (lid_t v = 0; v < g.n_local(); ++v) {
      parts[v] = static_cast<part_t>(g.gid_of(v));
      queue.push_back(v);
      queue.push_back(v);  // duplicates must not corrupt ghosts
    }
    core::UpdateExchanger().run(comm, g, parts, queue);
    for (lid_t v = g.n_local(); v < g.n_total(); ++v)
      EXPECT_EQ(parts[v], static_cast<part_t>(g.gid_of(v)));
  });
}

TEST(Halo, RepeatedExchangesTrackChangingValues) {
  const EdgeList el = gen::erdos_renyi(400, 6, 8);
  sim::run_world(3, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::random(el.n, 3, 4));
    graph::HaloPlan halo(comm, g);
    std::vector<count_t> vals(g.n_total(), 0);
    for (count_t round = 1; round <= 5; ++round) {
      for (lid_t v = 0; v < g.n_local(); ++v)
        vals[v] = static_cast<count_t>(g.gid_of(v)) * round;
      halo.exchange(comm, vals);
      for (lid_t v = g.n_local(); v < g.n_total(); ++v)
        ASSERT_EQ(vals[v], static_cast<count_t>(g.gid_of(v)) * round);
    }
  });
}

TEST(Halo, DirectedGraphCoversInAndOutGhosts) {
  EdgeList el;
  el.n = 4;
  el.directed = true;
  el.edges = {{0, 3}, {3, 1}};  // rank 0 owns {0,1}, rank 1 owns {2,3}
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, 2));
    graph::HaloPlan halo(comm, g);
    std::vector<gid_t> vals(g.n_total(), 999);
    for (lid_t v = 0; v < g.n_local(); ++v) vals[v] = g.gid_of(v);
    halo.exchange(comm, vals);
    // Every ghost (from either direction) must now hold its gid.
    for (lid_t v = g.n_local(); v < g.n_total(); ++v)
      EXPECT_EQ(vals[v], g.gid_of(v));
  });
}

TEST(Bfs, ReverseBfsFollowsInEdges) {
  EdgeList el;
  el.n = 4;
  el.directed = true;
  el.edges = {{0, 1}, {1, 2}, {2, 3}};
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, 2));
    std::vector<count_t> levels;
    const count_t ecc =
        bfs_levels(comm, g, 3, levels, /*use_in_edges=*/true);
    EXPECT_EQ(ecc, 3);
    for (lid_t v = 0; v < g.n_local(); ++v)
      EXPECT_EQ(levels[v], static_cast<count_t>(3 - g.gid_of(v)));
  });
}

}  // namespace
}  // namespace xtra
