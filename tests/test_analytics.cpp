// Tests for the analytics suite: correctness against hand-computed or
// serial references, plus the partition-sensitivity property Fig 8
// depends on (better partition => less communication).
#include <gtest/gtest.h>

#include <cmath>

#include "analytics/analytics.hpp"
#include "analytics/programs.hpp"
#include "core/xtrapulp.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "graph/halo.hpp"
#include "mpisim/comm.hpp"

namespace xtra::analytics {
namespace {

using graph::DistGraph;
using graph::EdgeList;
using graph::VertexDist;

class AnalyticsRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, AnalyticsRanks, ::testing::Values(1, 2, 4),
                         [](const auto& inf) {
                           return "nranks_" + std::to_string(inf.param);
                         });

// ---------------------------------------------------------------------------
// Halo exchange

TEST_P(AnalyticsRanks, HaloExchangeRefreshesEveryGhost) {
  const int nranks = GetParam();
  const EdgeList el = gen::erdos_renyi(300, 6, 2);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 3));
    graph::HaloPlan halo(comm, g);
    EXPECT_EQ(halo.ghost_count(), static_cast<count_t>(g.n_ghost()));
    std::vector<gid_t> vals(g.n_total(), 0);
    for (lid_t v = 0; v < g.n_local(); ++v) vals[v] = g.gid_of(v) * 7 + 1;
    halo.exchange(comm, vals);
    for (lid_t v = 0; v < g.n_total(); ++v)
      EXPECT_EQ(vals[v], g.gid_of(v) * 7 + 1);
  });
}

// ---------------------------------------------------------------------------
// PageRank

TEST_P(AnalyticsRanks, PageRankMassConservedAndConsistent) {
  const int nranks = GetParam();
  const EdgeList el = gen::community_graph(1000, 8, 0.6, 2.3, 3);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 5));
    PageRankProgram pr;
    const engine::Stats st = engine::run(comm, g, pr, {.max_supersteps = 20});
    EXPECT_NEAR(pr.sum, 1.0, 1e-9);
    for (lid_t v = 0; v < g.n_local(); ++v) EXPECT_GT(pr.rank[v], 0.0);
    EXPECT_EQ(st.supersteps, 20);
    EXPECT_GT(st.seconds, 0.0);
  });
}

TEST(PageRank, StarHubDominates) {
  EdgeList el;
  el.n = 11;
  for (gid_t v = 1; v < 11; ++v) el.edges.push_back({0, v});
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, 2));
    PageRankProgram pr;
    engine::run(comm, g, pr, {.max_supersteps = 30});
    // The hub holds lid for gid 0 on rank 0.
    if (comm.rank() == 0) {
      const lid_t hub = g.lid_of(0);
      ASSERT_NE(hub, kInvalidLid);
      for (lid_t v = 0; v < g.n_local(); ++v) {
        if (v != hub) {
          EXPECT_GT(pr.rank[hub], 3.0 * pr.rank[v]);
        }
      }
    }
  });
}

TEST_P(AnalyticsRanks, PageRankRankCountInvariant) {
  // Same graph, same iteration count -> same global ranks regardless
  // of rank count (synchronous algorithm).
  const EdgeList el = gen::erdos_renyi(500, 8, 9);
  std::vector<double> ref;
  sim::run_world(1, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 1));
    PageRankProgram pr;
    engine::run(comm, g, pr, {.max_supersteps = 10});
    ref.assign(el.n, 0.0);
    for (lid_t v = 0; v < g.n_local(); ++v) ref[g.gid_of(v)] = pr.rank[v];
  });
  const int nranks = GetParam();
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 7));
    PageRankProgram pr;
    engine::run(comm, g, pr, {.max_supersteps = 10});
    for (lid_t v = 0; v < g.n_local(); ++v)
      EXPECT_NEAR(pr.rank[v], ref[g.gid_of(v)], 1e-12);
  });
}

// ---------------------------------------------------------------------------
// Connected components

TEST_P(AnalyticsRanks, WccFindsPlantedComponents) {
  const int nranks = GetParam();
  // Three cliques of sizes 10/20/30, no inter-edges.
  EdgeList el;
  el.n = 60;
  auto add_clique = [&el](gid_t lo, gid_t hi) {
    for (gid_t a = lo; a < hi; ++a)
      for (gid_t b = a + 1; b < hi; ++b) el.edges.push_back({a, b});
  };
  add_clique(0, 10);
  add_clique(10, 30);
  add_clique(30, 60);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 3));
    WccProgram r;
    engine::run(comm, g, r);
    EXPECT_EQ(r.num_components, 3);
    EXPECT_EQ(r.largest_size, 30);
    // Component labels are the min gid of the component.
    for (lid_t v = 0; v < g.n_local(); ++v) {
      const gid_t gid = g.gid_of(v);
      const gid_t expect = gid < 10 ? 0 : (gid < 30 ? 10 : 30);
      EXPECT_EQ(r.component[v], expect);
    }
  });
}

TEST(Wcc, SingletonVerticesAreComponents) {
  EdgeList el;
  el.n = 5;
  el.edges = {{0, 1}};
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 2));
    WccProgram r;
    engine::run(comm, g, r);
    EXPECT_EQ(r.num_components, 4);  // {0,1}, {2}, {3}, {4}
    EXPECT_EQ(r.largest_size, 2);
  });
}

// ---------------------------------------------------------------------------
// Label propagation communities

TEST_P(AnalyticsRanks, LpRecoversCliqueCommunities) {
  const int nranks = GetParam();
  EdgeList el;
  el.n = 40;
  for (gid_t base : {gid_t{0}, gid_t{20}})
    for (gid_t a = base; a < base + 20; ++a)
      for (gid_t b = a + 1; b < base + 20; ++b) el.edges.push_back({a, b});
  el.edges.push_back({5, 25});  // single bridge
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 4));
    CommLpProgram r;
    engine::run(comm, g, r, {.max_supersteps = 10});
    EXPECT_EQ(r.num_communities, 2);
    for (lid_t v = 0; v < g.n_local(); ++v)
      EXPECT_EQ(r.label[v], g.gid_of(v) < 20 ? 0u : 20u);
  });
}

// ---------------------------------------------------------------------------
// k-core

TEST_P(AnalyticsRanks, KcoreExactOnCliquePlusPath) {
  const int nranks = GetParam();
  // K5 (coreness 4) with a path tail (coreness 1).
  EdgeList el;
  el.n = 9;
  for (gid_t a = 0; a < 5; ++a)
    for (gid_t b = a + 1; b < 5; ++b) el.edges.push_back({a, b});
  el.edges.push_back({4, 5});
  el.edges.push_back({5, 6});
  el.edges.push_back({6, 7});
  el.edges.push_back({7, 8});
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 8));
    KCoreProgram r;
    engine::run(comm, g, r, {.max_supersteps = 30});
    EXPECT_EQ(r.max_core, 4);
    for (lid_t v = 0; v < g.n_local(); ++v) {
      const gid_t gid = g.gid_of(v);
      EXPECT_EQ(r.core[v], gid < 5 ? 4 : 1) << "gid " << gid;
    }
  });
}

TEST(Kcore, CycleIsTwoCore) {
  EdgeList el;
  el.n = 8;
  for (gid_t v = 0; v < 8; ++v) el.edges.push_back({v, (v + 1) % 8});
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 2));
    KCoreProgram r;
    engine::run(comm, g, r, {.max_supersteps = 20});
    EXPECT_EQ(r.max_core, 2);
  });
}

// ---------------------------------------------------------------------------
// Harmonic centrality

TEST_P(AnalyticsRanks, HarmonicCentralityOnStar) {
  const int nranks = GetParam();
  EdgeList el;
  el.n = 6;
  for (gid_t v = 1; v < 6; ++v) el.edges.push_back({0, v});
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    const HarmonicResult r = harmonic_centrality(comm, g, 4, 9);
    ASSERT_EQ(r.sources.size(), 4u);
    for (std::size_t i = 0; i < r.sources.size(); ++i) {
      // Star: center has HC 5; a leaf has 1 + 4*(1/2) = 3.
      const double expect = r.sources[i] == 0 ? 5.0 : 3.0;
      EXPECT_NEAR(r.centrality[i], expect, 1e-12);
    }
  });
}

// Pin the multi-source migration: harmonic_centrality retired its
// per-source BFS loop for one batched MultiBfsProgram run, and this
// regression replays the retired loop (one one-root MultiBfsProgram
// per source, a scalar allreduce per centrality) expecting
// bit-identical output — same lid-order partial sums, same rank-order
// allreduce fold.
TEST_P(AnalyticsRanks, HarmonicBitIdenticalToRetiredPerSourceLoop) {
  const int nranks = GetParam();
  const EdgeList el = gen::erdos_renyi(500, 6, 13);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 3));
    const engine::Config cfg;
    const HarmonicResult r = harmonic_centrality(comm, g, 6, 21, cfg);
    ASSERT_EQ(r.centrality.size(), 6u);
    count_t supersteps = 0;
    for (std::size_t i = 0; i < r.sources.size(); ++i) {
      MultiBfsProgram<gid_t> bfs;
      bfs.roots = {r.sources[i]};
      engine::run(comm, g, bfs, cfg);
      double local = 0.0;
      for (lid_t v = 0; v < g.n_local(); ++v)
        if (bfs.levels[v] > 0 && bfs.levels[v] != kInfDist)
          local += 1.0 / static_cast<double>(bfs.levels[v]);
      EXPECT_EQ(r.centrality[i], comm.allreduce_sum(local));
      supersteps += bfs.ecc[0];
    }
    EXPECT_EQ(r.info.supersteps, supersteps);
  });
}

// ---------------------------------------------------------------------------
// SCC

TEST_P(AnalyticsRanks, SccFindsDirectedCycleCore) {
  const int nranks = GetParam();
  // Directed: 0->1->2->3->0 cycle (SCC of 4), plus tail 3->4->5.
  EdgeList el;
  el.n = 6;
  el.directed = true;
  el.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}};
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 6));
    const SccResult r = largest_scc(comm, g);
    EXPECT_EQ(r.scc_size, 4);
    for (lid_t v = 0; v < g.n_local(); ++v)
      EXPECT_EQ(r.in_scc[v], g.gid_of(v) < 4 ? 1 : 0);
  });
}

TEST(Scc, DagHasOnlySingletons) {
  EdgeList el;
  el.n = 5;
  el.directed = true;
  el.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}};
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 2));
    const SccResult r = largest_scc(comm, g);
    EXPECT_EQ(r.scc_size, 1);  // fully trimmed
  });
}

TEST(Scc, WebcrawlHasGiantScc) {
  const EdgeList el = gen::webcrawl(3000, 12, 3);
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 2, 3));
    const SccResult r = largest_scc(comm, g);
    EXPECT_GT(r.scc_size, static_cast<count_t>(el.n) / 10);
  });
}

// ---------------------------------------------------------------------------
// Partition sensitivity: the Fig 8 property.

TEST(PartitionSensitivity, GoodPartitionReducesPageRankComm) {
  const EdgeList el = gen::community_graph(4000, 12, 0.7, 2.5, 11);
  count_t bytes_random = 0, bytes_partitioned = 0;
  sim::run_world(4, [&](sim::Comm& comm) {
    // Random layout.
    const DistGraph g_rand =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
    PageRankProgram pr1;
    const count_t b1 = comm.allreduce_sum(
        engine::run(comm, g_rand, pr1, {.max_supersteps = 10}).comm_bytes);

    // XtraPuLP layout: partition into 4 parts, redistribute by part.
    core::Params params;
    params.nparts = 4;
    const auto res = core::partition(comm, g_rand, params);
    const auto global = core::gather_global_parts(comm, g_rand, res.parts);
    auto owners = std::make_shared<std::vector<int>>(global.begin(),
                                                     global.end());
    const DistGraph g_part = build_dist_graph(
        comm, el, VertexDist::explicit_map(el.n, 4, owners));
    PageRankProgram pr2;
    const count_t b2 = comm.allreduce_sum(
        engine::run(comm, g_part, pr2, {.max_supersteps = 10}).comm_bytes);
    if (comm.rank() == 0) {
      bytes_random = b1;
      bytes_partitioned = b2;
    }
  });
  EXPECT_LT(bytes_partitioned, bytes_random);
}

}  // namespace
}  // namespace xtra::analytics
