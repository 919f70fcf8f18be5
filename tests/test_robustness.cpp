// Robustness and degenerate-input tests across the stack: extreme
// graphs (empty, star, complete, single vertex), boundary part counts,
// I/O fuzzing, and idempotence properties.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "analytics/analytics.hpp"
#include "analytics/programs.hpp"
#include "baseline/partitioners.hpp"
#include "core/xtrapulp.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "graph/io.hpp"
#include "metrics/quality.hpp"
#include "mpisim/comm.hpp"
#include "spmv/spmv.hpp"

namespace xtra {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::VertexDist;

EdgeList star(gid_t n) {
  EdgeList el;
  el.n = n;
  for (gid_t v = 1; v < n; ++v) el.edges.push_back({0, v});
  return el;
}

EdgeList complete(gid_t n) {
  EdgeList el;
  el.n = n;
  for (gid_t a = 0; a < n; ++a)
    for (gid_t b = a + 1; b < n; ++b) el.edges.push_back({a, b});
  return el;
}

// ---------------------------------------------------------------------------
// Partitioner on degenerate graphs

TEST(Degenerate, EdgelessGraphPartitions) {
  EdgeList el;
  el.n = 100;
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, 2));
    core::Params params;
    params.nparts = 4;
    const auto r = core::partition(comm, g, params);
    EXPECT_TRUE(core::check_partition_consistent(comm, g, r.parts, 4));
    const auto q = metrics::evaluate_dist(comm, g, r.parts, 4);
    EXPECT_EQ(q.cut, 0);
    EXPECT_LE(q.vertex_imbalance, 1.2);
  });
}

TEST(Degenerate, StarGraphKeepsHubConstraintsSane) {
  const EdgeList el = star(200);
  sim::run_world(3, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::random(el.n, 3, 5));
    core::Params params;
    params.nparts = 4;
    const auto r = core::partition(comm, g, params);
    EXPECT_TRUE(core::check_partition_consistent(comm, g, r.parts, 4));
    const auto q = metrics::evaluate_dist(comm, g, r.parts, 4);
    // Leaves see only the hub's part, so balance relies entirely on
    // the stall-escape path; allow extra slack on this degenerate
    // topology (no partition of a star is good anyway).
    EXPECT_LE(q.vertex_imbalance, 1.35);
  });
}

TEST(Degenerate, CompleteGraphAnyPartitionCutsEverything) {
  const EdgeList el = complete(24);
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, 2));
    core::Params params;
    params.nparts = 4;
    const auto r = core::partition(comm, g, params);
    const auto q = metrics::evaluate_dist(comm, g, r.parts, 4);
    // K24 into 4 balanced parts: internal = 4 * C(6,2) = 60 of 276.
    EXPECT_NEAR(q.edge_cut_ratio, 216.0 / 276.0, 0.08);
    EXPECT_LE(q.vertex_imbalance, 1.35);  // 7/6 with rounding
  });
}

TEST(Degenerate, NPartsEqualsN) {
  const EdgeList el = complete(8);
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, 2));
    core::Params params;
    params.nparts = 8;
    const auto r = core::partition(comm, g, params);
    EXPECT_TRUE(core::check_partition_consistent(comm, g, r.parts, 8));
  });
}

TEST(Degenerate, SingleVertexGraph) {
  EdgeList el;
  el.n = 1;
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(comm, el, VertexDist::block(1, 2));
    core::Params params;
    params.nparts = 1;
    const auto r = core::partition(comm, g, params);
    EXPECT_TRUE(core::check_partition_consistent(comm, g, r.parts, 1));
  });
}

TEST(Degenerate, SerialPartitionersOnStarAndComplete) {
  for (const EdgeList& el : {star(100), complete(20)}) {
    const baseline::SerialGraph g = baseline::build_serial_graph(el);
    for (const auto& parts :
         {baseline::pulp_partition(g, 4), baseline::multilevel_partition(g, 4),
          baseline::sclp_partition(g, 4)}) {
      const auto q = metrics::evaluate(el, parts, 4);
      EXPECT_LE(q.vertex_imbalance, 1.35);
    }
  }
}

// ---------------------------------------------------------------------------
// Analytics on degenerate graphs

TEST(DegenerateAnalytics, EdgelessGraph) {
  EdgeList el;
  el.n = 40;
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, 2));
    const auto pr = analytics::pagerank(comm, g, 5);
    EXPECT_NEAR(pr.sum, 1.0, 1e-9);  // dangling mass redistributed
    const auto cc = analytics::weakly_connected_components(comm, g);
    EXPECT_EQ(cc.num_components, 40);
    EXPECT_EQ(cc.largest_size, 1);
    const auto kc = analytics::kcore_approx(comm, g, 5);
    EXPECT_EQ(kc.max_core, 0);
    const auto scc = analytics::largest_scc(comm, g);
    EXPECT_LE(scc.scc_size, 1);
  });
}

// An empty graph has no vertex to sample a harmonic source from: the
// result is empty rather than a modulus by n_global() == 0.
TEST(DegenerateAnalytics, EmptyGraphHarmonic) {
  EdgeList el;
  el.n = 0;
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, 2));
    const auto hc = analytics::harmonic_centrality(comm, g, 4, 1);
    EXPECT_TRUE(hc.sources.empty());
    EXPECT_TRUE(hc.centrality.empty());
  });
}

// Frontier programs check their parameters in init(), ahead of any
// collective, so every rank throws alike and the world stays in
// lockstep: delta or max_weight below 1 would divide by zero, a root
// past n_global() names no vertex, and a negative harmonic source
// count sizes no sample.
TEST(DegenerateAnalytics, FrontierProgramsRejectBadParameters) {
  const EdgeList el = gen::erdos_renyi(200, 4, 3);
  for (const int nranks : {1, 2}) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, VertexDist::random(el.n, nranks, 3));
      EXPECT_THROW(analytics::sssp(comm, g, 0, /*delta=*/0),
                   std::invalid_argument);
      EXPECT_THROW(analytics::sssp(comm, g, 0, 8, /*max_weight=*/0),
                   std::invalid_argument);
      EXPECT_THROW(analytics::sssp(comm, g, /*root=*/el.n),
                   std::invalid_argument);
      analytics::MultiBfsProgram bfs;
      bfs.roots = {1, el.n};
      EXPECT_THROW(engine::run(comm, g, bfs), std::invalid_argument);
      // A bare-gid record cannot name a second slot.
      analytics::MultiBfsProgram<gid_t> one_root;
      one_root.roots = {1, 2};
      EXPECT_THROW(engine::run(comm, g, one_root), std::invalid_argument);
      // A negative source count is rejected before the sample is
      // drawn.
      EXPECT_THROW(analytics::harmonic_centrality(comm, g, -1, 1),
                   std::invalid_argument);
      // The rejected runs issued no collective: the next run agrees.
      EXPECT_GT(analytics::sssp(comm, g, 0).reached, 1);
    });
  }
}

TEST(DegenerateAnalytics, SelfLoopOnlyGraphActsEdgeless) {
  EdgeList el;
  el.n = 10;
  el.edges = {{3, 3}, {7, 7}};
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, 2));
    EXPECT_EQ(g.m_global(), 0);
    const auto cc = analytics::weakly_connected_components(comm, g);
    EXPECT_EQ(cc.num_components, 10);
  });
}

// ---------------------------------------------------------------------------
// I/O fuzzing

TEST(IoFuzz, TruncatedBinaryThrows) {
  const std::string path = ::testing::TempDir() + "/xtra_trunc.bin";
  EdgeList el = star(10);
  graph::write_edge_list_binary(path, el);
  // Truncate mid-payload.
  std::FILE* f = std::fopen(path.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(0, truncate(path.c_str(), size - 8));
  EXPECT_THROW(graph::read_edge_list_binary(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IoFuzz, MalformedTextPairThrows) {
  // A bad token mid-file and a lone trailing id must not load as a
  // shorter edge list.
  const std::string path = ::testing::TempDir() + "/xtra_badpair.txt";
  for (const char* body : {"n 8 undirected\n0 1\n2 x\n3 4\n",
                           "n 8 undirected\n0 1\n5\n"}) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(body, f);
    std::fclose(f);
    EXPECT_THROW(graph::read_edge_list_text(path), std::runtime_error)
        << body;
  }
  std::remove(path.c_str());
}

TEST(IoFuzz, OversizedBinaryEdgeCountThrows) {
  // A header claiming far more edges than the file holds is rejected
  // before anything is allocated for them.
  const std::string path = ::testing::TempDir() + "/xtra_bigcount.bin";
  graph::write_edge_list_binary(path, star(10));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 8 + 2 * sizeof(std::uint64_t), SEEK_SET);  // header[2]
  const std::uint64_t bogus = std::uint64_t{1} << 40;
  std::fwrite(&bogus, sizeof(bogus), 1, f);
  std::fclose(f);
  EXPECT_THROW(graph::read_edge_list_binary(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IoFuzz, WrongMagicThrows) {
  const std::string path = ::testing::TempDir() + "/xtra_magic.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTMAGIC________________", f);
  std::fclose(f);
  EXPECT_THROW(graph::read_edge_list_binary(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IoFuzz, BinaryOutOfRangeVertexThrows) {
  const std::string path = ::testing::TempDir() + "/xtra_oor.bin";
  EdgeList el;
  el.n = 4;
  el.edges = {{0, 1}};
  graph::write_edge_list_binary(path, el);
  // Patch the edge target to an out-of-range id.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -8, SEEK_END);
  const std::uint64_t bogus = 99;
  std::fwrite(&bogus, sizeof(bogus), 1, f);
  std::fclose(f);
  EXPECT_THROW(graph::read_edge_list_binary(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IoFuzz, EmptyEdgeListRoundTrips) {
  const std::string path = ::testing::TempDir() + "/xtra_empty.bin";
  EdgeList el;
  el.n = 7;
  graph::write_edge_list_binary(path, el);
  const EdgeList back = graph::read_edge_list_binary(path);
  EXPECT_EQ(back.n, 7u);
  EXPECT_TRUE(back.edges.empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Idempotence / determinism properties

TEST(Idempotence, SpmvRunTwiceSameChecksum) {
  const EdgeList el = gen::erdos_renyi(300, 6, 4);
  sim::run_world(2, [&](sim::Comm& comm) {
    const auto owners = spmv::owners_from_parts(
        baseline::random_partition(el.n, 2, 1));
    spmv::DistSpmv mv(comm, el, owners, spmv::Layout::kTwoD);
    const auto a = mv.run(comm, 5);
    const auto b = mv.run(comm, 5);
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.comm_bytes, b.comm_bytes);
  });
}

TEST(Idempotence, AnalyticsDeterministicAcrossRuns) {
  const EdgeList el = gen::community_graph(800, 8, 0.6, 2.3, 6);
  count_t first = -1;
  for (int run = 0; run < 2; ++run) {
    sim::run_world(3, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, VertexDist::random(el.n, 3, 2));
      const auto lp = analytics::label_propagation(comm, g, 8);
      if (comm.rank() == 0) {
        if (first < 0)
          first = lp.num_communities;
        else
          EXPECT_EQ(lp.num_communities, first);
      }
    });
  }
}

TEST(Idempotence, BaselinePartitionersDeterministic) {
  const EdgeList el = gen::rmat(10, 8, 3);
  const baseline::SerialGraph g = baseline::build_serial_graph(el);
  EXPECT_EQ(baseline::pulp_partition(g, 4), baseline::pulp_partition(g, 4));
  EXPECT_EQ(baseline::multilevel_partition(g, 4),
            baseline::multilevel_partition(g, 4));
  EXPECT_EQ(baseline::sclp_partition(g, 4), baseline::sclp_partition(g, 4));
}

}  // namespace
}  // namespace xtra
