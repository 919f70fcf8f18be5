// Tests for the graph generators: structural properties each class
// must exhibit for the paper's experiments to be meaningful.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string_view>

#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "graph/bfs.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "util/parallel.hpp"

namespace xtra::gen {
namespace {

std::vector<count_t> degrees(const graph::EdgeList& el) {
  std::vector<count_t> deg(el.n, 0);
  for (const auto& e : el.edges) {
    ++deg[e.u];
    if (!el.directed) ++deg[e.v];
  }
  return deg;
}

count_t max_degree(const graph::EdgeList& el) {
  const auto deg = degrees(el);
  return *std::max_element(deg.begin(), deg.end());
}

bool ids_in_range(const graph::EdgeList& el) {
  return std::all_of(el.edges.begin(), el.edges.end(), [&](const auto& e) {
    return e.u < el.n && e.v < el.n;
  });
}

count_t serial_diameter_lb(const graph::EdgeList& el) {
  // Distributed estimator on one rank == serial estimator.
  count_t result = 0;
  sim::run_world(1, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, graph::VertexDist::block(el.n, 1));
    result = graph::estimate_diameter(comm, g, 4);
  });
  return result;
}

TEST(Rmat, SizeAndRange) {
  const auto el = rmat(10, 8, 1);
  EXPECT_EQ(el.n, 1024u);
  EXPECT_FALSE(el.directed);
  EXPECT_TRUE(ids_in_range(el));
  // Duplicates removed, so edge count is below the nominal m but
  // within a sane band.
  EXPECT_GT(el.edge_count(), 1024 * 8 / 2 / 2);
  EXPECT_LE(el.edge_count(), 1024 * 8 / 2);
}

TEST(Rmat, IsDeterministicPerSeed) {
  EXPECT_EQ(rmat(8, 8, 5).edges, rmat(8, 8, 5).edges);
  EXPECT_NE(rmat(8, 8, 5).edges, rmat(8, 8, 6).edges);
}

TEST(Rmat, SkewedDegreesVsErdosRenyi) {
  const auto r = rmat(12, 16, 3);
  const auto er = erdos_renyi(1 << 12, 16, 3);
  // R-MAT hubs dwarf the ER maximum — the property behind the paper's
  // "RMAT is the hardest class" observations (Fig 2, §V-A2).
  EXPECT_GT(max_degree(r), 2 * max_degree(er));
}

TEST(ErdosRenyi, SizeAndNoSelfLoops) {
  const auto el = erdos_renyi(5000, 10, 7);
  EXPECT_EQ(el.n, 5000u);
  EXPECT_TRUE(ids_in_range(el));
  for (const auto& e : el.edges) EXPECT_NE(e.u, e.v);
  const double davg = 2.0 * static_cast<double>(el.edge_count()) / 5000.0;
  EXPECT_NEAR(davg, 10.0, 1.0);
}

TEST(ErdosRenyi, DegreeConcentration) {
  const auto el = erdos_renyi(1 << 13, 16, 9);
  EXPECT_LT(max_degree(el), 64);  // Poisson tail, no hubs
}

TEST(RandHd, AverageDegreeNearTarget) {
  const auto el = rand_hd(20000, 16, 3);
  const double davg = 2.0 * static_cast<double>(el.edge_count()) / 20000.0;
  EXPECT_GT(davg, 10.0);
  EXPECT_LE(davg, 16.5);
}

TEST(RandHd, EdgesAreLocalInIdSpace) {
  const count_t davg = 16;
  const auto el = rand_hd(10000, davg, 5);
  for (const auto& e : el.edges) {
    const auto dist = static_cast<count_t>(
        std::min(e.v - e.u, el.n - (e.v - e.u)));  // ring distance, u<v
    EXPECT_LT(dist, davg);
  }
}

TEST(RandHd, HighDiameterVsErdosRenyi) {
  const gid_t n = 4000;
  const count_t d_hd = serial_diameter_lb(rand_hd(n, 8, 1));
  const count_t d_er = serial_diameter_lb(erdos_renyi(n, 8, 1));
  // The whole point of RandHD (§IV): Θ(n/davg) diameter vs Θ(log n).
  EXPECT_GT(d_hd, 10 * d_er);
}

TEST(Mesh2d, StencilStructure) {
  const auto el = mesh2d(10, 7);
  EXPECT_EQ(el.n, 70u);
  // 5-point stencil: rows*(cols-1) + (rows-1)*cols edges.
  EXPECT_EQ(el.edge_count(), 10 * 6 + 9 * 7);
  EXPECT_LE(max_degree(el), 4);
}

TEST(Mesh3d, StencilStructure) {
  const auto el = mesh3d(5, 4, 3);
  EXPECT_EQ(el.n, 60u);
  EXPECT_EQ(el.edge_count(),
            5 * 4 * 2 + 5 * 3 * 3 + 4 * 3 * 4);  // z, y, x directions
  EXPECT_LE(max_degree(el), 6);
}

TEST(WattsStrogatz, RewiringShrinksDiameter) {
  const count_t d0 = serial_diameter_lb(watts_strogatz(2000, 4, 0.0, 1));
  const count_t d1 = serial_diameter_lb(watts_strogatz(2000, 4, 0.3, 1));
  EXPECT_GT(d0, 4 * d1);
}

TEST(CommunityGraph, SizeRangeDeterminism) {
  const auto a = community_graph(20000, 14, 0.55, 2.3, 8);
  EXPECT_EQ(a.n, 20000u);
  EXPECT_TRUE(ids_in_range(a));
  EXPECT_EQ(a.edges, community_graph(20000, 14, 0.55, 2.3, 8).edges);
  EXPECT_NE(a.edges, community_graph(20000, 14, 0.55, 2.3, 9).edges);
}

TEST(CommunityGraph, PowerLawTail) {
  const auto el = community_graph(30000, 14, 0.55, 2.1, 4);
  const auto deg = degrees(el);
  const double davg = 2.0 * static_cast<double>(el.edge_count()) /
                      static_cast<double>(el.n);
  EXPECT_GT(max_degree(el), static_cast<count_t>(20 * davg));
}

TEST(Webcrawl, DirectedWithHostLocality) {
  const auto el = webcrawl(20000, 16, 6);
  EXPECT_TRUE(el.directed);
  EXPECT_TRUE(ids_in_range(el));
  // Locality: most arcs land within a small id window (same or nearby
  // host in crawl order) — the property that gives block partitions of
  // WDC12 their low cut (Fig 5 discussion).
  count_t local = 0;
  for (const auto& e : el.edges) {
    const gid_t d = e.u > e.v ? e.u - e.v : e.v - e.u;
    if (d < el.n / 16) ++local;
  }
  EXPECT_GT(static_cast<double>(local) / static_cast<double>(el.edge_count()),
            0.45);
}

TEST(Webcrawl, HubsExist) {
  const auto el = webcrawl(30000, 16, 2);
  std::vector<count_t> indeg(el.n, 0);
  for (const auto& e : el.edges) ++indeg[e.v];
  const count_t max_in = *std::max_element(indeg.begin(), indeg.end());
  EXPECT_GT(max_in, 100);  // Zipf-popular pages
}

TEST(Suite, AllEntriesGenerate) {
  for (const auto& entry : suite()) {
    const auto el = make_suite_graph(entry.name, 0.05);
    EXPECT_GE(el.n, 256u) << entry.name;
    EXPECT_GT(el.edge_count(), 0) << entry.name;
    EXPECT_TRUE(ids_in_range(el)) << entry.name;
    EXPECT_FALSE(el.directed) << entry.name;  // suite is symmetrized
  }
}

TEST(Suite, UnknownNameThrows) {
  EXPECT_THROW(make_suite_graph("no_such_graph"), std::out_of_range);
}

TEST(Suite, ClassFilterWorks) {
  const auto meshes = suite(GraphClass::kMesh);
  ASSERT_FALSE(meshes.empty());
  for (const auto& e : meshes) EXPECT_EQ(e.cls, GraphClass::kMesh);
  EXPECT_LT(meshes.size(), suite().size());
}

TEST(Suite, EnvScaleParses) {
  ::setenv("XTRA_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 2.5);
  ::setenv("XTRA_SCALE", "bogus", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
  ::unsetenv("XTRA_SCALE");
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
}

TEST(Suite, ScaleChangesSize) {
  const auto small = make_suite_graph("lj", 0.02);
  const auto large = make_suite_graph("lj", 0.1);
  EXPECT_LT(small.n, large.n);
}


// ---------------------------------------------------------------------------
// Generator golden table: (generator, params, seed) -> FNV-1a of
// (n, directed, edges) and the edge count. Recorded from the
// comparison-sort canonicalization; any change to a generator's draws,
// to graph::canonicalize or to graph::symmetrized that moves one edge
// fails here.

struct GenGoldenRow {
  std::string_view gen;  ///< generator and its parameters
  std::uint64_t seed;    ///< 0 for the seedless meshes
  std::uint64_t hash;
  count_t edges;
};

graph::EdgeList golden_graph(std::string_view gen, std::uint64_t seed) {
  if (gen == "rmat(11,8)") return rmat(11, 8, seed);
  if (gen == "erdos_renyi(3000,8)") return erdos_renyi(3000, 8, seed);
  if (gen == "rand_hd(3000,8)") return rand_hd(3000, 8, seed);
  if (gen == "watts_strogatz(2000,8,0.1)")
    return watts_strogatz(2000, 8, 0.1, seed);
  if (gen == "community_graph(2000,12,0.55,2.3)")
    return community_graph(2000, 12, 0.55, 2.3, seed);
  if (gen == "webcrawl(3000,12)") return webcrawl(3000, 12, seed);
  if (gen == "symmetrized(webcrawl(3000,12))")
    return graph::symmetrized(webcrawl(3000, 12, seed));
  if (gen == "mesh2d(40,50)") return mesh2d(40, 50);
  if (gen == "mesh2d(33,61)") return mesh2d(33, 61);
  if (gen == "mesh3d(12,13,14)") return mesh3d(12, 13, 14);
  if (gen == "mesh3d(9,17,5)") return mesh3d(9, 17, 5);
  if (gen == "make_suite_graph(uk-2002,0.1)")
    return make_suite_graph("uk-2002", 0.1, seed);
  ADD_FAILURE() << "no golden generator " << gen;
  return {};
}

std::uint64_t edge_list_hash(const graph::EdgeList& el) {
  std::uint64_t h = 1469598103934665603ull;
  auto add = [&h](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  add(el.n);
  add(el.directed ? 1 : 0);
  for (const graph::Edge& e : el.edges) {
    add(e.u);
    add(e.v);
  }
  return h;
}

const GenGoldenRow kGenGolden[] = {
    {"rmat(11,8)", 1, 2001838039072046805ull, 6900},
    {"rmat(11,8)", 2, 7067016011926685097ull, 6947},
    {"erdos_renyi(3000,8)", 1, 6940372386605805733ull, 11981},
    {"erdos_renyi(3000,8)", 2, 12734737444489687593ull, 11985},
    {"rand_hd(3000,8)", 1, 17048418028162458651ull, 9342},
    {"rand_hd(3000,8)", 2, 6093663556300577104ull, 9284},
    {"watts_strogatz(2000,8,0.1)", 1, 344497273718243065ull, 7992},
    {"watts_strogatz(2000,8,0.1)", 2, 2356109251772515452ull, 8000},
    {"community_graph(2000,12,0.55,2.3)", 1, 3992480220702420714ull, 10574},
    {"community_graph(2000,12,0.55,2.3)", 2, 7873686659687637404ull, 11785},
    {"webcrawl(3000,12)", 1, 12357886152256072322ull, 24074},
    {"webcrawl(3000,12)", 2, 16517853008701567544ull, 25536},
    {"symmetrized(webcrawl(3000,12))", 1, 5154452115004389638ull, 23600},
    {"symmetrized(webcrawl(3000,12))", 2, 473926371441764975ull, 25002},
    {"mesh2d(40,50)", 0, 10462034596931295299ull, 3910},
    {"mesh2d(33,61)", 0, 16650882665584381847ull, 3932},
    {"mesh3d(12,13,14)", 0, 13829112849960343904ull, 6046},
    {"mesh3d(9,17,5)", 0, 8630123196487492935ull, 2012},
    {"make_suite_graph(uk-2002,0.1)", 1, 17685383243292748127ull, 16480},
    {"make_suite_graph(uk-2002,0.1)", 2, 7687164393365009489ull, 19205},
};

TEST(GenGolden, EdgeListsMatchGoldenTable) {
  for (const GenGoldenRow& row : kGenGolden) {
    const graph::EdgeList el = golden_graph(row.gen, row.seed);
    EXPECT_EQ(edge_list_hash(el), row.hash) << row.gen << " seed=" << row.seed;
    EXPECT_EQ(el.edge_count(), row.edges) << row.gen << " seed=" << row.seed;
  }
}

// chunk_gen.hpp promises that a chunked generator's edge list does not
// depend on the pool width.
TEST(ChunkGen, EdgeListsIndependentOfThreadCount) {
  const auto draw = [](int threads) {
    par::ThreadScope scope(threads);
    return std::vector<graph::EdgeList>{
        rmat(12, 8, 3), erdos_renyi(5000, 8, 3), rand_hd(5000, 8, 3),
        watts_strogatz(5000, 8, 0.1, 3)};
  };
  const std::vector<graph::EdgeList> one = draw(1);
  for (const int threads : {3, 4}) {
    const std::vector<graph::EdgeList> wide = draw(threads);
    ASSERT_EQ(wide.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(wide[i].n, one[i].n) << "generator " << i;
      EXPECT_EQ(wide[i].directed, one[i].directed) << "generator " << i;
      EXPECT_EQ(wide[i].edges, one[i].edges)
          << "generator " << i << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace xtra::gen
