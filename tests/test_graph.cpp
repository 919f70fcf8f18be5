// Tests for the distributed graph layer: distributions, CSR build,
// ghosts, degrees, BFS, stats, and file I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>

#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/dist.hpp"
#include "graph/dist_graph.hpp"
#include "graph/frontier.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "mpisim/comm.hpp"
#include "util/parallel.hpp"

namespace xtra::graph {
namespace {

/// Small fixed graph used throughout: a 6-cycle with one chord.
EdgeList six_cycle_with_chord() {
  EdgeList el;
  el.n = 6;
  el.directed = false;
  el.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}};
  return el;
}

EdgeList path_graph(gid_t n) {
  EdgeList el;
  el.n = n;
  el.directed = false;
  for (gid_t v = 0; v + 1 < n; ++v) el.edges.push_back({v, v + 1});
  return el;
}

// ---------------------------------------------------------------------------
// VertexDist

TEST(VertexDist, BlockCoversAllVerticesOnce) {
  for (int nranks : {1, 2, 3, 5, 7}) {
    const gid_t n = 23;
    const VertexDist d = VertexDist::block(n, nranks);
    std::vector<int> counts(static_cast<std::size_t>(nranks), 0);
    for (gid_t v = 0; v < n; ++v) {
      const int o = d.owner(v);
      ASSERT_GE(o, 0);
      ASSERT_LT(o, nranks);
      ++counts[static_cast<std::size_t>(o)];
    }
    // Block distribution: sizes differ by at most one and are
    // non-increasing in rank.
    for (int r = 0; r + 1 < nranks; ++r) {
      EXPECT_GE(counts[r], counts[r + 1]);
      EXPECT_LE(counts[r] - counts[r + 1], 1);
    }
  }
}

TEST(VertexDist, BlockIsContiguousAndMatchesRange) {
  const gid_t n = 17;
  const int nranks = 4;
  const VertexDist d = VertexDist::block(n, nranks);
  for (int r = 0; r < nranks; ++r) {
    const auto [lo, hi] = d.block_range(r);
    for (gid_t v = lo; v < hi; ++v) EXPECT_EQ(d.owner(v), r);
  }
  EXPECT_EQ(d.block_range(0).first, 0u);
  EXPECT_EQ(d.block_range(nranks - 1).second, n);
}

TEST(VertexDist, RandomIsDeterministicAndBalanced) {
  const gid_t n = 100000;
  const VertexDist d1 = VertexDist::random(n, 8, 3);
  const VertexDist d2 = VertexDist::random(n, 8, 3);
  std::vector<count_t> counts(8, 0);
  for (gid_t v = 0; v < n; ++v) {
    ASSERT_EQ(d1.owner(v), d2.owner(v));
    ++counts[static_cast<std::size_t>(d1.owner(v))];
  }
  for (const count_t c : counts) {
    EXPECT_GT(c, n / 8 * 0.95);
    EXPECT_LT(c, n / 8 * 1.05);
  }
}

TEST(VertexDist, ExplicitMapReturnsGivenOwners) {
  auto owners = std::make_shared<std::vector<int>>(
      std::vector<int>{2, 0, 1, 1, 2});
  const VertexDist d = VertexDist::explicit_map(5, 3, owners);
  EXPECT_EQ(d.owner(0), 2);
  EXPECT_EQ(d.owner(1), 0);
  EXPECT_EQ(d.owner(3), 1);
  EXPECT_EQ(d.owner(4), 2);
}

// ---------------------------------------------------------------------------
// EdgeList helpers

TEST(EdgeList, CanonicalizeDropsLoopsAndDupes) {
  EdgeList el;
  el.n = 4;
  el.edges = {{1, 0}, {0, 1}, {2, 2}, {3, 1}, {1, 3}};
  canonicalize(el);
  EXPECT_EQ(el.edges, (std::vector<Edge>{{0, 1}, {1, 3}}));
}

TEST(EdgeList, SymmetrizedMergesDirections) {
  EdgeList el;
  el.n = 3;
  el.directed = true;
  el.edges = {{0, 1}, {1, 0}, {2, 1}, {2, 2}};
  const EdgeList u = symmetrized(el);
  EXPECT_FALSE(u.directed);
  EXPECT_EQ(u.edges, (std::vector<Edge>{{0, 1}, {1, 2}}));
}

TEST(EdgeList, OutOfRangeIdsThrowBeforeAnyWrite) {
  for (const bool directed : {false, true}) {
    EdgeList el;
    el.n = 4;
    el.directed = directed;
    el.edges = {{3, 1}, {1, 3}, {2, 2}, {0, 4}, {1, 0}};
    const std::vector<Edge> before = el.edges;
    EXPECT_THROW(canonicalize(el), std::invalid_argument) << directed;
    EXPECT_EQ(el.edges, before) << directed;
    EXPECT_THROW((void)symmetrized(el), std::invalid_argument) << directed;
    el.edges = {{4, 0}};
    EXPECT_THROW(canonicalize(el), std::invalid_argument) << directed;
    EXPECT_THROW((void)symmetrized(el), std::invalid_argument) << directed;
  }
}

/// The comparison-sort canonicalization that graph::canonicalize and
/// graph::symmetrized must reproduce byte for byte.
std::vector<Edge> sort_unique_reference(std::vector<Edge> e, bool directed) {
  if (!directed)
    for (Edge& x : e)
      if (x.u > x.v) std::swap(x.u, x.v);
  std::erase_if(e, [](const Edge& x) { return x.u == x.v; });
  std::sort(e.begin(), e.end());
  e.erase(std::unique(e.begin(), e.end()), e.end());
  return e;
}

/// `m` random edges over [0, n) with loops and repeats in both
/// orientations; ids n - 1 appear whenever n > 1.
EdgeList random_messy_list(gid_t n, std::size_t m, bool directed,
                           std::uint64_t seed) {
  EdgeList el;
  el.n = n;
  el.directed = directed;
  std::uint64_t s = seed;
  auto next = [&s, n] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return (s >> 17) % n;
  };
  for (std::size_t i = 0; i < m; ++i) {
    const gid_t u = i % 11 == 0 ? n - 1 : next();
    const gid_t v = i % 13 == 0 ? u : next();
    el.edges.push_back({u, v});
    if (i % 5 == 0) el.edges.push_back({v, u});
    if (i % 7 == 0) el.edges.push_back({u, v});
  }
  return el;
}

void expect_matches_reference(const EdgeList& el, const std::string& what) {
  EdgeList c = el;
  canonicalize(c);
  EXPECT_EQ(c.n, el.n) << what;
  EXPECT_EQ(c.directed, el.directed) << what;
  EXPECT_EQ(c.edges, sort_unique_reference(el.edges, el.directed)) << what;
  const EdgeList s = symmetrized(el);
  EXPECT_EQ(s.n, el.n) << what;
  EXPECT_FALSE(s.directed) << what;
  EXPECT_EQ(s.edges, sort_unique_reference(el.edges, false)) << what;
}

TEST(EdgeList, CanonicalizeMatchesSortUniqueReference) {
  for (const bool directed : {false, true}) {
    const std::string dir = directed ? " directed" : " undirected";
    for (const gid_t n : {gid_t{2}, gid_t{17}, gid_t{300}, gid_t{5000}}) {
      for (const std::size_t m : {std::size_t{1}, std::size_t{40},
                                  std::size_t{3000}}) {
        for (const std::uint64_t seed : {1, 2}) {
          expect_matches_reference(
              random_messy_list(n, m, directed, seed),
              "n=" + std::to_string(n) + " m=" + std::to_string(m) +
                  " seed=" + std::to_string(seed) + dir);
        }
      }
    }
    EdgeList empty;
    empty.n = 10;
    empty.directed = directed;
    expect_matches_reference(empty, "empty" + dir);
    EdgeList one = empty;
    one.edges = {{9, 3}};
    expect_matches_reference(one, "one edge" + dir);
    one.edges = {{9, 9}};
    expect_matches_reference(one, "one loop" + dir);
    // One hub whose bucket holds every edge, with repeats.
    EdgeList star = empty;
    star.n = 2000;
    for (gid_t v = 0; v < 4000; ++v)
      star.edges.push_back({1999, (v * 7919) % 2000});
    expect_matches_reference(star, "star at n-1" + dir);
  }
}

TEST(EdgeList, CanonicalizeSparseIdRange) {
  // 2^40 ids and 5 edges take the comparison-sort fallback. Anything
  // sized by n here (8 TB per 64-bit word) would fail to allocate.
  for (const bool directed : {false, true}) {
    EdgeList el;
    el.n = gid_t{1} << 40;
    el.directed = directed;
    const gid_t top = el.n - 1;
    el.edges = {{top, 5}, {5, top}, {7, 7}, {gid_t{1} << 35, 0}, {top, 5}};
    expect_matches_reference(el, directed ? "sparse directed" : "sparse");
  }
}

// ---------------------------------------------------------------------------
// DistGraph build

class DistGraphRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, DistGraphRanks, ::testing::Values(1, 2, 3, 4),
                         [](const auto& inf) {
                           return "nranks_" + std::to_string(inf.param);
                         });

TEST_P(DistGraphRanks, ShapeAndDegreesMatchSerial) {
  const int nranks = GetParam();
  const EdgeList el = six_cycle_with_chord();
  // Serial reference degrees.
  std::vector<count_t> ref_deg(el.n, 0);
  for (const Edge& e : el.edges) {
    ++ref_deg[e.u];
    ++ref_deg[e.v];
  }
  for (const auto kind : {VertexDist::Kind::kBlock, VertexDist::Kind::kRandom}) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const VertexDist dist = kind == VertexDist::Kind::kBlock
                                  ? VertexDist::block(el.n, nranks)
                                  : VertexDist::random(el.n, nranks);
      const DistGraph g = build_dist_graph(comm, el, dist);
      EXPECT_EQ(g.n_global(), el.n);
      EXPECT_EQ(g.m_global(), static_cast<count_t>(el.edges.size()));
      const count_t n_local_sum = comm.allreduce_sum(
          static_cast<count_t>(g.n_local()));
      EXPECT_EQ(n_local_sum, static_cast<count_t>(el.n));
      for (lid_t v = 0; v < g.n_local(); ++v) {
        EXPECT_EQ(g.degree(v), ref_deg[g.gid_of(v)]);
        EXPECT_EQ(g.out_degree(v), ref_deg[g.gid_of(v)]);
      }
      // Ghost degrees must equal the owner's.
      for (lid_t v = g.n_local(); v < g.n_total(); ++v)
        EXPECT_EQ(g.degree(v), ref_deg[g.gid_of(v)]);
    });
  }
}

TEST_P(DistGraphRanks, AdjacencyMatchesSerialNeighborSets) {
  const int nranks = GetParam();
  const EdgeList el = six_cycle_with_chord();
  std::map<gid_t, std::set<gid_t>> ref;
  for (const Edge& e : el.edges) {
    ref[e.u].insert(e.v);
    ref[e.v].insert(e.u);
  }
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 5));
    for (lid_t v = 0; v < g.n_local(); ++v) {
      std::set<gid_t> got;
      for (const lid_t u : g.arcs(v)) got.insert(g.gid_of(u));
      EXPECT_EQ(got, ref[g.gid_of(v)]) << "vertex " << g.gid_of(v);
    }
  });
}

TEST_P(DistGraphRanks, GhostsAreExactlyRemoteNeighbors) {
  const int nranks = GetParam();
  const EdgeList el = six_cycle_with_chord();
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    std::set<gid_t> expected_ghosts;
    for (lid_t v = 0; v < g.n_local(); ++v)
      for (const lid_t u : g.arcs(v))
        if (!g.is_owned(u)) expected_ghosts.insert(g.gid_of(u));
    std::set<gid_t> actual_ghosts;
    for (lid_t v = g.n_local(); v < g.n_total(); ++v) {
      actual_ghosts.insert(g.gid_of(v));
      EXPECT_NE(g.owner_of(v), comm.rank());
    }
    EXPECT_EQ(actual_ghosts, expected_ghosts);
  });
}

TEST_P(DistGraphRanks, LidGidRoundTrip) {
  const int nranks = GetParam();
  const EdgeList el = six_cycle_with_chord();
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 9));
    for (lid_t v = 0; v < g.n_total(); ++v)
      EXPECT_EQ(g.lid_of(g.gid_of(v)), v);
    // A gid not present locally must be reported absent; find one.
    for (gid_t missing = 0; missing < el.n; ++missing) {
      bool present = false;
      for (lid_t v = 0; v < g.n_total(); ++v)
        if (g.gid_of(v) == missing) present = true;
      if (!present) {
        EXPECT_EQ(g.lid_of(missing), kInvalidLid);
      }
    }
  });
}

TEST_P(DistGraphRanks, SelfLoopsDropped) {
  const int nranks = GetParam();
  EdgeList el;
  el.n = 4;
  el.edges = {{0, 0}, {0, 1}, {1, 1}, {2, 3}};
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    EXPECT_EQ(g.m_global(), 2);
  });
}

TEST_P(DistGraphRanks, DirectedBuildSeparatesInAndOut) {
  const int nranks = GetParam();
  EdgeList el;
  el.n = 4;
  el.directed = true;
  el.edges = {{0, 1}, {1, 2}, {2, 0}, {3, 0}};
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    EXPECT_TRUE(g.directed());
    EXPECT_EQ(g.m_global(), 4);
    for (lid_t v = 0; v < g.n_local(); ++v) {
      const gid_t gid = g.gid_of(v);
      std::set<gid_t> outs, ins;
      for (const lid_t u : g.arcs(v)) outs.insert(g.gid_of(u));
      for (const lid_t u : g.in_arcs(v)) ins.insert(g.gid_of(u));
      if (gid == 0) {
        EXPECT_EQ(outs, (std::set<gid_t>{1}));
        EXPECT_EQ(ins, (std::set<gid_t>{2, 3}));
        EXPECT_EQ(g.degree(v), 3);
      }
      if (gid == 3) {
        EXPECT_EQ(outs, (std::set<gid_t>{0}));
        EXPECT_TRUE(ins.empty());
      }
    }
  });
}

TEST(DistGraphEdge, MoreRanksThanVertices) {
  EdgeList el;
  el.n = 2;
  el.edges = {{0, 1}};
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(2, 4));
    EXPECT_EQ(comm.allreduce_sum(static_cast<count_t>(g.n_local())), 2);
    EXPECT_EQ(g.m_global(), 1);
  });
}

TEST(DistGraphEdge, EmptyGraphNoEdges) {
  EdgeList el;
  el.n = 5;
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(5, 2));
    EXPECT_EQ(g.m_global(), 0);
    EXPECT_EQ(g.n_ghost(), 0u);
  });
}

// A map over fewer vertices than the edge list names would send arcs
// to no owner (or read past an explicit owner table). Every rank sees
// the same list and map, so every rank throws before any collective.
TEST(DistGraphEdge, UndersizedDistThrows) {
  const EdgeList el = path_graph(100);
  const std::vector<VertexDist> maps{
      VertexDist::explicit_map(
          50, 2, std::make_shared<const std::vector<int>>(50, 1)),
      VertexDist::random(50, 2), VertexDist::block(50, 2)};
  for (const VertexDist& dist : maps) {
    EXPECT_THROW(sim::run_world(2,
                                [&](sim::Comm& comm) {
                                  (void)build_dist_graph(comm, el, dist);
                                }),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Layout golden table: the per-rank lid order, CSR offsets, arc order,
// degrees and toSend ranks. Partition labels depend on arc and ghost
// order (argmax ties follow first-touched parts), so this pins the
// build's layout independently of the lid width.

struct LayoutKey {
  std::string_view gen;
  int ranks;
  VertexDist::Kind kind;
  bool directed;
  bool operator<(const LayoutKey& rhs) const {
    return std::tie(gen, ranks, kind, directed) <
           std::tie(rhs.gen, rhs.ranks, rhs.kind, rhs.directed);
  }
};

struct LayoutHash {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

/// Hash of one rank's layout: every lid's gid, the offsets, every
/// arc's and in-arc's gid, the degrees and the toSend ranks.
std::uint64_t layout_hash(const DistGraph& g) {
  LayoutHash h;
  h.add(g.n_local());
  h.add(g.n_ghost());
  for (lid_t l = 0; l < g.n_total(); ++l) h.add(g.gid_of(l));
  for (lid_t v = 0; v <= g.n_local(); ++v)
    h.add(static_cast<std::uint64_t>(g.arc_begin(v)));
  for (lid_t v = 0; v < g.n_local(); ++v) {
    h.add(static_cast<std::uint64_t>(g.in_degree(v)));
    for (const lid_t u : g.arcs(v)) h.add(g.gid_of(u));
    for (const lid_t u : g.in_arcs(v)) h.add(g.gid_of(u));
  }
  for (lid_t l = 0; l < g.n_total(); ++l)
    h.add(static_cast<std::uint64_t>(g.degree(l)));
  for (lid_t v = 0; v < g.n_local(); ++v) {
    h.add(g.send_ranks(v).size());
    for (const int r : g.send_ranks(v)) h.add(static_cast<std::uint64_t>(r));
  }
  return h.h;
}

/// Deterministic edge list with self-loops and duplicate edges.
EdgeList loops_and_duplicates(bool directed) {
  EdgeList el;
  el.n = 300;
  el.directed = directed;
  std::uint64_t s = 7;
  for (int i = 0; i < 2400; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const gid_t u = (s >> 33) % el.n;
    const gid_t v = i % 9 == 0 ? u : (s >> 17) % el.n;
    el.edges.push_back({u, v});
    if (i % 7 == 0) el.edges.push_back({u, v});
  }
  return el;
}

EdgeList layout_graph(std::string_view gen, bool directed) {
  if (gen == "rander") return gen::erdos_renyi(3000, 8, 31);
  if (gen == "rmat") return gen::rmat(11, 8, 31);
  if (gen == "webcrawl") return gen::webcrawl(3000, 8, 31);
  return loops_and_duplicates(directed);
}

VertexDist layout_dist(VertexDist::Kind kind, gid_t n, int ranks) {
  switch (kind) {
    case VertexDist::Kind::kBlock:
      return VertexDist::block(n, ranks);
    case VertexDist::Kind::kRandom:
      return VertexDist::random(n, ranks, 31);
    case VertexDist::Kind::kExplicit:
      break;
  }
  // A redistribution-shaped map: runs of vertices hop between ranks.
  auto owners = std::make_shared<std::vector<int>>(n);
  for (gid_t v = 0; v < n; ++v)
    (*owners)[v] = static_cast<int>((v / 13 + v % 5) % ranks);
  return VertexDist::explicit_map(n, ranks, std::move(owners));
}

using namespace std::literals::string_view_literals;
constexpr auto kBlock = VertexDist::Kind::kBlock;
constexpr auto kRandom = VertexDist::Kind::kRandom;
constexpr auto kExplicit = VertexDist::Kind::kExplicit;
const std::map<LayoutKey, std::uint64_t> kLayoutGolden{
    {{"loops"sv, 3, kRandom, false}, 7015003640491943727ull},
    {{"loops"sv, 4, kExplicit, false}, 10655614733117784931ull},
    {{"loops"sv, 2, kBlock, true}, 12890065020998146149ull},
    {{"rander"sv, 3, kBlock, false}, 5713660130473441777ull},
    {{"rander"sv, 4, kRandom, false}, 5379121497306808548ull},
    {{"rmat"sv, 1, kBlock, false}, 11158754457974684613ull},
    {{"rmat"sv, 4, kRandom, false}, 577289335552135301ull},
    {{"webcrawl"sv, 3, kRandom, true}, 3638522112085590691ull},
    {{"webcrawl"sv, 4, kBlock, true}, 17797369141894686528ull},
    {{"webcrawl"sv, 4, kExplicit, true}, 10117982234818741689ull},
};

TEST(DistGraphGolden, LayoutMatchesGoldenTable) {
  for (const auto& [key, want] : kLayoutGolden) {
    const EdgeList el = layout_graph(key.gen, key.directed);
    ASSERT_EQ(el.directed, key.directed) << key.gen;
    const VertexDist dist = layout_dist(key.kind, el.n, key.ranks);
    const std::vector<std::uint64_t> per_rank =
        sim::run_world_collect<std::uint64_t>(
            key.ranks, [&](sim::Comm& comm) {
              return layout_hash(build_dist_graph(comm, el, dist));
            });
    LayoutHash h;
    for (const std::uint64_t r : per_rank) h.add(r);
    EXPECT_EQ(h.h, want) << key.gen << " ranks=" << key.ranks
                         << " kind=" << static_cast<int>(key.kind)
                         << " directed=" << key.directed;
  }
}

// Every toSend entry's slot is the receiving rank's ghost lid of the
// vertex, checked against gid -> lid tables rebuilt from each rank's
// lid_to_gid() rather than from the build's own bookkeeping. The slots
// stay out of layout_hash, so DistGraphGolden pins the layout as before.
TEST(DistGraph, SendSlotsNameTheReceiversGhost) {
  const std::pair<std::string_view, bool> graphs[] = {
      {"rander"sv, false}, {"webcrawl"sv, true},
      {"loops"sv, false}, {"loops"sv, true}};
  for (const auto& [gen, directed] : graphs) {
    const EdgeList el = layout_graph(gen, directed);
    for (const int ranks : {1, 2, 3, 4, 8}) {
      for (const auto kind : {kRandom, kBlock, kExplicit}) {
        const VertexDist dist = layout_dist(kind, el.n, ranks);
        sim::run_world(ranks, [&](sim::Comm& comm) {
          const DistGraph g = build_dist_graph(comm, el, dist);
          const std::vector<gid_t> all = comm.allgatherv(g.lid_to_gid());
          const std::vector<lid_t> n_local =
              comm.allgatherv(std::vector<lid_t>{g.n_local()});
          const std::vector<lid_t> n_total =
              comm.allgatherv(std::vector<lid_t>{g.n_total()});
          // lid_of[r][gid]: the lid rank r gave gid, if any.
          std::vector<std::vector<lid_t>> lid_of(
              static_cast<std::size_t>(ranks),
              std::vector<lid_t>(el.n, kInvalidLid));
          std::size_t at = 0;
          for (std::size_t r = 0; r < lid_of.size(); ++r)
            for (lid_t l = 0; l < n_total[r]; ++l) lid_of[r][all[at++]] = l;
          for (lid_t v = 0; v < g.n_local(); ++v) {
            const auto send_ranks = g.send_ranks(v);
            const auto send_slots = g.send_slots(v);
            ASSERT_EQ(send_slots.size(), send_ranks.size());
            for (std::size_t k = 0; k < send_ranks.size(); ++k) {
              const auto r = static_cast<std::size_t>(send_ranks[k]);
              const lid_t slot = send_slots[k];
              ASSERT_NE(slot, kInvalidLid)
                  << gen << " ranks=" << ranks << " gid=" << g.gid_of(v);
              EXPECT_EQ(lid_of[r][g.gid_of(v)], slot)
                  << gen << " ranks=" << ranks << " gid=" << g.gid_of(v);
              EXPECT_GE(slot, n_local[r]) << "slot is an owned lid there";
              EXPECT_LT(slot, n_total[r]);
            }
          }
        });
      }
    }
  }
}

// ---------------------------------------------------------------------------
// BFS and stats

TEST_P(DistGraphRanks, BfsLevelsOnPathGraph) {
  const int nranks = GetParam();
  const EdgeList el = path_graph(12);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 2));
    std::vector<count_t> levels;
    const count_t ecc = bfs_levels(comm, g, 0, levels);
    EXPECT_EQ(ecc, 11);
    for (lid_t v = 0; v < g.n_local(); ++v)
      EXPECT_EQ(levels[v], static_cast<count_t>(g.gid_of(v)));
  });
}

TEST_P(DistGraphRanks, BfsUnreachableStaysUnreached) {
  const int nranks = GetParam();
  EdgeList el;
  el.n = 5;
  el.edges = {{0, 1}, {1, 2}};  // 3, 4 disconnected
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    std::vector<count_t> levels;
    const count_t ecc = bfs_levels(comm, g, 0, levels);
    EXPECT_EQ(ecc, 2);
    for (lid_t v = 0; v < g.n_local(); ++v) {
      if (g.gid_of(v) >= 3) {
        EXPECT_EQ(levels[v], kUnreached);
      }
    }
  });
}

TEST_P(DistGraphRanks, DiameterOfPathIsExact) {
  const int nranks = GetParam();
  const EdgeList el = path_graph(20);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, nranks));
    // Iterated BFS converges to the true diameter on a path.
    EXPECT_EQ(estimate_diameter(comm, g, 4, 10), 19);
  });
}

TEST_P(DistGraphRanks, StatsMatchHandComputed) {
  const int nranks = GetParam();
  const EdgeList el = six_cycle_with_chord();
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 4));
    const GraphStats s = compute_stats(comm, g, 5);
    EXPECT_EQ(s.n, 6u);
    EXPECT_EQ(s.m, 7);
    EXPECT_EQ(s.max_degree, 3);  // vertices 0 and 3 have the chord
    EXPECT_NEAR(s.avg_degree, 14.0 / 6.0, 1e-12);
    EXPECT_GE(s.approx_diameter, 2);
    EXPECT_LE(s.approx_diameter, 3);
  });
}

// ---------------------------------------------------------------------------
// MaskFrontierStepper: release / re-seed and the scanned-edge count

/// (ranks, threads): the stepper's scan runs on the rank's pool, so
/// both widths must give the same reach and the same counts.
class MaskStepperGrid
    : public ::testing::TestWithParam<std::tuple<int, int>> {};
INSTANTIATE_TEST_SUITE_P(
    RanksThreads, MaskStepperGrid,
    ::testing::Combine(::testing::Values(1, 4), ::testing::Values(1, 4)),
    [](const auto& inf) {
      return "r" + std::to_string(std::get<0>(inf.param)) + "_t" +
             std::to_string(std::get<1>(inf.param));
    });

/// Big enough that a level's frontier spans several pool chunks.
EdgeList mask_stepper_graph() { return gen::erdos_renyi(12'000, 6, 21); }

/// Seeds source s at gid `root` on its owner; false elsewhere.
bool seed_gid(MaskFrontierStepper<MaskGid>& st, sim::Comm& comm,
              const DistGraph& g, gid_t root, count_t s) {
  if (g.owner_of_gid(root) != comm.rank()) return false;
  return st.seed(g.lid_of(root), s);
}

TEST_P(MaskStepperGrid, ReleasedSourceReseedsLikeAFreshTraversal) {
  const auto [nranks, threads] = GetParam();
  const EdgeList el = mask_stepper_graph();
  constexpr gid_t kFirst = 5, kOther = 77, kReseed = 1234;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    par::ThreadScope scope(threads);
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 3));
    const auto owned_bit = [&](const MaskFrontierStepper<MaskGid>& st,
                               lid_t l, count_t s) {
      return (st.gained(l)[0] >> s) & 1;
    };

    // Two sources; source 0 runs two levels, is released and re-seeded
    // at kReseed while source 1 keeps going.
    MaskFrontierStepper<MaskGid> st;
    st.reset(g, 2);
    seed_gid(st, comm, g, kFirst, 0);
    seed_gid(st, comm, g, kOther, 1);
    std::vector<count_t> lv0(g.n_local(), kUnreached);
    std::vector<count_t> lv1(g.n_local(), kUnreached);
    if (g.owner_of_gid(kOther) == comm.rank()) lv1[g.lid_of(kOther)] = 0;
    count_t level = 0;      // levels source 1 has run
    count_t reseeded = -1;  // level at which source 0 restarted
    const auto step = [&] {
      st.step(comm, g, [&](lid_t v) { return g.arcs(v); },
              [&](std::span<const lid_t> owned, std::span<const lid_t>) {
                for (const lid_t l : owned) {
                  if (reseeded >= 0 && owned_bit(st, l, 0))
                    lv0[l] = level + 1 - reseeded;
                  if (owned_bit(st, l, 1)) lv1[l] = level + 1;
                }
              });
      ++level;
    };
    step();
    step();
    st.release(0);
    reseeded = level;
    if (seed_gid(st, comm, g, kReseed, 0)) lv0[g.lid_of(kReseed)] = 0;
    while (comm.allreduce_or(!st.frontier_empty())) step();

    std::vector<count_t> ref;
    bfs_levels(comm, g, kReseed, ref);
    for (lid_t l = 0; l < g.n_local(); ++l)
      ASSERT_EQ(lv0[l], ref[l]) << "gid " << g.gid_of(l);
    bfs_levels(comm, g, kOther, ref);
    for (lid_t l = 0; l < g.n_local(); ++l)
      ASSERT_EQ(lv1[l], ref[l]) << "gid " << g.gid_of(l);

    // Releasing a frontier's only source empties it on every rank.
    MaskFrontierStepper<MaskGid> one;
    one.reset(g, 1);
    seed_gid(one, comm, g, kFirst, 0);
    one.step(comm, g, [&](lid_t v) { return g.arcs(v); },
             [](std::span<const lid_t>, std::span<const lid_t>) {});
    one.release(0);
    EXPECT_FALSE(comm.allreduce_or(!one.frontier_empty()));
  });
}

TEST_P(MaskStepperGrid, OneSourceScannedEdgesAreTheFrontierDegreeSum) {
  // A one-source step visits each frontier vertex's adjacency once,
  // exactly the neighbour entries a one-traversal FrontierStepper
  // (bfs_levels) expands at that level.
  const auto [nranks, threads] = GetParam();
  const EdgeList el = mask_stepper_graph();
  constexpr gid_t kRoot = 42;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    par::ThreadScope scope(threads);
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 3));
    std::vector<count_t> ref;
    bfs_levels(comm, g, kRoot, ref);
    MaskFrontierStepper<MaskGid> st;
    st.reset(g, 1);
    seed_gid(st, comm, g, kRoot, 0);
    count_t level = 0;
    count_t total = 0;
    while (comm.allreduce_or(!st.frontier_empty())) {
      st.step(comm, g, [&](lid_t v) { return g.arcs(v); },
              [](std::span<const lid_t>, std::span<const lid_t>) {});
      count_t expected = 0;
      for (lid_t l = 0; l < g.n_local(); ++l)
        if (ref[l] == level) expected += g.degree(l);
      EXPECT_EQ(st.scanned_edges(), expected) << "level " << level;
      total += st.scanned_edges();
      ++level;
    }
    EXPECT_GT(comm.allreduce_sum(total), 0);
  });
}

// ---------------------------------------------------------------------------
// I/O

TEST(GraphIo, TextRoundTrip) {
  EdgeList el = six_cycle_with_chord();
  const std::string path = ::testing::TempDir() + "/xtra_el.txt";
  write_edge_list_text(path, el);
  const EdgeList back = read_edge_list_text(path);
  EXPECT_EQ(back.n, el.n);
  EXPECT_EQ(back.directed, el.directed);
  EXPECT_EQ(back.edges, el.edges);
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryRoundTrip) {
  EdgeList el = six_cycle_with_chord();
  el.directed = true;
  const std::string path = ::testing::TempDir() + "/xtra_el.bin";
  write_edge_list_binary(path, el);
  const EdgeList back = read_edge_list_binary(path);
  EXPECT_EQ(back.n, el.n);
  EXPECT_TRUE(back.directed);
  EXPECT_EQ(back.edges, el.edges);
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_text("/nonexistent/xtra.txt"),
               std::runtime_error);
  EXPECT_THROW(read_edge_list_binary("/nonexistent/xtra.bin"),
               std::runtime_error);
}

TEST(GraphIo, CorruptHeaderThrows) {
  const std::string path = ::testing::TempDir() + "/xtra_bad.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage header\n", f);
  std::fclose(f);
  EXPECT_THROW(read_edge_list_text(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GraphIo, OutOfRangeVertexThrows) {
  const std::string path = ::testing::TempDir() + "/xtra_oor.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("n 3 undirected\n0 7\n", f);
  std::fclose(f);
  EXPECT_THROW(read_edge_list_text(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xtra::graph
