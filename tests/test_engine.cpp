// Tests for the unified vertex-program engine (src/engine/): the
// wrapper-vs-engine bit-identity matrix across the transport knobs
// ({pipeline depth 0, 1, 2} x {coalesce 0, 1, 3}), the two
// engine-native workloads against serial oracles (delta-capped SSSP vs
// Dijkstra, approximate triangle count vs an exact serial count), and
// the Stats/Config
// plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <queue>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "analytics/analytics.hpp"
#include "analytics/programs.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"

namespace xtra::analytics {
namespace {

using graph::DistGraph;
using graph::EdgeList;
using graph::VertexDist;

/// Gather a per-vertex result into gid order on every rank's view.
template <typename T>
std::vector<T> by_gid(sim::Comm& comm, const DistGraph& g,
                      const std::vector<T>& vals) {
  std::vector<T> global(g.n_global(), T{});
  for (lid_t v = 0; v < g.n_local(); ++v) global[g.gid_of(v)] = vals[v];
  comm.allreduce_max(global);
  return global;
}

/// The knob matrix: every transport configuration the engine must
/// drive every kernel through. Pipeline depth and coalescing are
/// exclusive staleness regimes, so the matrix sweeps depth {0, 1, 2}
/// at coalesce 0 and coalesce {1, 3} at depth 0.
std::vector<engine::Config> knob_matrix() {
  std::vector<engine::Config> cfgs;
  for (const int depth : {0, 1, 2}) {
    engine::Config cfg;
    cfg.pipeline_depth = depth;
    cfgs.push_back(cfg);
  }
  for (const int coalesce : {1, 3}) {
    engine::Config cfg;
    cfg.coalesce_every = coalesce;
    cfgs.push_back(cfg);
  }
  return cfgs;
}

std::string cfg_name(const engine::Config& cfg) {
  return std::string("d")
      .append(std::to_string(cfg.pipeline_depth))
      .append("/c")
      .append(std::to_string(cfg.coalesce_every));
}

// ---------------------------------------------------------------------------
// Wrapper-vs-engine bit-identity across the knob matrix. WCC and
// k-core contract to unique fixpoints (min label, exact coreness), so
// every cell must reproduce the default-knob wrapper bit for bit.

TEST(EngineMatrix, WccBitIdenticalAcrossAllKnobs) {
  const EdgeList el = gen::community_graph(2'000, 10, 0.7, 2.3, 5);
  std::vector<gid_t> ref;
  count_t ref_num = 0, ref_largest = 0;
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
    const ComponentsResult r = weakly_connected_components(comm, g);
    const auto global = by_gid(comm, g, r.component);
    if (comm.rank() == 0) {
      ref = global;
      ref_num = r.num_components;
      ref_largest = r.largest_size;
    }
  });
  for (const engine::Config& cfg : knob_matrix()) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
      WccProgram p;
      engine::run(comm, g, p, cfg);
      const auto global = by_gid(comm, g, p.component);
      if (comm.rank() == 0) {
        EXPECT_EQ(global, ref) << cfg_name(cfg);
        EXPECT_EQ(p.num_components, ref_num) << cfg_name(cfg);
        EXPECT_EQ(p.largest_size, ref_largest) << cfg_name(cfg);
      }
    });
  }
}

TEST(EngineMatrix, KCoreBitIdenticalAcrossAllKnobs) {
  const EdgeList el = gen::erdos_renyi(1'500, 10, 7);
  std::vector<count_t> ref;
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 5));
    const KCoreResult r = kcore_approx(comm, g, 40);
    const auto global = by_gid(comm, g, r.core);
    if (comm.rank() == 0) ref = global;
  });
  for (const engine::Config& cfg : knob_matrix()) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 4, 5));
      KCoreProgram p;
      engine::Config run_cfg = cfg;
      run_cfg.max_supersteps = 40;
      engine::run(comm, g, p, run_cfg);
      const auto global = by_gid(comm, g, p.core);
      if (comm.rank() == 0) {
        EXPECT_EQ(global, ref) << cfg_name(cfg);
      }
    });
  }
}

// Community LP's majority vote is trajectory-dependent: only the
// staleness-free cells (depth 0, coalesce <= 1) are bit-identical to
// the wrapper; the stale cells must still converge to a valid
// labeling on a planted-community graph.
TEST(EngineMatrix, CommLpDepth0AndCoalesce1BitIdentical) {
  EdgeList el;
  el.n = 40;
  for (gid_t base : {gid_t{0}, gid_t{20}})
    for (gid_t a = base; a < base + 20; ++a)
      for (gid_t b = a + 1; b < base + 20; ++b) el.edges.push_back({a, b});
  el.edges.push_back({5, 25});  // single bridge
  std::vector<gid_t> ref;
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 4));
    const CommunityResult r = label_propagation(comm, g, 10);
    const auto global = by_gid(comm, g, r.label);
    if (comm.rank() == 0) ref = global;
  });
  for (const engine::Config& cfg : knob_matrix()) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 4, 4));
      CommLpProgram p;
      engine::Config run_cfg = cfg;
      run_cfg.max_supersteps = 10;
      engine::run(comm, g, p, run_cfg);
      const bool exact =
          cfg.pipeline_depth == 0 && cfg.coalesce_every <= 1;
      const auto global = by_gid(comm, g, p.label);
      if (comm.rank() == 0 && exact) {
        EXPECT_EQ(global, ref) << cfg_name(cfg);
      }
      // Stale or not, the planted communities must be recovered.
      EXPECT_EQ(p.num_communities, 2) << cfg_name(cfg);
      for (lid_t v = 0; v < g.n_local(); ++v)
        EXPECT_EQ(p.label[v], g.gid_of(v) < 20 ? 0u : 20u)
            << cfg_name(cfg);
    });
  }
}

// PageRank is fixed-iteration: the transport knobs that preserve the
// read schedule (chunk size, depth 0) are bit-identical; a
// depth-1 run reads one-superstep-stale ghost contributions but must
// still conserve mass.
TEST(EngineMatrix, PageRankChunkBitIdentical) {
  const EdgeList el = gen::erdos_renyi(1'000, 8, 11);
  std::vector<double> ref;
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
    const PageRankResult r = pagerank(comm, g, 12);
    std::vector<double> global(g.n_global(), 0.0);
    for (lid_t v = 0; v < g.n_local(); ++v)
      global[g.gid_of(v)] = r.rank[v];
    comm.allreduce_max(global);
    if (comm.rank() == 0) ref = global;
  });
  for (const count_t chunk : {count_t{0}, count_t{1} << 10}) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
      PageRankProgram p;
      engine::Config cfg;
      cfg.max_supersteps = 12;
      cfg.max_exchange_bytes = chunk;
      engine::run(comm, g, p, cfg);
      std::vector<double> global(g.n_global(), 0.0);
      for (lid_t v = 0; v < g.n_local(); ++v)
        global[g.gid_of(v)] = p.rank[v];
      comm.allreduce_max(global);
      if (comm.rank() == 0) {
        EXPECT_EQ(global, ref);
      }
      EXPECT_NEAR(p.sum, 1.0, 1e-9);
    });
  }
  // Depth 1: stale-but-contracting — run to residual convergence,
  // where the one-superstep ghost lag has washed out and mass is
  // conserved (mid-run iterates are not mass-conserving by design).
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
    PageRankProgram p;
    engine::Config cfg;
    cfg.max_supersteps = 400;
    cfg.pipeline_depth = 1;
    cfg.tol = 1e-10;
    const engine::Stats st = engine::run(comm, g, p, cfg);
    EXPECT_NEAR(p.sum, 1.0, 1e-8);
    EXPECT_LT(st.supersteps, 400);  // the residual stop engaged
  });
}

// The harmonic/SCC knob-plumbing gap: the Config overloads must
// produce identical results under any chunk size.
TEST(EngineMatrix, HarmonicAndSccIdenticalUnderAnyChunk) {
  const EdgeList directed = gen::webcrawl(2'000, 10, 3);
  for (const count_t chunk : {count_t{0}, count_t{64}}) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g = build_dist_graph(
          comm, directed, VertexDist::random(directed.n, 4, 3));
      engine::Config cfg;
      cfg.max_exchange_bytes = chunk;
      const HarmonicResult flat_h = harmonic_centrality(comm, g, 4, 9);
      const HarmonicResult h = harmonic_centrality(comm, g, 4, 9, cfg);
      EXPECT_EQ(h.centrality, flat_h.centrality);
      const SccResult flat_s = largest_scc(comm, g);
      const SccResult s = largest_scc(comm, g, cfg);
      EXPECT_EQ(s.scc_size, flat_s.scc_size);
      EXPECT_EQ(s.in_scc, flat_s.in_scc);
    });
  }
}

// ---------------------------------------------------------------------------
// The engine's BFS program against the graph-layer primitive.

/// A one-root run of the engine's BFS program (bare-gid records).
MultiBfsProgram<gid_t> one_root_bfs(sim::Comm& comm, const DistGraph& g,
                                    gid_t root, const engine::Config& cfg) {
  MultiBfsProgram<gid_t> p;
  p.roots = {root};
  engine::run(comm, g, p, cfg);
  return p;
}

TEST(EngineFrontier, OneRootBfsMatchesBfsLevels) {
  const EdgeList el = gen::erdos_renyi(800, 6, 3);
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
    std::vector<count_t> levels;
    const count_t ecc = graph::bfs_levels(comm, g, 1, levels);
    const MultiBfsProgram<gid_t> p =
        one_root_bfs(comm, g, 1, engine::Config{});
    ASSERT_EQ(p.ecc.size(), 1u);
    EXPECT_EQ(p.ecc[0], ecc);
    for (lid_t v = 0; v < g.n_total(); ++v) {
      const count_t expect =
          levels[v] == graph::kUnreached ? kInfDist : levels[v];
      EXPECT_EQ(p.levels[v], expect);
    }
  });
}

// N roots in one run against N one-root runs: the per-slot level
// planes and eccentricities must be bit-identical, and the packed
// sweep must spend strictly fewer collectives (one emptiness vote +
// one exchange per packed level, shared by every source — the
// amortization the serving scheduler is built on).
TEST(EngineFrontier, MultiBfsMatchesPerSourceBfsWithFewerCollectives) {
  const EdgeList el = gen::erdos_renyi(800, 6, 3);
  const std::vector<gid_t> roots = {1, 97, 401, 640};
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
    const count_t coll0 = comm.stats().collectives;
    MultiBfsProgram multi;
    multi.roots = roots;
    engine::run(comm, g, multi, engine::Config{});
    const count_t multi_coll = comm.stats().collectives - coll0;
    ASSERT_EQ(multi.ecc.size(), roots.size());
    count_t single_coll = 0;
    for (std::size_t s = 0; s < roots.size(); ++s) {
      const count_t c0 = comm.stats().collectives;
      const MultiBfsProgram<gid_t> p =
          one_root_bfs(comm, g, roots[s], engine::Config{});
      single_coll += comm.stats().collectives - c0;
      EXPECT_EQ(multi.ecc[s], p.ecc[0]);
      for (lid_t v = 0; v < g.n_total(); ++v)
        EXPECT_EQ(
            multi.levels[s * static_cast<std::size_t>(multi.stride) + v],
            p.levels[v]);
    }
    EXPECT_LT(multi_coll, single_coll);
  });
}

// Seventy roots cross a 64-bit mask word. The batch includes a
// duplicate root, a root the active mask removes, and a root the mask
// isolates (every neighbor inactive). Each root's level plane (ghosts
// included) and eccentricity must be bit-identical to its own
// one-root run under the same mask, in both edge directions.
TEST(EngineFrontier, SeventyRootMaskBfsMatchesOneRootRuns) {
  const EdgeList el = gen::webcrawl(3'000, 8, 5);
  const gid_t masked_root = 17, isolated_root = 29;
  std::vector<std::uint8_t> inactive(el.n, 0);
  inactive[masked_root] = 1;
  for (const auto& e : el.edges) {
    if (e.u == isolated_root && e.v != isolated_root) inactive[e.v] = 1;
    if (e.v == isolated_root && e.u != isolated_root) inactive[e.u] = 1;
  }
  for (gid_t v = 0; v < el.n; v += 11) inactive[v] = 1;
  std::vector<gid_t> roots;
  for (gid_t i = 0; i < 67; ++i) roots.push_back((i * 41 + 3) % el.n);
  roots.push_back(roots[5]);  // duplicate
  roots.push_back(masked_root);
  roots.push_back(isolated_root);
  ASSERT_EQ(roots.size(), 70u);
  for (const int ranks : {1, 4})
    sim::run_world(ranks, [&](sim::Comm& comm) {
      const DistGraph g = build_dist_graph(
          comm, el, VertexDist::random(el.n, ranks, 3));
      std::vector<std::uint8_t> mask(g.n_total());
      for (lid_t l = 0; l < g.n_total(); ++l)
        mask[l] = !inactive[g.gid_of(l)];
      for (const bool in_edges : {false, true}) {
        MultiBfsProgram multi;
        multi.roots = roots;
        multi.use_in_edges = in_edges;
        multi.active = &mask;
        engine::run(comm, g, multi, engine::Config{});
        ASSERT_EQ(multi.ecc.size(), roots.size());
        for (std::size_t s = 0; s < roots.size(); ++s) {
          MultiBfsProgram<gid_t> one;
          one.roots = {roots[s]};
          one.use_in_edges = in_edges;
          one.active = &mask;
          engine::run(comm, g, one, engine::Config{});
          EXPECT_EQ(multi.ecc[s], one.ecc[0]) << "root " << s;
          const auto plane =
              multi.levels.begin() +
              static_cast<std::ptrdiff_t>(s * multi.stride);
          EXPECT_TRUE(std::equal(one.levels.begin(), one.levels.end(), plane))
              << "root " << s << " in_edges=" << in_edges;
        }
        // The removed root reaches nothing; the isolated one only
        // itself.
        EXPECT_EQ(multi.ecc[68], 0);
        EXPECT_EQ(multi.ecc[69], 0);
        for (lid_t l = 0; l < g.n_total(); ++l) {
          EXPECT_EQ(multi.level_of(68, l), kInfDist);
          const bool root_here =
              g.is_owned(l) && g.gid_of(l) == isolated_root;
          const count_t own = root_here ? 0 : kInfDist;
          EXPECT_EQ(multi.level_of(69, l), own);
        }
      }
    });
}

// The mask step scans on the pool and merges in chunk order, so the
// level planes and the wire must not move with the thread width. The
// graph is large enough for multi-chunk frontiers on each rank.
TEST(EngineFrontier, MaskBfsIdenticalAcrossThreadWidths) {
  const EdgeList el = gen::erdos_renyi(20'000, 8, 7);
  std::vector<gid_t> seventy;
  for (gid_t i = 0; i < 70; ++i) seventy.push_back((i * 283 + 1) % el.n);
  for (const std::vector<gid_t>& roots :
       {std::vector<gid_t>{1, 97, 401, 640}, seventy})
    sim::run_world(2, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 2, 3));
      std::vector<std::vector<count_t>> planes;
      std::vector<count_t> bytes;
      for (const int threads : {1, 4}) {
        engine::Config cfg;
        cfg.num_threads = threads;
        MultiBfsProgram bfs;
        bfs.roots = roots;
        const count_t b0 = comm.stats().bytes_sent;
        const engine::Stats st = engine::run(comm, g, bfs, cfg);
        EXPECT_EQ(st.num_threads, threads);
        planes.push_back(bfs.levels);
        bytes.push_back(comm.stats().bytes_sent - b0);
      }
      EXPECT_EQ(planes[0], planes[1]) << roots.size() << " roots";
      EXPECT_EQ(bytes[0], bytes[1]) << roots.size() << " roots";
    });
}

// ---------------------------------------------------------------------------
// The exact frontier wire ledger. check_comm_baseline.py bounds bench
// bytes within 10%; this keyed reference table pins each frontier
// kernel's world-summed wire to the byte. The record layouts (gid,
// {gid, mask}, {gid, dist}), the steppers' staging order and the
// one-vote-per-level termination all show up here. Transport knobs
// are pinned to the defaults and the graph is built in-core. Thread
// width must not move a byte.

struct LedgerKey {
  std::string_view kernel;
  int ranks;
  bool operator<(const LedgerKey& rhs) const {
    return std::tie(kernel, ranks) < std::tie(rhs.kernel, rhs.ranks);
  }
};

struct FrontierLedger {
  count_t supersteps;
  count_t bytes_sent;
  count_t messages;
  count_t collectives;
  bool operator==(const FrontierLedger&) const = default;
};

std::ostream& operator<<(std::ostream& os, const FrontierLedger& l) {
  return os << "{" << l.supersteps << ", " << l.bytes_sent << ", "
            << l.messages << ", " << l.collectives << "}";
}

using namespace std::literals::string_view_literals;
const std::map<LedgerKey, FrontierLedger> kFrontierLedger{
    {{"bfs_1root"sv, 1}, {11, 0, 0, 24}},
    {{"bfs_1root"sv, 4}, {11, 37128, 144, 96}},
    {{"bfs_in_masked"sv, 1}, {11, 0, 0, 24}},
    {{"bfs_in_masked"sv, 4}, {11, 18536, 158, 96}},
    {{"bfs_4root"sv, 1}, {11, 0, 0, 24}},
    {{"bfs_4root"sv, 4}, {11, 205584, 164, 96}},
    {{"sssp_delta8"sv, 1}, {30, 0, 0, 112}},
    {{"sssp_delta8"sv, 4}, {30, 90716, 556, 448}},
};

/// Runs one frontier kernel; returns its supersteps and the
/// world-summed comm counters it moved.
template <typename P>
FrontierLedger measure_frontier(sim::Comm& comm, const DistGraph& g, P& p,
                                const engine::Config& cfg) {
  const sim::CommStats before = comm.stats();
  const engine::Stats st = engine::run(comm, g, p, cfg);
  const sim::CommStats& after = comm.stats();
  std::vector<count_t> moved{after.bytes_sent - before.bytes_sent,
                             after.messages_sent - before.messages_sent,
                             after.collectives - before.collectives};
  comm.allreduce_sum(moved);
  return {st.supersteps, moved[0], moved[1], moved[2]};
}

TEST(EngineFrontier, WireLedgerMatchesGoldenTable) {
  const EdgeList el = gen::webcrawl(2'000, 10, 3);
  for (const int threads : {1, 4})
    for (const int ranks : {1, 4})
      sim::run_world(ranks, [&](sim::Comm& comm) {
        const DistGraph g = build_dist_graph(
            comm, el, VertexDist::random(el.n, ranks, 3));
        engine::Config cfg;
        cfg.num_threads = threads;
        std::vector<std::uint8_t> mask(g.n_total());
        for (lid_t l = 0; l < g.n_total(); ++l)
          mask[l] = g.gid_of(l) % 5 != 4;

        std::map<LedgerKey, FrontierLedger> got;
        MultiBfsProgram<gid_t> one;
        one.roots = {1};
        got[{"bfs_1root"sv, ranks}] = measure_frontier(comm, g, one, cfg);
        MultiBfsProgram<gid_t> masked;
        masked.roots = {1};
        masked.use_in_edges = true;
        masked.active = &mask;
        got[{"bfs_in_masked"sv, ranks}] =
            measure_frontier(comm, g, masked, cfg);
        MultiBfsProgram four;
        four.roots = {1, 97, 401, 640};
        got[{"bfs_4root"sv, ranks}] = measure_frontier(comm, g, four, cfg);
        DeltaSsspProgram sssp;
        sssp.root = 1;
        sssp.delta = 8;
        got[{"sssp_delta8"sv, ranks}] = measure_frontier(comm, g, sssp, cfg);

        if (comm.rank() != 0) return;
        for (const auto& [key, ledger] : got)
          EXPECT_EQ(ledger, kFrontierLedger.at(key))
              << key.kernel << " ranks=" << ranks << " threads=" << threads;
      });
}

// ---------------------------------------------------------------------------
// Delta-capped SSSP against a serial Dijkstra oracle.

std::vector<count_t> dijkstra(const EdgeList& el, gid_t root,
                              std::uint64_t weight_seed,
                              count_t max_weight) {
  std::vector<std::vector<gid_t>> adj(el.n);
  for (const auto& e : el.edges) {
    if (e.u == e.v) continue;
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<count_t> dist(el.n, kInfDist);
  using Item = std::pair<count_t, gid_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[root] = 0;
  pq.push({0, root});
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    for (const gid_t u : adj[v]) {
      const count_t nd = d + edge_weight(v, u, weight_seed, max_weight);
      if (nd < dist[u]) {
        dist[u] = nd;
        pq.push({nd, u});
      }
    }
  }
  return dist;
}

class SsspRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, SsspRanks, ::testing::Values(1, 2, 4),
                         [](const auto& inf) {
                           return "nranks_" + std::to_string(inf.param);
                         });

TEST_P(SsspRanks, MatchesSerialDijkstraAcrossDeltas) {
  const int nranks = GetParam();
  const EdgeList el = gen::erdos_renyi(600, 5, 13);
  const gid_t root = 3;
  const std::uint64_t seed = 17;
  const count_t max_weight = 16;
  const std::vector<count_t> oracle = dijkstra(el, root, seed, max_weight);
  for (const count_t delta : {count_t{1}, count_t{8}, count_t{1 << 20}}) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 3));
      const SsspResult r = sssp(comm, g, root, delta, max_weight, seed);
      for (lid_t v = 0; v < g.n_local(); ++v)
        EXPECT_EQ(r.dist[v], oracle[g.gid_of(v)])
            << "gid " << g.gid_of(v) << " delta " << delta;
      EXPECT_GT(r.info.supersteps, 0);
    });
  }
}

TEST(Sssp, PathGraphExactDistances) {
  // 0-1-2-3-4 path: distances are the prefix sums of the edge weights.
  EdgeList el;
  el.n = 5;
  for (gid_t v = 0; v + 1 < 5; ++v) el.edges.push_back({v, v + 1});
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 2));
    const SsspResult r = sssp(comm, g, 0, /*delta=*/4);
    count_t expect = 0;
    for (gid_t v = 0; v < 5; ++v) {
      if (v > 0) expect += edge_weight(v - 1, v, 1, 16);
      const lid_t l = g.lid_of(v);
      if (l != kInvalidLid && g.is_owned(l)) {
        EXPECT_EQ(r.dist[l], expect);
      }
    }
    EXPECT_EQ(r.reached, 5);
  });
}

// A tighter delta only reorders the relaxations — results must be
// placement- and delta-invariant (asserted against the oracle above),
// and unreachable vertices stay at kInfDist.
TEST(Sssp, DisconnectedVerticesStayUnreached) {
  EdgeList el;
  el.n = 6;
  el.edges = {{0, 1}, {1, 2}};  // 3, 4, 5 isolated
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 2));
    const SsspResult r = sssp(comm, g, 0);
    EXPECT_EQ(r.reached, 3);
    for (lid_t v = 0; v < g.n_local(); ++v)
      if (g.gid_of(v) >= 3) {
        EXPECT_EQ(r.dist[v], kInfDist);
      }
  });
}

// ---------------------------------------------------------------------------
// Approximate triangle count against an exact serial count.

count_t serial_triangles(const EdgeList& el) {
  std::vector<std::vector<gid_t>> adj(el.n);
  for (const auto& e : el.edges) {
    if (e.u == e.v) continue;
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  count_t total = 0;
  for (gid_t v = 0; v < el.n; ++v)
    for (const gid_t a : adj[v])
      for (const gid_t b : adj[v]) {
        if (a >= b) continue;
        if (std::binary_search(adj[a].begin(), adj[a].end(), b)) ++total;
      }
  return total / 3;
}

class TriangleRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, TriangleRanks, ::testing::Values(1, 2, 4),
                         [](const auto& inf) {
                           return "nranks_" + std::to_string(inf.param);
                         });

TEST_P(TriangleRanks, ExactWhenUnderSampleCap) {
  const int nranks = GetParam();
  const EdgeList el = gen::community_graph(500, 8, 0.6, 2.3, 3);
  const count_t exact = serial_triangles(el);
  ASSERT_GT(exact, 0);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 5));
    // Cap far above any wedge count: every query is staged, so the
    // estimate is the exact count.
    const TriangleResult r = triangle_count(comm, g, 1 << 20);
    EXPECT_EQ(r.sampled_centers, 0);
    EXPECT_DOUBLE_EQ(r.triangles, static_cast<double>(exact));
  });
}

TEST(Triangles, SampledEstimateTracksExactCount) {
  const EdgeList el = gen::community_graph(800, 12, 0.6, 2.3, 9);
  const count_t exact = serial_triangles(el);
  ASSERT_GT(exact, 0);
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 2, 3));
    const TriangleResult r = triangle_count(comm, g, /*sample_cap=*/64);
    EXPECT_GT(r.sampled_centers, 0);
    const double rel = r.triangles / static_cast<double>(exact);
    EXPECT_GT(rel, 0.5);
    EXPECT_LT(rel, 1.5);
  });
}

TEST(Triangles, TriangleFreeGraphCountsZero) {
  // Even cycle: no triangles.
  EdgeList el;
  el.n = 8;
  for (gid_t v = 0; v < 8; ++v) el.edges.push_back({v, (v + 1) % 8});
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 2));
    const TriangleResult r = triangle_count(comm, g);
    EXPECT_DOUBLE_EQ(r.triangles, 0.0);
  });
}

// ---------------------------------------------------------------------------
// Stats and Config plumbing.

TEST(EngineStats, LedgerAndJsonExport) {
  const EdgeList el = gen::erdos_renyi(500, 6, 3);
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 2));
    WccProgram p;
    const engine::Stats st = engine::run(comm, g, p, engine::Config{});
    EXPECT_GT(st.supersteps, 0);
    EXPECT_GT(st.seconds, 0.0);
    EXPECT_GT(st.exchange.exchanges, 0);
    if (comm.size() > 1) {
      EXPECT_GT(st.comm_bytes, 0);
    }
    const std::string json = st.to_json();
    for (const char* key :
         {"\"seconds\"", "\"comm_bytes\"", "\"supersteps\"",
          "\"bytes_sent\"", "\"pipeline_carried\""})
      EXPECT_NE(json.find(key), std::string::npos) << key;
  });
}

TEST(EngineConfig, FromParamsMapsEveryKnob) {
  core::Params params;
  params.max_exchange_bytes = 1 << 14;
  params.pipeline_depth = 2;
  params.coalesce_every = 3;
  const engine::Config cfg = engine::Config::from_params(params);
  EXPECT_EQ(cfg.max_exchange_bytes, 1 << 14);
  EXPECT_EQ(cfg.pipeline_depth, 2);
  EXPECT_EQ(cfg.coalesce_every, 3);
  EXPECT_EQ(cfg.tol, 0.0);
  EXPECT_EQ(cfg.max_supersteps, engine::Config::kUnbounded);
}

// Legacy zero-iteration contract: a cap of 0 runs no supersteps and
// returns the seed state (wrappers clamp negatives the same way).
TEST(EngineConfig, ZeroSuperstepCapRunsNone) {
  const EdgeList el = gen::erdos_renyi(200, 4, 3);
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 2));
    const PageRankResult pr = pagerank(comm, g, 0);
    EXPECT_EQ(pr.info.supersteps, 0);
    EXPECT_NEAR(pr.sum, 1.0, 1e-12);  // uniform seed ranks, mass intact
    const KCoreResult kc = kcore_approx(comm, g, -1);
    EXPECT_EQ(kc.info.supersteps, 0);
    for (lid_t v = 0; v < g.n_local(); ++v)
      EXPECT_EQ(kc.core[v], g.degree(v));  // degree upper bound untouched
  });
}

// ---------------------------------------------------------------------------
// MPI+X thread determinism. The intra-rank thread width is a pure
// throughput knob: every transport cell must produce byte-identical
// per-vertex results AND an identical wire ledger at threads = 1, 2, 8
// (8 exceeds this container's cores, so oversubscription is covered).

/// Every deterministic counter of the run's wire accounting (times
/// excluded), plus the superstep count.
std::vector<count_t> wire_ledger(const engine::Stats& st) {
  const comm::ExchangeStats& ex = st.exchange;
  return {st.comm_bytes,         st.supersteps,
          ex.exchanges,          ex.phases,
          ex.records_sent,       ex.bytes_sent,
          ex.coalesced_flushes,  ex.overlapped,
          ex.max_inflight_bytes, ex.drained_incrementally,
          ex.pipeline_carried,   ex.max_pipeline_depth};
}

TEST(EngineThreads, PageRankBitIdenticalAcrossThreadCountsAndKnobs) {
  const EdgeList el = gen::erdos_renyi(1'000, 8, 11);
  for (const engine::Config& base : knob_matrix()) {
    // Coalescing needs a change-converging program; CommLP covers
    // those cells below.
    if (base.coalesce_every != 0) continue;
    std::vector<double> ref;
    std::vector<count_t> ref_wire;
    for (const int threads : {1, 2, 8}) {
      sim::run_world(4, [&](sim::Comm& comm) {
        const DistGraph g =
            build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
        PageRankProgram p;
        engine::Config cfg = base;
        cfg.max_supersteps = 12;
        cfg.num_threads = threads;
        const engine::Stats st = engine::run(comm, g, p, cfg);
        EXPECT_EQ(st.num_threads, threads) << cfg_name(base);
        const auto global = by_gid(comm, g, p.rank);
        auto wire = wire_ledger(st);
        comm.allreduce_max(wire);  // any rank drift fails the compare
        if (comm.rank() != 0) return;
        if (threads == 1) {
          ref = global;
          ref_wire = wire;
        } else {
          EXPECT_EQ(global, ref)
              << cfg_name(base) << " threads=" << threads;
          EXPECT_EQ(wire, ref_wire)
              << cfg_name(base) << " threads=" << threads;
        }
      });
    }
  }
}

TEST(EngineThreads, CommLpBitIdenticalAcrossThreadCountsAndKnobs) {
  const EdgeList el = gen::community_graph(1'000, 10, 0.7, 2.3, 5);
  for (const engine::Config& base : knob_matrix()) {
    std::vector<gid_t> ref;
    std::vector<count_t> ref_wire;
    for (const int threads : {1, 2, 8}) {
      sim::run_world(4, [&](sim::Comm& comm) {
        const DistGraph g =
            build_dist_graph(comm, el, VertexDist::random(el.n, 4, 4));
        CommLpProgram p;
        engine::Config cfg = base;
        cfg.max_supersteps = 10;
        cfg.num_threads = threads;
        const engine::Stats st = engine::run(comm, g, p, cfg);
        const auto global = by_gid(comm, g, p.label);
        auto wire = wire_ledger(st);
        comm.allreduce_max(wire);
        if (comm.rank() != 0) return;
        if (threads == 1) {
          ref = global;
          ref_wire = wire;
        } else {
          EXPECT_EQ(global, ref)
              << cfg_name(base) << " threads=" << threads;
          EXPECT_EQ(wire, ref_wire)
              << cfg_name(base) << " threads=" << threads;
        }
      });
    }
  }
}

// The frontier engine's two-phase scan: SSSP results and wire ledger
// must not notice the thread width either.
TEST(EngineThreads, SsspBitIdenticalAcrossThreadCounts) {
  const EdgeList el = gen::erdos_renyi(800, 6, 13);
  std::vector<count_t> ref;
  std::vector<count_t> ref_wire;
  for (const int threads : {1, 2, 8}) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
      DeltaSsspProgram p;
      p.root = 3;
      p.delta = 8;
      engine::Config cfg;
      cfg.num_threads = threads;
      const engine::Stats st = engine::run(comm, g, p, cfg);
      const auto global = by_gid(comm, g, p.dist);
      auto wire = wire_ledger(st);
      comm.allreduce_max(wire);
      if (comm.rank() != 0) return;
      if (threads == 1) {
        ref = global;
        ref_wire = wire;
      } else {
        EXPECT_EQ(global, ref) << "threads=" << threads;
        EXPECT_EQ(wire, ref_wire) << "threads=" << threads;
      }
    });
  }
}

// Triangle count stages its queries through the sharded emission layer
// (comm/sharded_buckets.hpp): the estimate and the query traffic must
// be slot-exact at any width.
TEST(EngineThreads, TriangleCountBitIdenticalAcrossThreadCounts) {
  const EdgeList el = gen::community_graph(800, 12, 0.6, 2.3, 9);
  double ref_triangles = 0.0;
  count_t ref_sampled = 0;
  std::vector<count_t> ref_wire;
  for (const int threads : {1, 2, 8}) {
    sim::run_world(2, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 2, 3));
      TriangleCountProgram p;
      p.sample_cap = 64;
      engine::Config cfg;
      cfg.max_supersteps = 1;  // single staging superstep, as the wrapper
      cfg.num_threads = threads;
      const engine::Stats st = engine::run(comm, g, p, cfg);
      auto wire = wire_ledger(st);
      comm.allreduce_max(wire);
      if (comm.rank() != 0) return;
      if (threads == 1) {
        ref_triangles = p.triangles;
        ref_sampled = p.sampled_centers;
        ref_wire = wire;
      } else {
        EXPECT_EQ(p.triangles, ref_triangles) << "threads=" << threads;
        EXPECT_EQ(p.sampled_centers, ref_sampled) << "threads=" << threads;
        EXPECT_EQ(wire, ref_wire) << "threads=" << threads;
      }
    });
  }
}

// The engine's pipeline ledger lights up when a dense program runs at
// depth 1 (the WCC/commLP pipeline support the engine added).
TEST(EngineStats, PipelineCarryRecordedAtDepth1) {
  const EdgeList el = gen::erdos_renyi(800, 8, 5);
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
    WccProgram p;
    engine::Config cfg;
    cfg.pipeline_depth = 1;
    const engine::Stats st = engine::run(comm, g, p, cfg);
    if (comm.size() > 1) {
      EXPECT_GT(st.exchange.pipeline_carried, 0);
    }
  });
}

// At pipeline_depth = 2 the ledger must observe two refreshes
// genuinely in flight (max_pipeline_depth == 2).
TEST(EngineStats, MaxPipelineDepthObservedAtDepth2) {
  const EdgeList el = gen::erdos_renyi(800, 8, 5);
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
    WccProgram p;
    engine::Config cfg;
    cfg.pipeline_depth = 2;
    const engine::Stats st = engine::run(comm, g, p, cfg);
    EXPECT_GT(st.exchange.pipeline_carried, 0);
    EXPECT_EQ(st.exchange.max_pipeline_depth, 2);
    const std::string json = st.to_json();
    EXPECT_NE(json.find("\"max_pipeline_depth\""), std::string::npos);
  });
}

}  // namespace
}  // namespace xtra::analytics
