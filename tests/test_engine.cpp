// Tests for the unified vertex-program engine (src/engine/): the
// wrapper-vs-engine bit-identity matrix across the transport knobs
// ({chunk size} x {intra-rank threads}), the overlapped halo superstep
// against a blocking refresh, hand-rolled blocking references for
// PageRank and k-core, the exact dense and frontier wire ledgers, the
// two engine-native workloads against serial oracles (delta-capped
// SSSP vs Dijkstra, approximate triangle count vs an exact serial
// count), and the Stats/Config plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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
#include "graph/halo.hpp"
#include "mpisim/comm.hpp"
#include "util/parallel.hpp"

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

/// Exchange chunk sizes the matrices sweep: unbounded and a bound
/// small enough to split every refresh into many phases.
constexpr count_t kChunks[] = {0, 256};

/// The knob matrix: every transport configuration the engine must
/// drive every kernel through — chunk size x intra-rank threads.
std::vector<engine::Config> knob_matrix() {
  std::vector<engine::Config> cfgs;
  for (const count_t chunk : kChunks)
    for (const int threads : {1, 4}) {
      engine::Config cfg;
      cfg.max_exchange_bytes = chunk;
      cfg.num_threads = threads;
      cfgs.push_back(cfg);
    }
  return cfgs;
}

std::string cfg_name(const engine::Config& cfg) {
  return "chunk=" + std::to_string(cfg.max_exchange_bytes) +
         " threads=" + std::to_string(cfg.num_threads);
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

// Community LP's majority vote is trajectory-dependent, so the
// bit-identity across knobs also pins the read schedule: every cell
// must match the wrapper and recover the planted communities.
TEST(EngineMatrix, CommLpBitIdenticalAcrossAllKnobs) {
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
      const auto global = by_gid(comm, g, p.label);
      if (comm.rank() == 0) {
        EXPECT_EQ(global, ref) << cfg_name(cfg);
      }
      EXPECT_EQ(p.num_communities, 2) << cfg_name(cfg);
      for (lid_t v = 0; v < g.n_local(); ++v)
        EXPECT_EQ(p.label[v], g.gid_of(v) < 20 ? 0u : 20u)
            << cfg_name(cfg);
    });
  }
}

// PageRank is fixed-iteration: every chunk size preserves the read
// schedule, so every run is bit-identical and conserves mass.
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
// The exact dense wire ledger: every dense driver (the halo refresh
// and the local aux-only loop) pinned to the byte, plus a hash of
// each kernel's gid-ordered result. Keyed by (kernel, ranks, chunk);
// thread width must not move a byte or a bit.

struct DenseKey {
  std::string_view kernel;
  int ranks;
  count_t chunk;
  bool operator<(const DenseKey& rhs) const {
    return std::tie(kernel, ranks, chunk) <
           std::tie(rhs.kernel, rhs.ranks, rhs.chunk);
  }
};

struct DenseLedger {
  count_t supersteps;
  count_t bytes_sent;
  count_t messages;
  count_t collectives;
  std::uint64_t value_hash;
  bool operator==(const DenseLedger&) const = default;
};

std::ostream& operator<<(std::ostream& os, const DenseLedger& l) {
  return os << "{" << l.supersteps << ", " << l.bytes_sent << ", "
            << l.messages << ", " << l.collectives << ", 0x" << std::hex
            << l.value_hash << std::dec << "ull}";
}

/// FNV-1a over the raw bytes of `vals`.
template <typename T>
std::uint64_t fnv1a(const std::vector<T>& vals) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(vals.data());
  for (std::size_t i = 0; i < vals.size() * sizeof(T); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

const std::map<DenseKey, DenseLedger> kDenseLedger{
    {{"commlp"sv, 1, 0}, {10, 0, 0, 23, 0xe0af26912eca23c3ull}},
    {{"commlp"sv, 1, 256}, {10, 0, 0, 23, 0xe0af26912eca23c3ull}},
    {{"commlp"sv, 2, 0}, {10, 84732, 46, 46, 0xe0af26912eca23c3ull}},
    {{"commlp"sv, 2, 256}, {10, 85068, 378, 388, 0xe0af26912eca23c3ull}},
    {{"commlp"sv, 4, 0}, {10, 215544, 188, 92, 0xe0af26912eca23c3ull}},
    {{"commlp"sv, 4, 256}, {10, 216856, 1092, 976, 0xe0af26912eca23c3ull}},
    {{"kcore"sv, 1, 0}, {16, 0, 0, 34, 0xc991da6885963da7ull}},
    {{"kcore"sv, 1, 256}, {16, 0, 0, 34, 0xc991da6885963da7ull}},
    {{"kcore"sv, 2, 0}, {16, 130744, 68, 68, 0xc991da6885963da7ull}},
    {{"kcore"sv, 2, 256}, {16, 131256, 596, 612, 0xc991da6885963da7ull}},
    {{"kcore"sv, 4, 0}, {16, 332480, 272, 136, 0xc991da6885963da7ull}},
    {{"kcore"sv, 4, 256}, {16, 334528, 1712, 1544, 0xc991da6885963da7ull}},
    {{"pagerank"sv, 1, 0}, {12, 0, 0, 27, 0x9ce398626416623aull}},
    {{"pagerank"sv, 1, 256}, {12, 0, 0, 27, 0x9ce398626416623aull}},
    {{"pagerank"sv, 2, 0}, {12, 107840, 54, 54, 0x9ce398626416623aull}},
    {{"pagerank"sv, 2, 256}, {12, 108256, 483, 496, 0x9ce398626416623aull}},
    {{"pagerank"sv, 4, 0}, {12, 274144, 220, 108, 0x9ce398626416623aull}},
    {{"pagerank"sv, 4, 256}, {12, 275808, 1390, 1252, 0x9ce398626416623aull}},
    {{"pagerank_sinks"sv, 1, 0}, {12, 0, 0, 27, 0x9c1ede1232061882ull}},
    {{"pagerank_sinks"sv, 1, 256}, {12, 0, 0, 27, 0x9c1ede1232061882ull}},
    {{"pagerank_sinks"sv, 2, 0}, {12, 57440, 54, 54, 0xaebf7de1a601030full}},
    {{"pagerank_sinks"sv, 2, 256}, {12, 57856, 301, 314, 0xaebf7de1a601030full}},
    {{"pagerank_sinks"sv, 4, 0}, {12, 129552, 220, 108, 0xbdab90b0cf76ce6ull}},
    {{"pagerank_sinks"sv, 4, 256}, {12, 131216, 870, 732, 0xbdab90b0cf76ce6ull}},
    {{"triangles"sv, 1, 0}, {1, 0, 0, 4, 0x12e224d77e276601ull}},
    {{"triangles"sv, 1, 256}, {1, 0, 0, 4, 0x12e224d77e276601ull}},
    {{"triangles"sv, 2, 0}, {1, 197997, 8, 8, 0x12e224d77e276601ull}},
    {{"triangles"sv, 2, 256}, {1, 198061, 786, 794, 0x12e224d77e276601ull}},
    {{"triangles"sv, 4, 0}, {1, 299638, 32, 16, 0x12e224d77e276601ull}},
    {{"triangles"sv, 4, 256}, {1, 299894, 1230, 1304, 0x12e224d77e276601ull}},
    {{"wcc"sv, 1, 0}, {4, 0, 0, 12, 0x51e78e744621f425ull}},
    {{"wcc"sv, 1, 256}, {4, 0, 0, 12, 0x51e78e744621f425ull}},
    {{"wcc"sv, 2, 0}, {5, 46186, 27, 28, 0x51e78e744621f425ull}},
    {{"wcc"sv, 2, 256}, {5, 46362, 194, 200, 0x51e78e744621f425ull}},
    {{"wcc"sv, 4, 0}, {7, 156556, 135, 72, 0x51e78e744621f425ull}},
    {{"wcc"sv, 4, 256}, {7, 157484, 769, 692, 0x51e78e744621f425ull}},
};

/// Runs one dense kernel; returns its supersteps, the world-summed
/// comm counters it moved, and the hash of `result(p)` in gid order
/// (per-vertex results) or as-is (scalars, identical on every rank).
template <typename P, typename Result>
DenseLedger measure_dense(sim::Comm& comm, const DistGraph& g, P& p,
                          const engine::Config& cfg, Result&& result) {
  const sim::CommStats before = comm.stats();
  const engine::Stats st = engine::run(comm, g, p, cfg);
  const sim::CommStats& after = comm.stats();
  std::vector<count_t> moved{after.bytes_sent - before.bytes_sent,
                             after.messages_sent - before.messages_sent,
                             after.collectives - before.collectives};
  comm.allreduce_sum(moved);
  return {st.supersteps, moved[0], moved[1], moved[2], result(p)};
}

/// A graph with isolated vertices: the dense goldens' community graphs
/// have none, so only this one drives PageRank's dangling-mass path.
EdgeList sinks_graph() { return gen::rmat(10, 6, 7); }

TEST(EngineDense, LedgerMatchesGoldenTable) {
  const EdgeList el = gen::community_graph(1'000, 10, 0.95, 2.3, 5);
  const EdgeList sinks_el = sinks_graph();
  for (const count_t chunk : {count_t{0}, count_t{256}})
    for (const int threads : {1, 4})
      for (const int ranks : {1, 2, 4})
        sim::run_world(ranks, [&](sim::Comm& comm) {
          const DistGraph g = build_dist_graph(
              comm, el, VertexDist::random(el.n, ranks, 3));
          engine::Config cfg;
          cfg.max_exchange_bytes = chunk;
          cfg.num_threads = threads;
          const auto per_vertex = [&](const auto& vals) {
            return fnv1a(by_gid(comm, g, vals));
          };

          std::map<DenseKey, DenseLedger> got;
          engine::Config fixed = cfg;
          fixed.max_supersteps = 12;
          PageRankProgram pr;
          got[{"pagerank"sv, ranks, chunk}] = measure_dense(
              comm, g, pr, fixed, [&](auto& p) { return per_vertex(p.rank); });
          {
            const DistGraph gs = build_dist_graph(
                comm, sinks_el, VertexDist::random(sinks_el.n, ranks, 3));
            PageRankProgram prs;
            got[{"pagerank_sinks"sv, ranks, chunk}] =
                measure_dense(comm, gs, prs, fixed, [&](auto& p) {
                  return fnv1a(by_gid(comm, gs, p.rank));
                });
          }
          WccProgram wcc;
          got[{"wcc"sv, ranks, chunk}] = measure_dense(
              comm, g, wcc, cfg,
              [&](auto& p) { return per_vertex(p.component); });
          engine::Config lp_cfg = cfg;
          lp_cfg.max_supersteps = 10;
          CommLpProgram lp;
          got[{"commlp"sv, ranks, chunk}] = measure_dense(
              comm, g, lp, lp_cfg,
              [&](auto& p) { return per_vertex(p.label); });
          engine::Config kc_cfg = cfg;
          kc_cfg.max_supersteps = 40;
          KCoreProgram kc;
          got[{"kcore"sv, ranks, chunk}] = measure_dense(
              comm, g, kc, kc_cfg,
              [&](auto& p) { return per_vertex(p.core); });
          engine::Config tc_cfg = cfg;
          tc_cfg.max_supersteps = 1;
          TriangleCountProgram tc;
          tc.sample_cap = 64;
          got[{"triangles"sv, ranks, chunk}] = measure_dense(
              comm, g, tc, tc_cfg, [](auto& p) {
                return fnv1a(std::vector<double>{
                    p.triangles, static_cast<double>(p.sampled_centers)});
              });

          if (comm.rank() != 0) return;
          for (const auto& [key, ledger] : got)
            EXPECT_EQ(ledger, kDenseLedger.at(key))
                << key.kernel << " ranks=" << ranks << " chunk=" << chunk
                << " threads=" << threads;
        });
}

// ---------------------------------------------------------------------------
// The overlapped halo superstep (the dense engine's one refresh mode)
// against a blocking refresh, and serial against parallel sweeps.

/// Reference superstep: update every owned vertex, then a blocking
/// ghost refresh — what the overlapped superstep must reproduce.
template <typename T, typename Fn>
void blocking_superstep(sim::Comm& comm, graph::HaloPlan& halo,
                        const DistGraph& g, std::vector<T>& vals,
                        Fn&& update) {
  for (lid_t v = 0; v < g.n_local(); ++v) update(v);
  halo.exchange(comm, vals);
}

TEST(HaloOverlap, SuperstepBitIdenticalToBlockingExchange) {
  const EdgeList el = gen::erdos_renyi(400, 8, 29);
  // Bounds: unbounded, one record per phase, and a few records each.
  for (const count_t bound :
       {count_t{0}, count_t{sizeof(gid_t)}, count_t{1} << 8}) {
    sim::run_world(6, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 6, 5));
      graph::HaloPlan ref_halo(comm, g);
      graph::HaloPlan overlap_halo(comm, g);
      ref_halo.set_max_send_bytes(bound);
      overlap_halo.set_max_send_bytes(bound);
      ref_halo.reset_stats();
      overlap_halo.reset_stats();

      std::vector<gid_t> expect(g.n_total()), vals(g.n_total());
      for (lid_t v = 0; v < g.n_total(); ++v)
        expect[v] = vals[v] = g.gid_of(v);
      for (int iter = 1; iter <= 3; ++iter) {
        blocking_superstep(comm, ref_halo, g, expect, [&](lid_t v) {
          expect[v] = expect[v] * 5 + static_cast<gid_t>(iter);
        });
        overlap_halo.overlapped_superstep(
            comm, vals,
            [&](lid_t v) {
              vals[v] = vals[v] * 5 + static_cast<gid_t>(iter);
            },
            [&] { (void)comm.allreduce_sum<count_t>(1); });
        EXPECT_FALSE(overlap_halo.prefetch_in_flight());
        ASSERT_EQ(vals, expect) << "bound=" << bound << " iter=" << iter;
      }
      EXPECT_EQ(overlap_halo.stats().bytes_sent,
                ref_halo.stats().bytes_sent);
      EXPECT_EQ(overlap_halo.stats().phases, ref_halo.stats().phases);
    });
  }
}

// MPI+X: the parallel drive (chunked boundary and interior sweeps)
// must land every superstep in the serial drive's state with the same
// wire bytes. This is also the case the CI ThreadSanitizer job
// hammers at threads = 8.
TEST(HaloOverlap, ParallelSuperstepBitIdenticalToSerial) {
  const EdgeList el = gen::erdos_renyi(400, 8, 37);
  for (const count_t bound : kChunks) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 4, 5));
      constexpr int kIters = 4;
      const auto run = [&](bool parallel,
                           std::vector<std::vector<gid_t>>& trace) {
        graph::HaloPlan halo(comm, g);
        halo.set_max_send_bytes(bound);
        std::vector<gid_t> vals(g.n_total());
        for (lid_t v = 0; v < g.n_total(); ++v) vals[v] = g.gid_of(v);
        for (int iter = 1; iter <= kIters; ++iter) {
          halo.overlapped_superstep(
              comm, vals,
              [&](lid_t v) {
                vals[v] = vals[v] * 5 + static_cast<gid_t>(iter);
              },
              [] {}, parallel);
          trace.push_back(vals);
        }
        return halo.stats().bytes_sent;
      };
      std::vector<std::vector<gid_t>> serial, parallel;
      const count_t serial_bytes = run(false, serial);
      par::ThreadScope threads(8);  // oversubscribes this container
      const count_t parallel_bytes = run(true, parallel);
      EXPECT_EQ(parallel, serial) << "bound=" << bound;
      EXPECT_EQ(parallel_bytes, serial_bytes) << "bound=" << bound;
    });
  }
}

// ---------------------------------------------------------------------------
// Hand-rolled blocking references: the pre-engine formulations of
// PageRank and k-core, one blocking halo refresh per superstep. The
// engine-run wrappers must reproduce them bit for bit.

/// Contributions + dangling mass in one lid-order pass, blocking halo
/// refresh, allreduce, update; a final refresh of the ghost ranks.
std::vector<double> blocking_pagerank(sim::Comm& comm, const DistGraph& g,
                                      int iters, double damping) {
  std::vector<double> rank(g.n_total(),
                           1.0 / static_cast<double>(g.n_global()));
  graph::HaloPlan halo(comm, g);
  const double n = static_cast<double>(g.n_global());
  std::vector<double> contrib(g.n_total(), 0.0);
  for (int iter = 0; iter < iters; ++iter) {
    double dangling = 0.0;
    for (lid_t v = 0; v < g.n_local(); ++v) {
      const count_t d = g.degree(v);
      if (d == 0) {
        dangling += rank[v];
        contrib[v] = 0.0;
      } else {
        contrib[v] = rank[v] / static_cast<double>(d);
      }
    }
    halo.exchange(comm, contrib);
    dangling = comm.allreduce_sum(dangling);
    for (lid_t v = 0; v < g.n_local(); ++v) {
      double sum = 0.0;
      for (const lid_t u : g.arcs(v)) sum += contrib[u];
      rank[v] = (1.0 - damping) / n + damping * (sum + dangling / n);
    }
  }
  halo.exchange(comm, rank);
  return rank;
}

TEST(EngineDense, PageRankBitIdenticalToBlockingReference) {
  const EdgeList el = gen::community_graph(1000, 8, 0.6, 2.3, 3);
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 5));
    constexpr int kIters = 15;
    constexpr double kDamping = 0.85;
    const std::vector<double> ref_rank =
        blocking_pagerank(comm, g, kIters, kDamping);

    const auto pr = pagerank(comm, g, kIters, kDamping);
    ASSERT_EQ(pr.rank.size(), ref_rank.size());
    for (lid_t v = 0; v < g.n_total(); ++v)
      EXPECT_EQ(pr.rank[v], ref_rank[v]) << "lid " << v;  // bit-identical
    EXPECT_EQ(pr.info.supersteps, kIters);
  });
}

// The dangling-mass path: on a graph with isolated vertices the
// engine's precomputed degree-0 list must sum the mass in the same
// association as the reference's full lid scan, at any rank count and
// thread width.
TEST(EngineDense, PageRankWithSinksBitIdenticalToBlockingReference) {
  const EdgeList el = sinks_graph();
  constexpr int kIters = 15;
  for (const int ranks : {1, 2, 4})
    for (const int threads : {1, 4})
      sim::run_world(ranks, [&](sim::Comm& comm) {
        const DistGraph g =
            build_dist_graph(comm, el, VertexDist::random(el.n, ranks, 5));
        const std::vector<double> ref_rank =
            blocking_pagerank(comm, g, kIters, 0.85);

        PageRankProgram p;
        engine::Config cfg;
        cfg.max_supersteps = kIters;
        cfg.num_threads = threads;
        const engine::Stats st = engine::run(comm, g, p, cfg);
        EXPECT_EQ(st.supersteps, kIters);
        EXPECT_GT(comm.allreduce_sum(static_cast<count_t>(p.sinks.size())),
                  el.n / 10);
        ASSERT_EQ(p.rank.size(), ref_rank.size());
        for (lid_t v = 0; v < g.n_total(); ++v)
          ASSERT_EQ(p.rank[v], ref_rank[v])
              << "lid " << v << " ranks=" << ranks << " threads=" << threads;
      });
}

// The cfg.tol stop: each gather chunk returns its partial residual and
// the partials fold in chunk order, so the stop superstep — and every
// rank bit — is the same at any thread width and exchange bound, and
// equals a tol = 0 run capped at that superstep count.
TEST(EngineDense, PageRankTolStopIdenticalAcrossThreadsAndChunks) {
  const EdgeList el = sinks_graph();
  constexpr count_t kCap = 200;
  sim::run_world(2, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 2, 5));
    count_t stop = -1;
    std::vector<double> ref;
    for (const count_t chunk : kChunks)
      for (const int threads : {1, 2, 8}) {
        PageRankProgram p;
        engine::Config cfg;
        cfg.max_exchange_bytes = chunk;
        cfg.num_threads = threads;
        cfg.max_supersteps = kCap;
        cfg.tol = 1e-9;
        const engine::Stats st = engine::run(comm, g, p, cfg);
        if (stop < 0) {
          stop = st.supersteps;
          ref = p.rank;
          EXPECT_GT(stop, 1);
          EXPECT_LT(stop, kCap);  // the tol stop fired
        } else {
          EXPECT_EQ(st.supersteps, stop)
              << "chunk=" << chunk << " threads=" << threads;
          EXPECT_EQ(p.rank, ref) << "chunk=" << chunk << " threads=" << threads;
        }
      }
    PageRankProgram capped;
    engine::Config cfg;
    cfg.max_supersteps = stop;
    const engine::Stats st = engine::run(comm, g, capped, cfg);
    EXPECT_EQ(st.supersteps, stop);
    EXPECT_EQ(capped.rank, ref);
  });
}

TEST(EngineDense, KcoreBitIdenticalToBlockingReference) {
  const EdgeList el = gen::community_graph(800, 8, 0.6, 2.3, 5);
  sim::run_world(4, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, 4, 5));
    constexpr int kRounds = 12;

    // The synchronous (Jacobi) h-index sweep with a full blocking
    // ghost refresh per round.
    std::vector<count_t> ref(g.n_total());
    {
      graph::HaloPlan halo(comm, g);
      for (lid_t v = 0; v < g.n_total(); ++v) ref[v] = g.degree(v);
      std::vector<count_t> prev(ref), nbr;
      for (int round = 0; round < kRounds; ++round) {
        bool changed = false;
        for (lid_t v = 0; v < g.n_local(); ++v) {
          nbr.clear();
          for (const lid_t u : g.arcs(v)) nbr.push_back(prev[u]);
          std::sort(nbr.begin(), nbr.end(), std::greater<count_t>());
          count_t h = 0;
          for (std::size_t i = 0; i < nbr.size(); ++i) {
            if (nbr[i] >= static_cast<count_t>(i + 1))
              h = static_cast<count_t>(i + 1);
            else
              break;
          }
          h = std::min<count_t>(h, g.degree(v));
          if (h < ref[v]) {
            ref[v] = h;
            changed = true;
          }
        }
        halo.exchange(comm, ref);
        prev = ref;
        if (!comm.allreduce_or(changed)) break;
      }
    }

    const auto kc = kcore_approx(comm, g, kRounds);
    ASSERT_EQ(kc.core.size(), ref.size());
    for (lid_t v = 0; v < g.n_total(); ++v)
      EXPECT_EQ(kc.core[v], ref[v]) << "lid " << v;
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
          "\"bytes_sent\"", "\"max_inflight_bytes\""})
      EXPECT_NE(json.find(key), std::string::npos) << key;
  });
}

TEST(EngineConfig, FromParamsMapsEveryKnob) {
  core::Params params;
  params.max_exchange_bytes = 1 << 14;
  params.num_threads = 3;
  const engine::Config cfg = engine::Config::from_params(params);
  EXPECT_EQ(cfg.max_exchange_bytes, 1 << 14);
  EXPECT_EQ(cfg.num_threads, 3);
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
  return {st.comm_bytes,   st.supersteps,   ex.exchanges,
          ex.phases,       ex.records_sent, ex.bytes_sent,
          ex.overlapped,   ex.max_inflight_bytes};
}

TEST(EngineThreads, PageRankBitIdenticalAcrossThreadCountsAndKnobs) {
  const EdgeList el = gen::erdos_renyi(1'000, 8, 11);
  for (const count_t chunk : kChunks) {
    std::vector<double> ref;
    std::vector<count_t> ref_wire;
    for (const int threads : {1, 2, 8}) {
      sim::run_world(4, [&](sim::Comm& comm) {
        const DistGraph g =
            build_dist_graph(comm, el, VertexDist::random(el.n, 4, 3));
        PageRankProgram p;
        engine::Config cfg;
        cfg.max_exchange_bytes = chunk;
        cfg.max_supersteps = 12;
        cfg.num_threads = threads;
        const engine::Stats st = engine::run(comm, g, p, cfg);
        EXPECT_EQ(st.num_threads, threads) << cfg_name(cfg);
        const auto global = by_gid(comm, g, p.rank);
        auto wire = wire_ledger(st);
        comm.allreduce_max(wire);  // any rank drift fails the compare
        if (comm.rank() != 0) return;
        if (threads == 1) {
          ref = global;
          ref_wire = wire;
        } else {
          EXPECT_EQ(global, ref) << cfg_name(cfg);
          EXPECT_EQ(wire, ref_wire) << cfg_name(cfg);
        }
      });
    }
  }
}

TEST(EngineThreads, CommLpBitIdenticalAcrossThreadCountsAndKnobs) {
  const EdgeList el = gen::community_graph(1'000, 10, 0.7, 2.3, 5);
  for (const count_t chunk : kChunks) {
    std::vector<gid_t> ref;
    std::vector<count_t> ref_wire;
    for (const int threads : {1, 2, 8}) {
      sim::run_world(4, [&](sim::Comm& comm) {
        const DistGraph g =
            build_dist_graph(comm, el, VertexDist::random(el.n, 4, 4));
        CommLpProgram p;
        engine::Config cfg;
        cfg.max_exchange_bytes = chunk;
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
          EXPECT_EQ(global, ref) << cfg_name(cfg);
          EXPECT_EQ(wire, ref_wire) << cfg_name(cfg);
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

}  // namespace
}  // namespace xtra::analytics
