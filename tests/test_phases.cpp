// Phase-level unit tests for the XtraPuLP balance/refinement stages:
// each phase is exercised in isolation with hand-seeded states so the
// invariants the driver relies on are pinned down individually.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string_view>
#include <tuple>
#include <utility>

#include "core/exchange.hpp"
#include "core/init.hpp"
#include "core/phases.hpp"
#include "core/state.hpp"
#include "core/xtrapulp.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "metrics/quality.hpp"
#include "mpisim/comm.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace xtra::core {
namespace {

using graph::DistGraph;
using graph::EdgeList;
using graph::VertexDist;

PhaseState make_state(sim::Comm& comm, const DistGraph& g,
                      const std::vector<part_t>& parts, part_t nparts,
                      const Params& params) {
  PhaseState st;
  st.nparts = nparts;
  st.nprocs = comm.size();
  st.x = params.mult_x;
  st.y = params.mult_y;
  st.i_tot = params.outer_iters * (params.bal_iters + params.ref_iters);
  st.imb_v = static_cast<count_t>(
      (1.0 + params.vert_imbalance) * static_cast<double>(g.n_global()) /
      static_cast<double>(nparts)) + 1;
  st.imb_e = static_cast<count_t>(
      (1.0 + params.edge_imbalance) * 2.0 *
      static_cast<double>(g.m_global()) / static_cast<double>(nparts)) + 1;
  st.size_v = compute_vertex_sizes(comm, g, parts, nparts);
  st.change_v.assign(static_cast<std::size_t>(nparts), 0);
  return st;
}

/// Deliberately skewed but consistent labeling: low gids get part 0.
std::vector<part_t> skewed_labels(const DistGraph& g, part_t nparts,
                                  double skew) {
  std::vector<part_t> parts(g.n_total());
  const auto n = static_cast<double>(g.n_global());
  for (lid_t v = 0; v < g.n_total(); ++v) {
    const double frac = static_cast<double>(g.gid_of(v)) / n;
    // skew in (0,1): that fraction of vertices lands in part 0.
    if (frac < skew) {
      parts[v] = 0;
    } else {
      parts[v] = 1 + static_cast<part_t>((frac - skew) / (1.0 - skew) *
                                         (nparts - 1));
      parts[v] = std::min<part_t>(parts[v], nparts - 1);
    }
  }
  return parts;
}

class PhaseRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, PhaseRanks, ::testing::Values(1, 2, 4),
                         [](const auto& inf) {
                           return "nranks_" + std::to_string(inf.param);
                         });

TEST_P(PhaseRanks, VertBalanceReducesImbalance) {
  const int nranks = GetParam();
  const EdgeList el = gen::erdos_renyi(4000, 10, 3);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 3));
    Params params;
    params.nparts = 8;
    auto parts = skewed_labels(g, 8, 0.6);  // 60% in part 0
    PhaseState st = make_state(comm, g, parts, 8, params);
    const double before =
        metrics::evaluate_dist(comm, g, parts, 8).vertex_imbalance;
    for (int outer = 0; outer < 3; ++outer) {
      vert_balance_phase(comm, g, parts, st, params);
      vert_refine_phase(comm, g, parts, st, params);
    }
    const double after =
        metrics::evaluate_dist(comm, g, parts, 8).vertex_imbalance;
    EXPECT_LT(after, before / 2);
    EXPECT_LE(after, 1.0 + params.vert_imbalance + 0.05);
    EXPECT_TRUE(check_partition_consistent(comm, g, parts, 8));
  });
}

TEST_P(PhaseRanks, VertBalanceTracksSizesExactly) {
  // After fold_changes, st.size_v must equal a from-scratch recount.
  const int nranks = GetParam();
  const EdgeList el = gen::community_graph(2000, 8, 0.6, 2.3, 5);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 5));
    Params params;
    params.nparts = 6;
    auto parts = init_random(comm, g, params);
    PhaseState st = make_state(comm, g, parts, 6, params);
    vert_balance_phase(comm, g, parts, st, params);
    EXPECT_EQ(st.size_v, compute_vertex_sizes(comm, g, parts, 6));
    vert_refine_phase(comm, g, parts, st, params);
    EXPECT_EQ(st.size_v, compute_vertex_sizes(comm, g, parts, 6));
  });
}

TEST_P(PhaseRanks, VertRefineReducesCutWithoutBreakingCap) {
  const int nranks = GetParam();
  const EdgeList el = gen::community_graph(3000, 10, 0.7, 2.3, 7);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 7));
    Params params;
    params.nparts = 4;
    auto parts = init_random(comm, g, params);
    PhaseState st = make_state(comm, g, parts, 4, params);
    const auto before = metrics::evaluate_dist(comm, g, parts, 4);
    const count_t cap_before =
        std::max(*std::max_element(st.size_v.begin(), st.size_v.end()),
                 st.imb_v);
    vert_refine_phase(comm, g, parts, st, params);
    const auto after = metrics::evaluate_dist(comm, g, parts, 4);
    EXPECT_LT(after.cut, before.cut);
    // No part may exceed the cap that held when refinement started.
    for (const count_t s : compute_vertex_sizes(comm, g, parts, 4))
      EXPECT_LE(s, cap_before);
  });
}

TEST_P(PhaseRanks, EdgeBalanceImprovesEdgeImbalance) {
  const int nranks = GetParam();
  // Star-heavy graph: hubs concentrate degree.
  const EdgeList el = gen::rmat(11, 8, 5);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 5));
    Params params;
    params.nparts = 4;
    // Vertex-balanced but edge-skewed start: random labels are vertex
    // balanced while hub placement skews degree sums.
    auto parts = init_random(comm, g, params);
    PhaseState st = make_state(comm, g, parts, 4, params);
    st.size_e = compute_edge_sizes(comm, g, parts, 4);
    st.size_c = compute_cut_sizes(comm, g, parts, 4);
    st.change_e.assign(4, 0);
    st.change_c.assign(4, 0);
    const double before =
        metrics::evaluate_dist(comm, g, parts, 4).edge_imbalance;
    for (int outer = 0; outer < 3; ++outer) {
      edge_balance_phase(comm, g, parts, st, params);
      edge_refine_phase(comm, g, parts, st, params);
    }
    const double after =
        metrics::evaluate_dist(comm, g, parts, 4).edge_imbalance;
    EXPECT_LE(after, std::max(before, 1.0 + params.edge_imbalance + 0.1));
    EXPECT_TRUE(check_partition_consistent(comm, g, parts, 4));
  });
}

TEST_P(PhaseRanks, EdgePhasesTrackAllThreeSizeVectors) {
  const int nranks = GetParam();
  const EdgeList el = gen::community_graph(2000, 8, 0.6, 2.3, 9);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 9));
    Params params;
    params.nparts = 5;
    auto parts = init_random(comm, g, params);
    PhaseState st = make_state(comm, g, parts, 5, params);
    st.size_e = compute_edge_sizes(comm, g, parts, 5);
    st.size_c = compute_cut_sizes(comm, g, parts, 5);
    st.change_e.assign(5, 0);
    st.change_c.assign(5, 0);
    edge_balance_phase(comm, g, parts, st, params);
    EXPECT_EQ(st.size_v, compute_vertex_sizes(comm, g, parts, 5));
    EXPECT_EQ(st.size_e, compute_edge_sizes(comm, g, parts, 5));
    EXPECT_EQ(st.size_c, compute_cut_sizes(comm, g, parts, 5));
    edge_refine_phase(comm, g, parts, st, params);
    EXPECT_EQ(st.size_v, compute_vertex_sizes(comm, g, parts, 5));
    EXPECT_EQ(st.size_e, compute_edge_sizes(comm, g, parts, 5));
    EXPECT_EQ(st.size_c, compute_cut_sizes(comm, g, parts, 5));
  });
}

TEST_P(PhaseRanks, NoPhaseEverEmptiesAPart) {
  const int nranks = GetParam();
  const EdgeList el = gen::rmat(10, 8, 13);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::random(el.n, nranks, 13));
    Params params;
    params.nparts = 16;
    auto parts = init_bfs_growing(comm, g, params);
    PhaseState st = make_state(comm, g, parts, 16, params);
    for (int outer = 0; outer < 3; ++outer) {
      vert_balance_phase(comm, g, parts, st, params);
      for (const count_t s : st.size_v) EXPECT_GE(s, 1);
      vert_refine_phase(comm, g, parts, st, params);
      for (const count_t s : st.size_v) EXPECT_GE(s, 1);
    }
  });
}

// MPI+X thread determinism: on one or two ranks each rank sweeps as
// sub-ranks on the worker pool, but a sub-rank's block depends only on
// the graph and the rank count, and it reads only sweep-start labels
// outside its block, so the thread width is a pure throughput knob —
// the full driver must emit byte-identical labels and identical wire
// traffic at threads = 1, 2, 8 for every rank count.
TEST(PhaseThreads, PartitionBitIdenticalAcrossThreadCounts) {
  const EdgeList el = gen::community_graph(3000, 10, 0.7, 2.3, 7);
  for (const int ranks : {1, 2, 4}) {
    std::vector<part_t> ref;
    count_t ref_bytes = 0;
    for (const int threads : {1, 2, 8}) {
      sim::run_world(ranks, [&](sim::Comm& comm) {
        const DistGraph g =
            build_dist_graph(comm, el, VertexDist::random(el.n, ranks, 7));
        Params params;
        params.nparts = 8;
        params.edge_phases = true;
        params.num_threads = threads;
        const PartitionResult r = partition(comm, g, params);
        const std::vector<part_t> global =
            gather_global_parts(comm, g, r.parts);
        const count_t bytes = comm.allreduce_sum(r.comm_bytes);
        if (comm.rank() != 0) return;
        if (threads == 1) {
          ref = global;
          ref_bytes = bytes;
        } else {
          EXPECT_EQ(global, ref) << "ranks=" << ranks << " threads=" << threads;
          EXPECT_EQ(bytes, ref_bytes)
              << "ranks=" << ranks << " threads=" << threads;
        }
      });
    }
  }
}

// ---------------------------------------------------------------------------
// At three or more ranks every rank is a single decider, exactly as
// before sub-ranks existed. The golden values below
// were recorded from the single-decider sweep (labels, per-phase moves
// and wire bytes) and must not move by a byte. The bytes count 8-byte
// {slot, part} update records plus the phases' collectives.

/// FNV-1a over the global label vector.
std::uint64_t label_hash(const std::vector<part_t>& global) {
  std::uint64_t h = 1469598103934665603ull;
  for (const part_t p : global) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(p));
    h *= 1099511628211ull;
  }
  return h;
}

/// core::partition's stages phase by phase from a hand-built
/// PhaseState, as perfbench's stage replay drives them. Returns the
/// labels; `moves` gets the owned labels each phase kind changed
/// (vert_balance, vert_refine, edge_balance, edge_refine), summed over
/// outer iterations on this rank.
std::vector<part_t> replay_partition(sim::Comm& comm, const DistGraph& g,
                                     const Params& params,
                                     std::vector<count_t>& moves) {
  par::ThreadScope threads(params.num_threads);
  std::vector<part_t> parts = initialize_parts(comm, g, params);
  PhaseState st;
  st.nparts = params.nparts;
  st.nprocs = comm.size();
  st.exchanger.set_max_send_bytes(params.max_exchange_bytes);
  st.x = params.mult_x;
  st.y = params.mult_y;
  st.i_tot = params.outer_iters * (params.bal_iters + params.ref_iters);
  st.imb_v = static_cast<count_t>(
      std::ceil((1.0 + params.vert_imbalance) *
                static_cast<double>(g.n_global()) /
                static_cast<double>(params.nparts)));
  st.imb_e = static_cast<count_t>(
      std::ceil((1.0 + params.edge_imbalance) * 2.0 *
                static_cast<double>(g.m_global()) /
                static_cast<double>(params.nparts)));
  using Phase = void (*)(sim::Comm&, const DistGraph&, std::vector<part_t>&,
                         PhaseState&, const Params&);
  moves.assign(4, 0);
  const auto phase = [&](std::size_t kind, Phase fn) {
    const std::vector<part_t> before = parts;
    fn(comm, g, parts, st, params);
    for (lid_t v = 0; v < g.n_local(); ++v)
      moves[kind] += before[v] != parts[v];
  };
  st.size_v = compute_vertex_sizes(comm, g, parts, params.nparts);
  st.change_v.assign(static_cast<std::size_t>(params.nparts), 0);
  for (int outer = 0; outer < params.outer_iters; ++outer) {
    phase(0, vert_balance_phase);
    phase(1, vert_refine_phase);
  }
  st.size_e = compute_edge_sizes(comm, g, parts, params.nparts);
  st.size_c = compute_cut_sizes(comm, g, parts, params.nparts);
  st.change_e.assign(static_cast<std::size_t>(params.nparts), 0);
  st.change_c.assign(static_cast<std::size_t>(params.nparts), 0);
  st.iter_tot = 0;
  for (int outer = 0; outer < params.outer_iters; ++outer) {
    phase(2, edge_balance_phase);
    phase(3, edge_refine_phase);
  }
  return parts;
}

struct GoldenKey {
  std::string_view gen;
  int ranks;
  bool operator<(const GoldenKey& rhs) const {
    return std::tie(gen, ranks) < std::tie(rhs.gen, rhs.ranks);
  }
};

struct PartitionLedger {
  std::uint64_t label_hash;
  std::vector<count_t> moves;  ///< per phase kind, world-summed
  count_t comm_bytes;          ///< world-summed
  bool operator==(const PartitionLedger&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PartitionLedger& l) {
  os << "{" << l.label_hash << "ull, {";
  for (std::size_t i = 0; i < l.moves.size(); ++i)
    os << (i ? ", " : "") << l.moves[i];
  return os << "}, " << l.comm_bytes << "}";
}

using namespace std::literals::string_view_literals;
const std::map<GoldenKey, PartitionLedger> kSingleDeciderLedger{
    {{"community"sv, 3},
     {16411718439396485643ull, {10852, 6979, 12836, 10118}, 2435912}},
    {{"community"sv, 4},
     {8840540728567854776ull, {10220, 7310, 12721, 10318}, 3400240}},
    {{"community"sv, 8},
     {7641233001883770030ull, {9605, 6961, 13047, 10991}, 5889104}},
    {{"rander"sv, 3},
     {868062882433359707ull, {13186, 6363, 15832, 11847}, 3299960}},
    {{"rander"sv, 4},
     {10269958797586118684ull, {13141, 6454, 15736, 12072}, 5155720}},
    {{"rander"sv, 8},
     {11456535463555612987ull, {12658, 8196, 15702, 12583}, 10544904}},
    {{"rmat"sv, 3},
     {15435333313529082247ull, {5632, 3347, 7025, 4665}, 922088}},
    {{"rmat"sv, 4},
     {1880071265861837271ull, {5778, 3181, 7045, 5049}, 1308216}},
    {{"rmat"sv, 8},
     {17761336078038278848ull, {5497, 3357, 6992, 5580}, 2425408}},
};

EdgeList golden_graph(std::string_view gen) {
  if (gen == "rander") return gen::erdos_renyi(6000, 10, 31);
  if (gen == "rmat") return gen::rmat(12, 8, 31);
  return gen::community_graph(5000, 10, 0.7, 2.3, 31);
}

/// Partition each table row's graph at its rank count and check the
/// labels, per-phase moves and wire bytes against the row.
void expect_golden_ledger(const std::map<GoldenKey, PartitionLedger>& table) {
  for (const auto& [key, want] : table) {
    const EdgeList el = golden_graph(key.gen);
    sim::run_world(key.ranks, [&](sim::Comm& comm) {
      const DistGraph g = build_dist_graph(
          comm, el, VertexDist::random(el.n, key.ranks, 31));
      Params params;
      params.nparts = 16;
      params.seed = 31;
      const PartitionResult r = partition(comm, g, params);
      std::vector<count_t> moves;
      const std::vector<part_t> replayed =
          replay_partition(comm, g, params, moves);
      EXPECT_EQ(replayed, r.parts) << "stage replay differs from partition";
      comm.allreduce_sum(moves);
      const PartitionLedger got{
          label_hash(gather_global_parts(comm, g, r.parts)), moves,
          comm.allreduce_sum(r.comm_bytes)};
      if (comm.rank() != 0) return;
      EXPECT_EQ(got, want) << key.gen << " ranks=" << key.ranks;
    });
  }
}

TEST(PhaseGolden, SingleDeciderSweepMatchesGoldenTable) {
  expect_golden_ledger(kSingleDeciderLedger);
}

// One or two ranks split each rank into sub-rank deciders (four on one
// rank, two each on two), the path one-rank workloads take.
const std::map<GoldenKey, PartitionLedger> kSubRankLedger{
    {{"community"sv, 1},
     {1618543120127385557ull, {9823, 5253, 12981, 9464}, 0}},
    {{"community"sv, 2},
     {10227697058494470689ull, {10198, 6563, 12980, 10160}, 1223160}},
    {{"rander"sv, 1},
     {6972106413134432458ull, {13506, 6959, 15785, 12134}, 0}},
    {{"rander"sv, 2},
     {6448657298114989400ull, {11473, 5665, 15662, 12130}, 1775464}},
    {{"rmat"sv, 1},
     {6435901009182559505ull, {5759, 2565, 6919, 5281}, 0}},
    {{"rmat"sv, 2},
     {7060808960931403183ull, {6001, 3499, 6037, 4606}, 434872}},
};

TEST(PhaseGolden, SubRankSweepMatchesGoldenTable) {
  expect_golden_ledger(kSubRankLedger);
}

// ---------------------------------------------------------------------------
// One or two ranks: each rank sweeps as floor(4 / nprocs) sub-ranks.

double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

// With one decider, mult(0) = D*Y = 0.25 discounted the decider's own
// exact changes, and one-rank RMAT overshot both 10% caps (medians
// 1.19 vertex / 1.85 edge imbalance). Four sub-ranks restore
// mult(0) = 1.
TEST(SubRanks, OneRankRmatMeetsBothConstraints) {
  std::vector<double> vert;
  std::vector<double> edge;
  for (const std::uint64_t seed : {11, 12, 13, 14}) {
    const EdgeList el = gen::rmat(13, 16, seed);
    sim::run_world(1, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 1, seed));
      Params params;
      params.nparts = 16;
      params.seed = seed;
      const PartitionResult r = partition(comm, g, params);
      const auto q = metrics::evaluate_dist(comm, g, r.parts, 16);
      vert.push_back(q.vertex_imbalance);
      edge.push_back(q.edge_imbalance);
    });
  }
  EXPECT_LE(median_of(vert), 1.10 + 0.01);
  EXPECT_LE(median_of(edge), 1.10 + 0.01);
}

/// Partition `el` at each rank count that splits ranks into sub-ranks
/// and check that no part is empty and every ghost label matches its
/// owner.
void expect_valid_split(const EdgeList& el, part_t nparts) {
  for (const int ranks : {1, 2}) {
    sim::run_world(ranks, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, ranks, 5));
      Params params;
      params.nparts = nparts;
      params.num_threads = 4;
      const PartitionResult r = partition(comm, g, params);
      for (const count_t s : compute_vertex_sizes(comm, g, r.parts, nparts))
        EXPECT_GE(s, 1) << "ranks=" << ranks;
      EXPECT_TRUE(check_partition_consistent(comm, g, r.parts, nparts))
          << "ranks=" << ranks;
    });
  }
}

TEST(SubRanks, FewerOwnedVerticesThanSubRanks) {
  EdgeList el;
  el.n = 3;
  el.edges = {{0, 1}, {1, 2}};
  expect_valid_split(el, 2);
}

TEST(SubRanks, AllIsolatedVertices) {
  EdgeList el;
  el.n = 64;
  expect_valid_split(el, 4);
}

TEST(SubRanks, OneHubHoldsOverAQuarterOfTheArcs) {
  // A star over 400 vertices plus a ring through the leaves: the hub
  // holds half the arcs, so on one rank it fills its block alone.
  EdgeList el;
  el.n = 400;
  for (gid_t v = 1; v < el.n; ++v) el.edges.push_back({0, v});
  for (gid_t v = 1; v < el.n; ++v)
    el.edges.push_back({v, v + 1 < el.n ? v + 1 : 1});
  expect_valid_split(el, 8);
}

TEST(NeighborCountsScratch, AccumulatesAndResets) {
  NeighborCounts counts(8);
  counts.add(3, 2.0);
  counts.add(3, 1.0);
  counts.add(5, 4.0);
  EXPECT_DOUBLE_EQ(counts.get(3), 3.0);
  EXPECT_DOUBLE_EQ(counts.get(5), 4.0);
  EXPECT_DOUBLE_EQ(counts.get(0), 0.0);
  EXPECT_EQ(counts.units(3), 2);
  EXPECT_EQ(counts.units(5), 1);
  EXPECT_EQ(std::vector<part_t>(counts.touched().begin(),
                                counts.touched().end()),
            (std::vector<part_t>{3, 5}));
  counts.reset();
  EXPECT_DOUBLE_EQ(counts.get(3), 0.0);
  EXPECT_EQ(counts.units(3), 0);
  EXPECT_TRUE(counts.touched().empty());
  counts.add(1, 1.5);
  EXPECT_DOUBLE_EQ(counts.get(1), 1.5);
  EXPECT_EQ(counts.units(1), 1);
}

TEST(NeighborCountsScratch, ZeroWeightDoesNotTouch) {
  NeighborCounts counts(4);
  counts.add(2, 0.0);
  EXPECT_TRUE(counts.touched().empty());
  EXPECT_EQ(counts.units(2), 0);
}

/// `el` plus random duplicates of its edges, in both orientations.
EdgeList with_duplicates(EdgeList el, std::uint64_t seed) {
  Rng rng(seed, 0xD0B);
  const std::size_t m = el.edges.size();
  for (std::size_t i = 0; i < m; ++i) {
    const graph::Edge e = el.edges[i];
    if (rng.next_below(4) == 0) el.edges.push_back(e);
    if (rng.next_below(8) == 0) el.edges.push_back({e.v, e.u});
  }
  return el;
}

/// The per-arc cut-delta walk that apply_cut_deltas' closed form
/// replaced: each arc's cut edge leaves x's side and joins w's.
void arc_walk_cut_deltas(const DistGraph& g, const std::vector<part_t>& parts,
                         lid_t v, part_t x, part_t w,
                         std::vector<count_t>& change_c) {
  for (const lid_t u : g.arcs(v)) {
    const part_t pu = parts[u];
    if (pu != x) {
      --change_c[static_cast<std::size_t>(x)];
      --change_c[static_cast<std::size_t>(pu)];
    }
    if (pu != w) {
      ++change_c[static_cast<std::size_t>(w)];
      ++change_c[static_cast<std::size_t>(pu)];
    }
  }
}

TEST(CutDeltas, ClosedFormMatchesArcWalkWithDuplicateEdges) {
  constexpr part_t kParts = 7;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    const EdgeList el = with_duplicates(gen::erdos_renyi(500, 6, seed), seed);
    for (const int nranks : {1, 2}) {
      sim::run_world(nranks, [&](sim::Comm& comm) {
        const DistGraph g = build_dist_graph(
            comm, el, VertexDist::random(el.n, nranks, seed));
        Rng rng(seed, static_cast<std::uint64_t>(comm.rank()));
        std::vector<part_t> parts(g.n_total());
        for (part_t& p : parts)
          p = static_cast<part_t>(rng.next_below(kParts));
        NeighborCounts counts(kParts);
        std::vector<count_t> closed(kParts, 0);
        std::vector<count_t> walked(kParts, 0);
        count_t dup_arcs = 0;
        for (lid_t v = 0; v < g.n_local(); ++v) {
          const part_t x = parts[v];
          const auto w = static_cast<part_t>(
              (x + 1 + static_cast<part_t>(rng.next_below(kParts - 1))) %
              kParts);
          counts.count(g, parts, v, /*by_degree=*/true);
          apply_cut_deltas(counts, x, w, g.out_degree(v), closed);
          arc_walk_cut_deltas(g, parts, v, x, w, walked);
          ASSERT_EQ(closed, walked) << "seed=" << seed << " v=" << v;
          std::vector<lid_t> nbrs(g.arcs(v).begin(), g.arcs(v).end());
          std::sort(nbrs.begin(), nbrs.end());
          dup_arcs += static_cast<count_t>(
              nbrs.end() - std::unique(nbrs.begin(), nbrs.end()));
          parts[v] = w;  // later vertices see the move, as in a sweep
        }
        EXPECT_GT(dup_arcs, 0) << "the graph must carry duplicate edges";
      });
    }
  }
}

/// `copies` vertex-disjoint copies of `el`, copy k on gids
/// [k*n, (k+1)*n).
EdgeList disjoint_copies(const EdgeList& el, int copies) {
  EdgeList out;
  out.n = el.n * static_cast<gid_t>(copies);
  out.directed = el.directed;
  for (int k = 0; k < copies; ++k) {
    const gid_t base = el.n * static_cast<gid_t>(k);
    for (const graph::Edge& e : el.edges)
      out.edges.push_back({e.u + base, e.v + base});
  }
  return out;
}

// A decider's own cut deltas are exact, so the tracked Sc + Cc must
// equal the recount at every refresh when no arc joins two deciders.
// One rank sweeps as four sub-ranks cut at equal arc counts; on four
// identical disjoint copies of a graph (duplicates applied before
// copying) those cuts fall between the copies.
TEST(CutDeltas, TrackedCutEqualsRecountAfterEverySweepOnOneRank) {
  const EdgeList el = disjoint_copies(
      with_duplicates(gen::community_graph(3000, 8, 0.6, 2.3, 21), 21), 4);
  sim::run_world(1, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, 1));
    Params params;
    params.nparts = 8;
    auto parts = init_random(comm, g, params);
    const std::vector<part_t> initial = parts;
    PhaseState st = make_state(comm, g, parts, 8, params);
    ASSERT_EQ(st.subranks(), 4);
    st.size_e = compute_edge_sizes(comm, g, parts, 8);
    st.size_c = compute_cut_sizes(comm, g, parts, 8);
    st.change_e.assign(8, 0);
    st.change_c.assign(8, 0);
    for (int outer = 0; outer < 2; ++outer) {
      edge_balance_phase(comm, g, parts, st, params);
      EXPECT_EQ(st.cut_drift, 0) << "edge balance, outer " << outer;
      edge_refine_phase(comm, g, parts, st, params);
      EXPECT_EQ(st.cut_drift, 0) << "edge refine, outer " << outer;
    }
    EXPECT_NE(parts, initial) << "the sweeps must move vertices";
  });
}

TEST(CanLeave, WorstCaseBound) {
  PhaseState st;
  st.nprocs = 4;
  st.size_v = {10, 2};
  st.change_v = {0, 0};
  // Part 1 has 2 vertices: one departure per rank could empty it.
  EXPECT_TRUE(st.can_leave(0));
  EXPECT_FALSE(st.can_leave(1));
  // After this rank removed 2 from part 0 (worst case 8 globally),
  // one more departure would risk 10 - 4*3 < 1.
  st.change_v[0] = -2;
  EXPECT_FALSE(st.can_leave(0));
}

// A split makes at most four deciders: three ranks split in two would
// be six, which already raised RandER's cut by 11% (DESIGN.md §6).
TEST(SubRanks, SplitMakesAtMostFourDeciders) {
  PhaseState st;
  for (const auto& [nprocs, subranks] :
       {std::pair{1, 4}, {2, 2}, {3, 1}, {4, 1}, {8, 1}}) {
    st.nprocs = nprocs;
    EXPECT_EQ(st.subranks(), subranks) << "nprocs=" << nprocs;
    EXPECT_EQ(st.deciders(), nprocs * subranks) << "nprocs=" << nprocs;
  }
}

TEST(StrictEstimates, ScaleWithDeciders) {
  PhaseState st;
  st.x = 1.0;
  st.y = 0.25;
  st.i_tot = 10;
  st.iter_tot = 0;
  st.size_v = {100};
  st.size_e = {1000};
  Decider d;
  d.st = &st;
  d.change_v = {5};
  d.change_e = {-10};
  const auto fix_multipliers = [&](int nprocs) {
    st.nprocs = nprocs;
    d.mult = st.mult();
    d.deciders = st.deciders();
  };
  // 8 ranks are 8 deciders: the optimistic estimate uses
  // mult = 8*0.25 = 2, the strict one the decider count.
  fix_multipliers(8);
  EXPECT_DOUBLE_EQ(d.est_v(0), 100 + 2.0 * 5);
  EXPECT_DOUBLE_EQ(d.est_v_strict(0), 100 + 8.0 * 5);
  EXPECT_DOUBLE_EQ(d.est_e(0), 1000 - 2.0 * 10);
  EXPECT_DOUBLE_EQ(d.est_e_strict(0), 1000 - 8.0 * 10);
  // One rank sweeps as 4 sub-ranks: mult = 4*0.25 = 1 counts a
  // decider's own changes in full, and the strict scale is 4.
  fix_multipliers(1);
  EXPECT_DOUBLE_EQ(d.est_v(0), 100 + 1.0 * 5);
  EXPECT_DOUBLE_EQ(d.est_v_strict(0), 100 + 4.0 * 5);
  EXPECT_DOUBLE_EQ(d.est_e(0), 1000 - 1.0 * 10);
  EXPECT_DOUBLE_EQ(d.est_e_strict(0), 1000 - 4.0 * 10);
}

}  // namespace
}  // namespace xtra::core
