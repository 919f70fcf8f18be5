// Phase-level unit tests for the XtraPuLP balance/refinement stages:
// each phase is exercised in isolation with hand-seeded states so the
// invariants the driver relies on are pinned down individually.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/exchange.hpp"
#include "core/init.hpp"
#include "core/phases.hpp"
#include "core/state.hpp"
#include "core/xtrapulp.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "metrics/quality.hpp"
#include "mpisim/comm.hpp"
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

// MPI+X thread determinism: the sweeps count live in vertex order and
// only the cut recount is chunk-parallel, so the thread width is a pure
// throughput knob — the full driver must emit byte-identical labels and
// identical wire traffic at threads = 1, 2, 8.
TEST(PhaseThreads, PartitionBitIdenticalAcrossThreadCounts) {
  const EdgeList el = gen::community_graph(3000, 10, 0.7, 2.3, 7);
  std::vector<part_t> ref;
  count_t ref_bytes = 0;
  for (const int threads : {1, 2, 8}) {
    sim::run_world(4, [&](sim::Comm& comm) {
      const DistGraph g =
          build_dist_graph(comm, el, VertexDist::random(el.n, 4, 7));
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
        EXPECT_EQ(global, ref) << "threads=" << threads;
        EXPECT_EQ(bytes, ref_bytes) << "threads=" << threads;
      }
    });
  }
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
  EXPECT_EQ(counts.touched(), (std::vector<part_t>{3, 5}));
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

// On one rank no other rank moves a neighbor concurrently, so the
// tracked Sc + Cc must equal the recount at every refresh.
TEST(CutDeltas, TrackedCutEqualsRecountAfterEverySweepOnOneRank) {
  const EdgeList el =
      with_duplicates(gen::community_graph(3000, 8, 0.6, 2.3, 21), 21);
  sim::run_world(1, [&](sim::Comm& comm) {
    const DistGraph g =
        build_dist_graph(comm, el, VertexDist::block(el.n, 1));
    Params params;
    params.nparts = 8;
    auto parts = init_random(comm, g, params);
    const std::vector<part_t> initial = parts;
    PhaseState st = make_state(comm, g, parts, 8, params);
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

TEST(StrictEstimates, ScaleWithNprocs) {
  PhaseState st;
  st.nprocs = 8;
  st.x = 1.0;
  st.y = 0.25;
  st.i_tot = 10;
  st.iter_tot = 0;
  st.size_v = {100};
  st.change_v = {5};
  st.size_e = {1000};
  st.change_e = {-10};
  // Optimistic estimate uses mult = 8*0.25 = 2; strict uses nprocs.
  EXPECT_DOUBLE_EQ(st.est_v(0), 100 + 2.0 * 5);
  EXPECT_DOUBLE_EQ(st.est_v_strict(0), 100 + 8.0 * 5);
  EXPECT_DOUBLE_EQ(st.est_e(0), 1000 - 2.0 * 10);
  EXPECT_DOUBLE_EQ(st.est_e_strict(0), 1000 - 8.0 * 10);
}

}  // namespace
}  // namespace xtra::core
