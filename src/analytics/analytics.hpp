// Distributed graph analytics — the six workloads of Fig 8 (algorithms
// follow Slota et al. [29], the paper's companion analytics study)
// plus the two engine-native ones (delta-capped SSSP, approximate
// triangle count). Every analytic is bulk-synchronous over mpisim:
// local compute + halo exchange per superstep, so execution time and
// communication volume respond to the partition quality exactly as in
// the paper.
//
// Every kernel executes through the unified vertex-program engine
// (engine/engine.hpp): the preferred API is
//   engine::run(comm, g, program, engine::Config{...})
// with the program structs of analytics/programs.hpp, which inherits
// every transport knob (chunk size, intra-rank threads) uniformly. The entry points below are kept as thin
// wrappers — bit-identical to engine::run at their default knobs —
// for callers of the historical per-kernel signatures; the composite
// and engine-native kernels (harmonic centrality, SCC, SSSP, triangle
// count) take a trailing `const engine::Config& cfg = {}`.
//
// Each run reports wall seconds and the bytes this rank sent (callers
// aggregate via Comm::global_bytes_sent-style reductions).
#pragma once

#include <vector>

#include "engine/config.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"

namespace xtra::analytics {

/// Measurement common to all analytics.
struct RunInfo {
  double seconds = 0.0;
  count_t comm_bytes = 0;  ///< bytes sent by this rank
  count_t supersteps = 0;
};

/// PageRank (PR): up to `iters` damped power iterations over the
/// undirected adjacency (the paper treats all edges as undirected).
/// Each superstep's contribution exchange overlaps the interior
/// update and is drained in-step (bit-identical to a blocking
/// refresh). `tol` > 0 adds a residual-based stop
/// (sum |rank' - rank| <= tol, one allreduce per superstep); 0 keeps
/// the fixed-iteration contract.
struct PageRankResult {
  RunInfo info;
  std::vector<double> rank;  ///< size n_total (ghost entries refreshed)
  double sum = 0.0;          ///< global rank mass (~1.0)
};
PageRankResult pagerank(sim::Comm& comm, const graph::DistGraph& g,
                        int iters = 20, double damping = 0.85,
                        double tol = 0.0);

/// Weakly connected components (WCC) via min-label hooking.
struct ComponentsResult {
  RunInfo info;
  std::vector<gid_t> component;  ///< size n_total, component root gid
  count_t num_components = 0;
  count_t largest_size = 0;
};
ComponentsResult weakly_connected_components(sim::Comm& comm,
                                             const graph::DistGraph& g);

/// Label-propagation community detection (LP): up to `sweeps`
/// synchronous majority-label rounds, one full halo refresh each.
struct CommunityResult {
  RunInfo info;
  std::vector<gid_t> label;  ///< size n_total
  count_t num_communities = 0;
};
CommunityResult label_propagation(sim::Comm& comm, const graph::DistGraph& g,
                                  int sweeps = 10);

/// Approximate k-core decomposition (KC): iterated synchronous
/// neighborhood h-index (Lü et al.), which converges to the exact
/// coreness; `rounds` caps the iteration count.
struct KCoreResult {
  RunInfo info;
  std::vector<count_t> core;  ///< size n_total
  count_t max_core = 0;
};
KCoreResult kcore_approx(sim::Comm& comm, const graph::DistGraph& g,
                         int rounds = 20);

/// Harmonic centrality (HC) of `num_sources` sampled vertices:
/// HC(v) = sum_u 1/d(u,v). All sources advance as bits of ONE
/// bit-parallel MultiBfsProgram run — one expansion per frontier
/// vertex, one wire record per touched ghost and one exchange per
/// level for the whole sample, bit-identical to a per-source loop.
/// cfg routes the shared notification exchange (chunk size). An empty
/// graph yields empty `sources` and `centrality`; a negative
/// `num_sources` throws std::invalid_argument on every rank.
struct HarmonicResult {
  RunInfo info;
  std::vector<gid_t> sources;
  std::vector<double> centrality;  ///< aligned with sources
};
HarmonicResult harmonic_centrality(sim::Comm& comm,
                                   const graph::DistGraph& g,
                                   int num_sources = 16,
                                   std::uint64_t seed = 1,
                                   const engine::Config& cfg = {});

/// Largest strongly connected component extraction (SCC) on a
/// *directed* graph: trim + forward/backward BFS from a max-degree
/// pivot (the MultiStep scheme of [29], first stage). cfg routes the
/// trim's halo refresh and both BFS notification exchanges.
struct SccResult {
  RunInfo info;
  std::vector<std::uint8_t> in_scc;  ///< size n_total, 1 if in largest SCC
  count_t scc_size = 0;
};
SccResult largest_scc(sim::Comm& comm, const graph::DistGraph& g,
                      const engine::Config& cfg = {});

/// Delta-capped single-source shortest paths (SSSP) over the
/// deterministic synthetic edge weights of
/// analytics::edge_weight(a, b, weight_seed, max_weight): each
/// superstep expands only frontier vertices within the current
/// distance threshold (bucket width `delta`), deferring the rest — a
/// delta-stepping-style cap on per-superstep relaxation work. dist is
/// kInfDist (see programs.hpp) for unreachable vertices. Throws
/// std::invalid_argument (on every rank, before any collective) for
/// delta < 1, max_weight < 1 or root >= n_global().
struct SsspResult {
  RunInfo info;
  std::vector<count_t> dist;  ///< size n_total (ghost entries best-known)
  count_t reached = 0;        ///< vertices with a finite distance
  count_t max_dist = 0;       ///< largest finite distance (global)
};
SsspResult sssp(sim::Comm& comm, const graph::DistGraph& g, gid_t root,
                count_t delta = 8, count_t max_weight = 16,
                std::uint64_t weight_seed = 1,
                const engine::Config& cfg = {});

/// Approximate triangle count (TC): every owned vertex stages closure
/// queries for its wedges (all of them, or a deterministic unbiased
/// sample of `sample_cap` past the cap) through a query_reply round
/// trip to the smaller endpoint's owner. Exact when no vertex exceeds
/// the cap.
struct TriangleResult {
  RunInfo info;
  double triangles = 0.0;       ///< global (estimated) triangle count
  count_t sampled_centers = 0;  ///< vertices that hit the sample cap
};
TriangleResult triangle_count(sim::Comm& comm, const graph::DistGraph& g,
                              count_t sample_cap = 256,
                              std::uint64_t seed = 1,
                              const engine::Config& cfg = {});

}  // namespace xtra::analytics
