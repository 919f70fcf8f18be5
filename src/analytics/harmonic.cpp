#include <stdexcept>

#include "analytics/analytics.hpp"
#include "analytics/detail.hpp"
#include "analytics/programs.hpp"
#include "engine/engine.hpp"
#include "util/rng.hpp"

namespace xtra::analytics {

HarmonicResult harmonic_centrality(sim::Comm& comm,
                                   const graph::DistGraph& g,
                                   int num_sources, std::uint64_t seed,
                                   const engine::Config& cfg) {
  // Rank-uniform check ahead of any collective: every rank throws.
  if (num_sources < 0)
    throw std::invalid_argument("harmonic_centrality: num_sources < 0");
  HarmonicResult result;
  detail::Meter meter(comm, result.info);

  // An empty graph has nothing to sample (and no modulus to sample
  // with); n_global is rank-uniform, so every rank returns here.
  if (g.n_global() == 0) return result;

  // Deterministic source sample every rank can compute without
  // communication.
  result.sources.reserve(static_cast<std::size_t>(num_sources));
  for (int i = 0; i < num_sources; ++i)
    result.sources.push_back(
        splitmix64(seed + static_cast<std::uint64_t>(i)) % g.n_global());

  // One bit-parallel run: every source is one bit of the multi-source
  // BFS masks, so all N traversals share each level's adjacency visit,
  // wire record and termination allreduce. Source s's levels — and
  // hence each centrality sum below, accumulated in the same lid order
  // and reduced in the same rank order — are bit-identical to the
  // retired per-source loop's.
  MultiBfsProgram bfs;
  bfs.roots = result.sources;
  engine::run(comm, g, bfs, cfg);

  std::vector<double> local(result.sources.size(), 0.0);
  for (std::size_t s = 0; s < result.sources.size(); ++s) {
    const std::size_t base = s * static_cast<std::size_t>(bfs.stride);
    for (lid_t v = 0; v < g.n_local(); ++v) {
      const count_t lv = bfs.levels[base + v];
      if (lv > 0 && lv != kInfDist)
        local[s] += 1.0 / static_cast<double>(lv);
    }
  }
  comm.allreduce_sum(local);
  result.centrality = std::move(local);
  // The legacy meter summed each source's eccentricity (the levels
  // that source ran); keep the field's meaning across the migration.
  for (const count_t e : bfs.ecc) result.info.supersteps += e;
  return result;
}

}  // namespace xtra::analytics
