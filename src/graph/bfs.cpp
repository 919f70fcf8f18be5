#include "graph/bfs.hpp"

#include <limits>

#include "graph/frontier.hpp"

namespace xtra::graph {

count_t bfs_levels(sim::Comm& comm, const DistGraph& g, gid_t root,
                   std::vector<count_t>& levels, bool use_in_edges) {
  levels.assign(g.n_total(), kUnreached);

  std::vector<lid_t> frontier;
  if (g.owner_of_gid(root) == comm.rank()) {
    const lid_t l = g.lid_of(root);
    XTRA_ASSERT(l != kInvalidLid);
    levels[l] = 0;
    frontier.push_back(l);
  }

  // Persistent across levels: the stepper's notification bucketing
  // and wire engine reuse their buffers every superstep. Each level
  // runs the shared overlapped frontier step: the notify exchange
  // starts as soon as the ghost pass staged it and drains after the
  // owned-frontier expansion.
  FrontierStepper<gid_t> stepper;
  std::vector<lid_t> next;

  count_t level = 0;
  count_t max_level = 0;
  const auto try_mark = [&](lid_t u) {
    if (levels[u] != kUnreached) return false;
    levels[u] = level + 1;
    return true;
  };
  while (comm.allreduce_or(!frontier.empty())) {
    stepper.step(
        comm, g, frontier, next,
        [&](lid_t v) { return use_in_edges ? g.in_arcs(v) : g.arcs(v); },
        [&](lid_t /*v*/, lid_t u) { return levels[u] == kUnreached; },
        [&](lid_t /*v*/, lid_t u) { return try_mark(u); },
        [&](lid_t l) { return g.gid_of(l); },
        [&](const gid_t gid) {
          const lid_t l = g.lid_of(gid);
          XTRA_ASSERT(l != kInvalidLid && g.is_owned(l));
          return try_mark(l) ? l : kInvalidLid;
        });
    if (!next.empty()) max_level = level + 1;
    std::swap(frontier, next);
    ++level;
  }
  return comm.allreduce_max(max_level);
}

count_t estimate_diameter(sim::Comm& comm, const DistGraph& g, int rounds,
                          gid_t first_root) {
  if (g.n_global() == 0) return 0;
  gid_t root = first_root % g.n_global();
  count_t best = 0;
  std::vector<count_t> levels;
  for (int r = 0; r < rounds; ++r) {
    const count_t ecc = bfs_levels(comm, g, root, levels);
    best = std::max(best, ecc);
    // Pick the smallest gid on the farthest level as the next root
    // (deterministic stand-in for the paper's random farthest vertex).
    gid_t candidate = std::numeric_limits<gid_t>::max();
    for (lid_t v = 0; v < g.n_local(); ++v)
      if (levels[v] == ecc) candidate = std::min(candidate, g.gid_of(v));
    candidate = comm.allreduce_min(candidate);
    if (candidate == std::numeric_limits<gid_t>::max() || candidate == root)
      break;  // isolated root or converged eccentricity
    root = candidate;
  }
  return best;
}

}  // namespace xtra::graph
