#include <limits>

#include "analytics/analytics.hpp"
#include "analytics/detail.hpp"
#include "analytics/programs.hpp"
#include "engine/engine.hpp"

namespace xtra::analytics {

SccResult largest_scc(sim::Comm& comm, const graph::DistGraph& g,
                      const engine::Config& cfg) {
  SccResult result;
  detail::Meter meter(comm, result.info);

  // --- Trim (MultiStep stage 1): peel vertices with no live in- or
  // out-neighbor; the surviving active set is a unique fixpoint.
  SccTrimProgram trim;
  result.info.supersteps += engine::run(comm, g, trim, cfg).supersteps;
  const std::vector<std::uint8_t>& active = trim.active;

  // --- Pivot: the highest-degree active vertex (globally agreed).
  count_t best_deg = -1;
  gid_t best_gid = std::numeric_limits<gid_t>::max();
  for (lid_t v = 0; v < g.n_local(); ++v)
    if (active[v] && g.degree(v) > best_deg) {
      best_deg = g.degree(v);
      best_gid = g.gid_of(v);
    }
  const count_t global_deg = comm.allreduce_max(best_deg);
  if (global_deg < 0) {
    // Graph fully trimmed: every SCC is a singleton.
    result.in_scc.assign(g.n_total(), 0);
    result.scc_size = g.n_global() > 0 ? 1 : 0;
    return result;
  }
  if (best_deg != global_deg) best_gid = std::numeric_limits<gid_t>::max();
  const gid_t pivot = comm.allreduce_min(best_gid);

  // --- Forward/backward reachability from the pivot over the active
  // subgraph; the SCC is the intersection (MultiStep stage 2). One
  // root each, so the notifications are bare gids.
  MultiBfsProgram<gid_t> fw, bw;
  fw.roots = bw.roots = {pivot};
  fw.active = bw.active = &active;
  bw.use_in_edges = true;
  result.info.supersteps += engine::run(comm, g, fw, cfg).supersteps;
  result.info.supersteps += engine::run(comm, g, bw, cfg).supersteps;

  result.in_scc.assign(g.n_total(), 0);
  count_t local_size = 0;
  for (lid_t v = 0; v < g.n_total(); ++v) {
    if (fw.levels[v] != kInfDist && bw.levels[v] != kInfDist) {
      result.in_scc[v] = 1;
      if (g.is_owned(v)) ++local_size;
    }
  }
  result.scc_size = comm.allreduce_sum(local_size);
  return result;
}

}  // namespace xtra::analytics
