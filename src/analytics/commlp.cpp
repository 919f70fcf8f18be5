#include <algorithm>

#include "analytics/analytics.hpp"
#include "analytics/detail.hpp"
#include "analytics/programs.hpp"
#include "engine/engine.hpp"

namespace xtra::analytics {

CommunityResult label_propagation(sim::Comm& comm,
                                  const graph::DistGraph& g, int sweeps) {
  CommLpProgram p;
  engine::Config cfg;
  cfg.max_supersteps = std::max(sweeps, 0);  // legacy: sweeps <= 0 runs none
  const engine::Stats st = engine::run(comm, g, p, cfg);

  CommunityResult result;
  result.info = detail::to_run_info(st);
  result.label = std::move(p.label);
  result.num_communities = p.num_communities;
  return result;
}

}  // namespace xtra::analytics
