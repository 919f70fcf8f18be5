#include <algorithm>

#include "analytics/analytics.hpp"
#include "analytics/detail.hpp"
#include "analytics/programs.hpp"
#include "engine/engine.hpp"

namespace xtra::analytics {

PageRankResult pagerank(sim::Comm& comm, const graph::DistGraph& g,
                        int iters, double damping, double tol) {
  PageRankProgram p;
  p.damping = damping;
  engine::Config cfg;
  cfg.max_supersteps = std::max(iters, 0);  // legacy: iters <= 0 runs none
  cfg.tol = tol;
  const engine::Stats st = engine::run(comm, g, p, cfg);

  PageRankResult result;
  result.info = detail::to_run_info(st);
  result.rank = std::move(p.rank);
  result.sum = p.sum;
  return result;
}

}  // namespace xtra::analytics
