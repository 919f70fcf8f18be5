#include <algorithm>

#include "analytics/analytics.hpp"
#include "analytics/detail.hpp"
#include "analytics/programs.hpp"
#include "engine/engine.hpp"

namespace xtra::analytics {

KCoreResult kcore_approx(sim::Comm& comm, const graph::DistGraph& g,
                         int rounds) {
  KCoreProgram p;
  engine::Config cfg;
  cfg.max_supersteps = std::max(rounds, 0);  // legacy: rounds <= 0 runs none
  const engine::Stats st = engine::run(comm, g, p, cfg);

  KCoreResult result;
  result.info = detail::to_run_info(st);
  result.core = std::move(p.core);
  result.max_core = p.max_core;
  return result;
}

}  // namespace xtra::analytics
