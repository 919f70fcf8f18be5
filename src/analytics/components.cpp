#include "analytics/analytics.hpp"
#include "analytics/detail.hpp"
#include "analytics/programs.hpp"
#include "engine/engine.hpp"

namespace xtra::analytics {

ComponentsResult weakly_connected_components(sim::Comm& comm,
                                             const graph::DistGraph& g) {
  WccProgram p;
  const engine::Stats st = engine::run(comm, g, p, engine::Config{});

  ComponentsResult result;
  result.info = detail::to_run_info(st);
  result.component = std::move(p.component);
  result.num_components = p.num_components;
  result.largest_size = p.largest_size;
  return result;
}

}  // namespace xtra::analytics
