// Figure 8: end-to-end analytics on the WDC12-class graph under four
// partitioning strategies (EdgeBlock, Random, VertBlock, XtraPuLP).
//
// The paper runs HC/KC/LP/PR/SCC/WCC on 256 Blue Waters nodes and
// reports ~30% end-to-end reduction with XtraPuLP partitions
// (including the partitioning time itself), with the big wins on
// communication-bound analytics (PR, LP). Per the paper, XtraPuLP here
// initializes from vertex-block partitioning and runs its balancing
// stages. Expected shape: XtraPuLP total (incl. partitioning) <
// EdgeBlock/Random totals; comm volume orders XtraPuLP < VertBlock <
// EdgeBlock < Random.
//
// All eight workloads (the paper's six plus the engine-native SSSP
// and triangle count) run through the unified vertex-program engine:
// one engine::Config built from core::Params carries every transport
// knob (chunk size, intra-rank threads) into every kernel —
// XTRA_THREADS selects the thread width without recompiling.
#include <cstdlib>
#include <memory>

#include "analytics/analytics.hpp"
#include "analytics/detail.hpp"
#include "analytics/programs.hpp"
#include "baseline/partitioners.hpp"
#include "bench/bench_common.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"

using namespace xtra;

namespace {

constexpr int kAnalyticCount = 8;

struct StrategyRun {
  std::string name;
  double partition_seconds = 0.0;
  double analytic_seconds[kAnalyticCount] = {};
  count_t analytic_bytes[kAnalyticCount] = {};
};

constexpr const char* kAnalytics[kAnalyticCount] = {
    "HC", "KC", "LP", "PR", "SCC", "WCC", "SSSP", "TC"};

}  // namespace

int main() {
  const double scale = gen::env_scale();
  const auto n = static_cast<xtra::gid_t>(60'000 * scale);
  const int nranks = 8;
  // Analytics knobs ride core::Params -> engine::Config: every kernel
  // inherits them uniformly. The same Params seeds the XtraPuLP
  // strategy below.
  core::Params apar;
  // The "+X" of MPI+X: intra-rank worker threads. Results and wire
  // traffic are thread-count-invariant by contract (DESIGN.md §6).
  if (const char* t = std::getenv("XTRA_THREADS"))
    apar.num_threads = std::atoi(t);
  const engine::Config cfg = engine::Config::from_params(apar);
  const graph::EdgeList directed = gen::webcrawl(n, 20, 7);
  const graph::EdgeList el = graph::symmetrized(directed);
  const baseline::SerialGraph sg = baseline::build_serial_graph(el);

  std::printf("Fig 8: analytics on WDC12-class graph (n=%llu, m=%lld) with "

              "%d ranks\n",
              static_cast<unsigned long long>(el.n),
              static_cast<long long>(el.edge_count()), nranks);

  std::vector<StrategyRun> runs;
  for (const std::string strategy :
       {"EdgeBlock", "Random", "VertBlock", "XtraPuLP"}) {
    StrategyRun run;
    run.name = strategy;

    // Owner map per strategy (parts == ranks for analytics placement).
    std::vector<part_t> parts;
    if (strategy == "EdgeBlock") {
      parts = baseline::edge_block_partition(sg, nranks);
    } else if (strategy == "Random") {
      parts = baseline::random_partition(el.n, nranks, 3);
    } else if (strategy == "VertBlock") {
      parts = baseline::vertex_block_partition(el.n, nranks);
    } else {
      // Paper §V-E: initialize with vertex-block, then run the
      // balancing stages.
      core::Params params = apar;
      params.nparts = nranks;
      params.init = core::InitStrategy::kBlock;
      const bench::RunResult r =
          bench::run_xtrapulp(el, nranks, params, /*random_dist=*/false);
      parts = r.global_parts;
      run.partition_seconds = r.seconds;
    }

    auto owners = std::make_shared<std::vector<int>>(parts.begin(),
                                                     parts.end());
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const auto dist =
          graph::VertexDist::explicit_map(el.n, nranks, owners);
      // Undirected graph for most analytics; directed for SCC.
      const auto g = graph::build_dist_graph(comm, el, dist);
      const auto gd = graph::build_dist_graph(comm, directed, dist);
      comm.barrier();

      // The dense kernels run directly through engine::run so the one
      // Config reaches every kernel (the legacy wrappers only accept
      // their historical knob subsets).
      const auto& as_info = analytics::detail::to_run_info;
      analytics::RunInfo infos[kAnalyticCount];
      infos[0] = analytics::harmonic_centrality(comm, g, 8, 5, cfg).info;
      {
        analytics::KCoreProgram kc;
        engine::Config c = cfg;
        c.max_supersteps = 15;
        infos[1] = as_info(engine::run(comm, g, kc, c));
      }
      {
        analytics::CommLpProgram lp;
        engine::Config c = cfg;
        c.max_supersteps = 10;
        infos[2] = as_info(engine::run(comm, g, lp, c));
      }
      {
        analytics::PageRankProgram pr;
        engine::Config c = cfg;
        c.max_supersteps = 20;
        infos[3] = as_info(engine::run(comm, g, pr, c));
      }
      infos[4] = analytics::largest_scc(comm, gd, cfg).info;
      {
        analytics::WccProgram wcc;
        infos[5] = as_info(engine::run(comm, g, wcc, cfg));
      }
      infos[6] = analytics::sssp(comm, g, /*root=*/0, /*delta=*/8,
                                 /*max_weight=*/16, /*weight_seed=*/1, cfg)
                     .info;
      infos[7] =
          analytics::triangle_count(comm, g, /*sample_cap=*/64, 1, cfg)
              .info;
      for (int a = 0; a < kAnalyticCount; ++a) {
        const double t = -comm.allreduce_min(-infos[a].seconds);
        const count_t b = comm.allreduce_sum(infos[a].comm_bytes);
        if (comm.rank() == 0) {
          run.analytic_seconds[a] = t;
          run.analytic_bytes[a] = b;
        }
      }
    });
    runs.push_back(run);
  }

  bench::Table table({{"strategy", 12},
                      {"part(s)", 9},
                      {"HC", 7},
                      {"KC", 7},
                      {"LP", 7},
                      {"PR", 7},
                      {"SCC", 7},
                      {"WCC", 7},
                      {"SSSP", 7},
                      {"TC", 7},
                      {"analytics", 11},
                      {"total", 8},
                      {"comm", 10}});
  for (const StrategyRun& run : runs) {
    table.cell(run.name);
    table.cell(run.partition_seconds, "%.2f");
    double analytics_total = 0.0;
    count_t bytes = 0;
    for (int a = 0; a < kAnalyticCount; ++a) {
      table.cell(run.analytic_seconds[a], "%.2f");
      analytics_total += run.analytic_seconds[a];
      bytes += run.analytic_bytes[a];
    }
    table.cell(analytics_total, "%.2f");
    table.cell(run.partition_seconds + analytics_total, "%.2f");
    table.cell(bench::fmt_bytes(bytes));
  }
  std::printf(
      "\n'total' includes partitioning time, as in the paper's end-to-end\n"
      "comparison. The simulated ranks are threads on one 4-vCPU host, so\n"
      "computation dominates and analytic times differ by less than the\n"
      "comm column; on the paper's cluster communication dominates and the\n"
      "comm-volume ordering above (XtraPuLP < blocks < random) is what\n"
      "becomes the ~30%% end-to-end win. Partitioning time here is also\n"
      "above a real cluster's: ranks beyond 4 take turns on the vCPUs.\n");
  return 0;
}
