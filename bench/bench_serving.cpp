// Latency-SLO serving bench: the open-loop load generator driving
// serve::Scheduler over the partitioned graph, reporting tail latency
// in VIRTUAL seconds (serve/clock.hpp — wall clock never touches a
// latency number, so every gated figure here is bit-deterministic for
// a given seed + config).
//
// Rows (per rank count 2 and 8):
//   serve_mix            slot_budget 8 — the queries share one
//                        bit-parallel traversal, one mask bit each
//   serve_mix_perquery   slot_budget 1 — the per-source twin; the CI
//                        contract pins serve_mix strictly below it on
//                        collectives per query (packing exists to
//                        amortize per-superstep collectives) and at
//                        most a ledger slack above it on payload
//                        bytes (overlapping frontiers share one
//                        {gid, mask} record, so packing can only save)
//   serve_mix_t8         budget 8 at 8 intra-rank threads — must
//                        reproduce serve_mix's latencies EXACTLY
//
// The printed table's `wall qps` column is measured: queries over the
// wall seconds of Scheduler::run, slowest rank. It varies from run to
// run, so it stays out of the SERVE_STATS_JSON block, which is gated
// by check_comm_baseline.py (--serving-bench): baseline tolerance on
// p99/bytes/collectives plus the absolute contracts above, mirroring
// COMM_STATS_JSON.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "serve/loadgen.hpp"
#include "serve/scheduler.hpp"

namespace xtra {
namespace {

struct ServeRow {
  std::string bench;
  int nranks = 0;
  count_t slot_budget = 0;
  serve::ServeStats stats;
  count_t collectives = 0;  ///< per rank (uniform across ranks)
  count_t wire_bytes = 0;   ///< world payload bytes
  double wall_seconds = 0.0;  ///< Scheduler::run, slowest rank
};

std::vector<ServeRow>& rows() {
  static std::vector<ServeRow> r;
  return r;
}

serve::LoadGenConfig trace_config() {
  serve::LoadGenConfig lg;
  lg.num_queries = 64;
  lg.rate_qps = 8.0;
  lg.seed = 7;
  lg.khop_depth = 3;
  lg.ppr_depth = 4;
  return lg;
}

void run_config(const std::string& name, int nranks,
                const serve::ServeConfig& cfg) {
  ServeRow row;
  row.bench = name;
  row.nranks = nranks;
  row.slot_budget = cfg.slot_budget;
  const graph::EdgeList el = gen::erdos_renyi(8'000, 8, 3);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const graph::VertexDist dist =
        graph::VertexDist::random(el.n, nranks, 17);
    const graph::DistGraph g = build_dist_graph(comm, el, dist);
    const std::vector<serve::Query> queries =
        serve::LoadGen::generate(trace_config(), g.n_global());
    comm.barrier();
    const count_t coll0 = comm.stats().collectives;
    const count_t bytes0 = comm.stats().bytes_sent;
    serve::Scheduler sched(cfg);
    const Timer wall;
    sched.run(comm, g, queries);
    const double wall_seconds = wall.seconds();
    const count_t coll = comm.stats().collectives - coll0;
    const count_t bytes =
        comm.allreduce_sum(comm.stats().bytes_sent - bytes0);
    const double slowest = comm.allreduce_max(wall_seconds);
    if (comm.rank() == 0) {
      row.stats = sched.stats();
      row.collectives = coll;
      row.wire_bytes = bytes;
      row.wall_seconds = slowest;
    }
  });
  rows().push_back(row);
}

void sweep(int nranks) {
  serve::ServeConfig cfg;
  cfg.slot_budget = 8;
  run_config("serve_mix", nranks, cfg);

  serve::ServeConfig perquery = cfg;
  perquery.slot_budget = 1;
  run_config("serve_mix_perquery", nranks, perquery);

  serve::ServeConfig threaded = cfg;
  threaded.engine.num_threads = 8;
  run_config("serve_mix_t8", nranks, threaded);
}

void print_rows() {
  bench::section("online query serving (virtual-clock latency)");
  bench::Table table({{"bench", 22},
                      {"ranks", 7},
                      {"slots", 7},
                      {"p50ms", 10},
                      {"p95ms", 10},
                      {"p99ms", 10},
                      {"qps", 9},
                      {"wall qps", 10},
                      {"occup", 8},
                      {"ss/q", 8}});
  for (const ServeRow& r : rows()) {
    table.cell(r.bench);
    table.cell(static_cast<count_t>(r.nranks));
    table.cell(r.slot_budget);
    table.cell(r.stats.p50_latency * 1e3, "%.3f");
    table.cell(r.stats.p95_latency * 1e3, "%.3f");
    table.cell(r.stats.p99_latency * 1e3, "%.3f");
    table.cell(r.stats.queries_per_sec, "%.2f");
    table.cell(static_cast<double>(r.stats.num_queries) / r.wall_seconds,
               "%.0f");
    table.cell(r.stats.slot_occupancy, "%.3f");
    table.cell(r.stats.supersteps_per_query, "%.2f");
  }

  std::printf("\nSERVE_STATS_JSON [\n");
  for (std::size_t i = 0; i < rows().size(); ++i) {
    const ServeRow& r = rows()[i];
    const double nq = static_cast<double>(r.stats.num_queries);
    std::printf(
        "  {\"bench\": \"%s\", \"nranks\": %d, \"slot_budget\": %lld, "
        "\"num_queries\": %lld, \"p50_ms\": %.6f, \"p95_ms\": %.6f, "
        "\"p99_ms\": %.6f, \"queries_per_sec\": %.4f, "
        "\"slot_occupancy\": %.4f, \"supersteps_per_query\": %.3f, "
        "\"collectives_per_query\": %.3f, \"bytes_per_query\": %.1f, "
        "\"virtual_seconds\": %.6f}%s\n",
        r.bench.c_str(), r.nranks, static_cast<long long>(r.slot_budget),
        static_cast<long long>(r.stats.num_queries),
        r.stats.p50_latency * 1e3, r.stats.p95_latency * 1e3,
        r.stats.p99_latency * 1e3, r.stats.queries_per_sec,
        r.stats.slot_occupancy, r.stats.supersteps_per_query,
        static_cast<double>(r.collectives) / nq,
        static_cast<double>(r.wire_bytes) / nq, r.stats.virtual_seconds,
        i + 1 < rows().size() ? "," : "");
  }
  std::printf("]\n");
}

}  // namespace
}  // namespace xtra

int main() {
  for (const int nranks : {2, 8}) xtra::sweep(nranks);
  xtra::print_rows();
  return 0;
}
