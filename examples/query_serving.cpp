// Scenario: an online graph-query service over the partitioned graph
// (DESIGN.md §9) — a deterministic Poisson trace of point lookups,
// k-hop neighborhoods, multi-source BFS, and personalized-PageRank
// queries served by the superstep-packing scheduler, with tail
// latency measured on the virtual clock. Re-running this example
// prints byte-identical numbers: every latency derives from the
// alpha-beta wire model plus allreduced compute billing, never wall
// time.
#include <cstdio>

#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "serve/loadgen.hpp"
#include "serve/scheduler.hpp"

int main() {
  using namespace xtra;
  constexpr int kRanks = 4;
  const graph::EdgeList el = gen::community_graph(4'000, 8, 0.6, 2.3, 3);

  serve::LoadGenConfig trace;
  trace.num_queries = 32;
  trace.rate_qps = 60.0;
  trace.seed = 11;
  trace.khop_depth = 2;
  trace.ppr_depth = 4;

  std::printf("serving %lld queries at %.0f qps over %llu vertices, "
              "%d ranks\n\n",
              static_cast<long long>(trace.num_queries), trace.rate_qps,
              static_cast<unsigned long long>(el.n), kRanks);

  // Slot budget 1 serves queries one at a time; a wider budget packs
  // every in-flight traversal into shared supersteps — same answers,
  // fewer collectives, better tail latency under load.
  for (const count_t budget : {count_t{1}, count_t{8}}) {
    sim::run_world(kRanks, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, kRanks, 17));
      const std::vector<serve::Query> queries =
          serve::LoadGen::generate(trace, g.n_global());
      serve::ServeConfig cfg;
      cfg.slot_budget = budget;
      serve::Scheduler sched(cfg);
      const std::vector<serve::QueryResult> results =
          sched.run(comm, g, queries);
      if (comm.rank() != 0) return;
      const serve::ServeStats& s = sched.stats();
      std::printf("slot budget %lld: p50 %.2f ms  p95 %.2f ms  "
                  "p99 %.2f ms  %.1f q/s  occupancy %.2f\n",
                  static_cast<long long>(budget), s.p50_latency * 1e3,
                  s.p95_latency * 1e3, s.p99_latency * 1e3,
                  s.queries_per_sec, s.slot_occupancy);
      if (budget == 1) return;
      // A few individual results (identical under either budget).
      const char* names[] = {"lookup", "khop", "bfs", "ppr"};
      for (std::size_t i = 0; i < 4 && i < results.size(); ++i) {
        const serve::QueryResult& r = results[i];
        std::printf("  q%zu %-6s value %-5lld score %.4f  "
                    "latency %.2f ms\n",
                    i, names[static_cast<int>(r.kind)],
                    static_cast<long long>(r.value), r.score,
                    r.latency_seconds() * 1e3);
      }
    });
  }
  return 0;
}
