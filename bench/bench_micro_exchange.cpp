// Microbenchmarks (google-benchmark) for the communication kernels the
// partitioner spends its time in: Alltoallv, ExchangeUpdates, halo
// refresh, and the per-iteration Allreduce. These are the routines
// §III calls "highly optimized communication routines"; the micro
// numbers make regressions in the runtime substrate visible.
//
// The bounded-exchange benchmarks sweep max_send_bytes across the
// label-propagation exchange path and report per-iteration wire bytes
// and collective counts from the aggregated CommStats; a final
// COMM_STATS_JSON block emits the same numbers machine-readably
// (plus the start/finish overlap accounting) so future PRs can track
// comm-volume regressions — bench/check_comm_baseline.py diffs it
// against bench/baselines/comm_stats.json in CI.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "analytics/analytics.hpp"
#include "analytics/programs.hpp"
#include "core/exchange.hpp"
#include "core/xtrapulp.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "graph/halo.hpp"
#include "mpisim/comm.hpp"

using namespace xtra;

namespace {

/// One comm-volume measurement, keyed for the JSON report.
struct CommRow {
  std::string bench;
  int nranks = 0;
  count_t max_send_bytes = 0;
  double bytes_per_iter = 0.0;        ///< wire bytes, summed over ranks
  double collectives_per_iter = 0.0;  ///< collective invocations (world)
  double phases_per_iter = 0.0;       ///< alltoallv rounds per exchange
  // Overlap accounting (rank 0's engine; timings are informational,
  // the baseline check compares only bytes and collectives).
  double overlapped_frac = 0.0;     ///< start/finish-driven exchanges
  double start_seconds = 0.0;       ///< time inside start() halves
  double finish_seconds = 0.0;      ///< time inside finish() halves
  count_t max_inflight_bytes = 0;   ///< peak payload held in flight
};

/// Fill the world-level wire columns every row reports.
void note_world(CommRow& row, const sim::CommStats& world, double iters) {
  row.bytes_per_iter = static_cast<double>(world.bytes_sent) / iters;
  row.collectives_per_iter = static_cast<double>(world.collectives) / iters;
}

/// Fill a row's overlap fields from one engine's aggregated stats.
void note_overlap(CommRow& row, const xtra::comm::ExchangeStats& s) {
  row.phases_per_iter = static_cast<double>(s.phases) /
                        static_cast<double>(s.exchanges);
  row.overlapped_frac = static_cast<double>(s.overlapped) /
                        static_cast<double>(s.exchanges);
  row.start_seconds = s.start_seconds;
  row.finish_seconds = s.finish_seconds;
  row.max_inflight_bytes = s.max_inflight_bytes;
}

std::map<std::string, CommRow>& comm_rows() {
  static std::map<std::string, CommRow> rows;
  return rows;
}

void record_row(const CommRow& row) {
  comm_rows()[row.bench + "/" + std::to_string(row.nranks) + "/" +
              std::to_string(row.max_send_bytes)] = row;
}

void BM_Alltoallv(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const auto payload = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                  static_cast<count_t>(payload));
      std::vector<std::uint64_t> send(payload *
                                      static_cast<std::size_t>(nranks));
      benchmark::DoNotOptimize(comm.alltoallv(send, counts));
    });
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * nranks * nranks *
      static_cast<std::int64_t>(payload) * 8);
}
BENCHMARK(BM_Alltoallv)->Args({4, 1000})->Args({8, 1000})->Args({4, 100000});

void BM_Allreduce(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const auto len = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      std::vector<count_t> v(len, 1);
      comm.allreduce_sum(v);
      benchmark::DoNotOptimize(v.data());
    });
  }
}
BENCHMARK(BM_Allreduce)->Args({4, 256})->Args({8, 256})->Args({8, 65536});

/// The label-propagation exchange path with a persistent
/// UpdateExchanger, swept over max_send_bytes (0 = unbounded). Each
/// world runs kIters update supersteps over a reused engine — the
/// steady state the partitioner's balance/refine iterations live in.
void BM_ExchangeUpdatesBounded(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const auto bound = static_cast<count_t>(state.range(1));
  constexpr int kIters = 8;
  const graph::EdgeList el = gen::erdos_renyi(20'000, 16, 3);
  CommRow row{"exchange_updates", nranks, bound, 0, 0, 0};
  for (auto _ : state) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, nranks, 3));
      core::UpdateExchanger exchanger(bound);
      std::vector<part_t> parts(g.n_total(), 0);
      std::vector<lid_t> queue(g.n_local());
      for (lid_t v = 0; v < g.n_local(); ++v) queue[v] = v;
      comm.barrier();
      comm.reset_stats();
      for (int it = 0; it < kIters; ++it) {
        // Every owned vertex changes label each superstep: the densest
        // traffic the balance phase can generate.
        for (lid_t v = 0; v < g.n_local(); ++v)
          parts[v] = static_cast<part_t>((v + static_cast<lid_t>(it)) % 8);
        exchanger.run(comm, g, parts, queue);
      }
      const sim::CommStats world = comm.world_stats();
      if (comm.rank() == 0) {
        note_world(row, world, kIters);
        note_overlap(row, exchanger.stats());
      }
    });
  }
  state.counters["bytes/iter"] = row.bytes_per_iter;
  state.counters["colls/iter"] = row.collectives_per_iter;
  state.counters["phases/exch"] = row.phases_per_iter;
  record_row(row);
}
BENCHMARK(BM_ExchangeUpdatesBounded)
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({4, 1 << 12})
    ->Args({4, 1 << 16})
    ->Args({4, 1 << 20})
    ->Args({8, 0})
    ->Args({8, 1 << 16})
    ->Args({16, 0})
    ->Args({16, 1 << 16});

void BM_HaloExchangeBounded(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const auto bound = static_cast<count_t>(state.range(1));
  constexpr int kIters = 10;
  const graph::EdgeList el = gen::erdos_renyi(20'000, 16, 3);
  CommRow row{"halo_exchange", nranks, bound, 0, 0, 0};
  for (auto _ : state) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, nranks, 3));
      graph::HaloPlan halo(comm, g);
      halo.set_max_send_bytes(bound);
      // Meter only the replayed exchanges, not the one-time (and
      // always unbounded) registration the constructor performed.
      halo.reset_stats();
      std::vector<double> vals(g.n_total(), 1.0);
      comm.barrier();
      comm.reset_stats();
      for (int i = 0; i < kIters; ++i) halo.exchange(comm, vals);
      const sim::CommStats world = comm.world_stats();
      if (comm.rank() == 0) {
        note_world(row, world, kIters);
        note_overlap(row, halo.stats());
      }
    });
  }
  state.counters["bytes/iter"] = row.bytes_per_iter;
  state.counters["colls/iter"] = row.collectives_per_iter;
  state.counters["phases/exch"] = row.phases_per_iter;
  record_row(row);
}
BENCHMARK(BM_HaloExchangeBounded)
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({4, 1 << 14})
    ->Args({8, 0})
    ->Args({16, 0});

/// The overlapped ghost refresh (prefetch_next / local update
/// of the interior / finish_prefetch) against the same workload as
/// BM_HaloExchangeBounded: wire bytes and collectives must match the
/// blocking rows exactly — the overlap is free — while the interior
/// update runs during the in-flight exchange.
void BM_HaloPrefetchOverlap(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const auto bound = static_cast<count_t>(state.range(1));
  constexpr int kIters = 10;
  const graph::EdgeList el = gen::erdos_renyi(20'000, 16, 3);
  CommRow row{"halo_prefetch", nranks, bound, 0, 0, 0};
  for (auto _ : state) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, nranks, 3));
      graph::HaloPlan halo(comm, g);
      halo.set_max_send_bytes(bound);
      halo.reset_stats();
      std::vector<double> vals(g.n_total(), 1.0);
      comm.barrier();
      comm.reset_stats();
      for (int i = 0; i < kIters; ++i)
        halo.overlapped_superstep(comm, vals,
                                  [&](lid_t v) { vals[v] += 1.0; });
      const sim::CommStats world = comm.world_stats();
      if (comm.rank() == 0) {
        note_world(row, world, kIters);
        note_overlap(row, halo.stats());
      }
    });
  }
  state.counters["bytes/iter"] = row.bytes_per_iter;
  state.counters["colls/iter"] = row.collectives_per_iter;
  state.counters["inflight_max"] =
      static_cast<double>(row.max_inflight_bytes);
  record_row(row);
}
BENCHMARK(BM_HaloPrefetchOverlap)
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({4, 1 << 14})
    ->Args({8, 0})
    ->Args({16, 0});

/// The dense analytics end to end through engine::run: PageRank,
/// k-core and community-LP, one overlapped halo refresh per superstep.
/// Bytes and collectives per superstep are the dense engine's wire
/// cost.
void BM_AnalyticsDense(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const int workload = static_cast<int>(state.range(1));
  constexpr const char* kNames[] = {"pagerank_dense", "kcore_dense",
                                    "commlp_dense"};
  const graph::EdgeList el =
      gen::erdos_renyi(8'000, 12, workload == 2 ? 7 : 5);
  CommRow row{kNames[workload], nranks, 0};
  for (auto _ : state) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, nranks, 3));
      comm.barrier();
      comm.reset_stats();
      engine::Config cfg;
      engine::Stats st;
      if (workload == 0) {
        analytics::PageRankProgram p;
        cfg.max_supersteps = 10;
        st = engine::run(comm, g, p, cfg);
      } else if (workload == 1) {
        analytics::KCoreProgram p;
        cfg.max_supersteps = 8;
        st = engine::run(comm, g, p, cfg);
      } else {
        analytics::CommLpProgram p;
        cfg.max_supersteps = 10;
        st = engine::run(comm, g, p, cfg);
      }
      const sim::CommStats world = comm.world_stats();
      if (comm.rank() == 0) {
        const auto iters = static_cast<double>(st.supersteps);
        note_world(row, world, iters);
      }
    });
  }
  state.counters["bytes/iter"] = row.bytes_per_iter;
  state.counters["colls/iter"] = row.collectives_per_iter;
  record_row(row);
}
BENCHMARK(BM_AnalyticsDense)->Args({8, 0})->Args({8, 1})->Args({8, 2});

/// The delta-capped SSSP frontier program: notification volume per
/// superstep at two bucket widths (a tight delta runs more, smaller
/// supersteps over the same relaxation set; total bytes respond to
/// the cap, not just the graph).
void BM_SsspFrontier(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const auto delta = static_cast<count_t>(state.range(1));
  const graph::EdgeList el = gen::erdos_renyi(8'000, 12, 5);
  // Delta rides the row *name* (max_send_bytes stays the exchange
  // bound, 0 = unbounded here) so the baseline key keeps its meaning.
  CommRow row{delta < (1 << 20) ? "sssp_d" + std::to_string(delta)
                                : "sssp_dinf",
              nranks, 0};
  for (auto _ : state) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, nranks, 3));
      comm.barrier();
      comm.reset_stats();
      const analytics::RunInfo info =
          analytics::sssp(comm, g, /*root=*/0, delta).info;
      const sim::CommStats world = comm.world_stats();
      if (comm.rank() == 0) {
        const auto iters = static_cast<double>(info.supersteps);
        note_world(row, world, iters);
      }
    });
  }
  state.counters["bytes/iter"] = row.bytes_per_iter;
  state.counters["colls/iter"] = row.collectives_per_iter;
  record_row(row);
}
BENCHMARK(BM_SsspFrontier)->Args({8, 8})->Args({8, 1 << 20});

/// The query-based triangle counter: one superstep, all traffic in
/// the query_reply round trip (the max_send_bytes knob rides the
/// engine Config into the aux exchanger — the bounded row must move
/// the same bytes across more collectives).
void BM_TriangleQuery(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const auto bound = static_cast<count_t>(state.range(1));
  const graph::EdgeList el = gen::erdos_renyi(4'000, 10, 9);
  CommRow row{"triangles", nranks, bound};
  for (auto _ : state) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, nranks, 3));
      comm.barrier();
      comm.reset_stats();
      engine::Config cfg;
      cfg.max_exchange_bytes = bound;
      const analytics::RunInfo info =
          analytics::triangle_count(comm, g, /*sample_cap=*/64, 1, cfg)
              .info;
      (void)info;
      const sim::CommStats world = comm.world_stats();
      if (comm.rank() == 0) note_world(row, world, 1.0);
    });
  }
  state.counters["bytes/iter"] = row.bytes_per_iter;
  state.counters["colls/iter"] = row.collectives_per_iter;
  record_row(row);
}
BENCHMARK(BM_TriangleQuery)->Args({8, 0})->Args({8, 1 << 16});

/// MPI+X rows: the engine workloads and the full partitioner at
/// 4 ranks x {1, 4, 8} intra-rank threads. The thread width is a pure
/// throughput knob — the check script requires every _tN row's wire
/// metrics (bytes, collectives) to match its _t1 twin
/// exactly; any drift means a thread raced the wire accounting.
void BM_ThreadedEngine(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const int workload = static_cast<int>(state.range(2));
  constexpr const char* kNames[] = {"pagerank_threads", "commlp_threads",
                                    "sssp_threads", "partition_threads"};
  const graph::EdgeList el = gen::erdos_renyi(8'000, 12, 5);
  CommRow row{std::string(kNames[workload]) + "_t" + std::to_string(threads),
              nranks, 0};
  for (auto _ : state) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, nranks, 3));
      comm.barrier();
      comm.reset_stats();
      double iters = 1.0;
      if (workload == 3) {
        core::Params params;
        params.nparts = nranks;
        params.num_threads = threads;
        const core::PartitionResult r = core::partition(comm, g, params);
        benchmark::DoNotOptimize(r.parts.data());
      } else {
        engine::Config cfg;
        cfg.num_threads = threads;
        engine::Stats st;
        if (workload == 0) {
          analytics::PageRankProgram p;
          cfg.max_supersteps = 10;
          st = engine::run(comm, g, p, cfg);
        } else if (workload == 1) {
          analytics::CommLpProgram p;
          cfg.max_supersteps = 10;
          st = engine::run(comm, g, p, cfg);
        } else {
          analytics::DeltaSsspProgram p;
          p.root = 0;
          p.delta = 8;
          st = engine::run(comm, g, p, cfg);
        }
        iters = static_cast<double>(st.supersteps);
      }
      const sim::CommStats world = comm.world_stats();
      if (comm.rank() == 0) note_world(row, world, iters);
    });
  }
  state.counters["bytes/iter"] = row.bytes_per_iter;
  state.counters["colls/iter"] = row.collectives_per_iter;
  record_row(row);
}
BENCHMARK(BM_ThreadedEngine)
    ->Args({4, 1, 0})
    ->Args({4, 4, 0})
    ->Args({4, 8, 0})
    ->Args({4, 1, 1})
    ->Args({4, 4, 1})
    ->Args({4, 8, 1})
    ->Args({4, 1, 2})
    ->Args({4, 4, 2})
    ->Args({4, 8, 2})
    ->Args({4, 1, 3})
    ->Args({4, 4, 3})
    ->Args({4, 8, 3});

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Machine-readable comm-volume report (one object per swept config)
  // for cross-PR regression tracking.
  std::printf("\nCOMM_STATS_JSON [\n");
  bool first = true;
  for (const auto& [key, r] : comm_rows()) {
    std::printf(
        "%s  {\"bench\": \"%s\", \"nranks\": %d, \"max_send_bytes\": %lld, "
        "\"bytes_per_iter\": %.1f, \"collectives_per_iter\": %.2f, "
        "\"phases_per_exchange\": %.2f, \"overlapped_frac\": %.2f, "
        "\"start_seconds\": %.4f, \"finish_seconds\": %.4f, "
        "\"max_inflight_bytes\": %lld}",
        first ? "" : ",\n", r.bench.c_str(), r.nranks,
        static_cast<long long>(r.max_send_bytes), r.bytes_per_iter,
        r.collectives_per_iter, r.phases_per_iter, r.overlapped_frac,
        r.start_seconds, r.finish_seconds,
        static_cast<long long>(r.max_inflight_bytes));
    first = false;
  }
  std::printf("\n]\n");
  return 0;
}
