// Shared helpers for the per-table / per-figure benchmark harnesses.
//
// Every bench prints the rows/series of one paper table or figure.
// Absolute numbers differ from the paper (simulated-MPI substrate: every
// rank is a thread on one 4-vCPU host; see DESIGN.md §2) — the *shape*
// (who wins, by what factor, where crossovers fall) is the reproduction
// target. EXPERIMENTS.md records paper-vs-measured per experiment.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/xtrapulp.hpp"
#include "gen/suite.hpp"
#include "graph/dist_graph.hpp"
#include "metrics/quality.hpp"
#include "mpisim/comm.hpp"
#include "util/timer.hpp"

namespace xtra::bench {

/// Outcome of one distributed partitioning run, reduced to rank 0.
struct RunResult {
  std::vector<part_t> global_parts;
  double seconds = 0.0;       ///< max over ranks (the paper's metric)
  double init_seconds = 0.0;
  count_t comm_bytes = 0;     ///< summed over ranks
  /// Max per-rank share of adjacency work, relative to perfect balance
  /// (1.0 = ideal). The simulated ranks share one host's 4 vCPUs, so
  /// wall-clock cannot show speedup past 4 ranks; the scaling figures
  /// report this work distribution: the quantity that actually halves
  /// per rank doubling on real hardware.
  double work_balance = 1.0;
  /// Max per-rank adjacency bytes resident in memory during the run:
  /// the full CSR arrays in-core, or the segment-cache frame pool when
  /// an out-of-core budget was set — the number that decides whether a
  /// paper-scale graph fits the node.
  count_t resident_bytes = 0;
  /// Segment-cache ledger (world totals; zero for in-core runs).
  double seg_hit_rate = 0.0;
  double seg_stall_seconds = 0.0;
  metrics::QualityReport quality;
};

/// Per-rank adjacency working set in bytes — what enable_out_of_core
/// would move into the backing.
inline count_t adjacency_bytes(const graph::DistGraph& g) {
  count_t entries = g.m_local();
  if (g.directed())
    for (lid_t v = 0; v < g.n_local(); ++v) entries += g.in_degree(v);
  return entries * static_cast<count_t>(sizeof(lid_t));
}

/// Run XtraPuLP on `nranks` simulated ranks and collect global results.
/// ooc_budget_frac > 0 runs the partitioner with the adjacency behind
/// the segment cache at that fraction of the per-rank working set
/// (1.0 = every segment fits; the "infinite budget" row).
inline RunResult run_xtrapulp(const graph::EdgeList& el, int nranks,
                              const core::Params& params,
                              bool random_dist = true,
                              double ooc_budget_frac = 0.0) {
  RunResult out;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const graph::VertexDist dist =
        random_dist ? graph::VertexDist::random(el.n, nranks, 17)
                    : graph::VertexDist::block(el.n, nranks);
    graph::DistGraph g = graph::build_dist_graph(comm, el, dist);
    const count_t working = adjacency_bytes(g);
    count_t resident = working;
    if (ooc_budget_frac > 0.0) {
      graph::SegCacheOptions opt;
      opt.budget_bytes = static_cast<count_t>(
          static_cast<double>(working) * ooc_budget_frac);
      g.enable_out_of_core(comm, opt);
      resident = g.segcache()->num_frames() *
                 g.segcache()->entries_per_segment() *
                 static_cast<count_t>(sizeof(lid_t));
    }
    comm.barrier();
    const core::PartitionResult r = core::partition(comm, g, params);
    const graph::SegCacheStats seg = g.segcache_stats();
    if (g.out_of_core()) g.disable_out_of_core(comm);
    const double max_t = -comm.allreduce_min(-r.total_seconds);
    const count_t bytes = comm.allreduce_sum(r.comm_bytes);
    const count_t max_work = comm.allreduce_max(g.m_local());
    const count_t total_work = comm.allreduce_sum(g.m_local());
    const count_t max_resident = comm.allreduce_max(resident);
    std::vector<count_t> seg_tot{seg.seg_hits, seg.seg_misses};
    comm.allreduce_sum(seg_tot);
    const double stall = comm.allreduce_sum(seg.seg_stall_seconds);
    const auto q = metrics::evaluate_dist(comm, g, r.parts, params.nparts);
    const auto global = core::gather_global_parts(comm, g, r.parts);
    if (comm.rank() == 0) {
      out.global_parts = global;
      out.seconds = max_t;
      out.init_seconds = r.init_seconds;
      out.comm_bytes = bytes;
      out.work_balance = total_work > 0
                             ? static_cast<double>(max_work) *
                                   comm.size() /
                                   static_cast<double>(total_work)
                             : 1.0;
      out.resident_bytes = max_resident;
      const count_t touches = seg_tot[0] + seg_tot[1];
      out.seg_hit_rate =
          touches > 0 ? static_cast<double>(seg_tot[0]) /
                            static_cast<double>(touches)
                      : 0.0;
      out.seg_stall_seconds = stall;
      out.quality = q;
    }
  });
  return out;
}

/// Time a callable returning a part vector; evaluate quality serially.
template <typename F>
RunResult run_serial_partitioner(const graph::EdgeList& el, part_t nparts,
                                 F&& partition_fn) {
  RunResult out;
  Timer t;
  out.global_parts = partition_fn();
  out.seconds = t.seconds();
  out.quality = metrics::evaluate(el, out.global_parts, nparts);
  return out;
}

/// Fixed-width table printing (the benches' only output medium).
class Table {
 public:
  explicit Table(std::vector<std::pair<std::string, int>> columns)
      : columns_(std::move(columns)) {
    for (const auto& [name, width] : columns_)
      std::printf("%-*s", width, name.c_str());
    std::printf("\n");
    int total = 0;
    for (const auto& [name, width] : columns_) total += width;
    for (int i = 0; i < total; ++i) std::printf("-");
    std::printf("\n");
  }

  void cell(const std::string& value) {
    std::printf("%-*s", columns_[at_].second, value.c_str());
    at_ = (at_ + 1) % columns_.size();
    if (at_ == 0) std::printf("\n");
  }
  void cell(double value, const char* fmt = "%.3f") {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), fmt, value);
    cell(std::string(buffer));
  }
  void cell(count_t value) { cell(std::to_string(value)); }

 private:
  std::vector<std::pair<std::string, int>> columns_;
  std::size_t at_ = 0;
};

inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Human-readable byte count.
inline std::string fmt_bytes(count_t bytes) {
  char buffer[64];
  if (bytes >= (count_t(1) << 20))
    std::snprintf(buffer, sizeof(buffer), "%.1fMB",
                  static_cast<double>(bytes) / (1 << 20));
  else
    std::snprintf(buffer, sizeof(buffer), "%.1fKB",
                  static_cast<double>(bytes) / (1 << 10));
  return buffer;
}

}  // namespace xtra::bench
