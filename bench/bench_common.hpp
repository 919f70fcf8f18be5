// Shared helpers for the per-table / per-figure benchmark harnesses.
//
// Every bench prints the rows/series of one paper table or figure.
// Absolute numbers differ from the paper (simulated-MPI substrate: every
// rank is a thread on one 4-vCPU host; see DESIGN.md §2) — the *shape*
// (who wins, by what factor, where crossovers fall) is the reproduction
// target; each bench's header names the paper's numbers for its figure.
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
  /// Max per-rank adjacency bytes (the CSR arrays) — the number that
  /// decides whether a paper-scale graph fits the node.
  count_t resident_bytes = 0;
  metrics::QualityReport quality;
};

/// Per-rank adjacency bytes: out- plus (directed) in-arc entries.
inline count_t adjacency_bytes(const graph::DistGraph& g) {
  count_t entries = g.m_local();
  if (g.directed())
    for (lid_t v = 0; v < g.n_local(); ++v) entries += g.in_degree(v);
  return entries * static_cast<count_t>(sizeof(lid_t));
}

/// Run XtraPuLP on `nranks` simulated ranks and collect global results.
inline RunResult run_xtrapulp(const graph::EdgeList& el, int nranks,
                              const core::Params& params,
                              bool random_dist = true) {
  RunResult out;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const graph::VertexDist dist =
        random_dist ? graph::VertexDist::random(el.n, nranks, 17)
                    : graph::VertexDist::block(el.n, nranks);
    const graph::DistGraph g = graph::build_dist_graph(comm, el, dist);
    comm.barrier();
    const core::PartitionResult r = core::partition(comm, g, params);
    const double max_t = -comm.allreduce_min(-r.total_seconds);
    const count_t bytes = comm.allreduce_sum(r.comm_bytes);
    const count_t max_work = comm.allreduce_max(g.m_local());
    const count_t total_work = comm.allreduce_sum(g.m_local());
    const count_t max_resident = comm.allreduce_max(adjacency_bytes(g));
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
