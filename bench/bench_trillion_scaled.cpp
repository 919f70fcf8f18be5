// §V-A2 "Trillion Edge Runs", scaled.
//
// Paper: 2^34-vertex, 2^40-edge RandER/RandHD partitioned in 380s/357s
// on 8192 nodes; the largest feasible RMAT was 2^39 edges (608s).
// Here: the largest instances this substrate holds, with throughput
// (edges/second/rank) reported so the paper-scale extrapolation is
// explicit. Expected shape: RandHD <= RandER < RMAT in time; RMAT is
// the class that caps out first (hub-induced memory + compute skew).
#include "bench/bench_common.hpp"
#include "gen/generators.hpp"

using namespace xtra;

int main() {
  const double scale = gen::env_scale();
  const auto n = static_cast<xtra::gid_t>(400'000 * scale);
  const count_t davg = 16;
  const int nranks = 8;

  std::printf(
      "Trillion-edge runs (scaled): n=%llu, davg=%lld, %d ranks, 64 parts\n",
      static_cast<unsigned long long>(n), static_cast<long long>(davg),
      nranks);

  bench::Table table({{"graph", 9},
                      {"edges", 12},
                      {"time(s)", 10},
                      {"Medges/s", 11},
                      {"resB/e", 9},
                      {"cut", 8},
                      {"vimb", 8}});
  struct Entry {
    const char* name;
    graph::EdgeList el;
  };
  int rmat_scale = 0;
  while ((xtra::gid_t(1) << (rmat_scale + 1)) <= n) ++rmat_scale;
  const std::vector<Entry> graphs = {
      {"RandER", gen::erdos_renyi(n, davg, 29)},
      {"RandHD", gen::rand_hd(n, davg, 29)},
      // Paper: the largest RMAT had *half* the edges of the others.
      {"RMAT", gen::rmat(rmat_scale, davg / 2, 29)},
  };
  double best_meps = 0.0;
  for (const auto& [name, el] : graphs) {
    core::Params params;
    params.nparts = 64;
    const bench::RunResult r = bench::run_xtrapulp(el, nranks, params);
    const double meps =
        static_cast<double>(el.edge_count()) / r.seconds / 1e6;
    best_meps = std::max(best_meps, meps);
    table.cell(name);
    table.cell(el.edge_count());
    table.cell(r.seconds);
    table.cell(meps, "%.2f");
    table.cell(static_cast<double>(r.resident_bytes) * nranks /
                   static_cast<double>(el.edge_count()),
               "%.1f");
    table.cell(r.quality.edge_cut_ratio);
    table.cell(r.quality.vertex_imbalance);
  }

  std::printf(
      "\nExtrapolation: at %.1f Medges/s on %d simulated ranks, 2^40 edges\n"
      "needs %.0fx this substrate's throughput — the paper reaches it with\n"
      "8192 nodes x 16 cores (~16000x the parallelism used here).\n",
      best_meps, nranks,
      static_cast<double>(count_t(1) << 40) / (best_meps * 1e6) / 380.0);
  return 0;
}
