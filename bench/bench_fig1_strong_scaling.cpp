// Figure 1: strong scaling on the four large graph classes.
//
// Paper: WDC12 / RMAT / RandER / RandHD at 3.56B vertices, 128B edges,
// 256..2048 Blue Waters nodes, 256 parts. Here: the same four classes
// at a scaled size, 1..8 simulated ranks, 32 parts. Expected shape:
// all classes scale; WDC12 (webcrawl) scales worst (structure-induced
// imbalance), synthetic classes better; RandHD is the cheapest overall
// because its initial block-ish locality minimizes exchange volume.
#include "bench/bench_common.hpp"
#include "gen/generators.hpp"

using namespace xtra;

int main() {
  const double scale = gen::env_scale();
  const auto n = static_cast<xtra::gid_t>(120'000 * scale);
  const count_t davg = 16;
  const part_t nparts = 32;

  std::printf(
      "Fig 1: strong scaling, computing %d parts (n=%llu, davg=%lld)\n",
      nparts, static_cast<unsigned long long>(n),
      static_cast<long long>(davg));

  struct Entry {
    const char* name;
    graph::EdgeList el;
  };
  const std::vector<Entry> graphs = {
      {"WDC12", graph::symmetrized(gen::webcrawl(n, davg, 3))},
      {"RMAT", gen::rmat(17, davg, 3)},
      {"RandER", gen::erdos_renyi(n, davg, 3)},
      {"RandHD", gen::rand_hd(n, davg, 3)},
  };

  bench::Table table({{"graph", 10},
                      {"ranks", 7},
                      {"time(s)", 10},
                      {"work-imb", 10},
                      {"comm", 10},
                      {"cut", 8}});
  for (const auto& [name, el] : graphs) {
    for (const int nranks : {1, 2, 4, 8}) {
      core::Params params;
      params.nparts = nparts;
      const bench::RunResult r = bench::run_xtrapulp(el, nranks, params);
      table.cell(name);
      table.cell(static_cast<count_t>(nranks));
      table.cell(r.seconds);
      table.cell(r.work_balance, "%.2f");
      table.cell(bench::fmt_bytes(r.comm_bytes));
      table.cell(r.quality.edge_cut_ratio);
    }
  }
  std::printf(
      "\nNote: all simulated ranks are threads on one 4-vCPU host, so wall\n"
      "time cannot drop past 4 ranks here; 'work-imb' is the max\n"
      "per-rank share of adjacency work relative to perfect balance --\n"
      "the quantity whose near-1.0 flatness makes the paper's strong\n"
      "scaling possible (RMAT's hub skew shows up directly).\n");
  return 0;
}
