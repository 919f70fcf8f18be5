// Figure 3: XtraPuLP relative speedup on six representative graphs,
// computing 16 parts as rank count grows.
//
// Paper: 1..16 nodes of Cluster-1, speedups between ~2x and ~14x at 16
// nodes depending on graph structure. Here: 1..8 simulated ranks, all
// sharing one 4-vCPU host, so "speedup" reflects algorithmic
// communication/work balance rather than hardware. Expected shape:
// meshes show the best scaling (low cut after init => little
// exchange), social networks the worst.
#include "bench/bench_common.hpp"
#include "gen/suite.hpp"

using namespace xtra;

int main() {
  const double scale = gen::env_scale();
  const part_t nparts = 16;
  const char* graphs[] = {"lj",        "orkut",   "friendster",
                          "wdc12-pay", "rmat_14", "nlpkkt_s"};

  std::printf("Fig 3: relative comm volume & time vs single rank, %d parts\n",
              nparts);
  bench::Table table({{"graph", 13},
                      {"ranks", 7},
                      {"time(s)", 10},
                      {"work-imb", 10},
                      {"comm", 10}});
  for (const char* name : graphs) {
    const graph::EdgeList el = gen::make_suite_graph(name, scale);
    for (const int nranks : {1, 2, 4, 8}) {
      core::Params params;
      params.nparts = nparts;
      const bench::RunResult r = bench::run_xtrapulp(el, nranks, params);
      table.cell(name);
      table.cell(static_cast<count_t>(nranks));
      table.cell(r.seconds);
      table.cell(r.work_balance, "%.2f");
      table.cell(bench::fmt_bytes(r.comm_bytes));
    }
  }
  std::printf(
      "\nShared-host substrate: every rank is a thread on one 4-vCPU host,\n"
      "so wall time can drop only up to 4 ranks; 'work-imb' near 1.0 is\n"
      "what yields the paper's Fig 3 speedups on real nodes (DESIGN.md,\n"
      "section 2).\n");
  return 0;
}
