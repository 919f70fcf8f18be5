#include "core/xtrapulp.hpp"

#include <cmath>
#include <stdexcept>

#include <algorithm>
#include <cstdint>

#include "comm/query_reply.hpp"
#include "core/exchange.hpp"
#include "core/init.hpp"
#include "core/phases.hpp"
#include "core/state.hpp"
#include "graph/halo.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace xtra::core {

namespace {

void validate(const graph::DistGraph& g, const Params& params) {
  if (params.nparts < 1)
    throw std::invalid_argument("nparts must be >= 1");
  if (static_cast<gid_t>(params.nparts) > g.n_global())
    throw std::invalid_argument("more parts than vertices");
  if (params.vert_imbalance < 0 || params.edge_imbalance < 0)
    throw std::invalid_argument("imbalance ratios must be non-negative");
  if (params.outer_iters < 1 || params.bal_iters < 0 || params.ref_iters < 0)
    throw std::invalid_argument("iteration counts out of range");
  if (params.mult_x < 0 || params.mult_y < 0)
    throw std::invalid_argument("multiplier endpoints must be >= 0");
  // ExchangeUpdates ships labels along out-arcs only, so a directed
  // graph's in-neighbor ghosts would never be labelled.
  if (g.directed())
    throw std::invalid_argument(
        "partition() needs an undirected graph (graph::symmetrized)");
}

}  // namespace

PartitionResult partition(sim::Comm& comm, const graph::DistGraph& g,
                          const Params& params) {
  validate(g, params);
  PartitionResult result;
  result.nparts = params.nparts;
  // Ambient thread width for the sub-rank sweeps (one or two ranks)
  // and the chunk-parallel cut recount (compute_cut_sizes). Results
  // are byte-identical at any width.
  par::ThreadScope threads(params.num_threads);
  const count_t bytes_before = comm.stats().bytes_sent;
  Timer total;

  // --- Stage 0: initialization (Algorithm 2) ---
  Timer t_init;
  result.parts = initialize_parts(comm, g, params);
  result.init_seconds = t_init.seconds();

  PhaseState st;
  st.nparts = params.nparts;
  st.nprocs = comm.size();
  st.exchanger.set_max_send_bytes(params.max_exchange_bytes);
  st.x = params.mult_x;
  st.y = params.mult_y;
  st.i_tot = std::max(params.outer_iters *
                          (params.bal_iters + params.ref_iters),
                      1);
  st.imb_v = static_cast<count_t>(
      std::ceil((1.0 + params.vert_imbalance) *
                static_cast<double>(g.n_global()) /
                static_cast<double>(params.nparts)));
  // Edge target uses the degree-sum convention (sum over parts = 2m).
  st.imb_e = static_cast<count_t>(
      std::ceil((1.0 + params.edge_imbalance) * 2.0 *
                static_cast<double>(g.m_global()) /
                static_cast<double>(params.nparts)));

  // --- Stage 1: vertex balance + refinement (Algorithms 4 & 5) ---
  Timer t_vert;
  st.size_v = compute_vertex_sizes(comm, g, result.parts, params.nparts);
  st.change_v.assign(static_cast<std::size_t>(params.nparts), 0);
  st.iter_tot = 0;
  for (int outer = 0; outer < params.outer_iters; ++outer) {
    vert_balance_phase(comm, g, result.parts, st, params);
    vert_refine_phase(comm, g, result.parts, st, params);
  }
  result.vert_stage_seconds = t_vert.seconds();

  // --- Stage 2: edge balance + refinement (§III-E) ---
  if (params.edge_phases) {
    Timer t_edge;
    st.size_e = compute_edge_sizes(comm, g, result.parts, params.nparts);
    st.size_c = compute_cut_sizes(comm, g, result.parts, params.nparts);
    st.change_e.assign(static_cast<std::size_t>(params.nparts), 0);
    st.change_c.assign(static_cast<std::size_t>(params.nparts), 0);
    st.iter_tot = 0;  // Alg 1 resets Iter_tot before the second loop
    for (int outer = 0; outer < params.outer_iters; ++outer) {
      edge_balance_phase(comm, g, result.parts, st, params);
      edge_refine_phase(comm, g, result.parts, st, params);
    }
    result.edge_stage_seconds = t_edge.seconds();
  }

  result.total_seconds = total.seconds();
  result.comm_bytes = comm.stats().bytes_sent - bytes_before;
  return result;
}

std::vector<part_t> gather_global_parts(sim::Comm& comm,
                                        const graph::DistGraph& g,
                                        const std::vector<part_t>& parts) {
  struct Labeled {
    gid_t gid;
    part_t part;
  };
  std::vector<Labeled> local(g.n_local());
  for (lid_t v = 0; v < g.n_local(); ++v)
    local[v] = {g.gid_of(v), parts[v]};
  const std::vector<Labeled> all = comm.allgatherv(local);
  XTRA_ASSERT(all.size() == g.n_global());
  std::vector<part_t> global(g.n_global(), kNoPart);
  for (const Labeled& rec : all) {
    XTRA_ASSERT(global[rec.gid] == kNoPart);
    global[rec.gid] = rec.part;
  }
  return global;
}

bool check_partition_consistent(sim::Comm& comm, const graph::DistGraph& g,
                                const std::vector<part_t>& parts,
                                part_t nparts) {
  bool ok = parts.size() == g.n_total();
  if (ok) {
    for (lid_t v = 0; v < g.n_total(); ++v)
      if (parts[v] < 0 || parts[v] >= nparts) ok = false;
  }
  // Routing pre-check: every ghost gid must resolve to an owned vertex
  // on its claimed owner. The HaloPlan constructor asserts this (a
  // well-formed DistGraph guarantees it), so a *checker* must test it
  // gracefully first — via the comm layer's query/reply round trip —
  // and return false instead of tripping the assert on a corrupt graph.
  comm::DestBuckets<gid_t> ghosts;
  ghosts.begin(comm.size());
  for (lid_t v = g.n_local(); v < g.n_total(); ++v)
    ghosts.count(g.owner_of(v));
  ghosts.commit();
  for (lid_t v = g.n_local(); v < g.n_total(); ++v)
    ghosts.push(g.owner_of(v), g.gid_of(v));
  comm::Exchanger ex;
  const std::span<const std::uint8_t> resolved = comm::query_reply(
      comm, ex, ghosts.records(), ghosts.counts(), [&g](const gid_t q) {
        const lid_t l = g.lid_of(q);
        return static_cast<std::uint8_t>(l != kInvalidLid && g.is_owned(l));
      });
  bool routing_ok = true;
  for (const std::uint8_t r : resolved)
    if (!r) routing_ok = false;
  // Collective agreement keeps the call pattern aligned: either every
  // rank builds the halo plan below, or none does.
  if (!comm.allreduce_and(routing_ok)) return false;

  // Ghost consistency via the halo plan: refresh a copy of the labels
  // from their owners and compare against what we hold. This re-ships
  // the ghost set a second time on purpose — the checker validates the
  // *production* HaloPlan path (registration ordering included), not
  // just the label values. Plan build and exchange run unconditionally
  // so the collective pattern stays aligned across ranks even when a
  // local check already failed.
  graph::HaloPlan halo(comm, g);
  std::vector<part_t> refreshed(g.n_total(), kNoPart);
  if (ok) std::copy(parts.begin(), parts.end(), refreshed.begin());
  halo.exchange(comm, refreshed);
  if (ok) {
    for (lid_t v = g.n_local(); v < g.n_total(); ++v)
      if (refreshed[v] != parts[v]) ok = false;
  }
  return comm.allreduce_and(ok);
}

}  // namespace xtra::core
