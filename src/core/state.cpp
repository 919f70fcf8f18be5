#include "core/state.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace xtra::core {

std::vector<count_t> compute_vertex_sizes(sim::Comm& comm,
                                          const graph::DistGraph& g,
                                          const std::vector<part_t>& parts,
                                          part_t nparts) {
  std::vector<count_t> sizes(static_cast<std::size_t>(nparts), 0);
  for (lid_t v = 0; v < g.n_local(); ++v) {
    XTRA_DEBUG_ASSERT(parts[v] >= 0 && parts[v] < nparts);
    ++sizes[static_cast<std::size_t>(parts[v])];
  }
  comm.allreduce_sum(sizes);
  return sizes;
}

std::vector<count_t> compute_edge_sizes(sim::Comm& comm,
                                        const graph::DistGraph& g,
                                        const std::vector<part_t>& parts,
                                        part_t nparts) {
  std::vector<count_t> sizes(static_cast<std::size_t>(nparts), 0);
  for (lid_t v = 0; v < g.n_local(); ++v)
    sizes[static_cast<std::size_t>(parts[v])] += g.degree(v);
  comm.allreduce_sum(sizes);
  return sizes;
}

std::vector<count_t> compute_cut_sizes(sim::Comm& comm,
                                       const graph::DistGraph& g,
                                       const std::vector<part_t>& parts,
                                       part_t nparts) {
  const auto np = static_cast<std::size_t>(nparts);
  const auto n = static_cast<count_t>(g.n_local());
  // One row of per-part counts per chunk, folded in chunk order.
  std::vector<count_t> partials(
      static_cast<std::size_t>(par::chunk_count(n)) * np, 0);
  const auto count_chunk = [&](count_t c, count_t lo, count_t hi) {
    count_t* row = partials.data() + static_cast<std::size_t>(c) * np;
    for (count_t i = lo; i < hi; ++i) {
      const lid_t v = static_cast<lid_t>(i);
      const part_t pv = parts[v];
      count_t cut = 0;
      for (const lid_t u : g.arcs(v)) cut += parts[u] != pv;
      row[static_cast<std::size_t>(pv)] += cut;
    }
  };
  par::for_chunks(n, count_chunk);
  std::vector<count_t> sizes(np, 0);
  for (std::size_t off = 0; off < partials.size(); off += np)
    for (std::size_t i = 0; i < np; ++i) sizes[i] += partials[off + i];
  comm.allreduce_sum(sizes);
  return sizes;
}

namespace {

/// First owned lid of sub-rank b of s: the first vertex whose arcs
/// start at or past b/s of the rank's arcs (n_local for b == s). Hubs
/// sit wherever the distribution put them, so cutting at equal arc
/// counts rather than by lid or gid keeps the blocks' work even.
lid_t block_begin(const graph::DistGraph& g, int b, int s) {
  if (b == s) return g.n_local();
  const count_t target = g.m_local() * b / s;
  lid_t lo = 0;
  lid_t hi = g.n_local();
  while (lo < hi) {
    const lid_t mid = lo + (hi - lo) / 2;
    if (g.arc_begin(mid) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void sweep_deciders(const graph::DistGraph& g, std::vector<part_t>& parts,
                    PhaseState& st, std::vector<lid_t>& queue,
                    const std::function<void(Decider&)>& sweep) {
  const int s = st.subranks();
  const auto np = static_cast<std::size_t>(st.nparts);
  st.decider_buffers.resize(static_cast<std::size_t>(s));
  for (int b = 0; b < s; ++b) {
    Decider& d = st.decider_buffers[static_cast<std::size_t>(b)];
    if (d.counts.nparts() != st.nparts) d.counts = NeighborCounts(st.nparts);
    d.weight_v.resize(np);
    d.weight_e.resize(np);
    d.weight_c.resize(np);
    d.st = &st;
    d.mult = st.mult();
    d.deciders = st.deciders();
    d.lo = block_begin(g, b, s);
    d.hi = block_begin(g, b + 1, s);
  }
  const auto run = [&](count_t b) {
    Decider& d = st.decider_buffers[static_cast<std::size_t>(b)];
    d.labels.assign(parts.begin(), parts.end());
    d.change_v.assign(st.change_v.size(), 0);
    d.change_e.assign(st.change_e.size(), 0);
    d.change_c.assign(st.change_c.size(), 0);
    d.queue.clear();
    sweep(d);
  };
  par::for_tasks(s, run);
  const auto add = [](std::vector<count_t>& into,
                      const std::vector<count_t>& from) {
    for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
  };
  queue.clear();
  for (const Decider& d : st.decider_buffers) {
    std::copy(d.labels.begin() + d.lo, d.labels.begin() + d.hi,
              parts.begin() + d.lo);
    add(st.change_v, d.change_v);
    add(st.change_e, d.change_e);
    add(st.change_c, d.change_c);
    queue.insert(queue.end(), d.queue.begin(), d.queue.end());
  }
}

void fold_changes(sim::Comm& comm, PhaseState& st) {
  auto fold = [&comm](std::vector<count_t>& sizes,
                      std::vector<count_t>& changes) {
    if (changes.empty()) return;
    comm.allreduce_sum(changes);
    for (std::size_t i = 0; i < sizes.size(); ++i) sizes[i] += changes[i];
    std::fill(changes.begin(), changes.end(), 0);
  };
  fold(st.size_v, st.change_v);
  fold(st.size_e, st.change_e);
  // Cut sizes are NOT folded: a vertex move's cut delta depends on its
  // neighbors' labels, which other deciders may change in the same
  // iteration, so summed deltas drift from the truth (unlike Cv/Ce,
  // which depend only on the moved vertex). The edge phases recompute
  // Sc exactly after each ghost exchange instead.
}

void refresh_cut_sizes(sim::Comm& comm, const graph::DistGraph& g,
                       const std::vector<part_t>& parts, PhaseState& st) {
  std::vector<count_t> fresh = compute_cut_sizes(comm, g, parts, st.nparts);
  for (std::size_t i = 0; i < fresh.size(); ++i)
    st.cut_drift += std::abs(st.size_c[i] + st.change_c[i] - fresh[i]);
  st.size_c = std::move(fresh);
  std::fill(st.change_c.begin(), st.change_c.end(), 0);
}

}  // namespace xtra::core
