#include "core/init.hpp"

#include <algorithm>

#include "core/exchange.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace xtra::core {

namespace {

/// Label every ghost from its owner (queue all owned vertices once).
void sync_all_ghosts(sim::Comm& comm, const graph::DistGraph& g,
                     const Params& params, std::vector<part_t>& parts) {
  std::vector<lid_t> all(g.n_local());
  for (lid_t v = 0; v < g.n_local(); ++v) all[v] = v;
  UpdateExchanger exchanger(params.max_exchange_bytes);
  exchanger.run(comm, g, parts, all);
}

}  // namespace

std::vector<part_t> init_bfs_growing(sim::Comm& comm,
                                     const graph::DistGraph& g,
                                     const Params& params) {
  const part_t p = params.nparts;
  std::vector<part_t> parts(g.n_total(), kNoPart);

  // Master task picks p unique random roots and broadcasts them.
  std::vector<gid_t> roots;
  if (comm.rank() == 0) {
    Rng rng(params.seed, 0x1007);
    roots.reserve(static_cast<std::size_t>(p));
    // p << n in every sane configuration, so rejection sampling is fine.
    while (roots.size() < static_cast<std::size_t>(p)) {
      const gid_t r = rng.next_below(g.n_global());
      if (std::find(roots.begin(), roots.end(), r) == roots.end())
        roots.push_back(r);
    }
  }
  comm.bcast(roots);

  // Seed roots. (Algorithm 2 as printed never communicates the root
  // assignments themselves; we queue them into the first exchange so
  // cross-rank neighbors of a root can adopt its label — what the
  // reference implementation does.)
  std::vector<lid_t> queue;
  for (part_t i = 0; i < p; ++i) {
    if (g.owner_of_gid(roots[static_cast<std::size_t>(i)]) == comm.rank()) {
      const lid_t l = g.lid_of(roots[static_cast<std::size_t>(i)]);
      XTRA_ASSERT(l != kInvalidLid);
      if (parts[l] == kNoPart) {  // duplicate-root guard (p unique anyway)
        parts[l] = i;
        queue.push_back(l);
      }
    }
  }
  // Growth loops every superstep; keep one exchanger so its buffers
  // are reused across iterations.
  UpdateExchanger exchanger(params.max_exchange_bytes);
  exchanger.run(comm, g, parts, queue);

  Rng rng(params.seed, 0xB0075 + static_cast<std::uint64_t>(comm.rank()));
  std::vector<part_t> seen;  // distinct assigned parts in the neighborhood
  std::vector<count_t> seen_count(static_cast<std::size_t>(p), 0);

  count_t global_updates = 1;
  while (global_updates > 0) {
    count_t updates = 0;
    queue.clear();
    for (lid_t v = 0; v < g.n_local(); ++v) {
      if (parts[v] != kNoPart) continue;
      seen.clear();
      for (const lid_t u : g.arcs(v)) {
        const part_t pu = parts[u];
        if (pu == kNoPart) continue;
        if (seen_count[static_cast<std::size_t>(pu)] == 0) seen.push_back(pu);
        ++seen_count[static_cast<std::size_t>(pu)];
      }
      if (seen.empty()) continue;
      part_t w;
      if (params.init_random_among_assigned) {
        // Random among the parts present — "tends to result in slightly
        // more balanced partitions" (§III-B).
        w = seen[rng.next_below(seen.size())];
      } else {
        // Ablation: classic label propagation max-count choice.
        w = seen[0];
        for (const part_t cand : seen)
          if (seen_count[static_cast<std::size_t>(cand)] >
              seen_count[static_cast<std::size_t>(w)])
            w = cand;
      }
      for (const part_t cand : seen)
        seen_count[static_cast<std::size_t>(cand)] = 0;
      parts[v] = w;
      queue.push_back(v);
      ++updates;
    }
    exchanger.run(comm, g, parts, queue);
    global_updates = comm.allreduce_sum(updates);
  }

  // Anything still unassigned is unreachable from every root.
  queue.clear();
  for (lid_t v = 0; v < g.n_local(); ++v) {
    if (parts[v] == kNoPart) {
      parts[v] = static_cast<part_t>(rng.next_below(static_cast<std::uint64_t>(p)));
      queue.push_back(v);
    }
  }
  exchanger.run(comm, g, parts, queue);
  return parts;
}

std::vector<part_t> init_random(sim::Comm& comm, const graph::DistGraph& g,
                                const Params& params) {
  std::vector<part_t> parts(g.n_total(), kNoPart);
  // Hash the gid so the assignment is distribution-independent and any
  // rank could recompute it; ghosts are synced for uniformity.
  for (lid_t v = 0; v < g.n_local(); ++v)
    parts[v] = static_cast<part_t>(hash_to_bucket(
        g.gid_of(v), params.seed ^ 0xAB5, static_cast<std::uint64_t>(params.nparts)));
  sync_all_ghosts(comm, g, params, parts);
  return parts;
}

std::vector<part_t> init_block(sim::Comm& comm, const graph::DistGraph& g,
                               const Params& params) {
  std::vector<part_t> parts(g.n_total(), kNoPart);
  const auto n = static_cast<double>(g.n_global());
  for (lid_t v = 0; v < g.n_local(); ++v) {
    const auto frac = static_cast<double>(g.gid_of(v)) / n;
    parts[v] = std::min<part_t>(static_cast<part_t>(frac * params.nparts),
                                params.nparts - 1);
  }
  sync_all_ghosts(comm, g, params, parts);
  return parts;
}

std::vector<part_t> initialize_parts(sim::Comm& comm,
                                     const graph::DistGraph& g,
                                     const Params& params) {
  switch (params.init) {
    case InitStrategy::kBfsGrowing: return init_bfs_growing(comm, g, params);
    case InitStrategy::kRandom: return init_random(comm, g, params);
    case InitStrategy::kBlock: return init_block(comm, g, params);
  }
  XTRA_ASSERT_MSG(false, "unknown init strategy");
  return {};
}

}  // namespace xtra::core
