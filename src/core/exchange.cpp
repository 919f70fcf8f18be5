#include "core/exchange.hpp"

#include <span>

#include "util/assert.hpp"

namespace xtra::core {

void UpdateExchanger::run(sim::Comm& comm, const graph::DistGraph& g,
                          std::vector<part_t>& parts,
                          const std::vector<lid_t>& queue) {
  start(comm, g, parts, queue);
  finish(comm, g, parts);
}

void UpdateExchanger::start(sim::Comm& comm, const graph::DistGraph& g,
                            const std::vector<part_t>& parts,
                            const std::vector<lid_t>& queue) {
  // Pass 1 (Alg 3): count one record per (queued vertex, toSend rank).
  buckets_.begin(comm.size());
  for (const lid_t v : queue) {
    XTRA_DEBUG_ASSERT(g.is_owned(v));
    for (const int task : g.send_ranks(v)) buckets_.count(task);
  }
  buckets_.commit();

  // Pass 2: fill the send buffer at prefix-summed offsets, each record
  // addressed to the receiver's ghost lid of v.
  for (const lid_t v : queue) {
    const part_t part = parts[v];
    const std::span<const int> ranks = g.send_ranks(v);
    const std::span<const lid_t> slots = g.send_slots(v);
    for (std::size_t k = 0; k < ranks.size(); ++k)
      buckets_.push(ranks[k], PartUpdate{slots[k], part});
  }

  // buckets_ is not touched again until the next start()'s begin(),
  // safely after the finish, so the exchange may read it in place.
  ex_.start(comm, buckets_);
}

void UpdateExchanger::finish(sim::Comm& comm, const graph::DistGraph& g,
                             std::vector<part_t>& parts) {
  const std::span<const PartUpdate> recv = ex_.finish<PartUpdate>(comm);

  // Apply to ghosts. The slot is the lid we gave the sender's vertex at
  // build time, so it must be a ghost lid here.
  const lid_t lo = g.n_local();
  const lid_t hi = g.n_total();
  for (const PartUpdate& rec : recv) {
    XTRA_ASSERT_MSG(rec.slot >= lo && rec.slot < hi,
                    "part update for a slot that is not a local ghost");
    parts[rec.slot] = rec.part;
  }
}

}  // namespace xtra::core
