#include "core/exchange.hpp"

#include "util/assert.hpp"

namespace xtra::core {

void UpdateExchanger::configure(const Params& params) {
  ex_.set_max_send_bytes(params.max_exchange_bytes);
}

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

  // Pass 2: fill the send buffer at prefix-summed offsets.
  for (const lid_t v : queue) {
    const PartUpdate rec{g.gid_of(v), parts[v]};
    for (const int task : g.send_ranks(v)) buckets_.push(task, rec);
  }

  // buckets_ is not touched again until the next start()'s begin(),
  // safely after the finish — slice it in place, no payload copy.
  ex_.start_inplace(comm, buckets_);
}

void UpdateExchanger::finish(sim::Comm& comm, const graph::DistGraph& g,
                             std::vector<part_t>& parts) {
  const std::span<const PartUpdate> recv = ex_.finish<PartUpdate>(comm);

  // Apply to ghosts. A received gid must be a ghost here: the sender
  // saw one of our owned vertices in its neighborhood, so we see theirs.
  for (const PartUpdate& rec : recv) {
    const lid_t l = g.lid_of(rec.gid);
    XTRA_ASSERT_MSG(l != kInvalidLid && !g.is_owned(l),
                    "part update for a vertex that is not a local ghost");
    parts[l] = rec.part;
  }
}

}  // namespace xtra::core
