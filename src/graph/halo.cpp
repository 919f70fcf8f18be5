#include "graph/halo.hpp"

#include "comm/dest_buckets.hpp"
#include "util/assert.hpp"

namespace xtra::graph {

HaloPlan::HaloPlan(sim::Comm& comm, const DistGraph& g) {
  ex_.set_label("graph::HaloPlan");
  // Ghosts register with their owners: send each ghost gid to its
  // owner; arrival order on the owner defines the send order, and the
  // order we sent defines our receive order. The exchange preserves
  // both.
  comm::DestBuckets<gid_t> buckets;
  buckets.begin(comm.size());
  for (lid_t v = g.n_local(); v < g.n_total(); ++v)
    buckets.count(g.owner_of(v));
  buckets.commit();
  recv_lids_.resize(g.n_ghost());
  for (lid_t v = g.n_local(); v < g.n_total(); ++v) {
    const count_t slot = buckets.push(g.owner_of(v), g.gid_of(v));
    recv_lids_[static_cast<std::size_t>(slot)] = v;
  }
  const std::span<const gid_t> registrations =
      ex_.exchange(comm, buckets, &send_counts_);
  send_lids_.resize(registrations.size());
  for (std::size_t i = 0; i < registrations.size(); ++i) {
    const lid_t l = g.lid_of(registrations[i]);
    XTRA_ASSERT_MSG(l != kInvalidLid && g.is_owned(l),
                    "halo registration for a vertex not owned here");
    send_lids_[i] = l;
  }

  // Boundary classification for the overlapped path: an owned vertex
  // is boundary iff some peer holds it as a ghost (it appears in
  // send_lids_, possibly once per destination — dedup here).
  boundary_mask_.assign(static_cast<std::size_t>(g.n_local()), 0);
  for (const lid_t l : send_lids_)
    boundary_mask_[static_cast<std::size_t>(l)] = 1;
  boundary_lids_.clear();
  for (lid_t v = 0; v < g.n_local(); ++v)
    if (boundary_mask_[static_cast<std::size_t>(v)] != 0)
      boundary_lids_.push_back(v);
}

}  // namespace xtra::graph
