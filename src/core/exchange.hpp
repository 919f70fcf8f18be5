// ExchangeUpdates — Algorithm 3, the partitioner's only point-to-point
// communication pattern.
//
// Each rank queues owned vertices whose part label changed this
// superstep. For every queued vertex we send (slot, new_part) to each
// *distinct* rank owning one of its neighbors — the paper's toSend set,
// which depends only on the graph, so graph::build_dist_graph
// precomputes it per vertex (DistGraph::send_ranks), together with the
// lid each of those ranks gave the vertex's ghost (DistGraph::send_slots)
// — then store the incoming records straight into our ghost labels, with
// no gid lookup. The two passes over the queue around prefix-summed
// offsets mirror Algorithm 3 exactly — they live in comm::DestBuckets;
// the wire trip (optionally phased under a max_send_bytes budget, per
// the paper's memory-bounded multi-phase communication) lives in
// comm::Exchanger.
#pragma once

#include <vector>

#include "comm/dest_buckets.hpp"
#include "comm/exchanger.hpp"
#include "core/params.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "util/types.hpp"

namespace xtra::core {

/// One part-assignment update on the wire: the receiver's ghost lid of
/// the moved vertex and its new part, 8 B.
struct PartUpdate {
  lid_t slot;
  part_t part;
};

/// Persistent ExchangeUpdates engine: owns the bucketing scratch and
/// the (possibly phased) exchanger, so calling run() once per
/// label-propagation iteration reallocates nothing. PhaseState holds
/// one so every balance/refine iteration reuses the same buffers.
class UpdateExchanger {
 public:
  /// max_send_bytes == 0: unbounded single alltoallv per exchange.
  explicit UpdateExchanger(count_t max_send_bytes = 0)
      : ex_(max_send_bytes) {
    ex_.set_label("core::UpdateExchanger");
  }

  /// Collective. `queue` holds owned local ids whose entry in `parts`
  /// changed; on return the ghost entries of `parts` reflect all
  /// peers' updates. Safe to call with empty queues (still collective).
  /// A thin start()+finish() wrapper.
  void run(sim::Comm& comm, const graph::DistGraph& g,
           std::vector<part_t>& parts, const std::vector<lid_t>& queue);

  /// Collective halves of run(), for overlapping the wire with local
  /// work: start() buckets the queued updates and kicks off the
  /// transfer (parts and queue are released when it returns); local
  /// compute that does not read ghost labels — e.g. fold_changes'
  /// allreduce — may run before finish() applies the arrivals.
  void start(sim::Comm& comm, const graph::DistGraph& g,
             const std::vector<part_t>& parts,
             const std::vector<lid_t>& queue);
  void finish(sim::Comm& comm, const graph::DistGraph& g,
              std::vector<part_t>& parts);

  /// Apply the exchange knob of `params`: max_exchange_bytes. Results
  /// are identical for any value.
  void configure(const Params& params);

  void set_max_send_bytes(count_t bytes) { ex_.set_max_send_bytes(bytes); }
  // No-op; kept only because perfbench/e2e.cpp:358 calls it.
  void set_shard_policy(ShardPolicy) {}
  // No-op; kept only because perfbench/e2e.cpp:359 calls it.
  void set_backend(Backend) {}
  const comm::ExchangeStats& stats() const { return ex_.stats(); }
  /// The last start()'s send buffer: records grouped by destination,
  /// and per-destination counts.
  const comm::DestBuckets<PartUpdate>& send_buffer() const {
    return buckets_;
  }
  void reset_stats() { ex_.reset_stats(); }

 private:
  comm::DestBuckets<PartUpdate> buckets_;
  comm::Exchanger ex_;
};

}  // namespace xtra::core
