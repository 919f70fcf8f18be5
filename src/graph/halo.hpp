// Reusable ghost-value exchange plan.
//
// The partitioner's ExchangeUpdates sends sparse per-vertex updates;
// the analytics and SpMV kernels instead refresh *every* ghost value
// each superstep (PageRank, WCC, k-core...). Building the
// sender/receiver lists once and replaying them each iteration is the
// standard halo pattern; the plan is the moral equivalent of an
// Epetra Import object.
//
// The plan owns its wire machinery: one persistent staging buffer plus
// one comm::Exchanger (optionally memory-bounded via
// set_max_send_bytes).
//
// Ways to refresh:
//  * exchange(comm, vals) — blocking, gather + wire + scatter.
//  * prefetch_next(comm, vals) / finish_prefetch(comm, vals) — the
//    overlapped refresh. prefetch_next gathers the boundary values
//    (the only ones any peer sees) and starts the wire transfer; the
//    caller then runs local compute — typically the interior
//    vertices, which no peer reads — and finish_prefetch scatters the
//    arrivals into the ghost entries. boundary_lids() / is_boundary()
//    give the compute-first set: update those, prefetch, update the
//    rest, finish. vals may be freely mutated between the two calls
//    (the staging holds the gathered copy); only the ghost entries
//    are overwritten by finish_prefetch.
//    overlapped_superstep() packages the whole sequence for the
//    per-vertex-update kernels; it is the engine's one dense refresh
//    mode, bit-identical to update-everything-then-exchange().
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "comm/exchanger.hpp"
#include "comm/scratch.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace xtra::graph {

class HaloPlan {
 public:
  /// Collective: ghosts register with their owners once.
  HaloPlan(sim::Comm& comm, const DistGraph& g);

  /// Collective: copy vals[owned] into every ghost copy; vals must
  /// have size g.n_total() and element type T trivially copyable.
  template <typename T>
  void exchange(sim::Comm& comm, std::vector<T>& vals) {
    XTRA_ASSERT_MSG(!ex_.in_flight(),
                    "blocking exchange while a prefetch is in flight");
    scatter(ex_.exchange(comm, gather(vals), send_counts_), vals);
  }

  /// Collective: kick off the ghost refresh — gather the boundary
  /// values and start the wire transfer — then return so local
  /// compute can overlap the in-flight exchange. Any blocking
  /// collectives may run before finish_prefetch; a second prefetch
  /// may not.
  template <typename T>
  void prefetch_next(sim::Comm& comm, const std::vector<T>& vals) {
    XTRA_ASSERT_MSG(!ex_.in_flight(), "a prefetch is already in flight");
    // The staging holds the gathered copy and is not touched again
    // until the next gather (after the finish), so the exchange may
    // read it in place.
    ex_.start(comm, gather(vals), send_counts_);
  }

  /// Collective: drain the in-flight prefetch and scatter its arrivals
  /// into vals' ghost entries.
  template <typename T>
  void finish_prefetch(sim::Comm& comm, std::vector<T>& vals) {
    XTRA_ASSERT_MSG(ex_.in_flight(), "finish_prefetch with nothing in flight");
    scatter(ex_.finish<T>(comm), vals);
  }

  /// Collective: one overlapped superstep — update(v) over the
  /// boundary, ship those values, mid() against the in-flight wire
  /// (the slot for an overlapped collective), update(v) over the
  /// interior, scatter the arriving ghosts. The invariant (boundary
  /// before prefetch, interior before finish) lives here so kernels
  /// don't open-code it.
  ///
  /// `parallel` runs both sweeps as chunked par::for_chunks regions on
  /// the rank's thread pool. The caller guarantees update(v) is safe
  /// for concurrent distinct v (writes only v's own slots — the
  /// engine's kParallelUpdate trait); the wire calls stay on the rank
  /// thread, so pool workers never touch collectives.
  template <typename T, typename Fn, typename Mid>
  void overlapped_superstep(sim::Comm& comm, std::vector<T>& vals,
                            Fn&& update, Mid&& mid, bool parallel = false) {
    if (parallel) {
      par::for_chunks(static_cast<count_t>(boundary_lids_.size()),
                      [&](count_t, count_t lo, count_t hi) {
                        for (count_t i = lo; i < hi; ++i)
                          update(boundary_lids_[static_cast<std::size_t>(i)]);
                      });
      prefetch_next(comm, vals);
      mid();
      par::for_chunks(static_cast<count_t>(boundary_mask_.size()),
                      [&](count_t, count_t lo, count_t hi) {
                        for (count_t i = lo; i < hi; ++i) {
                          const lid_t v = static_cast<lid_t>(i);
                          if (!is_boundary(v)) update(v);
                        }
                      });
      finish_prefetch(comm, vals);
      return;
    }
    for (const lid_t v : boundary_lids_) update(v);
    prefetch_next(comm, vals);
    mid();
    const auto n = static_cast<lid_t>(boundary_mask_.size());
    for (lid_t v = 0; v < n; ++v)
      if (!is_boundary(v)) update(v);  // overlaps the in-flight wire
    finish_prefetch(comm, vals);
  }

  template <typename T, typename Fn>
  void overlapped_superstep(sim::Comm& comm, std::vector<T>& vals,
                            Fn&& update) {
    overlapped_superstep(comm, vals, std::forward<Fn>(update), [] {});
  }

  bool prefetch_in_flight() const { return ex_.in_flight(); }

  count_t ghost_count() const { return static_cast<count_t>(recv_lids_.size()); }

  /// Owned lids some peer holds as a ghost (deduped, ascending): the
  /// values prefetch_next ships. Compute these before prefetching and
  /// the interior — every owned lid with is_boundary() false — while
  /// the wire drains.
  const std::vector<lid_t>& boundary_lids() const { return boundary_lids_; }
  bool is_boundary(lid_t owned) const {
    return boundary_mask_[static_cast<std::size_t>(owned)] != 0;
  }

  /// Cap the per-phase send payload of subsequent exchanges (0 =
  /// unbounded). Same value required on every rank.
  void set_max_send_bytes(count_t bytes) { ex_.set_max_send_bytes(bytes); }

  const comm::ExchangeStats& stats() const { return ex_.stats(); }
  /// Drop accumulated stats (e.g. the constructor's registration
  /// exchange) so benches can meter only the replayed exchanges.
  void reset_stats() { ex_.reset_stats(); }

 private:
  /// Gather the shipped values into the staging an in-flight prefetch
  /// slices in place until its finish.
  template <typename T>
  const T* gather(const std::vector<T>& vals) {
    T* send = scratch_.as<T>(send_lids_.size());
    for (std::size_t i = 0; i < send_lids_.size(); ++i)
      send[i] = vals[send_lids_[i]];
    return send;
  }

  template <typename T>
  void scatter(std::span<const T> recv, std::vector<T>& vals) {
    XTRA_ASSERT(recv.size() == recv_lids_.size());
    for (std::size_t i = 0; i < recv_lids_.size(); ++i)
      vals[recv_lids_[i]] = recv[i];
  }

  std::vector<count_t> send_counts_;  ///< per destination rank
  std::vector<lid_t> send_lids_;      ///< owned lids, grouped by dest
  std::vector<lid_t> recv_lids_;      ///< ghost lids in arrival order
  std::vector<lid_t> boundary_lids_;  ///< send_lids_, deduped ascending
  std::vector<std::uint8_t> boundary_mask_;  ///< per owned lid

  comm::ScratchBuffer scratch_;
  comm::Exchanger ex_;
};

}  // namespace xtra::graph
