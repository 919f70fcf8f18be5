// Reusable ghost-value exchange plan.
//
// The partitioner's ExchangeUpdates sends sparse per-vertex updates;
// the analytics and SpMV kernels instead refresh *every* ghost value
// each superstep (PageRank, WCC, k-core...). Building the
// sender/receiver lists once and replaying them each iteration is the
// standard halo pattern; the plan is the moral equivalent of an
// Epetra Import object.
//
// The plan owns its wire machinery: a ring of prefetch *lanes*, each a
// persistent staging buffer plus a comm::Exchanger (optionally
// memory-bounded via set_max_send_bytes). One lane is enough for the
// blocking and single-overlap paths; set_pipeline_lanes() grows the
// ring so several refreshes can ride the substrate's tagged channels
// at once.
//
// Ways to refresh:
//  * exchange(comm, vals) — blocking, gather + wire + scatter.
//  * prefetch_next(comm, vals) / finish_prefetch(comm, vals) — the
//    overlapped pipeline. prefetch_next gathers the boundary values
//    (the only ones any peer sees) and starts the wire transfer on the
//    next free lane; the caller then runs local compute — typically
//    the interior vertices, which no peer reads — and finish_prefetch
//    scatters the *oldest* in-flight lane's arrivals into the ghost
//    entries (lanes complete in FIFO order). boundary_lids() /
//    is_boundary() give the compute-first set: update those, prefetch,
//    update the rest, finish. vals may be freely mutated between the
//    two calls (the lane's staging holds the gathered copy); only the
//    ghost entries are overwritten by finish_prefetch.
//    overlapped_superstep() packages the whole pipeline for the
//    common per-vertex-update kernels.
//  * SuperstepPipeline (below) goes further for kernels that tolerate
//    stale ghosts: it keeps up to depth refreshes in flight *across*
//    superstep boundaries and drains the oldest incrementally
//    (drain_prefetch_one) between the next superstep's compute chunks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
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
    XTRA_ASSERT_MSG(inflight_ == 0,
                    "blocking exchange while prefetches are in flight");
    Lane& ln = *lanes_.front();
    const std::span<const T> recv =
        ln.ex.exchange(comm, gather(vals, ln.scratch), send_counts_);
    scatter(recv, vals);
  }

  /// Collective: kick off the next ghost refresh — gather the boundary
  /// values and start the wire transfer on the next free lane — then
  /// return so local compute can overlap the in-flight exchange. Any
  /// blocking collectives may run before finish_prefetch; starting
  /// more refreshes than there are lanes may not (grow the ring with
  /// set_pipeline_lanes first).
  template <typename T>
  void prefetch_next(sim::Comm& comm, const std::vector<T>& vals) {
    Lane& ln = *lanes_[head_];
    XTRA_ASSERT_MSG(!ln.ex.in_flight(),
                    "every prefetch lane is already in flight");
    // The lane's own staging holds the gathered copy and is not
    // touched again until its next gather (after the finish), so the
    // exchange can slice it in place — no second payload copy.
    ln.ex.start_inplace(comm, gather(vals, ln.scratch), send_counts_);
    head_ = (head_ + 1) % lanes_.size();
    ++inflight_;
  }

  /// Collective: drain the *oldest* in-flight prefetch and scatter its
  /// arrivals into vals' ghost entries (lanes finish in start order).
  template <typename T>
  void finish_prefetch(sim::Comm& comm, std::vector<T>& vals) {
    XTRA_ASSERT_MSG(inflight_ > 0, "finish_prefetch with nothing in flight");
    Lane& ln = *lanes_[tail_];
    scatter(ln.ex.finish<T>(comm), vals);
    tail_ = (tail_ + 1) % lanes_.size();
    --inflight_;
  }

  /// Collective: drain at most one phase of the oldest in-flight
  /// prefetch, scattering that phase's ghost arrivals into vals as
  /// they land (the incremental twin of finish_prefetch — the call
  /// that returns false leaves vals exactly as one finish_prefetch
  /// would, and the next call moves on to the next-oldest lane).
  /// Every rank must make the same number of calls;
  /// prefetch_phases_left() is rank-uniform and says how many complete
  /// the oldest lane's drain.
  template <typename T>
  bool drain_prefetch_one(sim::Comm& comm, std::vector<T>& vals) {
    if (inflight_ == 0) return false;
    Lane& ln = *lanes_[tail_];
    const bool more = ln.ex.drain_one<T>(
        comm, [&](int /*source*/, count_t dst_offset,
                  std::span<const T> recs) {
          for (std::size_t j = 0; j < recs.size(); ++j)
            vals[recv_lids_[static_cast<std::size_t>(dst_offset) + j]] =
                recs[j];
        });
    if (!more) {
      tail_ = (tail_ + 1) % lanes_.size();
      --inflight_;
    }
    return more;
  }

  /// Collective: drain every lane still in flight (no-op when idle).
  template <typename T>
  void flush_prefetch(sim::Comm& comm, std::vector<T>& vals) {
    while (inflight_ > 0) drain_prefetch_one(comm, vals);
  }

  /// Rank-uniform count of drain_prefetch_one calls left to complete
  /// the *oldest* in-flight prefetch (0 when idle).
  count_t prefetch_phases_left() const {
    return inflight_ > 0 ? lanes_[tail_]->ex.phases_remaining() : 0;
  }

  /// Pipeline ledger passthrough (see Exchanger::note_pipeline_carry).
  /// Booked on lane 0 — stats() aggregates across lanes anyway.
  void note_pipeline_carry(count_t depth) {
    lanes_.front()->ex.note_pipeline_carry(depth);
  }

  /// Collective: one overlapped superstep — update(v) over the
  /// boundary, ship those values, mid() against the in-flight wire
  /// (the slot for an overlapped collective), update(v) over the
  /// interior, scatter the arriving ghosts. The invariant (boundary
  /// before prefetch, interior before finish) lives here so kernels —
  /// and SuperstepPipeline's depth-0 path — don't open-code it.
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

  bool prefetch_in_flight() const { return inflight_ > 0; }
  /// How many refreshes are on the wire right now (≤ pipeline_lanes()).
  int prefetches_in_flight() const { return inflight_; }

  /// Grow the prefetch ring so up to `lanes` refreshes can be in
  /// flight at once. Never shrinks (lanes carry stats); every rank
  /// must request the same size — lane scheduling is rank-uniform.
  void set_pipeline_lanes(int lanes) {
    XTRA_ASSERT_MSG(inflight_ == 0,
                    "cannot grow the lane ring while prefetches are in flight");
    while (static_cast<int>(lanes_.size()) < std::max(lanes, 1)) add_lane();
  }
  int pipeline_lanes() const { return static_cast<int>(lanes_.size()); }

  count_t ghost_count() const { return static_cast<count_t>(recv_lids_.size()); }

  /// Owned lids some peer holds as a ghost (deduped, ascending): the
  /// values prefetch_next ships. Compute these before prefetching and
  /// the interior — every owned lid with is_boundary() false — while
  /// the wire drains.
  const std::vector<lid_t>& boundary_lids() const { return boundary_lids_; }
  bool is_boundary(lid_t owned) const {
    return boundary_mask_[static_cast<std::size_t>(owned)] != 0;
  }
  /// Owned vertices on this rank (the domain of is_boundary()).
  lid_t n_local() const { return static_cast<lid_t>(boundary_mask_.size()); }

  /// The plan's send layout, grouped by destination rank: one slot per
  /// (destination, owned lid) pair, send_counts()[r] slots for rank r.
  /// This is the routing table sparse per-vertex update paths (e.g.
  /// commLP's coalesced label updates) reuse instead of rebuilding the
  /// ghost registration.
  const std::vector<count_t>& send_counts() const { return send_counts_; }
  const std::vector<lid_t>& send_lids() const { return send_lids_; }

  /// Cap the per-phase send payload of subsequent exchanges (0 =
  /// unbounded). Same value required on every rank; applies to every
  /// lane, current and future.
  void set_max_send_bytes(count_t bytes) {
    max_send_bytes_ = bytes;
    for (auto& ln : lanes_) ln->ex.set_max_send_bytes(bytes);
  }

  /// Aggregate ledger over every lane (by value — lanes are folded).
  comm::ExchangeStats stats() const {
    comm::ExchangeStats agg = lanes_.front()->ex.stats();
    for (std::size_t i = 1; i < lanes_.size(); ++i)
      agg.merge_from(lanes_[i]->ex.stats());
    return agg;
  }
  /// Drop accumulated stats (e.g. the constructor's registration
  /// exchange) so benches can meter only the replayed exchanges.
  void reset_stats() {
    for (auto& ln : lanes_) ln->ex.reset_stats();
  }

 private:
  /// One slot of the prefetch ring: an exchange engine plus the
  /// staging its in-flight payload aliases (start_inplace), which must
  /// survive for the whole flight — hence per-lane, not shared.
  struct Lane {
    comm::ScratchBuffer scratch;
    comm::Exchanger ex;
    explicit Lane(count_t max_send_bytes) : ex(max_send_bytes) {}
  };

  void add_lane() {
    lanes_.push_back(std::make_unique<Lane>(max_send_bytes_));
    lanes_.back()->ex.set_label("graph::HaloPlan lane");
  }

  template <typename T>
  const T* gather(const std::vector<T>& vals, comm::ScratchBuffer& scratch) {
    T* send = scratch.as<T>(send_lids_.size());
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

  // Wire configuration, mirrored here so lanes added later inherit it.
  count_t max_send_bytes_ = 0;

  // FIFO ring of prefetch lanes: prefetch_next starts head_, drains
  // complete at tail_ in start order. unique_ptr keeps lanes pinned
  // across ring growth (an in-flight Exchanger may never move).
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  int inflight_ = 0;
};

/// Ceiling on SuperstepPipeline depth. Each in-flight lane holds one
/// substrate channel for its whole flight. A drain needs no channel of
/// its own: successor phases are re-posted on the lane's channel
/// (Exchanger::drain_step_bytes). The one auxiliary exchange a
/// superstep may run while lanes are in flight is a blocking
/// Exchanger::exchange from the mid() hook (e.g. DenseContext::aux()),
/// which holds one more channel until it returns. The remaining
/// channels stay free for exchanges the caller itself keeps in flight
/// around a pipelined kernel.
inline constexpr int kMaxPipelineDepth = 3;
static_assert(kMaxPipelineDepth + 1 <= sim::kMaxChannels,
              "pipeline lanes plus the mid() exchange must fit the "
              "substrate's channels");

/// Cross-superstep pipelined ghost-refresh driver.
///
/// overlapped_superstep() stops overlapping at the superstep boundary:
/// the refresh shipped at superstep k is drained before k returns, so
/// superstep k+1 always reads fresh ghosts. For kernels whose
/// convergence test tolerates stale ghosts (PageRank's residual,
/// k-core's monotone level sets, commLP's majority vote), that final
/// drain is pure wait. A SuperstepPipeline with depth d >= 1 instead
/// keeps up to d refreshes in flight across superstep boundaries on
/// the HaloPlan's lane ring: superstep k ships its boundary values and
/// returns; only once d lanes are occupied does a superstep first
/// drain the *oldest* refresh — *incrementally*, one phase per
/// interior compute chunk, arrivals scattered into vals' ghost entries
/// as they land — before shipping its own.
///
/// Staleness contract: at depth d >= 1, a produce(v) call may read
/// ghost entries up to d supersteps old (and mid-superstep a mix of
/// ages, as drained phases land); owned entries are always current.
/// Only kernels whose update is tolerant of that lag may run at
/// depth >= 1. Depth requests clamp to [0, kMaxPipelineDepth] (the
/// ledger records the carry actually observed, not the request).
/// flush() drains everything still in flight, after which ghosts equal
/// the owners' last-shipped values.
///
/// Depth 0 is exactly overlapped_superstep() plus a mid() hook and is
/// bit-identical to the blocking exchange for any kernel (asserted in
/// tests/test_pipeline.cpp).
template <typename T>
class SuperstepPipeline {
 public:
  SuperstepPipeline(HaloPlan& halo, int depth)
      : halo_(halo), depth_(std::clamp(depth, 0, kMaxPipelineDepth)) {
    if (depth_ >= 1) halo_.set_pipeline_lanes(depth_);
  }

  /// Effective depth (requests clamp to [0, kMaxPipelineDepth]).
  int depth() const { return depth_; }
  bool in_flight() const { return halo_.prefetch_in_flight(); }

  /// Collective: one pipelined superstep. produce(v) computes vals[v]
  /// (or a derived update) for every owned v, boundary first; mid()
  /// runs while this superstep's refresh is on the wire (the slot for
  /// an overlapped allreduce). At depth 0 the refresh is drained
  /// before returning; at depth >= 1 it stays in flight and — once the
  /// ring holds depth() refreshes — the *oldest* one is drained
  /// incrementally between interior compute chunks.
  ///
  /// `parallel` runs the produce sweeps on the rank's thread pool
  /// (caller guarantees produce(v) is concurrency-safe for distinct
  /// v). At depth >= 1 the interior is then grouped by *lid range*
  /// instead of by interior count — the group boundaries must not
  /// depend on who computes what, and a lid-range split keeps each
  /// drain between two fixed chunked regions. Both groupings drain the
  /// same phases before the superstep returns, so end-of-superstep
  /// state is identical; only the mid-superstep arrival interleaving
  /// differs, which a parallel-safe produce (one that never reads
  /// ghost entries mid-sweep, or tolerates any staleness mix) cannot
  /// observe. The drain itself stays on the rank thread.
  template <typename Produce, typename Mid>
  void superstep(sim::Comm& comm, std::vector<T>& vals, Produce&& produce,
                 Mid&& mid, bool parallel = false) {
    const lid_t n_local = halo_.n_local();
    if (depth_ == 0) {
      halo_.overlapped_superstep(comm, vals, std::forward<Produce>(produce),
                                 std::forward<Mid>(mid), parallel);
      return;
    }

    // Depth >= 1. Boundary first (its ghost reads honor the staleness
    // contract); then, when the ring is full, interleave the interior
    // with the incremental drain of the oldest carried refresh. The
    // ring-full test and the drain-call count are both rank-uniform,
    // so every rank interleaves the same collectives.
    ++step_;
    if (parallel) {
      const auto& blids = halo_.boundary_lids();
      par::for_chunks(static_cast<count_t>(blids.size()),
                      [&](count_t, count_t lo, count_t hi) {
                        for (count_t i = lo; i < hi; ++i)
                          produce(blids[static_cast<std::size_t>(i)]);
                      });
      const bool full = halo_.prefetches_in_flight() >= depth_;
      const count_t steps = full ? halo_.prefetch_phases_left() : 0;
      if (steps > 0) halo_.note_pipeline_carry(step_ - started_.front());
      const count_t n = static_cast<count_t>(n_local);
      for (count_t s = 0; s <= steps; ++s) {
        // Group s of steps+1 even lid slices; slice bounds are local
        // but the drain-call count (`steps`) is globally agreed.
        const count_t glo = (s * n) / (steps + 1);
        const count_t ghi = ((s + 1) * n) / (steps + 1);
        par::for_chunks(ghi - glo, [&](count_t, count_t lo, count_t hi) {
          for (count_t i = glo + lo; i < glo + hi; ++i) {
            const lid_t v = static_cast<lid_t>(i);
            if (!halo_.is_boundary(v)) produce(v);
          }
        });
        if (s < steps) (void)halo_.drain_prefetch_one(comm, vals);
      }
      if (steps > 0) started_.pop_front();
      XTRA_ASSERT_MSG(halo_.prefetches_in_flight() < depth_,
                      "pipeline drain count disagreed with the phase plan");
      halo_.prefetch_next(comm, vals);  // carried into a later superstep
      started_.push_back(step_);
      mid();
      return;
    }
    for (const lid_t v : halo_.boundary_lids()) produce(v);
    const bool full = halo_.prefetches_in_flight() >= depth_;
    const count_t steps = full ? halo_.prefetch_phases_left() : 0;
    if (steps > 0) halo_.note_pipeline_carry(step_ - started_.front());
    const count_t n_interior =
        static_cast<count_t>(n_local) -
        static_cast<count_t>(halo_.boundary_lids().size());
    lid_t v = 0;
    count_t done = 0;
    for (count_t s = 0; s <= steps; ++s) {
      // Chunk s of steps+1 even slices; chunk sizes are local but the
      // drain-call count (`steps`) is globally agreed.
      const count_t target = ((s + 1) * n_interior) / (steps + 1);
      for (; done < target; ++v)
        if (!halo_.is_boundary(v)) {
          produce(v);
          ++done;
        }
      if (s < steps) (void)halo_.drain_prefetch_one(comm, vals);
    }
    if (steps > 0) started_.pop_front();
    XTRA_ASSERT_MSG(halo_.prefetches_in_flight() < depth_,
                    "pipeline drain count disagreed with the phase plan");
    halo_.prefetch_next(comm, vals);  // carried into a later superstep
    started_.push_back(step_);
    mid();
  }

  /// Collective: drain every in-flight refresh, oldest first, so
  /// vals' ghosts hold the owners' last-shipped values. Refreshes that
  /// already crossed a superstep boundary are booked in the carry
  /// ledger as they drain. No-op at depth 0 (and when nothing is in
  /// flight) — every rank must still call it at the same point.
  void flush(sim::Comm& comm, std::vector<T>& vals) {
    while (halo_.prefetch_in_flight()) {
      if (!started_.empty()) {
        const count_t carry = step_ - started_.front();
        if (carry > 0) halo_.note_pipeline_carry(carry);
        started_.pop_front();
      }
      while (halo_.drain_prefetch_one(comm, vals)) {
      }
    }
    started_.clear();
  }

 private:
  HaloPlan& halo_;
  int depth_;
  count_t step_ = 0;  ///< supersteps entered (for the carry ledger)
  std::deque<count_t> started_;  ///< start step of each in-flight lane
};

}  // namespace xtra::graph
