// The one overlapped frontier-expansion step behind every
// level-synchronous traversal (graph::bfs_levels, the engine's
// frontier programs — BFS, SCC's masked reachability, delta-capped
// SSSP, harmonic centrality's sampled sources — and the serve
// scheduler's packed query supersteps).
//
// A step advances N independent traversals, one per dense slot id in
// [0, num_slots), by one level in a single adjacency sweep and a
// single exchange. Single-source kernels are the one-slot case. Slots
// never interact — the dedup mask and every hook are keyed on
// (slot, vertex) — so slot s's marks, next-frontier order, and wire
// records are exactly what a one-slot run from that source produces.
// Batching only amortizes: one exchange and one termination
// collective per level regardless of N.
//
// One superstep, overlapped: a single adjacency scan relaxes ghost
// neighbors and stages the owner notifications (so the exchange
// starts as early as possible) while merely *collecting* the owned
// candidate edges; the owned relaxations and next-frontier compaction
// run while the notifications are on the wire, and the arrivals are
// applied after the drain. For monotone relaxations (BFS's first-hit
// mark, SSSP's min-distance) the marks and the next-frontier order
// are identical to a single interleaved scan — ghost and owned
// neighbor sets are disjoint, and first-improvement-wins compaction
// preserves traversal order — so callers get the overlap for free
// without a second edge traversal.
//
// The wire record is the caller's own `Notify` type, built at staging
// time from the ghost's *post-scan* state so several relaxations of
// one ghost in a level collapse into one record carrying the best
// value. The stepper never adds a slot tag: a multi-slot caller puts
// the slot in its record (SlotGid), a one-slot caller ships bare
// records (BFS gids, SSSP {gid, dist}), and receive() maps a record
// back to the (slot, vertex) it admits.
//
// The invariant that makes the overlap safe lives here, once: the
// DestBuckets' staging is stable from commit() until the next
// begin(), so the exchange may slice it in place (start_inplace), and
// only one exchange is in flight across the two passes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/dest_buckets.hpp"
#include "comm/exchanger.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace xtra::graph {

/// A frontier entry: the dense traversal-slot id plus the local vertex
/// it activates. receive() returns v == kInvalidLid to admit nothing.
struct SlotVertex {
  count_t slot;
  lid_t v;
};

/// Wire record of the slot-keyed gid traversals (multi-source BFS, the
/// serve scheduler): 16 bytes, the slot first.
struct SlotGid {
  count_t slot;
  gid_t gid;
};

/// Persistent scratch + wire engine for a frontier traversal: the
/// notification bucketing, the per-level candidate/touched lists, and
/// the newly-reached (slot, vertex) dedup mask all reuse their buffers
/// every level.
///
/// Hook contract per step(comm, g, num_slots, frontier, next, ...):
///  * nbrs(slot, v) — neighbor span (lids) to follow out of frontier
///    vertex v
///  * improves(slot, v, u) — read-only test: could the edge (v, u)
///    improve u right now? (BFS: u unreached; SSSP: dist[v] + w <
///    dist[u])
///  * relax(slot, v, u) — apply the edge; returns whether u actually
///    improved. Called at scan time for ghost u (the local ghost copy
///    absorbs the best value) and mid-flight for owned candidates (so
///    the marking work overlaps the wire). Must be monotone: a later
///    relax may only improve on an earlier one.
///  * make_notify(slot, l) — wire record for touched ghost l, built
///    after the scan (reads l's final post-scan state)
///  * receive(notify) — apply an arrival on the owner; returns the
///    (slot, owned lid) to add to the next frontier, or a kInvalidLid
///    vertex when the arrival did not improve it.
/// Newly improved owned vertices land in `next` (cleared first),
/// deduplicated per slot: candidates in first-improvement scan order,
/// then arrivals in exchange order.
template <typename Notify>
class FrontierStepper {
 public:
  explicit FrontierStepper(count_t max_send_bytes = 0)
      : ex_(max_send_bytes) {
    ex_.set_label("graph::FrontierStepper");
  }

  template <typename Nbrs, typename Improves, typename Relax,
            typename MakeNotify, typename Receive>
  void step(sim::Comm& comm, const DistGraph& g, count_t num_slots,
            const std::vector<SlotVertex>& frontier,
            std::vector<SlotVertex>& next, Nbrs&& nbrs, Improves&& improves,
            Relax&& relax, MakeNotify&& make_notify, Receive&& receive) {
    next.clear();
    scanned_edges_ = 0;
    const std::size_t stride = static_cast<std::size_t>(g.n_total());
    const auto cell = [stride](count_t slot, lid_t l) {
      return static_cast<std::size_t>(slot) * stride +
             static_cast<std::size_t>(l);
    };
    // Lazily sized, stamp-cleared (slot, vertex) admission mask, one
    // plane per slot: marked_[cell(s, l)] says l was already admitted
    // for slot s this level (owned: into next; ghost: into the notify
    // list), so duplicates collapse without a full per-level clear.
    const std::size_t cells = static_cast<std::size_t>(num_slots) * stride;
    if (marked_.size() < cells) marked_.resize(cells, 0);
    for (const std::size_t c : stamped_) marked_[c] = 0;
    stamped_.clear();
    touched_.clear();
    cand_.clear();

    // Adjacency scan, two phases so the edge traversal can run on the
    // rank's thread pool.
    //
    // Phase A (parallel, read-only): each frontier chunk collects its
    // candidate edges — owned and ghost alike pre-filtered by
    // improves() against the scan-start state — into per-chunk lists.
    // Nothing is relaxed, so concurrent chunks share only read-only
    // state (improves is a read-only hook by contract). Each chunk
    // also counts the neighbor entries it visits — the serve
    // scheduler's compute billing input, a pure count and therefore
    // identical at any thread width.
    const count_t nf = static_cast<count_t>(frontier.size());
    const count_t nchunks = par::chunk_count(nf);
    if (static_cast<count_t>(scan_owned_.size()) < nchunks) {
      scan_owned_.resize(static_cast<std::size_t>(nchunks));
      scan_ghost_.resize(static_cast<std::size_t>(nchunks));
    }
    scan_edges_.assign(static_cast<std::size_t>(nchunks), 0);
    const auto scan_chunk = [&](count_t c, count_t lo, count_t hi) {
      auto& owned = scan_owned_[static_cast<std::size_t>(c)];
      auto& ghost = scan_ghost_[static_cast<std::size_t>(c)];
      count_t edges = 0;
      owned.clear();
      ghost.clear();
      for (count_t i = lo; i < hi; ++i) {
        const SlotVertex e = frontier[static_cast<std::size_t>(i)];
        for (const lid_t u : nbrs(e.slot, e.v)) {
          ++edges;
          if (!improves(e.slot, e.v, u)) continue;
          (g.is_owned(u) ? owned : ghost).push_back({e.slot, e.v, u});
        }
      }
      scan_edges_[static_cast<std::size_t>(c)] = edges;
    };
    par::for_chunks(nf, scan_chunk);
    // Phase B (serial, chunk order): ghost candidates are replayed
    // through relax in exactly the order a single interleaved scan
    // visits them. Monotonicity makes the pre-filter exact: a ghost's
    // value only improves during the replay, so an edge whose
    // improves() was false at scan start relaxes to a no-op at replay
    // time too — the touched list, the marks, and hence the wire
    // records are identical to the interleaved scan's, at any thread
    // count including one. Owned candidates concatenate in the same
    // chunk order (owned state never moves during the scan), then
    // relax mid-flight below.
    for (count_t c = 0; c < nchunks; ++c) {
      scanned_edges_ += scan_edges_[static_cast<std::size_t>(c)];
      for (const Cand& cd : scan_ghost_[static_cast<std::size_t>(c)])
        if (relax(cd.slot, cd.v, cd.u) && !marked_[cell(cd.slot, cd.u)]) {
          marked_[cell(cd.slot, cd.u)] = 1;
          stamped_.push_back(cell(cd.slot, cd.u));
          touched_.push_back({cd.slot, cd.u});
        }
      const auto& owned = scan_owned_[static_cast<std::size_t>(c)];
      cand_.insert(cand_.end(), owned.begin(), owned.end());
    }
    buckets_.begin(comm.size());
    for (const SlotVertex& t : touched_) buckets_.count(g.owner_of(t.v));
    buckets_.commit();
    for (const SlotVertex& t : touched_)
      buckets_.push(g.owner_of(t.v), make_notify(t.slot, t.v));
    ex_.start_inplace(comm, buckets_);

    // Mid-flight: relax the owned candidates while the notifications
    // travel — first improvement admits the vertex, so the surviving
    // order equals the single interleaved scan's.
    for (const Cand& cd : cand_)
      if (relax(cd.slot, cd.v, cd.u) && !marked_[cell(cd.slot, cd.u)]) {
        marked_[cell(cd.slot, cd.u)] = 1;
        stamped_.push_back(cell(cd.slot, cd.u));
        next.push_back({cd.slot, cd.u});
      }
    const std::span<const Notify> arrivals = ex_.finish<Notify>(comm);
    for (const Notify& n : arrivals) {
      const SlotVertex a = receive(n);
      if (a.v == kInvalidLid) continue;
      XTRA_ASSERT(g.is_owned(a.v) && a.slot >= 0 && a.slot < num_slots);
      if (!marked_[cell(a.slot, a.v)]) {
        marked_[cell(a.slot, a.v)] = 1;
        stamped_.push_back(cell(a.slot, a.v));
        next.push_back(a);
      }
    }
  }

  /// Neighbor entries visited by the last step(), summed over chunks —
  /// deterministic at any thread width (a pure count in chunk order).
  count_t scanned_edges() const { return scanned_edges_; }

  /// The wire engine, for stats readout and knob changes.
  comm::Exchanger& exchanger() { return ex_; }
  const comm::Exchanger& exchanger() const { return ex_; }

 private:
  struct Cand {
    count_t slot;
    lid_t v;
    lid_t u;
  };

  comm::Exchanger ex_;
  comm::DestBuckets<Notify> buckets_;
  std::vector<Cand> cand_;             ///< owned candidate edges
  std::vector<SlotVertex> touched_;    ///< (slot, ghost) pairs to notify
  std::vector<std::uint8_t> marked_;   ///< (slot, lid) admission mask
  std::vector<std::size_t> stamped_;   ///< marked_ cells to clear
  count_t scanned_edges_ = 0;
  /// Per-chunk phase-A scratch (persistent across levels).
  std::vector<std::vector<Cand>> scan_owned_;
  std::vector<std::vector<Cand>> scan_ghost_;
  std::vector<count_t> scan_edges_;
};

}  // namespace xtra::graph
