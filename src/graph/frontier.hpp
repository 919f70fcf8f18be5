// The two level-synchronous frontier steps behind every BFS-style
// traversal.
//
// FrontierStepper runs ONE traversal with a caller-defined relaxation:
// graph::bfs_levels and the engine's delta-capped SSSP.
// MaskFrontierStepper runs N unit-distance traversals at once, one
// mask bit per source: the engine's BFS program (harmonic
// centrality's sampled sources, SCC's masked reachability) and the
// serve scheduler's packed queries, which release a finished source's
// bit and seed a new query into it between levels. Both scan the
// frontier on the rank's pool and replay it serially in chunk order,
// and both overlap the owned expansion with the notification
// exchange.
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
// FrontierStepper's wire record is the caller's own `Notify` type,
// built at staging time from the ghost's *post-scan* state so several
// relaxations of one ghost in a level collapse into one record
// carrying the best value (BFS gids, SSSP {gid, dist}); receive()
// maps a record back to the owned vertex it admits.
//
// The invariant that makes the overlap safe lives here, once: the
// DestBuckets' staging is stable from commit() until the next
// begin(), so the exchange may slice it in place (start_inplace), and
// only one exchange is in flight across the two passes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "comm/dest_buckets.hpp"
#include "comm/exchanger.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace xtra::graph {

/// Persistent scratch + wire engine for a one-source frontier
/// traversal: the notification bucketing, the per-level
/// candidate/touched lists, and the newly-reached dedup mask all reuse
/// their buffers every level.
///
/// Hook contract per step(comm, g, frontier, next, ...):
///  * nbrs(v) — neighbor span (lids) to follow out of frontier vertex v
///  * improves(v, u) — read-only test: could the edge (v, u) improve u
///    right now? (BFS: u unreached; SSSP: dist[v] + w < dist[u])
///  * relax(v, u) — apply the edge; returns whether u actually
///    improved. Called at scan time for ghost u (the local ghost copy
///    absorbs the best value) and mid-flight for owned candidates (so
///    the marking work overlaps the wire). Must be monotone: a later
///    relax may only improve on an earlier one.
///  * make_notify(l) — wire record for touched ghost l, built after
///    the scan (reads l's final post-scan state)
///  * receive(notify) — apply an arrival on the owner; returns the
///    owned lid to add to the next frontier, or kInvalidLid when the
///    arrival did not improve it.
/// Newly improved owned vertices land in `next` (cleared first),
/// deduplicated: candidates in first-improvement scan order, then
/// arrivals in exchange order.
template <typename Notify>
class FrontierStepper {
 public:
  explicit FrontierStepper(count_t max_send_bytes = 0)
      : ex_(max_send_bytes) {
    ex_.set_label("graph::FrontierStepper");
  }

  template <typename Nbrs, typename Improves, typename Relax,
            typename MakeNotify, typename Receive>
  void step(sim::Comm& comm, const DistGraph& g,
            const std::vector<lid_t>& frontier, std::vector<lid_t>& next,
            Nbrs&& nbrs, Improves&& improves, Relax&& relax,
            MakeNotify&& make_notify, Receive&& receive) {
    next.clear();
    // Lazily sized, stamp-cleared admission mask: marked_[l] says l
    // was already admitted this level (owned: into next; ghost: into
    // the notify list), so duplicates collapse without a full
    // per-level clear.
    if (marked_.size() < static_cast<std::size_t>(g.n_total()))
      marked_.resize(static_cast<std::size_t>(g.n_total()), 0);
    for (const lid_t l : stamped_) marked_[l] = 0;
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
    // state (improves is a read-only hook by contract).
    const count_t nf = static_cast<count_t>(frontier.size());
    const count_t nchunks = par::chunk_count(nf);
    if (static_cast<count_t>(scan_owned_.size()) < nchunks) {
      scan_owned_.resize(static_cast<std::size_t>(nchunks));
      scan_ghost_.resize(static_cast<std::size_t>(nchunks));
    }
    par::for_chunks(nf, [&](count_t c, count_t lo, count_t hi) {
      auto& owned = scan_owned_[static_cast<std::size_t>(c)];
      auto& ghost = scan_ghost_[static_cast<std::size_t>(c)];
      owned.clear();
      ghost.clear();
      for (count_t i = lo; i < hi; ++i) {
        const lid_t v = frontier[static_cast<std::size_t>(i)];
        for (const lid_t u : nbrs(v))
          if (improves(v, u))
            (g.is_owned(u) ? owned : ghost).push_back({v, u});
      }
    });
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
      for (const Cand& cd : scan_ghost_[static_cast<std::size_t>(c)])
        if (relax(cd.v, cd.u) && admit(cd.u)) touched_.push_back(cd.u);
      const auto& owned = scan_owned_[static_cast<std::size_t>(c)];
      cand_.insert(cand_.end(), owned.begin(), owned.end());
    }
    buckets_.begin(comm.size());
    for (const lid_t l : touched_) buckets_.count(g.owner_of(l));
    buckets_.commit();
    for (const lid_t l : touched_)
      buckets_.push(g.owner_of(l), make_notify(l));
    ex_.start_inplace(comm, buckets_);

    // Mid-flight: relax the owned candidates while the notifications
    // travel — first improvement admits the vertex, so the surviving
    // order equals the single interleaved scan's.
    for (const Cand& cd : cand_)
      if (relax(cd.v, cd.u) && admit(cd.u)) next.push_back(cd.u);
    for (const Notify& n : ex_.finish<Notify>(comm)) {
      const lid_t l = receive(n);
      if (l == kInvalidLid) continue;
      XTRA_ASSERT(g.is_owned(l));
      if (admit(l)) next.push_back(l);
    }
  }

  /// The wire engine, for stats readout and knob changes.
  comm::Exchanger& exchanger() { return ex_; }
  const comm::Exchanger& exchanger() const { return ex_; }

 private:
  struct Cand {
    lid_t v;  ///< frontier vertex
    lid_t u;  ///< neighbor it can improve
  };

  /// First admission of l this level? Marks it if so.
  bool admit(lid_t l) {
    if (marked_[l]) return false;
    marked_[l] = 1;
    stamped_.push_back(l);
    return true;
  }

  comm::Exchanger ex_;
  comm::DestBuckets<Notify> buckets_;
  std::vector<Cand> cand_;            ///< owned candidate edges
  std::vector<lid_t> touched_;        ///< ghosts to notify
  std::vector<std::uint8_t> marked_;  ///< per-lid admission mask
  std::vector<lid_t> stamped_;        ///< marked_ cells to clear
  /// Per-chunk phase-A scratch (persistent across levels).
  std::vector<std::vector<Cand>> scan_owned_;
  std::vector<std::vector<Cand>> scan_ghost_;
};

/// Wire record of the bit-parallel BFS (MaskFrontierStepper): 16
/// bytes. `key` is gid * words + word, so a one-word traversal ships
/// {gid, mask}; `mask` holds the sources of that 64-source word that
/// first reached the vertex this level.
struct MaskGid {
  gid_t key;
  std::uint64_t mask;
};

/// Bit-parallel multi-source BFS level step (MS-BFS: Then et al., "The
/// More the Merrier", PVLDB 8(4), 2014). Source s is bit s % 64 of
/// mask word s / 64; every vertex holds a `seen` mask (the sources
/// that reached it) and every frontier vertex a frontier mask (the
/// sources that first reached it last level). A level expands each
/// frontier vertex once, for all its sources together: neighbour u
/// gains `frontier[v] & ~seen[u]`. A bit spreads along exactly the
/// edges, and at exactly the levels, of a one-source BFS from its
/// source, so every source's reach is bit-identical to its own
/// traversal while the adjacency visit, the wire record and the level
/// collectives are shared by the whole batch.
///
/// `Record` is the wire record: MaskGid for any number of sources, or
/// a bare gid_t for at most one source (the mask is implied), which
/// ships exactly what FrontierStepper<gid_t> ships for the same BFS.
///
/// Sources need not start together: release(s) ends source s between
/// levels and seed() may then start a new traversal on bit s, which
/// from there on spreads exactly as a fresh one-source BFS would. The
/// serve scheduler runs each query slot as one such bit.
///
/// Per step the scan runs on the rank's pool (read-only candidate
/// collection) and the mask merge replays it serially in chunk order,
/// the FrontierStepper split: touched ghosts, the next frontier and
/// the wire records come out in the order of one serial scan at any
/// thread count. Ghost gains ship one record per touched ghost and
/// non-zero word; owned gains are merged while the records travel.
template <typename Record>
class MaskFrontierStepper {
  static constexpr bool kMaskRecord = std::is_same_v<Record, MaskGid>;
  static_assert(kMaskRecord || std::is_same_v<Record, gid_t>,
                "MaskFrontierStepper ships MaskGid or bare gid_t records");

 public:
  explicit MaskFrontierStepper(count_t max_send_bytes = 0)
      : ex_(max_send_bytes) {
    ex_.set_label("graph::MaskFrontierStepper");
  }

  /// Starts a traversal of `sources` sources over g: nothing seen and
  /// an empty frontier. Throws std::length_error, on every rank alike,
  /// when a MaskGid key (gid * words + word) could overflow.
  void reset(const DistGraph& g, count_t sources) {
    XTRA_ASSERT(sources >= 0 && (kMaskRecord || sources <= 1));
    words_ = static_cast<std::size_t>((sources + 63) / 64);
    if (words_ > 0 &&
        g.n_global() > std::numeric_limits<gid_t>::max() / words_)
      throw std::length_error("MaskFrontierStepper: record key overflow");
    const std::size_t cells = static_cast<std::size_t>(g.n_total()) * words_;
    seen_.assign(cells, 0);
    cur_.assign(cells, 0);
    gain_.assign(cells, 0);
    frontier_.clear();
  }

  /// Keeps vertex l out of every traversal: never reached, never
  /// expanded, never notified.
  void block(lid_t l) {
    std::fill_n(seen_.begin() + static_cast<std::ptrdiff_t>(cell(l)),
                words_, ~std::uint64_t{0});
  }

  /// Seeds source s at owned vertex l (level 0). Returns false, and
  /// seeds nothing, when l is blocked.
  bool seed(lid_t l, count_t s) {
    const std::size_t c = cell(l) + static_cast<std::size_t>(s / 64);
    const std::uint64_t bit = std::uint64_t{1} << (s % 64);
    if (seen_[c] & bit) return false;
    if (empty(cur_, l)) frontier_.push_back(l);
    seen_[c] |= bit;
    cur_[c] |= bit;
    return true;
  }

  /// Ends source s between steps: bit s leaves every seen and
  /// frontier mask, and frontier vertices left with no source drop out
  /// of the frontier in order, so s can be seeded afresh. Clears bit s
  /// of blocked vertices too; traversals that block() release nothing.
  void release(count_t s) {
    const auto w = static_cast<std::size_t>(s / 64);
    const std::uint64_t keep = ~(std::uint64_t{1} << (s % 64));
    for (std::size_t c = w; c < seen_.size(); c += words_) seen_[c] &= keep;
    std::size_t kept = 0;
    for (const lid_t l : frontier_) {
      cur_[cell(l) + w] &= keep;
      if (!empty(cur_, l)) frontier_[kept++] = l;
    }
    frontier_.resize(kept);
  }

  std::size_t words() const { return words_; }
  bool frontier_empty() const { return frontier_.empty(); }

  /// Neighbor entries the last step() visited: the summed degree of
  /// the frontier it expanded, whatever its sources — deterministic at
  /// any thread width.
  count_t scanned_edges() const { return scanned_edges_; }

  /// The words() mask words of the sources that first reached l this
  /// level; meaningful inside step()'s reached hook.
  std::span<const std::uint64_t> gained(lid_t l) const {
    return {gain_.data() + cell(l), words_};
  }

  /// One level. Hooks:
  ///  * nbrs(v) — neighbor span (lids) to follow out of frontier
  ///    vertex v
  ///  * reached(owned, ghosts) — once per level, after the arrivals:
  ///    the owned vertices whose seen mask grew (the next frontier)
  ///    and the ghosts whose seen mask grew (the notified ones), each
  ///    in step order; gained(l) names the sources that first reached
  ///    l.
  template <typename Nbrs, typename Reached>
  void step(sim::Comm& comm, const DistGraph& g, Nbrs&& nbrs,
            Reached&& reached) {
    next_.clear();
    touched_.clear();
    cand_.clear();

    // Phase A (parallel, read-only): each frontier chunk collects the
    // edges that can grow their head's seen mask at scan start.
    const count_t nf = static_cast<count_t>(frontier_.size());
    const count_t nchunks = par::chunk_count(nf);
    if (static_cast<count_t>(scan_owned_.size()) < nchunks) {
      scan_owned_.resize(static_cast<std::size_t>(nchunks));
      scan_ghost_.resize(static_cast<std::size_t>(nchunks));
    }
    scan_edges_.assign(static_cast<std::size_t>(nchunks), 0);
    par::for_chunks(nf, [&](count_t c, count_t lo, count_t hi) {
      auto& owned = scan_owned_[static_cast<std::size_t>(c)];
      auto& ghost = scan_ghost_[static_cast<std::size_t>(c)];
      owned.clear();
      ghost.clear();
      count_t edges = 0;
      for (count_t i = lo; i < hi; ++i) {
        const lid_t v = frontier_[static_cast<std::size_t>(i)];
        const std::span<const lid_t> vs = nbrs(v);
        edges += static_cast<count_t>(vs.size());
        for (const lid_t u : vs)
          if (can_grow(v, u))
            (g.is_owned(u) ? owned : ghost).push_back({v, u});
      }
      scan_edges_[static_cast<std::size_t>(c)] = edges;
    });
    // Phase B (serial, chunk order): merge the ghost candidates, so
    // the touched list is in first-gain order of one serial scan; a
    // candidate whose bits were taken earlier in the replay merges to
    // nothing. Owned candidates concatenate for the mid-flight merge.
    scanned_edges_ = 0;
    for (count_t c = 0; c < nchunks; ++c) {
      scanned_edges_ += scan_edges_[static_cast<std::size_t>(c)];
      for (const Cand& cd : scan_ghost_[static_cast<std::size_t>(c)])
        if (merge(cd.u, cur_.data() + cell(cd.v))) touched_.push_back(cd.u);
      const auto& owned = scan_owned_[static_cast<std::size_t>(c)];
      cand_.insert(cand_.end(), owned.begin(), owned.end());
    }
    buckets_.begin(comm.size());
    for (const lid_t l : touched_)
      for (std::size_t w = 0; w < words_; ++w)
        if (gain_[cell(l) + w] != 0) buckets_.count(g.owner_of(l));
    buckets_.commit();
    for (const lid_t l : touched_)
      for (std::size_t w = 0; w < words_; ++w)
        if (const std::uint64_t bits = gain_[cell(l) + w]; bits != 0) {
          if constexpr (kMaskRecord)
            buckets_.push(g.owner_of(l),
                          MaskGid{g.gid_of(l) * words_ + w, bits});
          else
            buckets_.push(g.owner_of(l), g.gid_of(l));
        }
    ex_.start_inplace(comm, buckets_);

    // Mid-flight: merge the owned candidates while the records travel.
    for (const Cand& cd : cand_)
      if (merge(cd.u, cur_.data() + cell(cd.v))) next_.push_back(cd.u);
    for (const Record& r : ex_.finish<Record>(comm)) {
      gid_t gid = 0;
      std::size_t w = 0;
      std::uint64_t bits = 1;
      if constexpr (kMaskRecord) {
        gid = r.key / words_;
        w = static_cast<std::size_t>(r.key % words_);
        bits = r.mask;
      } else {
        gid = r;
      }
      const lid_t l = g.lid_of(gid);
      XTRA_ASSERT(l != kInvalidLid && g.is_owned(l));
      if (merge_word(l, w, bits)) next_.push_back(l);
    }

    reached(std::span<const lid_t>(next_), std::span<const lid_t>(touched_));

    // Retire the level: the old frontier's masks and the ghost gains
    // clear, and the owned gains become the next frontier's masks.
    for (const lid_t v : frontier_) clear(cur_, v);
    for (const lid_t l : touched_) clear(gain_, l);
    std::swap(cur_, gain_);
    std::swap(frontier_, next_);
  }

  /// The wire engine, for stats readout.
  comm::Exchanger& exchanger() { return ex_; }
  const comm::Exchanger& exchanger() const { return ex_; }

 private:
  struct Cand {
    lid_t v;  ///< frontier vertex
    lid_t u;  ///< neighbor it can grow
  };

  std::size_t cell(lid_t l) const {
    return static_cast<std::size_t>(l) * words_;
  }
  bool empty(const std::vector<std::uint64_t>& m, lid_t l) const {
    for (std::size_t w = 0; w < words_; ++w)
      if (m[cell(l) + w] != 0) return false;
    return true;
  }
  void clear(std::vector<std::uint64_t>& m, lid_t l) {
    std::fill_n(m.begin() + static_cast<std::ptrdiff_t>(cell(l)), words_, 0);
  }
  /// Read-only: does frontier vertex v carry a source u has not seen?
  bool can_grow(lid_t v, lid_t u) const {
    for (std::size_t w = 0; w < words_; ++w)
      if (cur_[cell(v) + w] & ~seen_[cell(u) + w]) return true;
    return false;
  }
  /// Adds `bits` of word w to u's seen mask and this level's gain;
  /// true when u gained its first bits of the level.
  bool merge_word(lid_t u, std::size_t w, std::uint64_t bits) {
    const std::size_t c = cell(u) + w;
    const std::uint64_t fresh = bits & ~seen_[c];
    if (fresh == 0) return false;
    const bool first = empty(gain_, u);
    seen_[c] |= fresh;
    gain_[c] |= fresh;
    return first;
  }
  /// merge_word over every word of a frontier mask.
  bool merge(lid_t u, const std::uint64_t* mask) {
    bool first = false;
    for (std::size_t w = 0; w < words_; ++w)
      if (mask[w] != 0 && merge_word(u, w, mask[w])) first = true;
    return first;
  }

  comm::Exchanger ex_;
  comm::DestBuckets<Record> buckets_;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> seen_;  ///< sources that reached l
  std::vector<std::uint64_t> cur_;   ///< frontier masks (owned)
  std::vector<std::uint64_t> gain_;  ///< this level's first reaches
  std::vector<lid_t> frontier_;      ///< owned lids with a cur_ mask
  std::vector<lid_t> next_;          ///< owned lids with a gain_ mask
  std::vector<lid_t> touched_;       ///< ghost lids with a gain_ mask
  std::vector<Cand> cand_;           ///< owned candidate edges
  count_t scanned_edges_ = 0;
  /// Per-chunk phase-A scratch (persistent across levels).
  std::vector<std::vector<Cand>> scan_owned_;
  std::vector<std::vector<Cand>> scan_ghost_;
  std::vector<count_t> scan_edges_;
};

}  // namespace xtra::graph
