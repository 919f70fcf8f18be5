// Shared per-phase bookkeeping for the balance/refinement stages.
//
// The distributed algorithm never re-counts part sizes from scratch
// inside an iteration. Instead each decider (a rank, or one of its
// sub-ranks in a world of one or two ranks) tracks the
// *local* changes C*(i) it made this iteration, estimates global sizes
// as S*(i) + mult * C*(i) (the dynamic-multiplier scheme of §III-C),
// and the rank folds its deciders' changes into S* with one Allreduce
// per iteration.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "core/exchange.hpp"
#include "core/params.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "util/types.hpp"

namespace xtra::core {

/// Scratch for the per-vertex neighbor-part counting loop: per part a
/// degree-weighted count plus the plain arc count, and the list of
/// touched parts in first-touch order, reset in O(touched). A count()
/// without `by_degree` keeps only the arc counts, and get() reads them.
/// Zero-weight adds are ignored: the phases' weights (1 or a
/// neighbor's degree, >= 1 for any neighbor) are always positive.
class NeighborCounts {
 public:
  explicit NeighborCounts(part_t nparts = 0)
      : slots_(static_cast<std::size_t>(nparts)),
        touched_(static_cast<std::size_t>(nparts)) {}

  part_t nparts() const { return static_cast<part_t>(slots_.size()); }

  void add(part_t p, double w) {
    if (w == 0.0) return;
    Slot& s = slots_[static_cast<std::size_t>(p)];
    if (s.units++ == 0) touched_[n_touched_++] = p;
    s.weight += w;
  }

  /// The count of part p: its weight, or its arc count after an
  /// unweighted count().
  double get(part_t p) const {
    const Slot& s = slots_[static_cast<std::size_t>(p)];
    return weighted_ ? s.weight : static_cast<double>(s.units);
  }
  /// Number of arcs into part p (unweighted).
  count_t units(part_t p) const {
    return slots_[static_cast<std::size_t>(p)].units;
  }
  std::span<const part_t> touched() const {
    return {touched_.data(), n_touched_};
  }

  /// Reset, then count owned vertex v's neighbor labels live: each arc
  /// adds the neighbor's degree when `by_degree` (Alg 4's weighting),
  /// 1 otherwise. The hot loop of every sweep, so it runs on raw
  /// pointers with the touched list's length in a local.
  void count(const graph::DistGraph& g, const std::vector<part_t>& parts,
             lid_t v, bool by_degree) {
    reset();
    weighted_ = by_degree;
    const part_t* const label = parts.data();
    Slot* const slots = slots_.data();
    part_t* const touched = touched_.data();
    std::size_t n = 0;
    if (by_degree) {
      for (const lid_t u : g.arcs(v)) {
        const part_t p = label[u];
        Slot& s = slots[p];
        if (s.units++ == 0) touched[n++] = p;
        s.weight += static_cast<double>(g.degree(u));
      }
    } else {
      for (const lid_t u : g.arcs(v)) {
        const part_t p = label[u];
        if (slots[p].units++ == 0) touched[n++] = p;
      }
    }
    n_touched_ = n;
  }

  /// Clear every count; add() then accumulates weights.
  void reset() {
    for (std::size_t k = 0; k < n_touched_; ++k)
      slots_[static_cast<std::size_t>(touched_[k])] = {};
    n_touched_ = 0;
    weighted_ = true;
  }

 private:
  struct Slot {
    double weight = 0.0;
    count_t units = 0;
  };
  std::vector<Slot> slots_;
  std::vector<part_t> touched_;  ///< first n_touched_ entries are live
  std::size_t n_touched_ = 0;
  bool weighted_ = true;
};

/// Most concurrent movers ("deciders") that splitting ranks into
/// sub-ranks may make (see PhaseState::subranks). The §III-C estimates
/// scale a decider's own changes by the decider count D; with the
/// paper's Y = 0.25, mult at the first iteration is D*Y, which reaches
/// 1 only at D >= 4 — below that the estimate discounts even the
/// decider's own exact changes. Four is also the largest decider count
/// that left cut and imbalance flat on the generator suite; six (three
/// ranks split in two) already raised RandER's cut by 11% (DESIGN.md
/// §6), so a split never goes past four.
inline constexpr int kMaxSplitDeciders = 4;

/// S(i) + scale * C(i): the estimated global size of part i from one
/// decider's changes C, with scale = mult (the optimistic §III-C
/// estimate) or the decider count (the strict worst case).
inline double estimate_size(const std::vector<count_t>& size,
                            const std::vector<count_t>& change, part_t i,
                            double scale) {
  return static_cast<double>(size[static_cast<std::size_t>(i)]) +
         scale * static_cast<double>(change[static_cast<std::size_t>(i)]);
}

/// Whether one more vertex may leave part p without risking an empty
/// part. An empty part can never reappear in a neighborhood, so label
/// propagation could not repopulate it. Deciders move vertices
/// concurrently without communicating, so the bound is worst-case:
/// even if every one of the `deciders` removed as many vertices as
/// this one (`change_v`), at least one vertex must remain.
inline bool can_leave_part(const std::vector<count_t>& size_v,
                           const std::vector<count_t>& change_v, part_t p,
                           count_t deciders) {
  const auto i = static_cast<std::size_t>(p);
  return size_v[i] + deciders * (change_v[i] - 1) >= 1;
}

struct PhaseState;

/// One decider's sweep state. It sweeps owned lids [lo, hi) in order
/// over `labels`, its own copy of the rank's labels, in which its own
/// moves are live and every other vertex keeps its sweep-start label;
/// it books its moves in its own Cv/Ce/Cc ledger and queue, and its
/// neighbor counts and per-part weights are its own. sweep_deciders
/// points `st` at the phase state and fixes the multipliers for the
/// sweep. Kept in PhaseState::decider_buffers across iterations, so a
/// sweep allocates nothing once the buffers have grown, each on cache
/// lines of its own so sub-ranks on different threads never write a
/// shared line.
struct alignas(64) Decider {
  const PhaseState* st = nullptr;
  double mult = 0.0;     ///< st->mult() at the sweep's start
  count_t deciders = 1;  ///< st->deciders()
  lid_t lo = 0;
  lid_t hi = 0;
  std::vector<part_t> labels;
  std::vector<count_t> change_v, change_e, change_c;  ///< Cv, Ce, Cc
  std::vector<lid_t> queue;
  NeighborCounts counts;
  std::vector<double> weight_v, weight_e, weight_c;  ///< W_v, W_e, W_c

  /// Estimated global size of part i from this decider's ledger.
  double est_v(part_t i) const;
  double est_e(part_t i) const;
  double est_c(part_t i) const;
  /// Worst-case global size of part i if every decider made the same
  /// changes. Used to gate *constraints* (as opposed to the objective
  /// being actively balanced): constraint overshoot is not
  /// self-correcting — no weighting function pulls it back — so an
  /// optimistic estimate would let the cap ratchet upward.
  double est_v_strict(part_t i) const;
  double est_e_strict(part_t i) const;
  bool can_leave(part_t p) const;
};

struct PhaseState {
  part_t nparts = 0;
  int nprocs = 1;
  double x = 1.0;  ///< multiplier endpoint X (final iteration)
  double y = 0.25; ///< multiplier endpoint Y (first iteration)
  int iter_tot = 0;  ///< iterations done in the current outer-loop set
  int i_tot = 1;     ///< Itot = Iouter * (Ibal + Iref)

  count_t imb_v = 0;  ///< Imbv: target max vertices per part
  count_t imb_e = 0;  ///< Imbe: target max edge endpoints per part

  std::vector<count_t> size_v, size_e, size_c;      ///< Sv, Se, Sc
  std::vector<count_t> change_v, change_e, change_c;///< Cv, Ce, Cc (local)

  /// Sum over every refresh_cut_sizes of |Sc(i) + Cc(i) - recount(i)|
  /// over parts: how far the tracked cut had drifted from the truth.
  /// Always 0 with one decider, where the local deltas are exact;
  /// other deciders' concurrent moves make it nonzero once an arc
  /// joins two of them. Diagnostic only.
  count_t cut_drift = 0;

  /// Persistent ExchangeUpdates engine: bucketing scratch and the
  /// (optionally memory-bounded) exchanger survive across every
  /// balance/refine iteration instead of being rebuilt per call.
  UpdateExchanger exchanger;

  /// This rank's sub-ranks, one per subranks(), reused by every sweep.
  std::vector<Decider> decider_buffers;

  /// Deciders per rank: max(1, floor(kMaxSplitDeciders / nprocs)).
  /// Each rank sweeps its owned vertices as that many sub-ranks: four
  /// on one rank, two each on two; from three ranks on it is 1 and
  /// the rank is its own single decider.
  int subranks() const { return std::max(1, kMaxSplitDeciders / nprocs); }
  /// Concurrent movers world-wide: nprocs * subranks().
  int deciders() const { return nprocs * subranks(); }

  /// mult <- deciders * ((X - Y) * itertot/Itot + Y), §III-C.
  double mult() const {
    return deciders() * ((x - y) * (static_cast<double>(iter_tot) /
                                    static_cast<double>(i_tot)) +
                         y);
  }

  /// can_leave_part against this state's own ledger (the rank-level
  /// stall escape; sweeps ask their Decider).
  bool can_leave(part_t p) const {
    return can_leave_part(size_v, change_v, p, deciders());
  }
};

inline double Decider::est_v(part_t i) const {
  return estimate_size(st->size_v, change_v, i, mult);
}
inline double Decider::est_e(part_t i) const {
  return estimate_size(st->size_e, change_e, i, mult);
}
inline double Decider::est_c(part_t i) const {
  return estimate_size(st->size_c, change_c, i, mult);
}
inline double Decider::est_v_strict(part_t i) const {
  return estimate_size(st->size_v, change_v, i,
                       static_cast<double>(deciders));
}
inline double Decider::est_e_strict(part_t i) const {
  return estimate_size(st->size_e, change_e, i,
                       static_cast<double>(deciders));
}
inline bool Decider::can_leave(part_t p) const {
  return can_leave_part(st->size_v, change_v, p, deciders);
}

/// Run one label sweep as st.subranks() deciders per rank; `sweep(d)`
/// is the phase's body for one Decider. `queue` is replaced by the
/// sweep's moves in lid order.
///
/// The owned lids are cut into st.subranks() contiguous blocks of equal
/// arc counts (a function of the graph and subranks() only; one block
/// of every owned lid from three ranks on). Each sub-rank sweeps
/// its block on its own Decider on the par pool, and then the blocks
/// are copied back into `parts` and the ledgers are added into st's and
/// the queues appended in sub-rank order. The sub-ranks only read
/// `parts` and st, so the result does not depend on the thread count.
void sweep_deciders(const graph::DistGraph& g, std::vector<part_t>& parts,
                    PhaseState& st, std::vector<lid_t>& queue,
                    const std::function<void(Decider&)>& sweep);

/// Count owned vertices per part and Allreduce (initial Sv). Collective.
std::vector<count_t> compute_vertex_sizes(sim::Comm& comm,
                                          const graph::DistGraph& g,
                                          const std::vector<part_t>& parts,
                                          part_t nparts);

/// Per-part degree sums (the Se convention: |E(pi)| is counted as edge
/// endpoints in pi; the sum over parts is 2|E| and the count updates
/// locally on a move, which is what makes distributed tracking cheap —
/// same convention as the PuLP/XtraPuLP reference code). Collective.
std::vector<count_t> compute_edge_sizes(sim::Comm& comm,
                                        const graph::DistGraph& g,
                                        const std::vector<part_t>& parts,
                                        part_t nparts);

/// Per-part cut sizes Sc: cut edges with an endpoint in the part (each
/// cut edge contributes once to each endpoint's part). Collective.
std::vector<count_t> compute_cut_sizes(sim::Comm& comm,
                                       const graph::DistGraph& g,
                                       const std::vector<part_t>& parts,
                                       part_t nparts);

/// Fold this iteration's local changes into the global sizes:
/// Allreduce(C*, SUM); S* += C*; C* = 0. Folds the vertex and edge
/// vectors (their deltas are exact); cut sizes need refresh_cut_sizes
/// (see state.cpp for why). Collective.
void fold_changes(sim::Comm& comm, PhaseState& st);

/// Recompute Sc exactly from the post-exchange labels, add the gap to
/// the tracked Sc + Cc to st.cut_drift, and clear Cc. Collective.
void refresh_cut_sizes(sim::Comm& comm, const graph::DistGraph& g,
                       const std::vector<part_t>& parts, PhaseState& st);

/// Cut-size deltas of moving owned vertex v from part x to part w, in
/// O(1) from v's neighbor counts against the pre-move labels. Per arc
/// (v,u) with u in part q, the cut edge leaves x and q (if q != x) and
/// joins w and q (if q != w). Summed over v's arcs, with
/// a_q = counts.units(q) and dv = out_degree(v) = sum_q a_q, that nets
/// to Sc(x) += 2*a_x - dv and Sc(w) += dv - 2*a_w; every other part's
/// -1/+1 cancel. Exact with duplicate arcs.
inline void apply_cut_deltas(const NeighborCounts& counts, part_t x,
                             part_t w, count_t dv,
                             std::vector<count_t>& change_c) {
  change_c[static_cast<std::size_t>(x)] += 2 * counts.units(x) - dv;
  change_c[static_cast<std::size_t>(w)] += dv - 2 * counts.units(w);
}

}  // namespace xtra::core
