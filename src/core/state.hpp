// Shared per-phase bookkeeping for the balance/refinement stages.
//
// The distributed algorithm never re-counts part sizes from scratch
// inside an iteration. Instead each rank tracks the *local* changes
// C*(i) it made this iteration, estimates global sizes as
// S*(i) + mult * C*(i) (the dynamic-multiplier scheme of §III-C), and
// folds the changes into S* with one Allreduce per iteration.
#pragma once

#include <vector>

#include "core/exchange.hpp"
#include "core/params.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "util/types.hpp"

namespace xtra::core {

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
  /// Always 0 on one rank, where the local deltas are exact; other
  /// ranks' concurrent moves make it nonzero. Diagnostic only.
  count_t cut_drift = 0;

  /// Persistent ExchangeUpdates engine: bucketing scratch and the
  /// (optionally memory-bounded) exchanger survive across every
  /// balance/refine iteration instead of being rebuilt per call.
  UpdateExchanger exchanger;

  /// mult <- nprocs * ((X - Y) * itertot/Itot + Y), §III-C.
  double mult() const {
    return nprocs * ((x - y) * (static_cast<double>(iter_tot) /
                                static_cast<double>(i_tot)) +
                     y);
  }

  /// Estimated global size of part i during the current iteration.
  double est_v(part_t i) const {
    return static_cast<double>(size_v[static_cast<std::size_t>(i)]) +
           mult() * static_cast<double>(change_v[static_cast<std::size_t>(i)]);
  }
  double est_e(part_t i) const {
    return static_cast<double>(size_e[static_cast<std::size_t>(i)]) +
           mult() * static_cast<double>(change_e[static_cast<std::size_t>(i)]);
  }
  double est_c(part_t i) const {
    return static_cast<double>(size_c[static_cast<std::size_t>(i)]) +
           mult() * static_cast<double>(change_c[static_cast<std::size_t>(i)]);
  }

  /// Worst-case global size of part i if every rank made the same
  /// changes this rank did. Used to gate *constraints* (as opposed to
  /// the objective being actively balanced): constraint overshoot is
  /// not self-correcting — no weighting function pulls it back — so an
  /// optimistic estimate would let the cap ratchet upward.
  double est_v_strict(part_t i) const {
    return static_cast<double>(size_v[static_cast<std::size_t>(i)]) +
           static_cast<double>(nprocs) *
               static_cast<double>(change_v[static_cast<std::size_t>(i)]);
  }
  double est_e_strict(part_t i) const {
    return static_cast<double>(size_e[static_cast<std::size_t>(i)]) +
           static_cast<double>(nprocs) *
               static_cast<double>(change_e[static_cast<std::size_t>(i)]);
  }

  /// Whether one more vertex may leave part x without risking an empty
  /// part. An empty part can never reappear in a neighborhood, so
  /// label propagation could not repopulate it. Ranks move vertices
  /// concurrently without communicating, so the bound is worst-case:
  /// even if every rank removed as many vertices as this one, at least
  /// one vertex must remain.
  bool can_leave(part_t p) const {
    const auto i = static_cast<std::size_t>(p);
    return size_v[i] + static_cast<count_t>(nprocs) * (change_v[i] - 1) >= 1;
  }
};

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

/// Scratch for the per-vertex neighbor-part counting loop: per part a
/// (possibly degree-weighted) count plus the plain arc count, and the
/// list of touched parts in first-touch order, reset in O(touched).
/// Zero-weight adds are ignored: the phases' weights (1 or a
/// neighbor's degree, >= 1 for any neighbor) are always positive.
class NeighborCounts {
 public:
  explicit NeighborCounts(part_t nparts)
      : slots_(static_cast<std::size_t>(nparts)) {}

  void add(part_t p, double w) {
    if (w == 0.0) return;
    Slot& s = slots_[static_cast<std::size_t>(p)];
    if (s.units == 0) touched_.push_back(p);
    s.weight += w;
    ++s.units;
  }

  double get(part_t p) const {
    return slots_[static_cast<std::size_t>(p)].weight;
  }
  /// Number of arcs into part p (unweighted).
  count_t units(part_t p) const {
    return slots_[static_cast<std::size_t>(p)].units;
  }
  const std::vector<part_t>& touched() const { return touched_; }

  /// Reset, then count owned vertex v's neighbor labels live: each arc
  /// adds the neighbor's degree when `by_degree` (Alg 4's weighting),
  /// 1 otherwise.
  void count(const graph::DistGraph& g, const std::vector<part_t>& parts,
             lid_t v, bool by_degree) {
    reset();
    if (by_degree) {
      for (const lid_t u : g.arcs(v))
        add(parts[u], static_cast<double>(g.degree(u)));
    } else {
      for (const lid_t u : g.arcs(v)) add(parts[u], 1.0);
    }
  }

  void reset() {
    for (const part_t p : touched_) slots_[static_cast<std::size_t>(p)] = {};
    touched_.clear();
  }

 private:
  struct Slot {
    double weight = 0.0;
    count_t units = 0;
  };
  std::vector<Slot> slots_;
  std::vector<part_t> touched_;
};

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
