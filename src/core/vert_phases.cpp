#include <algorithm>

#include "core/exchange.hpp"
#include "core/phases.hpp"
#include "util/assert.hpp"

namespace xtra::core {

namespace {

/// W_v(i) <- max(Imbv / est_size(i) - 1, 0): parts under the target get
/// positive pull proportional to how far under they are.
double balance_weight(double target, double est_size) {
  const double denom = std::max(est_size, 1.0);
  return std::max(target / denom - 1.0, 0.0);
}

}  // namespace

void vert_balance_phase(sim::Comm& comm, const graph::DistGraph& g,
                        std::vector<part_t>& parts, PhaseState& st,
                        const Params& params) {
  const part_t p = st.nparts;
  std::vector<lid_t> queue;

  for (int iter = 0; iter < params.bal_iters; ++iter) {
    const count_t max_v =
        std::max(*std::max_element(st.size_v.begin(), st.size_v.end()),
                 st.imb_v);
    sweep_deciders(g, parts, st, queue, [&](Decider& d) {
      for (part_t i = 0; i < p; ++i)
        d.weight_v[static_cast<std::size_t>(i)] =
            balance_weight(static_cast<double>(st.imb_v), d.est_v(i));
      for (lid_t v = d.lo; v < d.hi; ++v) {
        const part_t x = d.labels[v];
        // Never empty a part: an empty part can no longer appear in any
        // neighborhood, so label propagation could never repopulate it
        // (the reference implementation has the same guard). The huge
        // W_v of a near-empty part re-grows it from its boundary.
        if (!d.can_leave(x))
          continue;
        // Algorithm 4 weights each neighbor by its degree: moving next
        // to heavy vertices is worth more cut reduction later.
        d.counts.count(g, d.labels, v, params.degree_weighted_balance);
        part_t best = x;
        double best_score = 0.0;
        for (const part_t i : d.counts.touched()) {
          // Score first: the size gate has no side effects, so gating
          // only a would-be best part picks the same part.
          const double score =
              d.counts.get(i) * d.weight_v[static_cast<std::size_t>(i)];
          if (score <= best_score) continue;
          // Parts already at the cap take no further vertices.
          if (d.est_v(i) + 1.0 > static_cast<double>(max_v)) continue;
          best_score = score;
          best = i;
        }
        if (best != x && best_score > 0.0) {
          --d.change_v[static_cast<std::size_t>(x)];
          ++d.change_v[static_cast<std::size_t>(best)];
          d.weight_v[static_cast<std::size_t>(x)] =
              balance_weight(static_cast<double>(st.imb_v), d.est_v(x));
          d.weight_v[static_cast<std::size_t>(best)] =
              balance_weight(static_cast<double>(st.imb_v), d.est_v(best));
          d.labels[v] = best;
          d.queue.push_back(v);
        }
      }
    });
    // Stall escape (extension beyond the paper's pseudocode, mirroring
    // the reference implementation's part repair): when label
    // propagation made no move anywhere but the constraint is unmet,
    // the underweight parts must be *enclosed* — they share no boundary
    // with any overweight part, so neighborhood-driven moves can never
    // reach them. Teleport a bounded share of overweight-part vertices
    // into the lightest part; its exploding W_v then regrows it
    // through its new boundary.
    const count_t moved = comm.allreduce_sum(
        static_cast<count_t>(queue.size()));
    const count_t cur_max =
        *std::max_element(st.size_v.begin(), st.size_v.end());
    if (cur_max > st.imb_v && moved < cur_max - st.imb_v) {
      // Fill every underweight part, each rank contributing at most
      // its share of that part's headroom (no overshoot possible).
      lid_t cursor = 0;
      for (part_t target = 0; target < p; ++target) {
        count_t budget =
            (st.imb_v - st.size_v[static_cast<std::size_t>(target)]) /
            (2 * static_cast<count_t>(st.nprocs));
        for (; cursor < g.n_local() && budget > 0; ++cursor) {
          const part_t x = parts[cursor];
          if (x == target) continue;
          if (st.size_v[static_cast<std::size_t>(x)] <= st.imb_v) continue;
          if (!st.can_leave(x)) continue;
          --st.change_v[static_cast<std::size_t>(x)];
          ++st.change_v[static_cast<std::size_t>(target)];
          parts[cursor] = target;
          queue.push_back(cursor);
          --budget;
        }
      }
    }
    // Overlap: the update exchange is on the wire while fold_changes'
    // allreduce runs (it reads only the change counters, never ghost
    // labels); finish() then applies the arrivals.
    st.exchanger.start(comm, g, parts, queue);
    fold_changes(comm, st);
    st.exchanger.finish(comm, g, parts);
    ++st.iter_tot;
  }
}

void vert_refine_phase(sim::Comm& comm, const graph::DistGraph& g,
                       std::vector<part_t>& parts, PhaseState& st,
                       const Params& params) {
  std::vector<lid_t> queue;

  for (int iter = 0; iter < params.ref_iters; ++iter) {
    const count_t max_v =
        std::max(*std::max_element(st.size_v.begin(), st.size_v.end()),
                 st.imb_v);
    sweep_deciders(g, parts, st, queue, [&](Decider& d) {
      for (lid_t v = d.lo; v < d.hi; ++v) {
        const part_t x = d.labels[v];
        if (!d.can_leave(x))
          continue;  // never empty a part (see balance phase)
        d.counts.count(g, d.labels, v, /*by_degree=*/false);
        // Start from the current part: a move needs a strictly better
        // same-part neighbor count, which is exactly "fewer cut edges".
        part_t best = x;
        double best_score = d.counts.get(x);
        for (const part_t i : d.counts.touched()) {
          if (i == x) continue;
          const double score = d.counts.get(i);
          if (score <= best_score) continue;  // cheap test first
          // Strict gate: the size cap is a constraint here, not the
          // objective being balanced, so assume worst-case concurrent
          // growth (overshoot would ratchet the cap up permanently).
          if (d.est_v_strict(i) + static_cast<double>(d.deciders) >
              static_cast<double>(max_v))
            continue;
          best_score = score;
          best = i;
        }
        if (best != x) {
          --d.change_v[static_cast<std::size_t>(x)];
          ++d.change_v[static_cast<std::size_t>(best)];
          d.labels[v] = best;
          d.queue.push_back(v);
        }
      }
    });
    st.exchanger.start(comm, g, parts, queue);
    fold_changes(comm, st);  // overlaps the in-flight update exchange
    st.exchanger.finish(comm, g, parts);
    ++st.iter_tot;
  }
}

}  // namespace xtra::core
