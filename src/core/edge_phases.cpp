#include <algorithm>

#include "core/exchange.hpp"
#include "core/phases.hpp"
#include "util/assert.hpp"

namespace xtra::core {

namespace {

double ratio_weight(double target, double est_size) {
  const double denom = std::max(est_size, 1.0);
  return std::max(target / denom - 1.0, 0.0);
}

}  // namespace

void edge_balance_phase(sim::Comm& comm, const graph::DistGraph& g,
                        std::vector<part_t>& parts, PhaseState& st,
                        const Params& params) {
  const part_t p = st.nparts;
  std::vector<lid_t> queue;

  // R_e/R_c schedule (§III-E): while the edge-balance constraint is
  // unmet, R_e grows linearly and R_c stays fixed; once met, R_e
  // freezes and R_c grows, shifting the objective to minimizing and
  // balancing the per-part cut.
  double r_e = 1.0;
  double r_c = 1.0;
  bool edge_balance_met = false;

  for (int iter = 0; iter < params.bal_iters; ++iter) {
    const count_t cur_max_e =
        *std::max_element(st.size_e.begin(), st.size_e.end());
    const count_t max_e = std::max(cur_max_e, st.imb_e);
    const count_t max_v =
        std::max(*std::max_element(st.size_v.begin(), st.size_v.end()),
                 st.imb_v);
    const count_t max_c =
        std::max<count_t>(*std::max_element(st.size_c.begin(), st.size_c.end()),
                          1);
    if (!edge_balance_met && cur_max_e <= st.imb_e) edge_balance_met = true;
    if (edge_balance_met) {
      r_c += 1.0;
    } else {
      r_e += 1.0;
    }

    sweep_deciders(g, parts, st, queue, [&](Decider& d) {
      for (part_t i = 0; i < p; ++i) {
        d.weight_e[static_cast<std::size_t>(i)] =
            ratio_weight(static_cast<double>(st.imb_e), d.est_e(i));
        d.weight_c[static_cast<std::size_t>(i)] =
            ratio_weight(static_cast<double>(max_c), d.est_c(i));
      }
      for (lid_t v = d.lo; v < d.hi; ++v) {
        const part_t x = d.labels[v];
        if (!d.can_leave(x))
          continue;  // never empty a part (see vert_phases.cpp)
        const count_t dv = g.degree(v);
        d.counts.count(g, d.labels, v, /*by_degree=*/true);

        part_t best = x;
        double best_score = 0.0;
        for (const part_t i : d.counts.touched()) {
          if (i == x) continue;
          const double score =
              d.counts.get(i) *
              (r_e * d.weight_e[static_cast<std::size_t>(i)] +
               r_c * d.weight_c[static_cast<std::size_t>(i)]);
          if (score <= best_score) continue;  // cheap test first
          // The vertex cap is a pure constraint here -> strict gate
          // (overshoot would ratchet the cap up permanently); edges are
          // the objective being balanced -> the paper's optimistic
          // mult-based estimate (overshoot self-corrects through W_e).
          if (d.est_v_strict(i) + static_cast<double>(d.deciders) >
              static_cast<double>(max_v))
            continue;
          if (d.est_e(i) + static_cast<double>(dv) >
              static_cast<double>(max_e))
            continue;
          best_score = score;
          best = i;
        }
        if (best != x && best_score > 0.0) {
          --d.change_v[static_cast<std::size_t>(x)];
          ++d.change_v[static_cast<std::size_t>(best)];
          d.change_e[static_cast<std::size_t>(x)] -= dv;
          d.change_e[static_cast<std::size_t>(best)] += dv;
          apply_cut_deltas(d.counts, x, best, g.out_degree(v), d.change_c);
          d.labels[v] = best;
          d.queue.push_back(v);
          d.weight_e[static_cast<std::size_t>(x)] =
              ratio_weight(static_cast<double>(st.imb_e), d.est_e(x));
          d.weight_e[static_cast<std::size_t>(best)] =
              ratio_weight(static_cast<double>(st.imb_e), d.est_e(best));
          d.weight_c[static_cast<std::size_t>(x)] =
              ratio_weight(static_cast<double>(max_c), d.est_c(x));
          d.weight_c[static_cast<std::size_t>(best)] =
              ratio_weight(static_cast<double>(max_c), d.est_c(best));
        }
      }
    });
    st.exchanger.start(comm, g, parts, queue);
    fold_changes(comm, st);  // overlaps the in-flight update exchange
    // refresh_cut_sizes reads ghost labels, so the exchange must be
    // drained first.
    st.exchanger.finish(comm, g, parts);
    refresh_cut_sizes(comm, g, parts, st);
    ++st.iter_tot;
  }
}

void edge_refine_phase(sim::Comm& comm, const graph::DistGraph& g,
                       std::vector<part_t>& parts, PhaseState& st,
                       const Params& params) {
  std::vector<lid_t> queue;

  for (int iter = 0; iter < params.ref_iters; ++iter) {
    const count_t max_v =
        std::max(*std::max_element(st.size_v.begin(), st.size_v.end()),
                 st.imb_v);
    const count_t max_e =
        std::max(*std::max_element(st.size_e.begin(), st.size_e.end()),
                 st.imb_e);
    const count_t max_c =
        *std::max_element(st.size_c.begin(), st.size_c.end());

    sweep_deciders(g, parts, st, queue, [&](Decider& d) {
      for (lid_t v = d.lo; v < d.hi; ++v) {
        const part_t x = d.labels[v];
        if (!d.can_leave(x))
          continue;  // never empty a part (see vert_phases.cpp)
        const count_t dv = g.degree(v);
        d.counts.count(g, d.labels, v, /*by_degree=*/false);

        part_t best = x;
        double best_score = d.counts.get(x);
        for (const part_t i : d.counts.touched()) {
          if (i == x) continue;
          if (d.counts.get(i) <= best_score) continue;
          // No move may raise the global max in vertices, edges, or cut
          // (§III-E refinement restriction). Vertices and edges are both
          // constraints during refinement -> strict gates.
          if (d.est_v_strict(i) + static_cast<double>(d.deciders) >
              static_cast<double>(max_v))
            continue;
          if (d.est_e_strict(i) + static_cast<double>(d.deciders) *
                                      static_cast<double>(dv) >
              static_cast<double>(max_e))
            continue;
          // v's edges to parts other than i become i-incident cut.
          const double cut_gain = static_cast<double>(dv) - d.counts.get(i);
          if (d.est_c(i) + cut_gain > static_cast<double>(max_c)) continue;
          best_score = d.counts.get(i);
          best = i;
        }
        if (best != x) {
          --d.change_v[static_cast<std::size_t>(x)];
          ++d.change_v[static_cast<std::size_t>(best)];
          d.change_e[static_cast<std::size_t>(x)] -= dv;
          d.change_e[static_cast<std::size_t>(best)] += dv;
          apply_cut_deltas(d.counts, x, best, g.out_degree(v), d.change_c);
          d.labels[v] = best;
          d.queue.push_back(v);
        }
      }
    });
    st.exchanger.start(comm, g, parts, queue);
    fold_changes(comm, st);  // overlaps the in-flight update exchange
    // refresh_cut_sizes reads ghost labels, so the exchange must be
    // drained first.
    st.exchanger.finish(comm, g, parts);
    refresh_cut_sizes(comm, g, parts, st);
    ++st.iter_tot;
  }
}

}  // namespace xtra::core
