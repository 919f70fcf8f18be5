// Shared-memory PuLP-MM [27] — the prior system XtraPuLP extends.
//
// Same three-stage scheme as the distributed partitioner (LP init,
// vertex balance+refine, edge balance+refine) but in one address
// space with *asynchronous in-place updates*: part sizes are exact at
// every move, so no dynamic multiplier is needed. The quality
// differences between this and core::partition are precisely the
// paper's PuLP-vs-XtraPuLP comparison (Fig 4).
//
// Loops are written serially: this is the single-threaded reference
// the distributed partitioner is compared against, while the
// distributed runs use ranks as threads plus MPI+X workers on the
// 4-vCPU reference host. The paper's OpenMP threading changes
// wall-clock, not algorithm (DESIGN.md).
#include <algorithm>

#include "baseline/partitioners.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace xtra::baseline {

namespace {

constexpr int kOuterIters = 3;
constexpr int kBalIters = 5;
constexpr int kRefIters = 10;

double pull_weight(double target, count_t size) {
  return std::max(target / std::max<double>(static_cast<double>(size), 1.0) -
                      1.0,
                  0.0);
}

/// Unconstrained label propagation from random seeds (PuLP's cheap
/// initialization): every vertex adopts its neighborhood's
/// degree-weighted majority label for a few sweeps.
std::vector<part_t> lp_init(const SerialGraph& g, part_t nparts,
                            std::uint64_t seed) {
  std::vector<part_t> parts(g.n);
  for (gid_t v = 0; v < g.n; ++v)
    parts[v] = static_cast<part_t>(
        hash_to_bucket(v, seed ^ 0x9E1, static_cast<std::uint64_t>(nparts)));
  std::vector<double> counts(static_cast<std::size_t>(nparts), 0.0);
  std::vector<part_t> touched;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (gid_t v = 0; v < g.n; ++v) {
      touched.clear();
      const auto nbrs = g.neighbors(v);
      const auto wgts = g.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const part_t pu = parts[nbrs[i]];
        if (counts[static_cast<std::size_t>(pu)] == 0.0)
          touched.push_back(pu);
        counts[static_cast<std::size_t>(pu)] +=
            static_cast<double>(wgts[i]);
      }
      part_t best = parts[v];
      double best_score = counts[static_cast<std::size_t>(best)];
      for (const part_t i : touched)
        if (counts[static_cast<std::size_t>(i)] > best_score) {
          best_score = counts[static_cast<std::size_t>(i)];
          best = i;
        }
      for (const part_t i : touched)
        counts[static_cast<std::size_t>(i)] = 0.0;
      parts[v] = best;
    }
  }
  return parts;
}

}  // namespace

std::vector<part_t> pulp_partition(const SerialGraph& g, part_t nparts,
                                   const BaselineOptions& opts) {
  XTRA_ASSERT(nparts >= 1);
  if (nparts == 1) return std::vector<part_t>(g.n, 0);
  std::vector<part_t> parts = lp_init(g, nparts, opts.seed);

  const auto imb_v = static_cast<count_t>(
      (1.0 + opts.imbalance) * static_cast<double>(g.total_vwgt) /
      static_cast<double>(nparts)) + 1;
  const auto imb_e = static_cast<count_t>(
      (1.0 + opts.imbalance) * 2.0 * static_cast<double>(g.m) /
      static_cast<double>(nparts)) + 1;

  std::vector<count_t> size_v = part_weights(g, parts, nparts);
  std::vector<double> counts(static_cast<std::size_t>(nparts), 0.0);
  std::vector<part_t> touched;

  // Weighted degrees are O(deg) to compute; hoist them out of the
  // neighbor loops (they are hit O(m) times per sweep).
  std::vector<double> wdeg(g.n);
  for (gid_t v = 0; v < g.n; ++v)
    wdeg[v] = static_cast<double>(g.weighted_degree(v));

  auto gather_counts = [&](gid_t v, bool degree_weighted) {
    touched.clear();
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const part_t pu = parts[nbrs[i]];
      if (counts[static_cast<std::size_t>(pu)] == 0.0) touched.push_back(pu);
      const double w = degree_weighted ? wdeg[nbrs[i]]
                                       : static_cast<double>(wgts[i]);
      counts[static_cast<std::size_t>(pu)] += w;
    }
  };
  auto clear_counts = [&] {
    for (const part_t i : touched) counts[static_cast<std::size_t>(i)] = 0.0;
  };

  // --- Stage 1: vertex balance + refinement ---
  for (int outer = 0; outer < kOuterIters; ++outer) {
    for (int iter = 0; iter < kBalIters; ++iter) {
      const count_t max_v =
          std::max(*std::max_element(size_v.begin(), size_v.end()), imb_v);
      for (gid_t v = 0; v < g.n; ++v) {
        const part_t x = parts[v];
        if (size_v[static_cast<std::size_t>(x)] - g.vwgt[v] < 1) continue;
        gather_counts(v, /*degree_weighted=*/true);
        part_t best = x;
        double best_score = 0.0;
        for (const part_t i : touched) {
          if (i == x) continue;
          if (size_v[static_cast<std::size_t>(i)] + g.vwgt[v] > max_v)
            continue;
          const double score =
              counts[static_cast<std::size_t>(i)] *
              pull_weight(static_cast<double>(imb_v),
                          size_v[static_cast<std::size_t>(i)]);
          if (score > best_score) {
            best_score = score;
            best = i;
          }
        }
        clear_counts();
        if (best != x && best_score > 0.0) {
          size_v[static_cast<std::size_t>(x)] -= g.vwgt[v];
          size_v[static_cast<std::size_t>(best)] += g.vwgt[v];
          parts[v] = best;
        }
      }
    }
    // LP-based balancing cannot reach an underweight part that shares
    // no boundary with any overweight part; force the constraint.
    kway_force_balance(g, parts, nparts, imb_v, size_v);
    for (int iter = 0; iter < kRefIters; ++iter) {
      const count_t max_v =
          std::max(*std::max_element(size_v.begin(), size_v.end()), imb_v);
      count_t moves = 0;
      for (gid_t v = 0; v < g.n; ++v) {
        const part_t x = parts[v];
        if (size_v[static_cast<std::size_t>(x)] - g.vwgt[v] < 1) continue;
        gather_counts(v, /*degree_weighted=*/false);
        part_t best = x;
        double best_score = counts[static_cast<std::size_t>(x)];
        for (const part_t i : touched) {
          if (i == x) continue;
          if (size_v[static_cast<std::size_t>(i)] + g.vwgt[v] > max_v)
            continue;
          if (counts[static_cast<std::size_t>(i)] > best_score) {
            best_score = counts[static_cast<std::size_t>(i)];
            best = i;
          }
        }
        clear_counts();
        if (best != x) {
          size_v[static_cast<std::size_t>(x)] -= g.vwgt[v];
          size_v[static_cast<std::size_t>(best)] += g.vwgt[v];
          parts[v] = best;
          ++moves;
        }
      }
      if (moves == 0) break;
    }
  }

  // --- Stage 2: edge balance + refinement ---
  std::vector<count_t> size_e(static_cast<std::size_t>(nparts), 0);
  for (gid_t v = 0; v < g.n; ++v)
    size_e[static_cast<std::size_t>(parts[v])] += g.degree(v);
  double r_e = 1.0, r_c = 1.0;
  for (int outer = 0; outer < kOuterIters; ++outer) {
    for (int iter = 0; iter < kBalIters; ++iter) {
      const count_t cur_max_e =
          *std::max_element(size_e.begin(), size_e.end());
      const count_t max_e = std::max(cur_max_e, imb_e);
      const count_t max_v =
          std::max(*std::max_element(size_v.begin(), size_v.end()), imb_v);
      if (cur_max_e <= imb_e) {
        r_c += 1.0;
      } else {
        r_e += 1.0;
      }
      for (gid_t v = 0; v < g.n; ++v) {
        const part_t x = parts[v];
        if (size_v[static_cast<std::size_t>(x)] - g.vwgt[v] < 1) continue;
        const count_t dv = g.degree(v);
        gather_counts(v, /*degree_weighted=*/true);
        part_t best = x;
        double best_score = 0.0;
        for (const part_t i : touched) {
          if (i == x) continue;
          if (size_v[static_cast<std::size_t>(i)] + g.vwgt[v] > max_v)
            continue;
          if (size_e[static_cast<std::size_t>(i)] + dv > max_e) continue;
          const double score =
              counts[static_cast<std::size_t>(i)] *
              (r_e * pull_weight(static_cast<double>(imb_e),
                                 size_e[static_cast<std::size_t>(i)]) +
               r_c);
          if (score > best_score) {
            best_score = score;
            best = i;
          }
        }
        clear_counts();
        if (best != x && best_score > 0.0) {
          size_v[static_cast<std::size_t>(x)] -= g.vwgt[v];
          size_v[static_cast<std::size_t>(best)] += g.vwgt[v];
          size_e[static_cast<std::size_t>(x)] -= dv;
          size_e[static_cast<std::size_t>(best)] += dv;
          parts[v] = best;
        }
      }
    }
    for (int iter = 0; iter < kRefIters; ++iter) {
      const count_t max_v =
          std::max(*std::max_element(size_v.begin(), size_v.end()), imb_v);
      const count_t max_e =
          std::max(*std::max_element(size_e.begin(), size_e.end()), imb_e);
      count_t moves = 0;
      for (gid_t v = 0; v < g.n; ++v) {
        const part_t x = parts[v];
        if (size_v[static_cast<std::size_t>(x)] - g.vwgt[v] < 1) continue;
        const count_t dv = g.degree(v);
        gather_counts(v, /*degree_weighted=*/false);
        part_t best = x;
        double best_score = counts[static_cast<std::size_t>(x)];
        for (const part_t i : touched) {
          if (i == x) continue;
          if (size_v[static_cast<std::size_t>(i)] + g.vwgt[v] > max_v)
            continue;
          if (size_e[static_cast<std::size_t>(i)] + dv > max_e) continue;
          if (counts[static_cast<std::size_t>(i)] > best_score) {
            best_score = counts[static_cast<std::size_t>(i)];
            best = i;
          }
        }
        clear_counts();
        if (best != x) {
          size_v[static_cast<std::size_t>(x)] -= g.vwgt[v];
          size_v[static_cast<std::size_t>(best)] += g.vwgt[v];
          size_e[static_cast<std::size_t>(x)] -= dv;
          size_e[static_cast<std::size_t>(best)] += dv;
          parts[v] = best;
          ++moves;
        }
      }
      if (moves == 0) break;
    }
  }
  // Edge-stage moves respect the vertex gate, but guarantee anyway.
  kway_force_balance(g, parts, nparts, imb_v, size_v);
  return parts;
}

}  // namespace xtra::baseline
