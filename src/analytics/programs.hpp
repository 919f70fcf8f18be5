// The eight vertex programs behind the analytics suite — the paper's
// six Fig-8 workloads (algorithms follow Slota et al. [29]) plus the
// two engine-native ones the unified API opened (delta-capped SSSP,
// query-based approximate triangle count).
//
// Each program is a small struct of hooks executed by
// engine::run(comm, g, program, cfg) (see engine/engine.hpp for the
// contract): the engine owns the superstep loop, the halo plan, the
// overlapped ghost refresh, and the convergence collectives;
// the program owns only its per-vertex update and its result state.
// Callers run a program directly; the composite kernels of
// analytics.hpp (harmonic, SCC, SSSP, triangles) run them for you.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "comm/dest_buckets.hpp"
#include "comm/query_reply.hpp"
#include "comm/sharded_buckets.hpp"
#include "engine/engine.hpp"
#include "graph/dist_graph.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace xtra::analytics {

inline constexpr count_t kInfDist = std::numeric_limits<count_t>::max();

/// Deterministic synthetic edge weight for the weighted workloads
/// (the DistGraph stores none): symmetric in its endpoints and
/// computable on any rank without communication, in [1, max_weight].
inline count_t edge_weight(gid_t a, gid_t b, std::uint64_t seed,
                           count_t max_weight) {
  const gid_t lo = std::min(a, b), hi = std::max(a, b);
  const std::uint64_t h =
      splitmix64(seed ^ (lo * 0x9e3779b97f4a7c15ULL + hi));
  return 1 + static_cast<count_t>(h % static_cast<std::uint64_t>(max_weight));
}

// ---------------------------------------------------------------------------
// PageRank — dense, fixed-iteration (cfg.max_supersteps), optional
// residual stop (cfg.tol). ctx.values carries the per-vertex
// contributions (rank/degree); `rank` is program state updated in
// apply() from the refreshed contributions. The dangling-mass
// allreduce rides the in-flight contribution exchange via mid().

struct PageRankProgram {
  using Value = double;
  static constexpr bool kConvergeOnChange = false;
  // update(v) reads rank[v] (written only in apply) and writes
  // values[v]; apply writes only rank[v] — per-vertex slots, safe for
  // concurrent distinct v.
  static constexpr bool kParallelUpdate = true;
  using Ctx = engine::DenseContext<PageRankProgram>;

  double damping = 0.85;

  std::vector<double> rank;  ///< size n_total (ghosts refreshed at finish)
  double sum = 0.0;          ///< global rank mass (~1.0)
  double inv_n = 0.0;
  double dangling = 0.0;
  std::vector<lid_t> sinks;  ///< owned degree-0 vertices, in lid order

  void init(Ctx& ctx) {
    inv_n = 1.0 / static_cast<double>(ctx.g.n_global());
    ctx.values.assign(ctx.g.n_total(), 0.0);
    rank.assign(ctx.g.n_total(), inv_n);
    sinks.clear();
    for (lid_t v = 0; v < ctx.g.n_local(); ++v)
      if (ctx.g.degree(v) == 0) sinks.push_back(v);
  }
  void pre_superstep(Ctx&) {
    // Dangling mass in fixed lid order, so the sum is bit-identical no
    // matter how the sweeps order the contribution writes.
    dangling = 0.0;
    for (const lid_t v : sinks) dangling += rank[v];
  }
  void update(Ctx& ctx, lid_t v) {
    const count_t d = ctx.g.degree(v);
    ctx.values[v] = d == 0 ? 0.0 : rank[v] / static_cast<double>(d);
  }
  void mid(Ctx& ctx) { dangling = ctx.comm.allreduce_sum(dangling); }
  void apply(Ctx& ctx) {
    const double n = static_cast<double>(ctx.g.n_global());
    // Per-vertex gather on the rank's pool; each chunk returns its
    // partial |delta| and par::ordered_sum folds them in chunk order,
    // so the residual — and hence the tol stop — is identical at every
    // thread count.
    ctx.residual += par::ordered_sum(
        static_cast<count_t>(ctx.g.n_local()),
        [&](count_t, count_t lo, count_t hi) {
          double resid = 0.0;
          for (count_t i = lo; i < hi; ++i) {
            const auto v = static_cast<lid_t>(i);
            double s = 0.0;
            for (const lid_t u : ctx.g.arcs(v)) s += ctx.values[u];
            const double next =
                (1.0 - damping) / n + damping * (s + dangling / n);
            resid += std::abs(next - rank[v]);
            rank[v] = next;
          }
          return resid;
        });
  }
  void finish(Ctx& ctx) {
    // Epilogue: refresh the ghost ranks while the mass check reduces —
    // the allreduce runs against the in-flight exchange.
    ctx.halo().prefetch_next(ctx.comm, rank);
    double local = 0.0;
    for (lid_t v = 0; v < ctx.g.n_local(); ++v) local += rank[v];
    sum = ctx.comm.allreduce_sum(local);
    ctx.halo().finish_prefetch(ctx.comm, rank);
  }
};

// ---------------------------------------------------------------------------
// Weakly connected components — dense, change-converging, no prev:
// asynchronous min-label hooking (reads live values, so each
// superstep's boundary-first order is free — the fixpoint, each
// component's min gid, is unique under any order or staleness).

struct WccProgram {
  using Value = gid_t;
  using Ctx = engine::DenseContext<WccProgram>;

  std::vector<gid_t> component;  ///< size n_total (moved from ctx.values)
  count_t num_components = 0;
  count_t largest_size = 0;

  void init(Ctx& ctx) {
    ctx.values.resize(ctx.g.n_total());
    for (lid_t v = 0; v < ctx.g.n_total(); ++v)
      ctx.values[v] = ctx.g.gid_of(v);
  }
  void update(Ctx& ctx, lid_t v) {
    gid_t best = ctx.values[v];
    // Undirected view: a directed graph's weak components use both
    // edge directions.
    for (const lid_t u : ctx.g.arcs(v))
      best = std::min(best, ctx.values[u]);
    if (ctx.g.directed())
      for (const lid_t u : ctx.g.in_arcs(v))
        best = std::min(best, ctx.values[u]);
    if (best < ctx.values[v]) {
      ctx.values[v] = best;
      ctx.changed = true;
    }
  }
  void finish(Ctx& ctx) {
    component = std::move(ctx.values);
    // Component census: ship (root, local_count) pairs to the root's
    // owner, which totals them.
    struct RootCount {
      gid_t root;
      count_t size;
    };
    const graph::DistGraph& g = ctx.g;
    std::vector<RootCount> local;
    {
      std::vector<gid_t> roots;
      roots.reserve(g.n_local());
      for (lid_t v = 0; v < g.n_local(); ++v)
        roots.push_back(component[v]);
      std::sort(roots.begin(), roots.end());
      for (std::size_t i = 0; i < roots.size();) {
        std::size_t j = i;
        while (j < roots.size() && roots[j] == roots[i]) ++j;
        local.push_back({roots[i], static_cast<count_t>(j - i)});
        i = j;
      }
    }
    comm::DestBuckets<RootCount> buckets;
    buckets.build(
        ctx.comm.size(), local,
        [&g](const RootCount& rc) { return g.owner_of_gid(rc.root); },
        [](const RootCount& rc) { return rc; });
    const std::span<const RootCount> arrivals =
        ctx.aux().exchange(ctx.comm, buckets);
    std::vector<RootCount> recv(arrivals.begin(), arrivals.end());
    std::sort(recv.begin(), recv.end(),
              [](const RootCount& a, const RootCount& b) {
                return a.root < b.root;
              });
    count_t num = 0;
    count_t largest = 0;
    for (std::size_t i = 0; i < recv.size();) {
      std::size_t j = i;
      count_t total = 0;
      while (j < recv.size() && recv[j].root == recv[i].root) {
        total += recv[j].size;
        ++j;
      }
      ++num;
      largest = std::max(largest, total);
      i = j;
    }
    num_components = ctx.comm.allreduce_sum(num);
    largest_size = ctx.comm.allreduce_max(largest);
  }
};

// ---------------------------------------------------------------------------
// Label-propagation community detection — dense, change-converging,
// synchronous (reads ctx.prev, writes ctx.values): majority label
// with ties toward the smaller label.

struct CommLpProgram {
  using Value = gid_t;
  static constexpr bool kUsesPrev = true;
  // Synchronous vote: update reads only ctx.prev (frozen during the
  // sweep) and writes values[v]; the sort scratch is per pool slot.
  static constexpr bool kParallelUpdate = true;
  using Ctx = engine::DenseContext<CommLpProgram>;

  std::vector<gid_t> label;  ///< size n_total (moved from ctx.values)
  count_t num_communities = 0;
  std::vector<std::vector<gid_t>> nbr_labels;  ///< per-slot vote scratch

  void init(Ctx& ctx) {
    nbr_labels.assign(static_cast<std::size_t>(par::num_threads()), {});
    ctx.values.resize(ctx.g.n_total());
    for (lid_t v = 0; v < ctx.g.n_total(); ++v)
      ctx.values[v] = ctx.g.gid_of(v);
  }
  void update(Ctx& ctx, lid_t v) {
    const auto nbrs = ctx.g.arcs(v);
    if (nbrs.empty()) return;
    auto& labels = nbr_labels[static_cast<std::size_t>(
        par::current_slot())];  // lint-ok: per-slot scratch
    labels.clear();
    for (const lid_t u : nbrs) labels.push_back(ctx.prev[u]);
    std::sort(labels.begin(), labels.end());
    gid_t best = ctx.prev[v];
    std::size_t best_count = 0;
    for (std::size_t i = 0; i < labels.size();) {
      std::size_t j = i;
      while (j < labels.size() && labels[j] == labels[i]) ++j;
      if (j - i > best_count) {
        best_count = j - i;
        best = labels[i];
      }
      i = j;
    }
    if (best != ctx.values[v]) ctx.note_changed();
    ctx.values[v] = best;
  }
  void finish(Ctx& ctx) {
    label = std::move(ctx.values);
    // Distinct-label census: each rank sends its distinct owned labels
    // to the label's owner; owners count distinct arrivals.
    const graph::DistGraph& g = ctx.g;
    std::vector<gid_t> distinct;
    distinct.reserve(g.n_local());
    for (lid_t v = 0; v < g.n_local(); ++v) distinct.push_back(label[v]);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    comm::DestBuckets<gid_t> buckets;
    buckets.build(
        ctx.comm.size(), distinct,
        [&g](const gid_t l) { return g.owner_of_gid(l); },
        [](const gid_t l) { return l; });
    const std::span<const gid_t> arrivals =
        ctx.aux().exchange(ctx.comm, buckets);
    std::vector<gid_t> recv(arrivals.begin(), arrivals.end());
    std::sort(recv.begin(), recv.end());
    recv.erase(std::unique(recv.begin(), recv.end()), recv.end());
    num_communities =
        ctx.comm.allreduce_sum(static_cast<count_t>(recv.size()));
  }
};

// ---------------------------------------------------------------------------
// Approximate k-core — dense, change-converging, synchronous:
// iterated neighborhood h-index (Lü et al. 2016), which contracts to
// the exact coreness. Values are monotone non-increasing upper
// bounds.

namespace detail {

/// h-index of a value multiset: the largest h with >= h values >= h.
inline count_t h_index(std::vector<count_t>& values) {
  std::sort(values.begin(), values.end(), std::greater<count_t>());
  count_t h = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= static_cast<count_t>(i + 1))
      h = static_cast<count_t>(i + 1);
    else
      break;
  }
  return h;
}

}  // namespace detail

struct KCoreProgram {
  using Value = count_t;
  static constexpr bool kUsesPrev = true;
  // Synchronous h-index: update reads only ctx.prev and writes
  // values[v]; the sort scratch is per pool slot.
  static constexpr bool kParallelUpdate = true;
  using Ctx = engine::DenseContext<KCoreProgram>;

  std::vector<count_t> core;  ///< size n_total (moved from ctx.values)
  count_t max_core = 0;
  std::vector<std::vector<count_t>> nbr_core;  ///< per-slot h-index scratch

  void init(Ctx& ctx) {
    nbr_core.assign(static_cast<std::size_t>(par::num_threads()), {});
    ctx.values.resize(ctx.g.n_total());
    for (lid_t v = 0; v < ctx.g.n_total(); ++v)
      ctx.values[v] = ctx.g.degree(v);
  }
  void update(Ctx& ctx, lid_t v) {
    auto& cores = nbr_core[static_cast<std::size_t>(
        par::current_slot())];  // lint-ok: per-slot scratch
    cores.clear();
    for (const lid_t u : ctx.g.arcs(v)) cores.push_back(ctx.prev[u]);
    const count_t h =
        std::min<count_t>(detail::h_index(cores), ctx.g.degree(v));
    if (h < ctx.values[v]) {
      ctx.values[v] = h;
      ctx.note_changed();
    }
  }
  void finish(Ctx& ctx) {
    core = std::move(ctx.values);
    count_t local_max = 0;
    for (lid_t v = 0; v < ctx.g.n_local(); ++v)
      local_max = std::max(local_max, core[v]);
    max_core = ctx.comm.allreduce_max(local_max);
  }
};

// ---------------------------------------------------------------------------
// SCC trim stage — dense, change-converging, asynchronous peel:
// vertices with no live in- or out-neighbor are singleton SCCs; the
// surviving active set (the maximal subgraph where every vertex keeps
// one of each) is a unique fixpoint, so order and staleness are free.

struct SccTrimProgram {
  using Value = std::uint8_t;
  using Ctx = engine::DenseContext<SccTrimProgram>;

  std::vector<std::uint8_t> active;  ///< size n_total (moved out)

  void init(Ctx& ctx) { ctx.values.assign(ctx.g.n_total(), 1); }
  void update(Ctx& ctx, lid_t v) {
    if (!ctx.values[v]) return;
    count_t out_live = 0, in_live = 0;
    for (const lid_t u : ctx.g.arcs(v))
      if (ctx.values[u] && u != v) ++out_live;
    for (const lid_t u : ctx.g.in_arcs(v))
      if (ctx.values[u] && u != v) ++in_live;
    if (out_live == 0 || in_live == 0) {
      ctx.values[v] = 0;
      ctx.changed = true;
    }
  }
  void finish(Ctx& ctx) { active = std::move(ctx.values); }
};

// ---------------------------------------------------------------------------
// BFS — the frontier program behind harmonic centrality's sampled
// sources (N roots) and SCC's masked forward/backward reachability
// (one root): unit-distance levels, optional active-subgraph mask,
// optional in-edge traversal. Bit-parallel (MS-BFS, Then et al.,
// PVLDB 2014): root s is bit s of every vertex's mask, and
// graph::MaskFrontierStepper expands each frontier vertex once per
// level for all the roots that first reached it together, so the
// whole batch shares each adjacency visit, each wire record and the
// one termination allreduce per level. Root s's level plane is
// bit-identical to a one-root run from roots[s]: its bit spreads
// along the same edges at the same levels.
//
// `Record` is the wire record. graph::MaskGid (the default) carries
// one 64-root mask word per record and serves any number of roots; a
// bare gid_t serves exactly one root at half the bytes per
// notification.

template <typename WireRecord = graph::MaskGid>
struct MultiBfsProgram {
  using Record = WireRecord;
  using Ctx = engine::MaskFrontierContext<MultiBfsProgram>;
  static constexpr bool kOneRoot = std::is_same_v<Record, gid_t>;

  std::vector<gid_t> roots;  ///< root s is mask bit s, slot s
  bool use_in_edges = false;
  const std::vector<std::uint8_t>* active = nullptr;  ///< optional mask

  /// Slot-major levels: slot s's plane is [s * stride, (s+1) * stride);
  /// kInfDist = unreached (masked-out vertices included).
  std::vector<count_t> levels;
  std::vector<count_t> max_level;  ///< per-slot local deepest level
  std::vector<count_t> ecc;        ///< per-slot global eccentricity (finish)
  lid_t stride = 0;                ///< n_total

  count_t level_of(count_t slot, lid_t l) const {
    return levels[static_cast<std::size_t>(slot) * stride + l];
  }

  void init(Ctx& ctx) {
    // Rank-uniform checks ahead of any collective: every rank throws.
    if (kOneRoot && roots.size() > 1)
      throw std::invalid_argument("MultiBfsProgram<gid_t>: one root only");
    for (const gid_t root : roots)
      if (root >= ctx.g.n_global())
        throw std::invalid_argument("MultiBfsProgram: root out of range");
    const auto n = static_cast<count_t>(roots.size());
    ctx.stepper.reset(ctx.g, n);
    stride = ctx.g.n_total();
    levels.assign(roots.size() * static_cast<std::size_t>(stride), kInfDist);
    max_level.assign(roots.size(), 0);
    if (active)
      for (lid_t l = 0; l < stride; ++l)
        if (!(*active)[l]) ctx.stepper.block(l);
    for (count_t s = 0; s < n; ++s) {
      const gid_t root = roots[static_cast<std::size_t>(s)];
      if (ctx.g.owner_of_gid(root) != ctx.comm.rank()) continue;
      const lid_t l = ctx.g.lid_of(root);
      XTRA_ASSERT(l != kInvalidLid);
      if (ctx.stepper.seed(l, s))
        levels[static_cast<std::size_t>(s) * stride + l] = 0;
    }
  }
  std::span<const lid_t> nbrs(Ctx& ctx, lid_t v) const {
    return use_in_edges ? ctx.g.in_arcs(v) : ctx.g.arcs(v);
  }
  void reached(Ctx& ctx, std::span<const lid_t> owned,
               std::span<const lid_t> ghosts) {
    // Reached during the expansion of level ctx.superstep.
    const count_t level = ctx.superstep + 1;
    const auto& st = ctx.stepper;
    // One task per root plane: a task writes only its own plane and
    // max_level cell, so its stores stay inside one n_total stripe.
    par::for_tasks(static_cast<count_t>(roots.size()), [&](count_t s) {
      const auto w = static_cast<std::size_t>(s / 64);
      const std::uint64_t bit = std::uint64_t{1} << (s % 64);
      count_t* plane = levels.data() + static_cast<std::size_t>(s) * stride;
      bool owned_hit = false;
      for (const lid_t l : owned)
        if (st.gained(l)[w] & bit) {
          plane[l] = level;
          owned_hit = true;
        }
      if (owned_hit) max_level[static_cast<std::size_t>(s)] = level;
      for (const lid_t l : ghosts)
        if (st.gained(l)[w] & bit) plane[l] = level;
    });
  }
  void finish(Ctx& ctx) {
    ecc = max_level;
    ctx.comm.allreduce_max(ecc);
  }
};

// ---------------------------------------------------------------------------
// Delta-capped SSSP — the weighted frontier program the engine API
// opened: synthetic deterministic edge weights (edge_weight), a
// min-distance relax, and a delta-stepping-style cap — each superstep
// only expands vertices within the current distance threshold,
// deferring the rest to a pending pool that post_level() releases
// bucket by bucket as the threshold advances. Relaxations are
// monotone, so re-expansion after a later improvement is safe.

struct SsspNotify {
  gid_t gid;
  count_t dist;
};

struct DeltaSsspProgram {
  using Notify = SsspNotify;
  using Ctx = engine::FrontierContext<DeltaSsspProgram>;

  gid_t root = 0;
  count_t delta = 8;        ///< bucket width (distance units), >= 1
  count_t max_weight = 16;  ///< edge weights are in [1, max_weight]
  std::uint64_t weight_seed = 1;

  std::vector<count_t> dist;  ///< size n_total; kInfDist = unreached
  count_t threshold = 0;      ///< expand only dist <= threshold
  std::vector<lid_t> pending;              ///< reached, beyond threshold
  std::vector<std::uint8_t> in_pending;    ///< pending membership mask

  count_t weight(const Ctx& ctx, lid_t v, lid_t u) const {
    return edge_weight(ctx.g.gid_of(v), ctx.g.gid_of(u), weight_seed,
                       max_weight);
  }

  void init(Ctx& ctx) {
    // Rank-uniform checks ahead of any collective: every rank throws.
    if (delta < 1) throw std::invalid_argument("DeltaSsspProgram: delta < 1");
    if (max_weight < 1)
      throw std::invalid_argument("DeltaSsspProgram: max_weight < 1");
    if (root >= ctx.g.n_global())
      throw std::invalid_argument("DeltaSsspProgram: root out of range");
    dist.assign(ctx.g.n_total(), kInfDist);
    in_pending.assign(ctx.g.n_total(), 0);
    threshold = delta;
    if (ctx.g.owner_of_gid(root) == ctx.comm.rank()) {
      const lid_t l = ctx.g.lid_of(root);
      XTRA_ASSERT(l != kInvalidLid);
      dist[l] = 0;
      ctx.frontier.push_back(l);
    }
  }
  std::span<const lid_t> nbrs(Ctx& ctx, lid_t v) const {
    return ctx.g.arcs(v);
  }
  bool improves(Ctx& ctx, lid_t v, lid_t u) const {
    return dist[v] + weight(ctx, v, u) < dist[u];
  }
  bool relax(Ctx& ctx, lid_t v, lid_t u) {
    const count_t nd = dist[v] + weight(ctx, v, u);
    if (nd >= dist[u]) return false;
    dist[u] = nd;
    return true;
  }
  Notify make_notify(Ctx& ctx, lid_t l) const {
    return {ctx.g.gid_of(l), dist[l]};
  }
  lid_t receive(Ctx& ctx, const Notify& n) {
    const lid_t l = ctx.g.lid_of(n.gid);
    XTRA_ASSERT(l != kInvalidLid && ctx.g.is_owned(l));
    if (n.dist >= dist[l]) return kInvalidLid;
    dist[l] = n.dist;
    return l;
  }
  void post_level(Ctx& ctx) {
    // Keep the current bucket; defer the rest. A vertex can sit in
    // both `next` and `pending` after a late improvement — the
    // re-expansion is a no-op, so correctness only needs monotonicity.
    std::size_t w = 0;
    for (const lid_t v : ctx.next) {
      if (dist[v] <= threshold)
        ctx.next[w++] = v;
      else if (!in_pending[v]) {
        in_pending[v] = 1;
        pending.push_back(v);
      }
    }
    ctx.next.resize(w);
    // Bucket exhausted everywhere: advance the threshold to the next
    // non-empty bucket and release the newly eligible deferrals. The
    // loop state is rank-uniform (allreduced), so every rank agrees.
    while (!ctx.comm.allreduce_or(!ctx.next.empty())) {
      count_t minp = kInfDist;
      for (const lid_t l : pending) minp = std::min(minp, dist[l]);
      minp = ctx.comm.allreduce_min(minp);
      if (minp == kInfDist) break;  // nothing pending anywhere: done
      // Ceiling to the bucket containing minp (a minp on the bucket
      // boundary must not overshoot into the next bucket — the cap is
      // one bucket of work per superstep).
      threshold = ((minp + delta - 1) / delta) * delta;
      std::size_t keep = 0;
      for (const lid_t l : pending) {
        if (dist[l] <= threshold) {
          in_pending[l] = 0;
          ctx.next.push_back(l);
        } else {
          pending[keep++] = l;
        }
      }
      pending.resize(keep);
    }
  }
};

// ---------------------------------------------------------------------------
// Approximate triangle count — the query_reply-based dense program
// the engine API opened. Each owned vertex is a wedge center: its
// (deduplicated) neighbor pairs either all become closure queries or,
// past sample_cap, a deterministic uniform sample of them scaled by
// wedges/cap (unbiased). Queries ship to the smaller endpoint's owner
// (who holds that vertex's full adjacency) and the replies ride back
// aligned, so values[v] accumulates the estimated closed wedges at v;
// every triangle has three centers, hence the final /3. Exact when no
// vertex exceeds the cap. Publishes nothing on the wire per vertex
// (kExchangesValues = false): all traffic is the ctx.aux()
// query_reply round trip, one superstep.

struct TriangleCountProgram {
  using Value = double;
  static constexpr bool kConvergeOnChange = false;
  static constexpr bool kExchangesValues = false;
  using Ctx = engine::DenseContext<TriangleCountProgram>;

  count_t sample_cap = 256;  ///< wedge-sample budget per center
  std::uint64_t seed = 1;

  double triangles = 0.0;  ///< global estimate (finish)
  count_t sampled_centers = 0;  ///< owned vertices that hit the cap

  struct Query {
    gid_t a;  ///< answered by a's owner: is b in N(a)?
    gid_t b;
  };

  /// A staged closure query before slot assignment: the wire record
  /// plus its slot-aligned side data (sharded emission, see finish()).
  struct Staged {
    Query q;
    double s;      ///< unbiased sample scale
    lid_t center;  ///< wedge center the reply credits
  };

  std::vector<std::vector<gid_t>> adj;  ///< owned sorted unique nbr gids
  comm::DestBuckets<Query> buckets;
  comm::ShardedBuckets<Staged> staged;
  std::vector<double> scale;    ///< per staged query slot
  std::vector<lid_t> center;    ///< per staged query slot

  void init(Ctx& ctx) {
    ctx.values.assign(ctx.g.n_total(), 0.0);
    adj.resize(ctx.g.n_local());
    // Each vertex writes only its own adjacency row: chunk-safe.
    ctx.for_owned([&](lid_t v) {
      auto& a = adj[v];
      a.clear();
      for (const lid_t u : ctx.g.arcs(v)) a.push_back(ctx.g.gid_of(u));
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
    });
    buckets.begin(ctx.comm.size());
    scale.clear();
    center.clear();
  }
  /// Stage pass 1 runs through update(); pass 2 + the wire trip run in
  /// finish() (DestBuckets needs the counts before any push).
  void update(Ctx&, lid_t) {}
  void for_each_wedge(const Ctx& ctx, lid_t v, auto&& emit) {
    const auto& a = adj[v];
    const auto w = static_cast<count_t>(a.size());
    if (w < 2) return;
    const count_t wedges = w * (w - 1) / 2;
    if (wedges <= sample_cap) {
      for (count_t i = 0; i < w; ++i)
        for (count_t j = i + 1; j < w; ++j)
          emit(a[static_cast<std::size_t>(i)],
               a[static_cast<std::size_t>(j)], 1.0);
      return;
    }
    // Deterministic uniform sample (with replacement), seeded by the
    // gid so the draw is placement-independent; each sample carries
    // the unbiased scale wedges / cap.
    const double s = static_cast<double>(wedges) /
                     static_cast<double>(sample_cap);
    std::uint64_t state = seed ^ (ctx.g.gid_of(v) * 0x9e3779b97f4a7c15ULL);
    for (count_t k = 0; k < sample_cap; ++k) {
      state = splitmix64(state);
      const auto i = static_cast<count_t>(
          state % static_cast<std::uint64_t>(w));
      std::uint64_t draw = splitmix64(state ^ 0x5851f42d4c957f2dULL);
      auto j = static_cast<count_t>(
          draw % static_cast<std::uint64_t>(w - 1));
      if (j >= i) ++j;  // uniform over ordered pairs i != j
      emit(a[static_cast<std::size_t>(i)],
           a[static_cast<std::size_t>(j)], s);
    }
  }
  void finish(Ctx& ctx) {
    const graph::DistGraph& g = ctx.g;
    // Wedge generation is the O(n * cap) bulk of the run, and each
    // center's stream reads only its own (immutable) adjacency row, so
    // it shards: chunks emit concurrently, then the chunk-order replay
    // assigns every query the slot the historical serial two-pass
    // staging gave it (see comm/sharded_buckets.hpp).
    staged.emit(static_cast<count_t>(g.n_local()),
                [&](count_t, count_t lo, count_t hi, auto&& put) {
                  for (count_t i = lo; i < hi; ++i) {
                    const lid_t v = static_cast<lid_t>(i);
                    for_each_wedge(ctx, v, [&](gid_t ga, gid_t gb, double s) {
                      const gid_t qlo = std::min(ga, gb);
                      const gid_t qhi = std::max(ga, gb);
                      put(g.owner_of_gid(qlo), Staged{{qlo, qhi}, s, v});
                    });
                  }
                });
    scale.resize(static_cast<std::size_t>(staged.total()));
    center.resize(static_cast<std::size_t>(staged.total()));
    staged.place(
        buckets, ctx.comm.size(),
        [](const Staged& st) { return st.q; },
        [&](count_t slot, const Staged& st) {
          scale[static_cast<std::size_t>(slot)] = st.s;
          center[static_cast<std::size_t>(slot)] = st.center;
        });
    for (lid_t v = 0; v < g.n_local(); ++v) {
      const auto& a = adj[v];
      if (static_cast<count_t>(a.size()) >= 2 &&
          static_cast<count_t>(a.size()) *
                  (static_cast<count_t>(a.size()) - 1) / 2 >
              sample_cap)
        ++sampled_centers;
    }
    const std::span<const std::uint8_t> replies = comm::query_reply(
        ctx.comm, ctx.aux(), buckets.records(), buckets.counts(),
        [&](const Query& q) -> std::uint8_t {
          const lid_t l = g.lid_of(q.a);
          XTRA_ASSERT(l != kInvalidLid && g.is_owned(l));
          return std::binary_search(adj[l].begin(), adj[l].end(), q.b)
                     ? 1
                     : 0;
        });
    for (std::size_t i = 0; i < replies.size(); ++i)
      if (replies[i]) ctx.values[center[i]] += scale[i];
    double local = 0.0;
    for (lid_t v = 0; v < g.n_local(); ++v) local += ctx.values[v];
    triangles = ctx.comm.allreduce_sum(local) / 3.0;
    sampled_centers = ctx.comm.allreduce_sum(sampled_centers);
  }
};

}  // namespace xtra::analytics
