// Dense vertex-program driver: the one superstep loop behind
// PageRank, WCC, community-LP, k-core, SCC's trim stage, and the
// query-style triangle counter.
//
// A dense program publishes one Value per vertex in ctx.values
// (size n_total); the engine owns everything the kernels used to
// hand-roll — the HaloPlan, the SuperstepPipeline, the coalesced
// sparse-update path, the convergence collectives, and the
// stale-ghost quiesce — so every transport knob in engine::Config
// applies to every program with no per-kernel plumbing.
//
// Program shape (see analytics/programs.hpp for the concrete eight):
//
//   struct P {
//     using Value = ...;                   // trivially copyable
//     // traits (all optional, shown with defaults):
//     static constexpr bool kUsesPrev = false;         // ctx.prev kept
//     static constexpr bool kConvergeOnChange = true;  // stop rule
//     static constexpr bool kExchangesValues = true;   // halo refresh
//     void init(Ctx&);                 // size/seed ctx.values
//     void update(Ctx&, lid_t v);      // compute values[v], owned v
//     void pre_superstep(Ctx&);        // optional, before the ship
//     void mid(Ctx&);                  // optional, rides the wire
//     void apply(Ctx&);                // optional, after the refresh
//     void finish(Ctx&);               // optional epilogue; may move
//   };                                 //   ctx.values out
//
// Superstep protocol (kExchangesValues, coalesce_every == 0):
//   pre_superstep -> update(v) boundary-first, values shipped through
//   the SuperstepPipeline (mid() runs against the in-flight wire;
//   interior updates overlap it) -> apply() -> convergence check.
// At pipeline depth >= 1 the refresh is carried into the next
// superstep per the SuperstepPipeline staleness contract; update(v)
// may then read ghosts up to one superstep stale, so only
// stale-tolerant programs (monotone or majority-style updates) may
// run at depth >= 1.
//
// Convergence:
//  * kConvergeOnChange (WCC/LP/KC/trim): stop when no rank's update
//    set ctx.changed — with an in-flight refresh (depth >= 1) or
//    pending coalesced rounds, the engine first flushes and re-checks
//    whether any ghost moved (the k-core quiesce, generalized).
//  * fixed-iteration (PageRank): run cfg.max_supersteps supersteps;
//    cfg.tol > 0 adds a residual allreduce and stops early when the
//    program-accumulated ctx.residual drops to tol.
//
// Coalesced mode (cfg.coalesce_every > 0, change-converging programs
// only): instead of a full halo refresh per superstep, the engine
// ships one {gid, Value} record per (destination, boundary vertex)
// slot whose value moved since it was last shipped, batched across
// supersteps in a comm::CoalescingExchanger (explicit-flush mode, so
// enqueue is purely local) and flushed on the superstep-indexed
// schedule plus at convergence — the commLP PR-4 path, generalized to
// any Value.
#pragma once

#include <array>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "comm/coalescing.hpp"
#include "comm/dest_buckets.hpp"
#include "comm/exchanger.hpp"
#include "engine/config.hpp"
#include "engine/stats.hpp"
#include "graph/dist_graph.hpp"
#include "graph/halo.hpp"
#include "mpisim/comm.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace xtra::engine {

namespace detail {

template <typename P>
constexpr bool uses_prev() {
  if constexpr (requires { P::kUsesPrev; })
    return P::kUsesPrev;
  else
    return false;
}

template <typename P>
constexpr bool converge_on_change() {
  if constexpr (requires { P::kConvergeOnChange; })
    return P::kConvergeOnChange;
  else
    return true;
}

template <typename P>
constexpr bool exchanges_values() {
  if constexpr (requires { P::kExchangesValues; })
    return P::kExchangesValues;
  else
    return true;
}

/// Programs whose update(ctx, v) is safe to run concurrently for
/// distinct v under cfg.num_threads > 1: update writes only v's own
/// slots (values[v], per-slot scratch via par::current_slot(),
/// ctx.note_changed()) and reads state no concurrent update writes
/// (ctx.prev, program-private snapshots, graph topology). Programs
/// with live cross-vertex reads (WCC's min-hook, SCC trim) must leave
/// this false — the engine then keeps their sweeps serial regardless
/// of cfg.num_threads.
template <typename P>
constexpr bool parallel_update() {
  if constexpr (requires { P::kParallelUpdate; })
    return P::kParallelUpdate;
  else
    return false;
}

}  // namespace detail

/// Sparse ghost update shipped by the coalesced refresh: the owner of
/// `gid` re-valued it. Receivers apply arrivals in order, so batched
/// rounds resolve to last-write-wins (the newest value).
template <typename V>
struct GhostUpdate {
  gid_t gid;
  V value;
};

/// Everything a dense program's hooks see. `values` is the published
/// per-vertex state (owned then ghosts); `prev` is the previous
/// superstep's snapshot when the program declares kUsesPrev (the read
/// side of synchronous updates). `changed`/`residual` are reset each
/// superstep; update()/apply() set them and the engine runs the
/// convergence collectives.
template <typename P>
struct DenseContext {
  using Value = typename P::Value;

  DenseContext(sim::Comm& comm_, const graph::DistGraph& g_,
               const Config& cfg_)
      : comm(comm_), g(g_), cfg(cfg_) {}

  sim::Comm& comm;
  const graph::DistGraph& g;
  const Config& cfg;

  std::vector<Value> values;
  std::vector<Value> prev;  ///< kUsesPrev programs only
  count_t superstep = 0;
  bool changed = false;
  double residual = 0.0;

  /// Race-free "something changed" signal for parallel update sweeps:
  /// each pool slot owns a padded flag; the engine folds them into
  /// `changed` after the sweep, in slot order. Serial hooks may keep
  /// setting ctx.changed directly — both routes feed the same
  /// convergence collective.
  void note_changed() {
    changed_slots_[static_cast<std::size_t>(
        par::current_slot())]  // lint-ok: per-slot scratch, folded in order
        .flag = 1;
  }
  void reset_changed() {
    changed = false;
    for (auto& s : changed_slots_) s.flag = 0;
  }
  void collect_changed() {
    for (const auto& s : changed_slots_)
      if (s.flag != 0) changed = true;
  }

  /// The run's halo plan (kExchangesValues programs only) — epilogue
  /// hooks may prefetch program-private vectors through it.
  graph::HaloPlan& halo() {
    XTRA_ASSERT_MSG(halo_ != nullptr,
                    "halo() requires a value-exchanging program");
    return *halo_;
  }

  /// Auxiliary wire engine configured with the run's chunk size,
  /// lazily built — for census passes and query_reply round trips
  /// inside program hooks. Its ledger lands in the run's Stats.
  comm::Exchanger& aux() {
    if (!aux_) aux_ = std::make_unique<comm::Exchanger>(cfg.max_exchange_bytes);
    return *aux_;
  }

  graph::HaloPlan* halo_ = nullptr;
  std::unique_ptr<comm::Exchanger> aux_;

  /// Chunked owned-vertex sweep for program hooks (apply/init loops)
  /// on the rank's pool. fn(v) must be safe for concurrent distinct v
  /// to use this (per-vertex writes only).
  template <typename Fn>
  void for_owned(Fn&& fn) const {
    par::for_chunks(static_cast<count_t>(g.n_local()),
                    [&](count_t, count_t lo, count_t hi) {
                      for (count_t i = lo; i < hi; ++i)
                        fn(static_cast<lid_t>(i));
                    });
  }

  struct alignas(64) ChangedFlag {
    unsigned char flag = 0;
  };
  std::array<ChangedFlag, par::kMaxThreads> changed_slots_{};
};

namespace detail {

/// One full owned-vertex update sweep for the drivers without a halo
/// overlap structure (coalesced, local): chunked on the rank's pool
/// when the program declares kParallelUpdate, the plain lid loop
/// otherwise. Both orders are equivalent for parallel-safe programs
/// (per-vertex writes only), and at num_threads == 1 the chunked path
/// visits vertices in exactly the serial order.
template <typename P>
void update_sweep(const graph::DistGraph& g, P& p, DenseContext<P>& ctx) {
  if constexpr (parallel_update<P>()) {
    ctx.for_owned([&](lid_t v) { p.update(ctx, v); });
    return;
  }
  for (lid_t v = 0; v < g.n_local(); ++v) p.update(ctx, v);
}

/// Full-refresh superstep loop (the SuperstepPipeline path).
template <typename P>
void run_dense_pipelined(sim::Comm& comm, const graph::DistGraph& g, P& p,
                         const Config& cfg, DenseContext<P>& ctx) {
  using Value = typename P::Value;
  graph::HaloPlan& halo = *ctx.halo_;
  graph::SuperstepPipeline<Value> pipe(halo, cfg.pipeline_depth);

  // Start-of-superstep ghost snapshot for the stale-ghost quiesce of
  // programs without a prev array (ghosts only mutate inside a
  // superstep, so "end of previous" == "start of this one").
  std::vector<Value> ghost_seen;
  const bool need_ghost_seen =
      converge_on_change<P>() && !uses_prev<P>() && pipe.depth() > 0;
  const auto ghosts_moved = [&](const std::vector<Value>& seen,
                                std::size_t offset) {
    bool moved = false;
    for (lid_t v = g.n_local(); v < g.n_total(); ++v)
      if (ctx.values[v] != seen[static_cast<std::size_t>(v) - offset])
        moved = true;
    return moved;
  };
  if (need_ghost_seen)
    ghost_seen.assign(ctx.values.begin() + g.n_local(), ctx.values.end());

  const count_t limit = superstep_limit(cfg);
  for (count_t s = 0; s < limit; ++s) {
    if constexpr (requires { p.pre_superstep(ctx); }) p.pre_superstep(ctx);
    ctx.reset_changed();
    ctx.residual = 0.0;
    pipe.superstep(
        comm, ctx.values, [&](lid_t v) { p.update(ctx, v); },
        [&] {
          if constexpr (requires { p.mid(ctx); }) p.mid(ctx);
        },
        parallel_update<P>());
    if constexpr (requires { p.apply(ctx); }) p.apply(ctx);
    ctx.collect_changed();
    ++ctx.superstep;

    if constexpr (converge_on_change<P>()) {
      if (!comm.allreduce_or(ctx.changed)) {
        if (pipe.depth() == 0) break;
        // Stale-tolerant quiesce: deliver the in-flight refresh; if
        // any ghost moved since the superstep began, the fixpoint may
        // still be off somewhere.
        pipe.flush(comm, ctx.values);
        bool moved;
        if constexpr (uses_prev<P>()) {
          moved = ghosts_moved(ctx.prev, 0);
          ctx.prev = ctx.values;
        } else {
          moved = ghosts_moved(ghost_seen, static_cast<std::size_t>(
                                               g.n_local()));
          ghost_seen.assign(ctx.values.begin() + g.n_local(),
                            ctx.values.end());
        }
        if (!comm.allreduce_or(moved)) break;
        continue;
      }
      if constexpr (uses_prev<P>()) ctx.prev = ctx.values;
      if (need_ghost_seen)
        ghost_seen.assign(ctx.values.begin() + g.n_local(),
                          ctx.values.end());
    } else {
      if (cfg.tol > 0.0 && comm.allreduce_sum(ctx.residual) <= cfg.tol)
        break;
    }
  }
  // Ghosts converge to the owners' last-shipped values (no-op at
  // depth 0).
  pipe.flush(comm, ctx.values);
}

/// Coalesced sparse-refresh superstep loop (change-converging
/// programs): boundary values that moved since last shipped travel as
/// {gid, Value} records batched across supersteps.
template <typename P>
void run_dense_coalesced(sim::Comm& comm, const graph::DistGraph& g, P& p,
                         const Config& cfg, DenseContext<P>& ctx,
                         Stats& stats) {
  using Value = typename P::Value;
  using Update = GhostUpdate<Value>;
  static_assert(converge_on_change<P>(),
                "the coalesced refresh requires a change-converging "
                "program (deferred deliveries need a quiesce)");
  graph::HaloPlan& halo = *ctx.halo_;
  comm::CoalescingExchanger co(0, cfg.max_exchange_bytes);
  const std::vector<count_t>& scounts = halo.send_counts();
  const std::vector<lid_t>& slids = halo.send_lids();
  // Last value shipped per (destination, owned lid) slot. The
  // registration exchange ships no values, so the coalesced path
  // requires init() to seed ghost entries consistently with their
  // owners from locally known state (gids, degrees, constants) —
  // every program does, hence nothing is owed initially.
  std::vector<Value> shipped(slids.size());
  for (std::size_t i = 0; i < slids.size(); ++i)
    shipped[i] = ctx.values[slids[i]];
  comm::DestBuckets<Update> buckets;
  const auto deliver = [&](std::span<const Update> arrivals) {
    bool moved = false;
    for (const Update& u : arrivals) {
      const lid_t l = g.lid_of(u.gid);
      XTRA_ASSERT_MSG(l != kInvalidLid,
                      "coalesced update for an unknown ghost");
      if (ctx.values[l] != u.value) {
        ctx.values[l] = u.value;
        moved = true;
      }
    }
    return moved;
  };

  const count_t limit = superstep_limit(cfg);
  for (count_t s = 0; s < limit; ++s) {
    if constexpr (requires { p.pre_superstep(ctx); }) p.pre_superstep(ctx);
    ctx.reset_changed();
    ctx.residual = 0.0;
    update_sweep(g, p, ctx);
    if constexpr (requires { p.apply(ctx); }) p.apply(ctx);
    ctx.collect_changed();
    // Stage one record per (destination, vertex) slot whose value
    // moved since it was last shipped.
    buckets.begin(comm.size());
    std::size_t slot = 0;
    for (int d = 0; d < comm.size(); ++d)
      for (count_t k = 0; k < scounts[static_cast<std::size_t>(d)];
           ++k, ++slot)
        if (ctx.values[slids[slot]] != shipped[slot]) buckets.count(d);
    buckets.commit();
    slot = 0;
    for (int d = 0; d < comm.size(); ++d)
      for (count_t k = 0; k < scounts[static_cast<std::size_t>(d)];
           ++k, ++slot) {
        const lid_t l = slids[slot];
        if (ctx.values[l] != shipped[slot]) {
          buckets.push(d, Update{g.gid_of(l), ctx.values[l]});
          shipped[slot] = ctx.values[l];
        }
      }
    (void)co.enqueue(comm, buckets);  // local: explicit-flush mode
    ++ctx.superstep;
    bool moved = false;
    if ((s + 1) % cfg.coalesce_every == 0)
      moved = deliver(co.flush<Update>(comm));
    if constexpr (uses_prev<P>()) ctx.prev = ctx.values;
    if (!comm.allreduce_or(ctx.changed)) {
      // Quiesce under staleness: deliver the stragglers; if any ghost
      // moved anywhere, the fixpoint may still be off somewhere.
      moved = deliver(co.flush<Update>(comm)) || moved;
      if constexpr (uses_prev<P>()) ctx.prev = ctx.values;
      if (!comm.allreduce_or(moved)) break;
    }
  }
  // Superstep budget exhausted mid-batch: deliver what is still
  // pending so ghosts match their owners' last state. pending_rounds
  // advances identically on every rank, so the branch is collective.
  if (co.pending_rounds() > 0) (void)deliver(co.flush<Update>(comm));
  merge(stats.exchange, co.stats());
}

/// Local-only superstep loop for programs that publish no per-vertex
/// values on the wire (kExchangesValues == false; e.g. the query-based
/// triangle counter, whose traffic rides ctx.aux()).
template <typename P>
void run_dense_local(sim::Comm& comm, const graph::DistGraph& g, P& p,
                     const Config& cfg, DenseContext<P>& ctx) {
  const count_t limit = superstep_limit(cfg);
  for (count_t s = 0; s < limit; ++s) {
    if constexpr (requires { p.pre_superstep(ctx); }) p.pre_superstep(ctx);
    ctx.reset_changed();
    ctx.residual = 0.0;
    update_sweep(g, p, ctx);
    if constexpr (requires { p.apply(ctx); }) p.apply(ctx);
    ctx.collect_changed();
    ++ctx.superstep;
    if constexpr (converge_on_change<P>()) {
      if (!comm.allreduce_or(ctx.changed)) break;
    } else {
      if (cfg.tol > 0.0 && comm.allreduce_sum(ctx.residual) <= cfg.tol)
        break;
    }
  }
}

}  // namespace detail

/// Collective: execute a dense vertex program to convergence (or the
/// superstep cap) under cfg's transport knobs. The program's result
/// state lives in the program object (finish() may move ctx.values
/// out); the return value is the unified measurement.
template <typename P>
Stats run_dense(sim::Comm& comm, const graph::DistGraph& g, P& p,
                const Config& cfg) {
  Stats stats;
  // Ambient thread width for every chunked sweep the run issues
  // (engine sweeps, program hooks via par::for_chunks/ordered_sum).
  par::ThreadScope threads(cfg.num_threads);
  stats.num_threads = par::num_threads();
  const count_t start_bytes = comm.stats().bytes_sent;
  Timer timer;

  DenseContext<P> ctx{comm, g, cfg};
  std::unique_ptr<graph::HaloPlan> halo;
  if constexpr (detail::exchanges_values<P>()) {
    halo = std::make_unique<graph::HaloPlan>(comm, g);
    halo->set_max_send_bytes(cfg.max_exchange_bytes);
    ctx.halo_ = halo.get();
  }
  p.init(ctx);
  XTRA_ASSERT_MSG(ctx.values.size() ==
                      static_cast<std::size_t>(g.n_total()),
                  "init() must size ctx.values to n_total");
  if constexpr (detail::uses_prev<P>()) ctx.prev = ctx.values;
  XTRA_ASSERT_MSG(detail::converge_on_change<P>() ||
                      cfg.max_supersteps >= 0,
                  "fixed-iteration programs need cfg.max_supersteps");

  if constexpr (!detail::exchanges_values<P>()) {
    detail::run_dense_local(comm, g, p, cfg, ctx);
  } else if (cfg.coalesce_every > 0) {
    if constexpr (detail::converge_on_change<P>())
      detail::run_dense_coalesced(comm, g, p, cfg, ctx, stats);
    else
      XTRA_ASSERT_MSG(false,
                      "coalesce_every > 0 requires a change-converging "
                      "program");
  } else {
    detail::run_dense_pipelined(comm, g, p, cfg, ctx);
  }

  if constexpr (requires { p.finish(ctx); }) p.finish(ctx);

  stats.supersteps = ctx.superstep;
  if (halo) merge(stats.exchange, halo->stats());
  if (ctx.aux_) merge(stats.exchange, ctx.aux_->stats());
  stats.seconds = timer.seconds();
  stats.comm_bytes = comm.stats().bytes_sent - start_bytes;
  return stats;
}

}  // namespace xtra::engine
