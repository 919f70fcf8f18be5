// Dense vertex-program driver: the one superstep loop behind
// PageRank, WCC, community-LP, k-core, SCC's trim stage, and the
// query-style triangle counter.
//
// A dense program publishes one Value per vertex in ctx.values
// (size n_total); the engine owns everything the kernels used to
// hand-roll — the HaloPlan, the overlapped ghost refresh and the
// convergence collectives — so every transport knob in engine::Config
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
// Superstep protocol (kExchangesValues): pre_superstep -> update(v)
// boundary-first, boundary values shipped through
// HaloPlan::overlapped_superstep (mid() runs against the in-flight
// wire; interior updates overlap it) -> apply() -> convergence check.
// Every ghost refresh is drained inside its superstep, so update(v)
// always reads the owners' values from the end of the previous
// superstep — bit-identical to a blocking refresh.
//
// Convergence:
//  * kConvergeOnChange (WCC/LP/KC/trim): stop when no rank's update
//    set ctx.changed.
//  * fixed-iteration (PageRank): run cfg.max_supersteps supersteps;
//    cfg.tol > 0 adds a residual allreduce and stops early when the
//    program-accumulated ctx.residual drops to tol.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

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

/// One full owned-vertex update sweep for the local driver (no halo
/// overlap structure): chunked on the rank's pool when the program
/// declares kParallelUpdate, the plain lid loop otherwise. Both orders
/// are equivalent for parallel-safe programs (per-vertex writes only),
/// and at num_threads == 1 the chunked path visits vertices in exactly
/// the serial order.
template <typename P>
void update_sweep(const graph::DistGraph& g, P& p, DenseContext<P>& ctx) {
  if constexpr (parallel_update<P>()) {
    ctx.for_owned([&](lid_t v) { p.update(ctx, v); });
    return;
  }
  for (lid_t v = 0; v < g.n_local(); ++v) p.update(ctx, v);
}

/// ctx.prev = ctx.values as a chunked copy on the rank's pool (the
/// vectors are the same size, so no reallocation).
template <typename P>
void snapshot_prev(DenseContext<P>& ctx) {
  par::for_chunks(static_cast<count_t>(ctx.values.size()),
                  [&](count_t, count_t lo, count_t hi) {
                    std::copy(ctx.values.begin() + lo, ctx.values.begin() + hi,
                              ctx.prev.begin() + lo);
                  });
}

/// Superstep loop with one overlapped ghost refresh per superstep.
template <typename P>
void run_dense_halo(sim::Comm& comm, P& p, const Config& cfg,
                    DenseContext<P>& ctx) {
  graph::HaloPlan& halo = *ctx.halo_;
  const auto update = [&](lid_t v) { p.update(ctx, v); };
  const auto mid = [&] {
    if constexpr (requires { p.mid(ctx); }) p.mid(ctx);
  };
  const count_t limit = superstep_limit(cfg);
  for (count_t s = 0; s < limit; ++s) {
    if constexpr (requires { p.pre_superstep(ctx); }) p.pre_superstep(ctx);
    ctx.reset_changed();
    ctx.residual = 0.0;
    halo.overlapped_superstep(comm, ctx.values, update, mid,
                              parallel_update<P>());
    if constexpr (requires { p.apply(ctx); }) p.apply(ctx);
    ctx.collect_changed();
    ++ctx.superstep;
    if constexpr (converge_on_change<P>()) {
      if (!comm.allreduce_or(ctx.changed)) break;
      if constexpr (uses_prev<P>()) snapshot_prev(ctx);
    } else {
      if (cfg.tol > 0.0 && comm.allreduce_sum(ctx.residual) <= cfg.tol)
        break;
    }
  }
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

  if constexpr (detail::exchanges_values<P>())
    detail::run_dense_halo(comm, p, cfg, ctx);
  else
    detail::run_dense_local(comm, g, p, cfg, ctx);

  if constexpr (requires { p.finish(ctx); }) p.finish(ctx);

  stats.supersteps = ctx.superstep;
  if (halo) merge(stats.exchange, halo->stats());
  if (ctx.aux_) merge(stats.exchange, ctx.aux_->stats());
  stats.seconds = timer.seconds();
  stats.comm_bytes = comm.stats().bytes_sent - start_bytes;
  return stats;
}

}  // namespace xtra::engine
