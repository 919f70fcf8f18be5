// Frontier vertex-program drivers: the level-synchronous loops behind
// every BFS-style traversal. Two program shapes, one per stepper in
// graph/frontier.hpp:
//
//  * relaxing (run_frontier; delta-capped SSSP): ONE traversal whose
//    frontier is a list of active owned vertices. Each superstep the
//    engine expands it one level through graph::FrontierStepper in a
//    single sweep and a single exchange — ghost relaxations staged and
//    shipped as the program's `Notify` records while the owned
//    relaxations run mid-flight — and the program's hooks define what
//    "relax" means.
//  * mask-keyed (run_mask_frontier; analytics::MultiBfsProgram, behind
//    harmonic centrality's sampled sources and SCC's masked
//    reachability): unit-distance BFS from N sources advanced
//    bit-parallel by graph::MaskFrontierStepper — one bit per source,
//    one expansion per frontier vertex and one `Record` per touched
//    ghost per level for the whole batch. The program only seeds the
//    stepper, names the neighbors to follow and records what each
//    level reached.
//
// The engine::Config chunk size applies to the notification exchange
// with no per-kernel plumbing.
//
// Relaxing program shape (see DeltaSsspProgram in
// analytics/programs.hpp):
//
//   struct P {
//     using Notify = ...;   // trivially copyable wire record
//     void init(Ctx&);      // seed data and ctx.frontier
//     std::span<const lid_t> nbrs(Ctx&, lid_t v);
//     bool improves(Ctx&, lid_t v, lid_t u);  // read-only
//     bool relax(Ctx&, lid_t v, lid_t u);     // true = improved
//     Notify make_notify(Ctx&, lid_t ghost);  // post-scan state
//     lid_t receive(Ctx&, const Notify&);     // on owner; kInvalidLid:
//                                             //   no admission
//     void post_level(Ctx&);  // optional: runs after each level (may
//                             //   rewrite ctx.next — the delta-cap
//                             //   hook); collective-safe (called on
//                             //   every rank)
//     void finish(Ctx&);      // optional epilogue
//   };
//
// Mask-keyed program shape (see MultiBfsProgram):
//
//   struct P {
//     using Record = ...;   // graph::MaskGid, or gid_t for one source
//     void init(Ctx&);      // ctx.stepper.reset / block / seed
//     std::span<const lid_t> nbrs(Ctx&, lid_t v);
//     void reached(Ctx&,     // per level: the vertices it reached;
//                  std::span<const lid_t> owned,  // ctx.stepper.gained
//                  std::span<const lid_t> ghosts);  //   names sources
//     void finish(Ctx&);             // optional epilogue
//   };
//
// Both loops terminate when the frontier is empty on every rank (one
// allreduce per level for the whole batch, not per source) or at
// cfg.max_supersteps. During a level's hooks ctx.superstep is the
// level being expanded (root = level 0); it increments before
// post_level, so post_level sees the number of completed levels.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/config.hpp"
#include "engine/stats.hpp"
#include "graph/dist_graph.hpp"
#include "graph/frontier.hpp"
#include "mpisim/comm.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace xtra::engine {

/// Everything a relaxing frontier program's hooks see. Frontier
/// entries are owned lids; init() seeds the source if this rank owns
/// it. The engine swaps `frontier` and `next` after post_level;
/// programs may rewrite `next` in post_level() (defer vertices, refill
/// from a program-owned pool).
template <typename P>
struct FrontierContext {
  FrontierContext(sim::Comm& comm_, const graph::DistGraph& g_,
                  const Config& cfg_)
      : comm(comm_), g(g_), cfg(cfg_) {}

  sim::Comm& comm;
  const graph::DistGraph& g;
  const Config& cfg;

  std::vector<lid_t> frontier;
  std::vector<lid_t> next;
  count_t superstep = 0;  ///< levels completed; current level in hooks
};

/// Collective: execute a relaxing frontier program until its frontier
/// empties on every rank (or the superstep cap) under cfg's transport
/// knobs. Result state lives in the program object; the return value
/// is the unified measurement.
template <typename P>
Stats run_frontier(sim::Comm& comm, const graph::DistGraph& g, P& p,
                   const Config& cfg) {
  Stats stats;
  // Ambient thread width for the stepper's parallel expansion scan.
  par::ThreadScope threads(cfg.num_threads);
  stats.num_threads = par::num_threads();
  const count_t start_bytes = comm.stats().bytes_sent;
  Timer timer;

  FrontierContext<P> ctx{comm, g, cfg};
  graph::FrontierStepper<typename P::Notify> stepper(cfg.max_exchange_bytes);
  p.init(ctx);

  const count_t limit = detail::superstep_limit(cfg);
  while (ctx.superstep < limit && comm.allreduce_or(!ctx.frontier.empty())) {
    stepper.step(
        comm, g, ctx.frontier, ctx.next,
        [&](lid_t v) { return p.nbrs(ctx, v); },
        [&](lid_t v, lid_t u) { return p.improves(ctx, v, u); },
        [&](lid_t v, lid_t u) { return p.relax(ctx, v, u); },
        [&](lid_t l) { return p.make_notify(ctx, l); },
        [&](const typename P::Notify& n) { return p.receive(ctx, n); });
    ++ctx.superstep;
    if constexpr (requires { p.post_level(ctx); }) p.post_level(ctx);
    std::swap(ctx.frontier, ctx.next);
  }

  if constexpr (requires { p.finish(ctx); }) p.finish(ctx);

  stats.supersteps = ctx.superstep;
  merge(stats.exchange, stepper.exchanger().stats());
  stats.seconds = timer.seconds();
  stats.comm_bytes = comm.stats().bytes_sent - start_bytes;
  return stats;
}

/// Everything a mask-keyed frontier program's hooks see: the stepper
/// holding the masks (init() resets and seeds it) and the level being
/// expanded (root = level 0).
template <typename P>
struct MaskFrontierContext {
  sim::Comm& comm;
  const graph::DistGraph& g;
  const Config& cfg;
  graph::MaskFrontierStepper<typename P::Record>& stepper;
  count_t superstep = 0;  ///< levels completed; current level in hooks
};

/// Collective: execute a mask-keyed frontier program until the
/// frontier empties on every rank (or the superstep cap) under cfg's
/// transport knobs. Each source's reach is bit-identical to a
/// one-source run; results live in the program object.
template <typename P>
Stats run_mask_frontier(sim::Comm& comm, const graph::DistGraph& g, P& p,
                        const Config& cfg) {
  Stats stats;
  // Ambient thread width for the stepper's parallel expansion scan.
  par::ThreadScope threads(cfg.num_threads);
  stats.num_threads = par::num_threads();
  const count_t start_bytes = comm.stats().bytes_sent;
  Timer timer;

  graph::MaskFrontierStepper<typename P::Record> stepper(
      cfg.max_exchange_bytes);
  MaskFrontierContext<P> ctx{comm, g, cfg, stepper};
  p.init(ctx);

  const count_t limit = detail::superstep_limit(cfg);
  while (ctx.superstep < limit &&
         comm.allreduce_or(!stepper.frontier_empty())) {
    stepper.step(
        comm, g, [&](lid_t v) { return p.nbrs(ctx, v); },
        [&](std::span<const lid_t> owned, std::span<const lid_t> ghosts) {
          p.reached(ctx, owned, ghosts);
        });
    ++ctx.superstep;
  }

  if constexpr (requires { p.finish(ctx); }) p.finish(ctx);

  stats.supersteps = ctx.superstep;
  merge(stats.exchange, stepper.exchanger().stats());
  stats.seconds = timer.seconds();
  stats.comm_bytes = comm.stats().bytes_sent - start_bytes;
  return stats;
}

}  // namespace xtra::engine
