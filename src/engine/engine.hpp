// The unified vertex-program engine API — the only way analytics run.
//
// A kernel is a small *program* struct (its per-vertex update plus
// init/epilogue hooks), `engine::Config` is the one knob bag (chunk
// size, intra-rank threads, tolerance, superstep cap), and
// `engine::run(comm, g, program, cfg)` owns the superstep loop — so
// every comm optimization the substrate grows is inherited by every
// kernel at once, the way RFP's uniform interface hides the
// transport-mode choice from its callers.
//
// Three execution modes, dispatched on the program's shape:
//  * dense (typename P::Value): one published value per vertex,
//    refreshed once per superstep through the HaloPlan's overlapped
//    refresh. See engine/dense.hpp.
//  * frontier (typename P::Notify): level-synchronous expansion of
//    one active set through graph::FrontierStepper, ghost relaxations
//    travelling as program-defined wire records. See
//    engine/frontier.hpp.
//  * mask frontier (typename P::Record): bit-parallel BFS from N
//    sources through graph::MaskFrontierStepper, one bit per source
//    and one record per touched ghost per level. See
//    engine/frontier.hpp.
//
// All three return engine::Stats — RunInfo's triple merged with the
// aggregated ExchangeStats ledger of every wire engine the run owned,
// JSON-exportable. The concrete programs for the paper's six Fig-8
// workloads plus the two engine-native ones (delta-capped SSSP,
// query-based approximate triangle count) live in
// analytics/programs.hpp; callers run them through engine::run.
#pragma once

#include <concepts>
#include <span>

#include "engine/config.hpp"
#include "engine/dense.hpp"
#include "engine/frontier.hpp"
#include "engine/stats.hpp"

namespace xtra::engine {

/// Dense mode: publishes one P::Value per vertex in ctx.values.
template <typename P>
concept DenseVertexProgram =
    requires(P p, DenseContext<P>& ctx, lid_t v) {
      typename P::Value;
      p.init(ctx);
      p.update(ctx, v);
    };

/// Frontier mode: expands one active set in one sweep and one
/// exchange per level, shipping P::Notify records; receive() names the
/// owned vertex an arrival admits (kInvalidLid: none).
template <typename P>
concept FrontierVertexProgram =
    requires(P p, FrontierContext<P>& ctx, lid_t v,
             const typename P::Notify& n) {
      typename P::Notify;
      p.init(ctx);
      p.nbrs(ctx, v);
      { p.improves(ctx, v, v) } -> std::convertible_to<bool>;
      { p.relax(ctx, v, v) } -> std::convertible_to<bool>;
      { p.make_notify(ctx, v) } -> std::convertible_to<typename P::Notify>;
      { p.receive(ctx, n) } -> std::convertible_to<lid_t>;
    };

/// Mask frontier mode: advances N BFS sources as one bit each, one
/// expansion per frontier vertex and one P::Record per touched ghost
/// per level; reached() records what each level reached.
template <typename P>
concept MaskFrontierProgram =
    requires(P p, MaskFrontierContext<P>& ctx, lid_t v,
             std::span<const lid_t> lids) {
      typename P::Record;
      p.init(ctx);
      { p.nbrs(ctx, v) } -> std::convertible_to<std::span<const lid_t>>;
      p.reached(ctx, lids, lids);
    };

/// Collective: execute a vertex program under cfg's transport knobs.
/// Result state lives in the program object; returns the unified
/// measurement.
template <DenseVertexProgram P>
Stats run(sim::Comm& comm, const graph::DistGraph& g, P& p,
          const Config& cfg = {}) {
  return run_dense(comm, g, p, cfg);
}

template <FrontierVertexProgram P>
Stats run(sim::Comm& comm, const graph::DistGraph& g, P& p,
          const Config& cfg = {}) {
  return run_frontier(comm, g, p, cfg);
}

template <MaskFrontierProgram P>
Stats run(sim::Comm& comm, const graph::DistGraph& g, P& p,
          const Config& cfg = {}) {
  return run_mask_frontier(comm, g, p, cfg);
}

}  // namespace xtra::engine
