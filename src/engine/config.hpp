// engine::Config — the one knob bag every vertex program runs under.
//
// Every kernel executed by engine::run inherits every transport knob
// here (memory-bounded phasing, intra-rank threads) with no per-kernel
// plumbing; from_params() maps the partitioner-facing core::Params
// fields onto it so benches drive analytics and partitioning from one
// struct.
#pragma once

#include <limits>

#include "core/params.hpp"
#include "util/types.hpp"

namespace xtra::engine {

struct Config {
  /// Per-phase send-payload cap (chunk size) for every exchange the
  /// engine issues (halo refreshes, frontier notifications,
  /// census/query traffic), in bytes; 0 = unbounded single alltoallv.
  /// Results are bit-identical for any value. Same value on every rank.
  count_t max_exchange_bytes = 0;

  // No effect; kept only because perfbench/e2e.cpp:254 assigns it.
  int coalesce_every = 0;

  /// Residual stop for fixed-iteration dense programs (PageRank):
  /// > 0 adds one allreduce per superstep and stops when the summed
  /// residual the program accumulates drops to tol; 0 keeps the
  /// fixed-iteration contract (and its collective count).
  double tol = 0.0;

  /// Intra-rank worker threads for the engine's chunked sweeps
  /// (boundary/interior update sweeps, the frontier expansion scan).
  /// Deterministic: {1, T} threads produce byte-identical results and
  /// identical ExchangeStats wire accounting for every T — threading
  /// never changes what goes on the wire, only who computes it.
  int num_threads = 1;

  /// Superstep cap. kUnbounded (the default) runs change-converging
  /// programs to convergence; fixed-iteration programs must set a
  /// non-negative cap (0 runs no supersteps at all — init and finish
  /// only, the legacy zero-iteration contract).
  static constexpr count_t kUnbounded = -1;
  count_t max_supersteps = kUnbounded;

  /// Map the partitioner-facing knobs onto an engine config (tol and
  /// max_supersteps stay per-kernel — set them after).
  static Config from_params(const core::Params& p) {
    Config cfg;
    cfg.max_exchange_bytes = p.max_exchange_bytes;
    cfg.num_threads = p.num_threads;
    return cfg;
  }
};

namespace detail {

/// The loop bound cfg.max_supersteps encodes (negative = unbounded).
inline count_t superstep_limit(const Config& cfg) {
  return cfg.max_supersteps >= 0 ? cfg.max_supersteps
                                 : std::numeric_limits<count_t>::max();
}

}  // namespace detail

}  // namespace xtra::engine
