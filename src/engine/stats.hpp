// engine::Stats — the per-run measurement engine::run returns for
// every vertex program: wall seconds, bytes this rank sent and
// supersteps (the triple the composite kernels' analytics::RunInfo
// reports) merged with the comm layer's ExchangeStats ledger
// aggregated over every engine the run owned (halo plan,
// frontier/census exchangers). JSON-exportable for bench tooling.
#pragma once

#include <string>

#include "comm/exchanger.hpp"
#include "util/types.hpp"

namespace xtra::engine {

struct Stats {
  double seconds = 0.0;    ///< wall time inside engine::run on this rank
  count_t comm_bytes = 0;  ///< wire bytes this rank sent during the run
  count_t supersteps = 0;  ///< supersteps (dense) or levels (frontier)
  int num_threads = 1;     ///< intra-rank threads the run was configured with

  /// Aggregated wire ledger across every exchanger the run owned.
  comm::ExchangeStats exchange;

  /// One JSON object, keys stable for bench tooling (COMM_STATS_JSON
  /// consumers parse the same field names).
  std::string to_json() const;
};

/// Fold one engine's ledger into an aggregate: counters and times add,
/// peak fields take the max.
void merge(comm::ExchangeStats& into, const comm::ExchangeStats& from);

}  // namespace xtra::engine
