// The serve subsystem's query model (DESIGN.md §9).
//
// A query is one tenant request against the partitioned graph. Every
// kind rides the same machinery — a slot, i.e. one source bit, of the
// bit-parallel multi-source BFS (graph::MaskFrontierStepper) driven
// superstep by superstep by serve::Scheduler — differing only in its
// level cap and in how the per-level global mark counts fold into a
// result:
//
//   kPointLookup  degree of the source vertex; occupies its slot for
//                 one ledger superstep and never touches the frontier.
//   kKHop         |{v : dist(source, v) <= depth}| — BFS capped at
//                 `depth` levels.
//   kBfs          full reachability: reached count + eccentricity
//                 supersteps (depth ignored; the frontier runs dry).
//   kPpr          truncated random-walk-with-restart mass: marks at
//                 level l weigh alpha * (1-alpha)^l, summed to `depth`
//                 levels — a deterministic personalized-PageRank proxy
//                 computable from the same per-level global counts.
//
// Every time in this header is VIRTUAL seconds — the scheduler's
// deterministic clock (serve/clock.hpp), never wall clock. Same seed
// + same config => byte-identical per-query latencies at any thread
// width.
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace xtra::serve {

enum class QueryKind : std::uint8_t { kPointLookup, kKHop, kBfs, kPpr };

struct Query {
  QueryKind kind = QueryKind::kBfs;
  gid_t source = 0;  ///< must be < n_global (every gid has an owner)
  /// Level cap for kKHop / kPpr (0 = the source alone); ignored by
  /// kPointLookup and kBfs.
  count_t depth = 0;
  double arrival_seconds = 0.0;  ///< open-loop virtual arrival time
};

/// Rank-uniform outcome of one query: every rank computes the
/// identical result because everything below derives from the shared
/// per-superstep ledger allreduce.
struct QueryResult {
  QueryKind kind = QueryKind::kBfs;
  count_t value = 0;   ///< lookup: degree; khop/bfs/ppr: reached count
  double score = 0.0;  ///< kPpr only: truncated RWR mass
  count_t supersteps = 0;  ///< supersteps the query occupied a slot
  double arrival_seconds = 0.0;
  double start_seconds = 0.0;   ///< admission into a slot
  double finish_seconds = 0.0;  ///< retirement (end of last superstep)
  double latency_seconds() const { return finish_seconds - arrival_seconds; }
};

}  // namespace xtra::serve
