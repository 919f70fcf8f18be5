// serve::Scheduler — the multi-tenant superstep-packing query engine
// (DESIGN.md §9).
//
// The scheduler turns the batch engine into a serving system: an
// admission queue of open-loop queries (serve::Query, arrival-ordered)
// is packed into shared supersteps of ONE bit-parallel
// graph::MaskFrontierStepper, up to `slot_budget` concurrent slots,
// slot s being mask bit s. Each packed superstep expands every
// frontier vertex once for all the slots that reached it and ships
// one {gid, mask} record per touched ghost, then runs one ledger
// allreduce that carries, for every slot, the number of vertices
// newly reached this level (plus the point-lookup degree payload, the
// sweep's edge count, and the exchange's payload bytes).
// From that single collective every rank uniformly:
//   * advances the virtual clock (serve/clock.hpp),
//   * retires slots whose frontier ran dry or whose level cap was
//     reached — mid-run, releasing the slot's bit immediately,
//   * backfills freed slots from the queue in arrival order, and
//   * folds per-level counts into results (reached counts, RWR mass).
//
// Determinism contract: every decision above is a pure function of
// the shared query list and allreduced counters, so all ranks run the
// identical collective sequence (the verifier's lockstep checker
// stays green) and per-query latencies are byte-identical at any
// thread width. With zero in-flight
// queries the scheduler issues NO collectives at all — idle gaps are
// a clock jump to the next arrival, not a polling loop.
#pragma once

#include <vector>

#include "engine/config.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "serve/clock.hpp"
#include "serve/query.hpp"

namespace xtra::serve {

struct ServeConfig {
  /// Transport knobs for the packed frontier exchange
  /// (max_exchange_bytes, num_threads).
  engine::Config engine;
  /// Concurrent query slots (mask bits): the packing width of a
  /// superstep. 1 degenerates into per-query serial execution (the
  /// bench twin the CI contract compares against).
  count_t slot_budget = 8;
  /// Restart probability of the truncated-RWR PPR scoring.
  double ppr_alpha = 0.15;
};

/// Aggregate latency ledger of one Scheduler::run (virtual seconds).
struct ServeStats {
  count_t num_queries = 0;
  count_t supersteps = 0;        ///< packed supersteps executed
  double virtual_seconds = 0.0;  ///< clock at the last retirement
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  double queries_per_sec = 0.0;
  /// Busy slot-supersteps / (supersteps * slot_budget): how full the
  /// packing kept the budget.
  double slot_occupancy = 0.0;
  double supersteps_per_query = 0.0;
};

class Scheduler {
 public:
  explicit Scheduler(const ServeConfig& cfg) : cfg_(cfg) {}

  /// Collective: serve every query, returning per-query results in
  /// input order. `queries` must be arrival-ordered (LoadGen traces
  /// are) and identical on every rank. Every rank returns identical
  /// results and stats.
  std::vector<QueryResult> run(sim::Comm& comm, const graph::DistGraph& g,
                               const std::vector<Query>& queries);

  /// Ledger of the last run().
  const ServeStats& stats() const { return stats_; }

 private:
  ServeConfig cfg_;
  ServeStats stats_;
};

}  // namespace xtra::serve
