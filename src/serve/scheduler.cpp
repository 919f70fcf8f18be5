#include "serve/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "graph/frontier.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace xtra::serve {

namespace {

constexpr count_t kNoQuery = -1;
constexpr count_t kUncapped = std::numeric_limits<count_t>::max();

/// Per-slot in-flight state, all rank-uniform. Slot s is mask bit s
/// of the shared stepper.
struct Slot {
  count_t query = kNoQuery;  ///< index into the query list
  count_t cap = kUncapped;   ///< retire when this many levels ran
  count_t level = 0;         ///< completed expansion levels
  count_t supersteps = 0;    ///< ledger supersteps occupied
  count_t reached = 0;       ///< global marks so far (source included)
  count_t frontier = 0;      ///< global frontier size entering the step
  double score = 0.0;        ///< truncated-RWR mass (kPpr)
  double weight = 0.0;       ///< next level's RWR factor alpha*(1-a)^l
  bool active() const { return query != kNoQuery; }
};

/// Nearest-rank percentile of an ascending latency list.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto idx = static_cast<std::size_t>(std::ceil(q * n));
  idx = idx > 0 ? idx - 1 : 0;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

std::vector<QueryResult> Scheduler::run(sim::Comm& comm,
                                        const graph::DistGraph& g,
                                        const std::vector<Query>& queries) {
  par::ThreadScope threads(cfg_.engine.num_threads);
  const count_t budget = cfg_.slot_budget;
  XTRA_ASSERT(budget > 0);
  const count_t n = static_cast<count_t>(queries.size());
  for (count_t i = 1; i < n; ++i)
    XTRA_ASSERT(queries[static_cast<std::size_t>(i)].arrival_seconds >=
                queries[static_cast<std::size_t>(i - 1)].arrival_seconds);

  std::vector<QueryResult> results(queries.size());
  stats_ = ServeStats{};
  stats_.num_queries = n;
  if (n == 0) return results;

  // Slot s is source bit s: a retiring traversal releases its bit
  // and the next query admitted into the slot seeds it afresh.
  graph::MaskFrontierStepper<graph::MaskGid> stepper(
      cfg_.engine.max_exchange_bytes);
  stepper.reset(g, budget);

  std::vector<Slot> slots(static_cast<std::size_t>(budget));
  // Owner-local point-lookup payloads, folded into the next ledger.
  std::vector<count_t> aux(static_cast<std::size_t>(budget), 0);
  // Ledger layout: [0, budget) new global marks per slot,
  // [budget, 2*budget) lookup payloads, then the sweep's edge count
  // and the exchange's payload bytes. One allreduce per superstep
  // carries every rank-uniform decision input.
  std::vector<count_t> ledger;
  const std::size_t ix_edges = static_cast<std::size_t>(2 * budget);
  const std::size_t ix_bytes = ix_edges + 1;

  VirtualClock clock;
  count_t next_query = 0;   // admission cursor (arrival order)
  count_t completed = 0;
  count_t active = 0;
  count_t busy_slotsteps = 0;
  count_t bytes_seen = stepper.exchanger().stats().bytes_sent;

  const auto admit = [&](count_t qi, count_t s) {
    const Query& q = queries[static_cast<std::size_t>(qi)];
    XTRA_ASSERT(q.source < g.n_global());
    Slot& sl = slots[static_cast<std::size_t>(s)];
    sl = Slot{};
    sl.query = qi;
    QueryResult& r = results[static_cast<std::size_t>(qi)];
    r.kind = q.kind;
    r.arrival_seconds = q.arrival_seconds;
    r.start_seconds = clock.now();
    switch (q.kind) {
      case QueryKind::kPointLookup:
        sl.cap = 0;
        break;
      case QueryKind::kKHop:
        sl.cap = q.depth;
        break;
      case QueryKind::kBfs:
        sl.cap = kUncapped;
        break;
      case QueryKind::kPpr:
        sl.cap = q.depth;
        sl.weight = cfg_.ppr_alpha;
        sl.score = cfg_.ppr_alpha;  // level-0 term: the source itself
        break;
    }
    if (q.kind == QueryKind::kPointLookup) {
      // Never touches the frontier: the owner folds the degree into
      // the next ledger superstep and the slot retires with it.
      if (g.owner_of_gid(q.source) == comm.rank()) {
        const lid_t l = g.lid_of(q.source);
        XTRA_ASSERT(l != kInvalidLid);
        aux[static_cast<std::size_t>(s)] = g.degree(l);
      }
      return;
    }
    // Seed the traversal. Every rank knows the source exists, so the
    // slot's global frontier size (1) and reached count (1) need no
    // collective. A cap of 0 retires at the next ledger superstep
    // with just the source counted.
    sl.reached = 1;
    if (sl.cap > 0) {
      sl.frontier = 1;
      if (g.owner_of_gid(q.source) == comm.rank()) {
        const lid_t l = g.lid_of(q.source);
        XTRA_ASSERT(l != kInvalidLid);
        const bool seeded = stepper.seed(l, s);
        XTRA_ASSERT(seeded);
      }
    }
  };

  while (completed < n) {
    // Idle: with zero in-flight queries nothing is on the wire — jump
    // the clock to the next arrival (pure local arithmetic; every
    // rank reads the same trace).
    if (active == 0) {
      XTRA_ASSERT(next_query < n);
      clock.advance_to(
          queries[static_cast<std::size_t>(next_query)].arrival_seconds);
    }
    // Admission + backfill: due queries fill free slots in arrival
    // order, lowest slot id first. Queries arriving mid-superstep
    // wait for this boundary — the clock only moves in superstep
    // grains while slots are busy.
    for (count_t s = 0; s < budget && next_query < n; ++s) {
      if (slots[static_cast<std::size_t>(s)].active()) continue;
      if (queries[static_cast<std::size_t>(next_query)].arrival_seconds >
          clock.now())
        break;
      admit(next_query++, s);
      ++active;
    }
    XTRA_ASSERT(active > 0);

    // One packed superstep. The sweep + exchange run only when some
    // slot actually has a frontier (rank-uniform knowledge: global
    // frontier sizes come from the previous ledger); a ledger-only
    // superstep still bills alpha and delivers lookup payloads. Each
    // owned vertex a level reaches counts once for every slot bit it
    // gained.
    count_t total_frontier = 0;
    for (const Slot& sl : slots)
      if (sl.active()) total_frontier += sl.frontier;
    ledger.assign(ix_bytes + 1, 0);
    count_t edges = 0;
    if (total_frontier > 0) {
      stepper.step(
          comm, g, [&](lid_t v) { return g.arcs(v); },
          [&](std::span<const lid_t> owned, std::span<const lid_t>) {
            for (const lid_t l : owned) {
              const std::span<const std::uint64_t> gained = stepper.gained(l);
              for (std::size_t w = 0; w < gained.size(); ++w)
                for (std::uint64_t b = gained[w]; b != 0; b &= b - 1)
                  ++ledger[w * 64 + static_cast<std::size_t>(
                                        std::countr_zero(b))];
            }
          });
      edges = stepper.scanned_edges();
    }
    for (count_t s = 0; s < budget; ++s) {
      ledger[static_cast<std::size_t>(budget + s)] =
          aux[static_cast<std::size_t>(s)];
      aux[static_cast<std::size_t>(s)] = 0;
    }
    ledger[ix_edges] = edges;
    const count_t bytes_now = stepper.exchanger().stats().bytes_sent;
    ledger[ix_bytes] = bytes_now - bytes_seen;
    bytes_seen = bytes_now;
    comm.allreduce_sum(ledger);

    clock.advance_superstep(ledger[ix_bytes], ledger[ix_edges]);
    ++stats_.supersteps;
    busy_slotsteps += active;

    // Retirement + accounting, all from the allreduced ledger.
    for (count_t s = 0; s < budget; ++s) {
      Slot& sl = slots[static_cast<std::size_t>(s)];
      if (!sl.active()) continue;
      ++sl.supersteps;
      const Query& q = queries[static_cast<std::size_t>(sl.query)];
      bool done = false;
      count_t value = 0;
      if (q.kind == QueryKind::kPointLookup) {
        value = ledger[static_cast<std::size_t>(budget + s)];
        done = true;
      } else {
        const count_t marks = ledger[static_cast<std::size_t>(s)];
        if (sl.frontier > 0) {
          ++sl.level;
          sl.reached += marks;
          if (q.kind == QueryKind::kPpr) {
            sl.weight *= 1.0 - cfg_.ppr_alpha;
            sl.score += sl.weight * static_cast<double>(marks);
          }
          sl.frontier = marks;
        }
        done = sl.frontier == 0 || sl.level >= sl.cap;
        value = sl.reached;
      }
      if (!done) continue;
      QueryResult& r = results[static_cast<std::size_t>(sl.query)];
      r.value = value;
      r.score = sl.score;
      r.supersteps = sl.supersteps;
      r.finish_seconds = clock.now();
      if (sl.cap > 0) stepper.release(s);  // seeded at admission
      sl.query = kNoQuery;
      --active;
      ++completed;
    }
  }

  // Latency ledger, identical on every rank.
  std::vector<double> latencies;
  latencies.reserve(results.size());
  count_t query_supersteps = 0;
  for (const QueryResult& r : results) {
    latencies.push_back(r.latency_seconds());
    query_supersteps += r.supersteps;
  }
  std::sort(latencies.begin(), latencies.end());
  stats_.virtual_seconds = clock.now();
  stats_.p50_latency = percentile(latencies, 0.50);
  stats_.p95_latency = percentile(latencies, 0.95);
  stats_.p99_latency = percentile(latencies, 0.99);
  stats_.queries_per_sec =
      clock.now() > 0.0 ? static_cast<double>(n) / clock.now() : 0.0;
  stats_.slot_occupancy =
      stats_.supersteps > 0
          ? static_cast<double>(busy_slotsteps) /
                static_cast<double>(stats_.supersteps * budget)
          : 0.0;
  stats_.supersteps_per_query =
      static_cast<double>(query_supersteps) / static_cast<double>(n);
  return results;
}

}  // namespace xtra::serve
