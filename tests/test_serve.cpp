// Tests for the serving subsystem (src/serve/): deterministic load
// generation, per-kind scheduler correctness against single-rank
// serial references, the latency determinism contract across thread
// widths {1, 8}, and the scheduler edge cases — zero
// in-flight wire silence, mid-superstep arrival, slot exhaustion +
// backfill ordering, and ghost sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"
#include "serve/loadgen.hpp"
#include "serve/scheduler.hpp"

namespace xtra::serve {
namespace {

using graph::DistGraph;
using graph::EdgeList;
using graph::VertexDist;

constexpr count_t kUnreached = std::numeric_limits<count_t>::max();
constexpr std::uint64_t kDistSalt = 17;

EdgeList test_graph() { return gen::erdos_renyi(600, 6, 11); }

LoadGenConfig test_trace() {
  LoadGenConfig lg;
  lg.num_queries = 24;
  lg.rate_qps = 40.0;
  lg.seed = 5;
  lg.khop_depth = 2;
  lg.ppr_depth = 3;
  return lg;
}

/// One Scheduler::run under run_world plus the comm deltas the edge
/// case tests assert on. Rank 0 writes the capture: every rank
/// computes identical results by contract, but concurrent identical
/// writes would still race.
struct ServeOut {
  std::vector<QueryResult> results;
  ServeStats stats;
  count_t collectives = 0;  ///< per-rank delta (rank-uniform)
  count_t bytes = 0;        ///< world payload-byte delta
};

ServeOut run_serve(int nranks, const EdgeList& el, const ServeConfig& cfg,
                   const std::vector<Query>& queries) {
  ServeOut out;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(
        comm, el, VertexDist::random(el.n, nranks, kDistSalt));
    comm.barrier();
    const count_t coll0 = comm.stats().collectives;
    const count_t bytes0 = comm.stats().bytes_sent;
    Scheduler sched(cfg);
    std::vector<QueryResult> results = sched.run(comm, g, queries);
    const count_t coll = comm.stats().collectives - coll0;
    const count_t bytes =
        comm.allreduce_sum(comm.stats().bytes_sent - bytes0);
    if (comm.rank() == 0) {
      out.results = std::move(results);
      out.stats = sched.stats();
      out.collectives = coll;
      out.bytes = bytes;
    }
  });
  return out;
}

/// Serial single-rank references: BFS levels by gid and the source
/// degree, for every distinct query source.
struct Reference {
  std::map<gid_t, std::vector<count_t>> levels;
  std::map<gid_t, count_t> degree;
};

Reference reference_for(const EdgeList& el, const std::vector<Query>& queries) {
  Reference ref;
  sim::run_world(1, [&](sim::Comm& comm) {
    const DistGraph g = build_dist_graph(comm, el, VertexDist::block(el.n, 1));
    for (const Query& q : queries) {
      if (ref.levels.count(q.source) != 0) continue;
      const lid_t root = g.lid_of(q.source);
      ASSERT_NE(root, kInvalidLid);
      ref.degree[q.source] = g.degree(root);
      std::vector<count_t>& lv = ref.levels[q.source];
      lv.assign(static_cast<std::size_t>(el.n), kUnreached);
      lv[g.gid_of(root)] = 0;
      std::queue<lid_t> fifo;
      fifo.push(root);
      while (!fifo.empty()) {
        const lid_t v = fifo.front();
        fifo.pop();
        const count_t d = lv[g.gid_of(v)] + 1;
        for (const lid_t u : g.arcs(v)) {
          count_t& du = lv[g.gid_of(u)];
          if (du != kUnreached) continue;
          du = d;
          fifo.push(u);
        }
      }
    }
  });
  return ref;
}

/// Fold a reference level vector into the expected result fields with
/// the scheduler's exact arithmetic (same operation order => the
/// doubles compare bitwise equal).
void expect_matches(const Query& q, const Reference& ref, double ppr_alpha,
                    const QueryResult& r) {
  EXPECT_EQ(r.kind, q.kind);
  const std::vector<count_t>& lv = ref.levels.at(q.source);
  const auto count_at = [&](count_t level) {
    count_t c = 0;
    for (const count_t d : lv)
      if (d == level) ++c;
    return c;
  };
  switch (q.kind) {
    case QueryKind::kPointLookup:
      EXPECT_EQ(r.value, ref.degree.at(q.source));
      EXPECT_EQ(r.supersteps, 1);
      break;
    case QueryKind::kBfs:
    case QueryKind::kKHop: {
      const count_t cap =
          q.kind == QueryKind::kBfs ? kUnreached : q.depth;
      count_t reach = 0;
      for (const count_t d : lv)
        if (d != kUnreached && d <= cap) ++reach;
      EXPECT_EQ(r.value, reach);
      break;
    }
    case QueryKind::kPpr: {
      double weight = ppr_alpha;
      double score = ppr_alpha;
      count_t reach = 1;
      count_t frontier = 1;
      for (count_t l = 1; frontier > 0 && l <= q.depth; ++l) {
        const count_t marks = count_at(l);
        reach += marks;
        weight *= 1.0 - ppr_alpha;
        score += weight * static_cast<double>(marks);
        frontier = marks;
      }
      EXPECT_EQ(r.value, reach);
      EXPECT_EQ(r.score, score);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// LoadGen

TEST(ServeLoadGen, DeterministicOrderedAndMixed) {
  LoadGenConfig lg;
  lg.num_queries = 64;
  lg.rate_qps = 25.0;
  lg.seed = 3;
  const std::vector<Query> a = LoadGen::generate(lg, 1000);
  const std::vector<Query> b = LoadGen::generate(lg, 1000);
  ASSERT_EQ(a.size(), 64u);
  ASSERT_EQ(b.size(), 64u);
  std::set<QueryKind> kinds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].depth, b[i].depth);
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_LT(a[i].source, 1000u);
    EXPECT_GT(a[i].arrival_seconds, 0.0);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
    }
    kinds.insert(a[i].kind);
  }
  // 64 draws over a uniform 4-way mix: every kind shows up.
  EXPECT_EQ(kinds.size(), 4u);
  // A different seed moves the trace.
  lg.seed = 4;
  const std::vector<Query> c = LoadGen::generate(lg, 1000);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.size(); ++i)
    any_diff = any_diff || c[i].arrival_seconds != a[i].arrival_seconds ||
               c[i].source != a[i].source;
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// Scheduler correctness

class ServeRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, ServeRanks, ::testing::Values(1, 2, 4),
                         [](const auto& inf) {
                           return "nranks_" + std::to_string(inf.param);
                         });

TEST_P(ServeRanks, AllKindsMatchSerialReference) {
  const int nranks = GetParam();
  const EdgeList el = test_graph();
  const std::vector<Query> queries = LoadGen::generate(test_trace(), el.n);
  const Reference ref = reference_for(el, queries);
  ServeConfig cfg;
  cfg.slot_budget = 8;
  const ServeOut out = run_serve(nranks, el, cfg, queries);
  ASSERT_EQ(out.results.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    expect_matches(queries[i], ref, cfg.ppr_alpha, out.results[i]);
  EXPECT_EQ(out.stats.num_queries, static_cast<count_t>(queries.size()));
}

TEST(ServeScheduler, PackedBeatsPerQueryOnCollectivesSameAnswers) {
  const EdgeList el = test_graph();
  const std::vector<Query> queries = LoadGen::generate(test_trace(), el.n);
  ServeConfig packed;
  packed.slot_budget = 8;
  ServeConfig perquery;
  perquery.slot_budget = 1;
  const ServeOut a = run_serve(4, el, packed, queries);
  const ServeOut b = run_serve(4, el, perquery, queries);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].value, b.results[i].value);
    EXPECT_EQ(a.results[i].score, b.results[i].score);
  }
  // The packing contract: sharing supersteps must save collectives
  // (one ledger allreduce serves every in-flight slot).
  EXPECT_LT(a.collectives, b.collectives);
  EXPECT_LT(a.stats.supersteps, b.stats.supersteps);
}

// ---------------------------------------------------------------------------
// Determinism across thread widths

TEST(ServeScheduler, LatenciesBitIdenticalAcrossThreads) {
  const EdgeList el = test_graph();
  const std::vector<Query> queries = LoadGen::generate(test_trace(), el.n);
  std::vector<QueryResult> base;
  for (const int threads : {1, 8}) {
    ServeConfig cfg;
    cfg.slot_budget = 4;
    cfg.engine.num_threads = threads;
    const ServeOut out = run_serve(4, el, cfg, queries);
    ASSERT_EQ(out.results.size(), queries.size());
    if (base.empty()) {
      base = out.results;
      continue;
    }
    // The full latency ledger is bitwise identical — thread width is a
    // pure throughput knob.
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(out.results[i].value, base[i].value);
      EXPECT_EQ(out.results[i].score, base[i].score);
      EXPECT_EQ(out.results[i].supersteps, base[i].supersteps);
      EXPECT_EQ(out.results[i].start_seconds, base[i].start_seconds);
      EXPECT_EQ(out.results[i].finish_seconds, base[i].finish_seconds);
    }
  }
}

// ---------------------------------------------------------------------------
// Edge cases

TEST(ServeScheduler, ZeroInflightIssuesNoCollectives) {
  const EdgeList el = test_graph();
  const ServeOut out = run_serve(2, el, ServeConfig{}, {});
  EXPECT_TRUE(out.results.empty());
  EXPECT_EQ(out.stats.supersteps, 0);
  // No queries => not one collective and not one wire byte (the
  // capture snapshots its counters before its own byte-allreduce).
  EXPECT_EQ(out.collectives, 0);
  EXPECT_EQ(out.bytes, 0);
}

TEST(ServeScheduler, IdleGapIsAClockJumpNotAPollingLoop) {
  const EdgeList el = test_graph();
  Query q;
  q.kind = QueryKind::kBfs;
  q.source = 42;
  q.arrival_seconds = 0.0;
  const ServeOut now = run_serve(2, el, ServeConfig{}, {q});
  q.arrival_seconds = 123.0;
  const ServeOut late = run_serve(2, el, ServeConfig{}, {q});
  // Waiting 123 virtual seconds costs zero wire traffic and zero
  // supersteps: identical collectives, bytes, and latency.
  EXPECT_EQ(late.collectives, now.collectives);
  EXPECT_EQ(late.bytes, now.bytes);
  EXPECT_EQ(late.stats.supersteps, now.stats.supersteps);
  ASSERT_EQ(late.results.size(), 1u);
  EXPECT_EQ(late.results[0].start_seconds, 123.0);
  // Equal up to accumulation rounding on the shifted clock base (the
  // bitwise contract covers same-seed same-config runs, not
  // arrival-time shifts).
  EXPECT_NEAR(late.results[0].latency_seconds(),
              now.results[0].latency_seconds(), 1e-9);
}

TEST(ServeScheduler, MidSuperstepArrivalWaitsForTheBoundary) {
  const EdgeList el = test_graph();
  std::vector<Query> queries(2);
  queries[0].kind = QueryKind::kBfs;
  queries[0].source = 1;
  queries[0].arrival_seconds = 0.0;
  queries[1].kind = QueryKind::kBfs;
  queries[1].source = 2;
  queries[1].arrival_seconds = 1e-6;  // lands inside the first superstep
  const ServeOut out = run_serve(2, el, ServeConfig{}, queries);
  ASSERT_EQ(out.results.size(), 2u);
  EXPECT_EQ(out.results[0].start_seconds, 0.0);
  // Admission happens only at superstep boundaries, so the second
  // query waits out at least the first superstep's alpha.
  EXPECT_GT(out.results[1].start_seconds, queries[1].arrival_seconds);
  EXPECT_GE(out.results[1].start_seconds, kSuperstepAlphaSeconds);
}

TEST(ServeScheduler, SlotExhaustionBackfillsInArrivalOrder) {
  const EdgeList el = test_graph();
  std::vector<Query> queries(8);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i].kind = QueryKind::kBfs;
    queries[i].source = static_cast<gid_t>(7 * i + 3);
    queries[i].arrival_seconds = 0.0;
  }
  ServeConfig cfg;
  cfg.slot_budget = 2;
  const ServeOut out = run_serve(2, el, cfg, queries);
  ASSERT_EQ(out.results.size(), queries.size());
  std::set<double> finishes;
  for (const QueryResult& r : out.results) finishes.insert(r.finish_seconds);
  count_t immediate = 0;
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const QueryResult& r = out.results[i];
    if (r.start_seconds == 0.0) ++immediate;
    // Arrival-order backfill: starts never decrease along the queue.
    if (i > 0) {
      EXPECT_GE(r.start_seconds, out.results[i - 1].start_seconds);
    }
    // A backfilled query starts exactly when a retirement freed its
    // slot — at some earlier query's finish boundary.
    if (r.start_seconds > 0.0) {
      EXPECT_EQ(finishes.count(r.start_seconds), 1u);
    }
  }
  // Slot exhaustion: only the first `slot_budget` queries start at 0.
  EXPECT_EQ(immediate, cfg.slot_budget);
  EXPECT_LE(out.stats.slot_occupancy, 1.0);
  EXPECT_GT(out.stats.slot_occupancy, 0.0);
}

TEST(ServeScheduler, GhostSourceResolvedByItsOwner) {
  const int nranks = 4;
  const EdgeList el = test_graph();
  const VertexDist dist = VertexDist::random(el.n, nranks, kDistSalt);
  // A cut edge (u, v) makes v a ghost on u's owner rank — the exact
  // shape that would double-seed if admission keyed on lid_of alone
  // instead of the owner check.
  gid_t ghost = el.n;
  for (const auto& [u, v] : el.edges)
    if (dist.owner(u) != dist.owner(v)) {
      ghost = v;
      break;
    }
  ASSERT_LT(ghost, el.n);
  Query q;
  q.kind = QueryKind::kBfs;
  q.source = ghost;
  const std::vector<Query> queries = {q};
  const Reference ref = reference_for(el, queries);
  const ServeOut out = run_serve(nranks, el, ServeConfig{}, queries);
  ASSERT_EQ(out.results.size(), 1u);
  expect_matches(q, ref, ServeConfig{}.ppr_alpha, out.results[0]);
}

// ---------------------------------------------------------------------------
// Stats ledger

TEST(ServeScheduler, StatsLedgerConsistent) {
  const EdgeList el = test_graph();
  const std::vector<Query> queries = LoadGen::generate(test_trace(), el.n);
  const ServeOut out = run_serve(2, el, ServeConfig{}, queries);
  const ServeStats& s = out.stats;
  EXPECT_LE(s.p50_latency, s.p95_latency);
  EXPECT_LE(s.p95_latency, s.p99_latency);
  EXPECT_GT(s.p50_latency, 0.0);
  EXPECT_GT(s.queries_per_sec, 0.0);
  EXPECT_GT(s.slot_occupancy, 0.0);
  EXPECT_LE(s.slot_occupancy, 1.0);
  count_t query_supersteps = 0;
  double max_finish = 0.0;
  for (const QueryResult& r : out.results) {
    EXPECT_GE(r.start_seconds, r.arrival_seconds);
    EXPECT_GT(r.finish_seconds, r.start_seconds);
    EXPECT_GE(r.supersteps, 1);
    query_supersteps += r.supersteps;
    max_finish = std::max(max_finish, r.finish_seconds);
  }
  EXPECT_EQ(s.virtual_seconds, max_finish);
  EXPECT_EQ(s.supersteps_per_query,
            static_cast<double>(query_supersteps) /
                static_cast<double>(queries.size()));
}

}  // namespace
}  // namespace xtra::serve
