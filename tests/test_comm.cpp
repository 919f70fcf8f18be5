// Tests for the unified exchange subsystem (src/comm/): the DestBuckets
// bucketing engine, the (optionally memory-bounded, phased) Exchanger,
// the query/reply round trip, and the statistics plumbing. The phased
// exchange must be bit-identical to a single alltoallv for any
// max_send_bytes — that invariant is what lets every caller opt into
// bounded memory without changing semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "comm/dest_buckets.hpp"
#include "comm/exchanger.hpp"
#include "comm/query_reply.hpp"
#include "core/exchange.hpp"
#include "core/xtrapulp.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "graph/halo.hpp"
#include "mpisim/comm.hpp"

namespace xtra {
namespace {

using comm::DestBuckets;
using comm::Exchanger;

// ---------------------------------------------------------------------------
// DestBuckets

TEST(DestBuckets, GroupsRecordsByDestinationInOrder) {
  DestBuckets<int> b;
  b.begin(3);
  b.count(2);
  b.count(0);
  b.count(2);
  b.commit();
  b.push(2, 20);
  b.push(0, 1);
  b.push(2, 21);
  EXPECT_EQ(b.counts(), (std::vector<count_t>{1, 0, 2}));
  EXPECT_EQ(b.records(), (std::vector<int>{1, 20, 21}));
  EXPECT_EQ(b.total(), 3);
}

TEST(DestBuckets, EmptyBuildYieldsEmptyBuffers) {
  DestBuckets<int> b;
  b.begin(4);
  b.commit();
  EXPECT_EQ(b.total(), 0);
  EXPECT_TRUE(b.records().empty());
  EXPECT_EQ(b.counts(), (std::vector<count_t>{0, 0, 0, 0}));
}

TEST(DestBuckets, ReuseShrinksWithoutStaleRecords) {
  DestBuckets<int> b;
  b.build(2, std::vector<int>{1, 2, 3, 4}, [](int) { return 0; },
          [](int v) { return v; });
  EXPECT_EQ(b.total(), 4);
  b.build(2, std::vector<int>{9}, [](int) { return 1; },
          [](int v) { return v; });
  EXPECT_EQ(b.total(), 1);
  EXPECT_EQ(b.records(), (std::vector<int>{9}));
  EXPECT_EQ(b.counts(), (std::vector<count_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// Exchanger

/// Every rank sends `per_dest` distinct records to every rank (incl.
/// itself); value encodes (source, dest, index) so misrouted or
/// reordered records are detectable.
std::vector<std::uint64_t> staged_payload(int me, int nranks,
                                          count_t per_dest) {
  std::vector<std::uint64_t> send;
  for (int d = 0; d < nranks; ++d)
    for (count_t i = 0; i < per_dest; ++i)
      send.push_back(static_cast<std::uint64_t>(me) * 1'000'000 +
                     static_cast<std::uint64_t>(d) * 1'000 +
                     static_cast<std::uint64_t>(i));
  return send;
}

TEST(Exchanger, UnboundedMatchesRawAlltoallv) {
  const int nranks = 4;
  const count_t per_dest = 5;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const auto send = staged_payload(comm.rank(), nranks, per_dest);
    const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                      per_dest);
    const std::vector<std::uint64_t> expect = comm.alltoallv(send, counts);
    Exchanger ex;
    std::vector<count_t> rcounts;
    const auto got = ex.exchange(comm, send, counts, &rcounts);
    EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect);
    EXPECT_EQ(rcounts, counts);
    EXPECT_EQ(ex.stats().exchanges, 1);
    EXPECT_EQ(ex.stats().phases, 1);
  });
}

class PhasedBounds : public ::testing::TestWithParam<count_t> {};

// 1 record per phase, odd 3-record chunks, exact fit, overshoot.
INSTANTIATE_TEST_SUITE_P(
    MaxSendBytes, PhasedBounds,
    ::testing::Values(sizeof(std::uint64_t), 3 * sizeof(std::uint64_t),
                      4 * 7 * sizeof(std::uint64_t), count_t(1) << 20),
    [](const auto& inf) { return "bytes_" + std::to_string(inf.param); });

TEST_P(PhasedBounds, PhasedResultBitIdenticalToUnbounded) {
  const count_t bound = GetParam();
  const int nranks = 4;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    // Ragged counts: rank r sends (r + d) records to destination d, so
    // ranks disagree about how many phases they need locally.
    std::vector<count_t> counts(static_cast<std::size_t>(nranks));
    std::vector<std::uint64_t> send;
    for (int d = 0; d < nranks; ++d) {
      counts[static_cast<std::size_t>(d)] = comm.rank() + d;
      for (count_t i = 0; i < counts[static_cast<std::size_t>(d)]; ++i)
        send.push_back(static_cast<std::uint64_t>(comm.rank()) * 1'000'000 +
                       static_cast<std::uint64_t>(d) * 1'000 +
                       static_cast<std::uint64_t>(i));
    }
    std::vector<count_t> expect_rcounts;
    const std::vector<std::uint64_t> expect =
        comm.alltoallv(send, counts, &expect_rcounts);

    Exchanger ex(bound);
    std::vector<count_t> rcounts;
    const auto got = ex.exchange(comm, send, counts, &rcounts);
    EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect);
    EXPECT_EQ(rcounts, expect_rcounts);
    // Phase arithmetic: the rank with the largest remote total (its
    // self-destined records never touch the wire) dictates the global
    // phase count.
    const count_t remote =
        std::accumulate(counts.begin(), counts.end(), count_t(0)) -
        counts[static_cast<std::size_t>(comm.rank())];
    const count_t max_remote = comm.allreduce_max(remote);
    const count_t max_records =
        std::max<count_t>(1, bound / static_cast<count_t>(sizeof(std::uint64_t)));
    const count_t want_phases =
        std::max<count_t>(1, (max_remote + max_records - 1) / max_records);
    EXPECT_EQ(ex.stats().phases, want_phases);
    EXPECT_EQ(ex.stats().exchanges, 1);
  });
}

TEST_P(PhasedBounds, StartFinishBitIdenticalToBlocking) {
  const count_t bound = GetParam();
  const int nranks = 4;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    // Same ragged payload as the blocking phased test: rank r sends
    // (r + d) records to destination d.
    std::vector<count_t> counts(static_cast<std::size_t>(nranks));
    std::vector<std::uint64_t> send;
    for (int d = 0; d < nranks; ++d) {
      counts[static_cast<std::size_t>(d)] = comm.rank() + d;
      for (count_t i = 0; i < counts[static_cast<std::size_t>(d)]; ++i)
        send.push_back(static_cast<std::uint64_t>(comm.rank()) * 1'000'000 +
                       static_cast<std::uint64_t>(d) * 1'000 +
                       static_cast<std::uint64_t>(i));
    }
    std::vector<count_t> expect_rcounts;
    const std::vector<std::uint64_t> expect =
        comm.alltoallv(send, counts, &expect_rcounts);

    Exchanger ex(bound);
    ex.start(comm, send, counts);
    EXPECT_TRUE(ex.in_flight());
    EXPECT_EQ(ex.pending().bytes_in_flight(),
              static_cast<count_t>(send.size() * sizeof(std::uint64_t)));
    // The handle owns a snapshot: the caller's buffer is dead the
    // moment start() returns...
    std::fill(send.begin(), send.end(), 0xDEADBEEFu);
    send.clear();
    send.shrink_to_fit();
    // ...and blocking collectives may run while the exchange (all of
    // its phases) is still draining.
    EXPECT_EQ(comm.allreduce_sum<count_t>(1),
              static_cast<count_t>(nranks));
    std::vector<count_t> rcounts;
    const auto got = ex.finish<std::uint64_t>(comm, &rcounts);
    EXPECT_FALSE(ex.in_flight());
    EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect);
    EXPECT_EQ(rcounts, expect_rcounts);
    // Identical result for any bound, plus the overlap ledger.
    EXPECT_EQ(ex.stats().exchanges, 1);
    EXPECT_EQ(ex.stats().overlapped, 1);
    EXPECT_GT(ex.stats().start_seconds + ex.stats().finish_seconds, 0.0);
  });
}

TEST(Exchanger, SplitAndBlockingAgreeOnStatsAndBytes) {
  const int nranks = 4;
  const count_t per_dest = 6;
  const count_t bound = 2 * sizeof(std::uint64_t);  // forces phases
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const auto send = staged_payload(comm.rank(), nranks, per_dest);
    const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                      per_dest);
    Exchanger blocking(bound);
    comm.barrier();
    comm.reset_stats();
    const auto a = blocking.exchange(comm, send, counts);
    const std::vector<std::uint64_t> expect(a.begin(), a.end());
    const count_t blocking_wire = comm.stats().bytes_sent;
    const count_t blocking_colls = comm.stats().collectives;

    Exchanger split(bound);
    comm.barrier();
    comm.reset_stats();
    split.start(comm, send, counts);
    const auto b = split.finish<std::uint64_t>(comm);
    EXPECT_EQ(std::vector<std::uint64_t>(b.begin(), b.end()), expect);
    // Same wire bytes, same number of collectives: overlap is free.
    EXPECT_EQ(comm.stats().bytes_sent, blocking_wire);
    EXPECT_EQ(comm.stats().collectives, blocking_colls);
    EXPECT_EQ(split.stats().phases, blocking.stats().phases);
    EXPECT_EQ(split.stats().bytes_sent, blocking.stats().bytes_sent);
  });
}

TEST(Exchanger, RepeatedExchangesReuseAndReport) {
  sim::run_world(3, [](sim::Comm& comm) {
    Exchanger ex(16);  // 2 records of 8 bytes per phase
    for (int round = 1; round <= 4; ++round) {
      std::vector<count_t> counts(3, round);
      std::vector<std::uint64_t> send(3 * static_cast<std::size_t>(round),
                                      static_cast<std::uint64_t>(round));
      const auto got = ex.exchange(comm, send, counts);
      ASSERT_EQ(got.size(), 3 * static_cast<std::size_t>(round));
      for (const std::uint64_t v : got)
        EXPECT_EQ(v, static_cast<std::uint64_t>(round));
    }
    EXPECT_EQ(ex.stats().exchanges, 4);
    EXPECT_GT(ex.stats().phases, 4);  // later rounds needed > 1 phase
  });
}

TEST(Exchanger, AllLocalTrafficIsWireFree) {
  sim::run_world(3, [](sim::Comm& comm) {
    DestBuckets<std::uint64_t> b;
    b.begin(comm.size());
    for (int i = 0; i < 5; ++i) b.count(comm.rank());
    b.commit();
    for (int i = 0; i < 5; ++i)
      b.push(comm.rank(), static_cast<std::uint64_t>(i));
    Exchanger ex;
    const count_t wire_before = comm.stats().bytes_sent;
    const auto got = ex.exchange(comm, b);
    ASSERT_EQ(got.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(got[i], i);
    // Self-destined data never touches the wire: neither the runtime
    // nor the Exchanger may bill it.
    EXPECT_EQ(comm.stats().bytes_sent, wire_before);
    EXPECT_EQ(ex.stats().bytes_sent, 0);
    EXPECT_EQ(ex.stats().records_sent, 5);
  });
}

TEST(Exchanger, ByteAccountingMatchesRuntimeStats) {
  const int nranks = 4;
  const count_t per_dest = 3;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const auto send = staged_payload(comm.rank(), nranks, per_dest);
    const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                      per_dest);
    Exchanger ex;
    const count_t wire_before = comm.stats().bytes_sent;
    (void)ex.exchange(comm, send, counts);
    // Unbounded mode issues exactly one alltoallv and nothing else, so
    // the Exchanger's ledger must equal the runtime's wire delta:
    // (nranks - 1) peers x per_dest records x 8 bytes.
    const count_t want = (nranks - 1) * per_dest *
                         static_cast<count_t>(sizeof(std::uint64_t));
    EXPECT_EQ(ex.stats().bytes_sent, want);
    EXPECT_EQ(comm.stats().bytes_sent - wire_before, want);
  });
}

TEST(Comm, WorldStatsSumsEveryRank) {
  const int nranks = 4;
  std::vector<count_t> per_rank(static_cast<std::size_t>(nranks), 0);
  std::vector<count_t> aggregated(static_cast<std::size_t>(nranks), 0);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    // Rank r ships r records to every peer.
    const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                      comm.rank());
    const std::vector<std::uint64_t> send(
        static_cast<std::size_t>(nranks) *
            static_cast<std::size_t>(comm.rank()),
        7);
    (void)comm.alltoallv(send, counts);
    per_rank[static_cast<std::size_t>(comm.rank())] = comm.stats().bytes_sent;
    const sim::CommStats world = comm.world_stats();
    aggregated[static_cast<std::size_t>(comm.rank())] = world.bytes_sent;
    EXPECT_GT(world.collectives, 0);
  });
  const count_t sum =
      std::accumulate(per_rank.begin(), per_rank.end(), count_t(0));
  for (const count_t a : aggregated) EXPECT_EQ(a, sum);
}

// ---------------------------------------------------------------------------
// Exchange edge cases: sub-record bounds and all-empty rounds

TEST(Exchanger, SubRecordBoundClampsToOneRecordPerPhase) {
  // A max_send_bytes smaller than one record must clamp to exactly one
  // record per phase — progress every phase, never a degenerate plan.
  const int nranks = 3;
  const count_t per_dest = 2;
  for (const count_t bound : {count_t(1), count_t(3), count_t(7)}) {
    sim::run_world(nranks, [&](sim::Comm& comm) {
      const auto send = staged_payload(comm.rank(), nranks, per_dest);
      const std::vector<count_t> counts(static_cast<std::size_t>(nranks),
                                        per_dest);
      const std::vector<std::uint64_t> expect = comm.alltoallv(send, counts);
      Exchanger ex(bound);
      const auto got = ex.exchange(comm, send, counts);
      EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect);
      // One record per phase: the phase count equals the largest
      // per-rank remote record total (self records are not phased).
      EXPECT_EQ(ex.stats().phases,
                static_cast<count_t>(nranks - 1) * per_dest);
      EXPECT_EQ(ex.stats().exchanges, 1);
    });
  }
}

TEST(Exchanger, AllEmptyBoundedExchangeSkipsTheWire) {
  // When every rank stages zero records, the bounded path already pays
  // one allreduce to agree on phases — it must learn "nothing anywhere"
  // from it and skip the payload collectives entirely, with identical
  // accounting on the blocking and start/finish paths.
  const int nranks = 4;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const std::vector<count_t> counts(static_cast<std::size_t>(nranks), 0);
    const std::vector<std::uint64_t> send;

    Exchanger blocking(64);
    comm.barrier();
    comm.reset_stats();
    std::vector<count_t> rcounts;
    const auto got = blocking.exchange(comm, send, counts, &rcounts);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(rcounts, counts);
    EXPECT_EQ(blocking.stats().exchanges, 1);
    EXPECT_EQ(blocking.stats().phases, 0);
    // Exactly the phase-agreement allreduce hit the substrate — no
    // alltoallv was posted.
    EXPECT_EQ(comm.stats().collectives, 1);
    EXPECT_EQ(comm.stats().bytes_sent,
              static_cast<count_t>(sizeof(count_t)));

    Exchanger split(64);
    split.start(comm, send, counts);
    (void)comm.allreduce_sum<count_t>(1);
    const auto got2 = split.finish<std::uint64_t>(comm, &rcounts);
    EXPECT_TRUE(got2.empty());
    EXPECT_EQ(rcounts, counts);
    EXPECT_EQ(split.stats().phases, blocking.stats().phases);
    EXPECT_EQ(split.stats().exchanges, blocking.stats().exchanges);

    // Unbounded mode has no collective to agree with, so it still
    // posts its single (empty) alltoallv — pin that contract too.
    Exchanger unbounded;
    (void)unbounded.exchange(comm, send, counts);
    EXPECT_EQ(unbounded.stats().phases, 1);
  });
}

TEST(Exchanger, SelfRecordsCostNoPhases) {
  // One rank, a bound of one record, k self records: nothing crosses
  // the wire, so the bounded exchange pays only its phase-agreement
  // allreduce — O(1) collectives, not one phase per record.
  constexpr count_t kRecords = 1000;
  sim::run_world(1, [&](sim::Comm& comm) {
    std::vector<std::uint64_t> send(kRecords);
    for (count_t i = 0; i < kRecords; ++i)
      send[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(i) * 7;
    const std::vector<count_t> counts{kRecords};
    for (const bool split : {false, true}) {
      Exchanger ex(sizeof(std::uint64_t));
      comm.reset_stats();
      std::vector<count_t> rcounts;
      std::span<const std::uint64_t> got;
      if (split) {
        ex.start(comm, send, counts);
        got = ex.finish<std::uint64_t>(comm, &rcounts);
      } else {
        got = ex.exchange(comm, send, counts, &rcounts);
      }
      EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), send);
      EXPECT_EQ(rcounts, counts);
      EXPECT_EQ(comm.stats().collectives, 1) << "split=" << split;
      EXPECT_EQ(ex.stats().phases, 0);
      EXPECT_EQ(ex.stats().bytes_sent, 0);
      EXPECT_EQ(ex.stats().records_sent, kRecords);
    }
  });
}

TEST(Exchanger, EmptyRoundsInterleaveWithNonEmptyOnes) {
  // Ranks alternate between staging work and staging nothing; the
  // all-empty skip must only trigger when *every* rank is empty.
  const int nranks = 3;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    Exchanger ex(16);
    for (int round = 0; round < 4; ++round) {
      const bool all_empty = round == 2;
      std::vector<count_t> counts(static_cast<std::size_t>(nranks), 0);
      std::vector<std::uint64_t> send;
      if (!all_empty && comm.rank() != round % nranks) {
        for (int d = 0; d < nranks; ++d) {
          counts[static_cast<std::size_t>(d)] = 3;
          for (int i = 0; i < 3; ++i)
            send.push_back(static_cast<std::uint64_t>(100 * round + i));
        }
      }
      const std::vector<std::uint64_t> expect = comm.alltoallv(send, counts);
      const auto got = ex.exchange(comm, send, counts);
      ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect)
          << "round=" << round;
    }
    EXPECT_EQ(ex.stats().exchanges, 4);
  });
}

// ---------------------------------------------------------------------------
// Query/reply round trip

TEST(QueryReply, RepliesAlignWithQueries) {
  const int nranks = 3;
  sim::run_world(nranks, [&](sim::Comm& comm) {
    // Ask every rank (incl. self) to square our rank-tagged values;
    // replies must come back in exactly the order we asked.
    DestBuckets<std::uint64_t> b;
    b.begin(nranks);
    for (int d = 0; d < nranks; ++d)
      for (int i = 0; i < 2; ++i) b.count(d);
    b.commit();
    std::vector<std::uint64_t> asked;
    for (int d = 0; d < nranks; ++d)
      for (int i = 0; i < 2; ++i) {
        const auto q = static_cast<std::uint64_t>(
            10 * (comm.rank() + 1) + d * 2 + i);
        b.push(d, q);
        asked.push_back(q);
      }
    Exchanger ex;
    const auto replies = comm::query_reply(
        comm, ex, b.records(), b.counts(),
        [](const std::uint64_t q) { return q * q; });
    ASSERT_EQ(replies.size(), asked.size());
    // records() is grouped by destination in push order — same order
    // the replies use.
    for (std::size_t i = 0; i < asked.size(); ++i)
      EXPECT_EQ(replies[i], b.records()[i] * b.records()[i]);
  });
}

// ---------------------------------------------------------------------------
// End-to-end: bounded exchange through the real callers

TEST(BoundedExchange, HaloRefreshIdenticalUnderAnyBound) {
  const graph::EdgeList el = gen::erdos_renyi(500, 8, 11);
  for (const count_t bound : {count_t(0), count_t(8), count_t(64),
                              count_t(1) << 20}) {
    sim::run_world(3, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, 3, 5));
      graph::HaloPlan halo(comm, g);
      halo.set_max_send_bytes(bound);
      std::vector<gid_t> vals(g.n_total(), 0);
      for (lid_t v = 0; v < g.n_local(); ++v) vals[v] = g.gid_of(v) * 3 + 1;
      halo.exchange(comm, vals);
      for (lid_t v = 0; v < g.n_total(); ++v)
        EXPECT_EQ(vals[v], g.gid_of(v) * 3 + 1);
    });
  }
}

TEST(BoundedExchange, HaloPrefetchInterleavedIdenticalUnderAnyBound) {
  // The overlapped prefetch pipeline — boundary compute, prefetch,
  // interior compute (mutating vals mid-flight), collectives in
  // between, finish — must leave vals exactly as the blocking
  // exchange would, for unbounded and multi-phase bounds alike.
  const graph::EdgeList el = gen::erdos_renyi(500, 8, 11);
  for (const count_t bound : {count_t(0), count_t(8), count_t(64),
                              count_t(1) << 20}) {
    sim::run_world(3, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::random(el.n, 3, 5));
      graph::HaloPlan blocking_halo(comm, g);
      graph::HaloPlan overlap_halo(comm, g);
      blocking_halo.set_max_send_bytes(bound);
      overlap_halo.set_max_send_bytes(bound);
      // Meter only the replayed exchanges, not the constructor's
      // (blocking) registration round.
      overlap_halo.reset_stats();

      std::vector<gid_t> expect(g.n_total());
      std::vector<gid_t> vals(g.n_total());
      for (lid_t v = 0; v < g.n_total(); ++v)
        expect[v] = vals[v] = g.gid_of(v);

      for (int iter = 1; iter <= 3; ++iter) {
        // Reference superstep: update every owned value, then refresh.
        for (lid_t v = 0; v < g.n_local(); ++v)
          expect[v] = expect[v] * 7 + static_cast<gid_t>(iter);
        blocking_halo.exchange(comm, expect);

        // Overlapped superstep: boundary first, ship, interior while
        // the wire drains (with an interleaved allreduce), finish.
        for (const lid_t v : overlap_halo.boundary_lids())
          vals[v] = vals[v] * 7 + static_cast<gid_t>(iter);
        overlap_halo.prefetch_next(comm, vals);
        EXPECT_TRUE(overlap_halo.prefetch_in_flight());
        for (lid_t v = 0; v < g.n_local(); ++v)
          if (!overlap_halo.is_boundary(v))
            vals[v] = vals[v] * 7 + static_cast<gid_t>(iter);
        (void)comm.allreduce_sum<count_t>(1);
        overlap_halo.finish_prefetch(comm, vals);
        EXPECT_FALSE(overlap_halo.prefetch_in_flight());

        ASSERT_EQ(vals, expect) << "bound=" << bound << " iter=" << iter;
      }
      EXPECT_EQ(overlap_halo.stats().overlapped,
                overlap_halo.stats().exchanges);
    });
  }
}

TEST(BoundedExchange, UpdateExchangerSplitMatchesRun) {
  // start(); <unrelated allreduce>; finish() must apply exactly the
  // ghost updates run() would, including when the queue is empty on
  // some ranks and the exchange is multi-phase.
  const graph::EdgeList el = gen::erdos_renyi(400, 10, 17);
  for (const count_t bound : {count_t(0), count_t(sizeof(core::PartUpdate)),
                              count_t(1) << 16}) {
    sim::run_world(3, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::block(el.n, 3));
      core::UpdateExchanger run_ex(bound);
      core::UpdateExchanger split_ex(bound);
      std::vector<part_t> run_parts(g.n_total(), 0);
      std::vector<part_t> split_parts(g.n_total(), 0);
      for (int it = 0; it < 3; ++it) {
        std::vector<lid_t> queue;
        // Rank 2 sits out every other iteration (still collective).
        if (!(comm.rank() == 2 && it % 2 == 1))
          for (lid_t v = 0; v < g.n_local(); v += 2) {
            run_parts[v] = split_parts[v] =
                static_cast<part_t>((v + static_cast<lid_t>(it)) % 5);
            queue.push_back(v);
          }
        run_ex.run(comm, g, run_parts, queue);

        split_ex.start(comm, g, split_parts, queue);
        (void)comm.allreduce_sum<count_t>(1);  // overlapped local work
        split_ex.finish(comm, g, split_parts);

        ASSERT_EQ(split_parts, run_parts) << "bound=" << bound
                                          << " iter=" << it;
      }
    });
  }
}

/// Every rank's gid -> lid table, allgathered: entry [r][gid] is the
/// lid rank r gave gid, kInvalidLid where r does not hold it. Derived
/// from each rank's lid_to_gid() alone, independently of the build's
/// send slots. Collective.
std::vector<std::vector<lid_t>> allgather_lid_tables(
    sim::Comm& comm, const graph::DistGraph& g) {
  const std::vector<gid_t> all = comm.allgatherv(g.lid_to_gid());
  const std::vector<count_t> sizes = comm.allgatherv(
      std::vector<count_t>{static_cast<count_t>(g.n_total())});
  std::vector<std::vector<lid_t>> tables(
      sizes.size(), std::vector<lid_t>(g.n_global(), kInvalidLid));
  std::size_t at = 0;
  for (std::size_t r = 0; r < sizes.size(); ++r)
    for (count_t l = 0; l < sizes[r]; ++l)
      tables[r][all[at++]] = static_cast<lid_t>(l);
  return tables;
}

/// Algorithm 3's send side as a per-arc walk: hash the owner of every
/// arc of every queued vertex and admit one record per (queue slot,
/// remote rank) through a stamp mask — what UpdateExchanger did before
/// the toSend ranks were precomputed (DistGraph::send_ranks). Each
/// record's slot is looked up in the receiver's allgathered table.
void per_arc_send_buffer(const graph::DistGraph& g, int me, int nranks,
                         const std::vector<std::vector<lid_t>>& lid_tables,
                         const std::vector<part_t>& parts,
                         const std::vector<lid_t>& queue,
                         DestBuckets<core::PartUpdate>& out) {
  std::vector<std::size_t> stamp;
  const auto walk = [&](auto&& emit) {
    stamp.assign(static_cast<std::size_t>(nranks), ~std::size_t(0));
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const lid_t v = queue[qi];
      for (const lid_t u : g.arcs(v)) {
        const int task = g.owner_of(u);
        if (task == me || stamp[static_cast<std::size_t>(task)] == qi)
          continue;
        stamp[static_cast<std::size_t>(task)] = qi;
        emit(task,
             core::PartUpdate{
                 lid_tables[static_cast<std::size_t>(task)][g.gid_of(v)],
                 parts[v]});
      }
    }
  };
  out.begin(nranks);
  walk([&](int task, const core::PartUpdate&) { out.count(task); });
  out.commit();
  walk([&](int task, const core::PartUpdate& rec) { out.push(task, rec); });
}

// The precomputed toSend ranks must reproduce the per-arc owner walk
// exactly: same send records in the same slots, same per-destination
// counts, same wire ledger, on every distribution kind and width.
TEST(UpdateExchangerSendRanks, SendBufferMatchesPerArcOwnerWalk) {
  const graph::EdgeList el = gen::community_graph(700, 9, 0.6, 2.3, 37);
  for (const int nranks : {1, 2, 4, 8}) {
    auto owners = std::make_shared<std::vector<int>>(el.n);
    for (gid_t v = 0; v < el.n; ++v)
      (*owners)[v] = static_cast<int>((v * 7 + v / 5) %
                                      static_cast<gid_t>(nranks));
    const graph::VertexDist dists[] = {
        graph::VertexDist::random(el.n, nranks, 3),
        graph::VertexDist::block(el.n, nranks),
        graph::VertexDist::explicit_map(el.n, nranks, owners)};
    for (const graph::VertexDist& dist : dists) {
      for (const count_t bound : {count_t(0), count_t(64)}) {
        sim::run_world(nranks, [&](sim::Comm& comm) {
          const auto g = graph::build_dist_graph(comm, el, dist);
          const std::vector<std::vector<lid_t>> lid_tables =
              allgather_lid_tables(comm, g);
          core::UpdateExchanger ex(bound);
          Exchanger ref_ex(bound);
          std::vector<part_t> parts(g.n_total(), 0);
          std::vector<part_t> ref_parts(g.n_total(), 0);
          DestBuckets<core::PartUpdate> ref;
          for (int it = 0; it < 3; ++it) {
            std::vector<lid_t> queue;
            for (lid_t v = static_cast<lid_t>(it); v < g.n_local(); v += 2)
              queue.push_back(v);
            if (!queue.empty()) queue.push_back(queue.front());  // repeat
            for (const lid_t v : queue)
              parts[v] = ref_parts[v] =
                  static_cast<part_t>((g.gid_of(v) + it) % 6);
            ex.run(comm, g, parts, queue);

            per_arc_send_buffer(g, comm.rank(), nranks, lid_tables,
                                ref_parts, queue, ref);
            ref_ex.start_inplace(comm, ref);
            for (const core::PartUpdate& rec :
                 ref_ex.finish<core::PartUpdate>(comm)) {
              ASSERT_NE(rec.slot, kInvalidLid);
              ASSERT_FALSE(g.is_owned(rec.slot));
              ref_parts[rec.slot] = rec.part;
            }

            const auto& sent = ex.send_buffer();
            ASSERT_EQ(sent.counts(), ref.counts());
            ASSERT_EQ(sent.records().size(), ref.records().size());
            for (std::size_t i = 0; i < ref.records().size(); ++i) {
              ASSERT_EQ(sent.records()[i].slot, ref.records()[i].slot);
              ASSERT_EQ(sent.records()[i].part, ref.records()[i].part);
            }
            ASSERT_EQ(parts, ref_parts);
          }
          const comm::ExchangeStats& a = ex.stats();
          const comm::ExchangeStats& b = ref_ex.stats();
          EXPECT_EQ(a.exchanges, b.exchanges);
          EXPECT_EQ(a.phases, b.phases);
          EXPECT_EQ(a.records_sent, b.records_sent);
          EXPECT_EQ(a.bytes_sent, b.bytes_sent);
          EXPECT_EQ(a.overlapped, b.overlapped);
          EXPECT_EQ(a.max_inflight_bytes, b.max_inflight_bytes);
        });
      }
    }
  }
}

TEST(BoundedExchange, PartitionBitIdenticalUnderAnyBound) {
  const graph::EdgeList el = gen::erdos_renyi(300, 6, 23);
  core::Params params;
  params.nparts = 4;
  params.outer_iters = 1;

  auto run = [&](count_t bound) {
    params.max_exchange_bytes = bound;
    std::vector<part_t> global;
    sim::run_world(3, [&](sim::Comm& comm) {
      const auto g = graph::build_dist_graph(
          comm, el, graph::VertexDist::block(el.n, 3));
      const auto r = core::partition(comm, g, params);
      const auto gp = core::gather_global_parts(comm, g, r.parts);
      if (comm.rank() == 0) global = gp;
    });
    return global;
  };

  const std::vector<part_t> unbounded = run(0);
  ASSERT_EQ(unbounded.size(), el.n);
  // The paper's memory-bounded multi-phase communication must not
  // change the algorithm: one PartUpdate per phase, a modest budget,
  // and effectively-unbounded all agree bit-for-bit.
  EXPECT_EQ(run(sizeof(core::PartUpdate)), unbounded);
  EXPECT_EQ(run(256), unbounded);
  EXPECT_EQ(run(count_t(1) << 24), unbounded);
}

}  // namespace
}  // namespace xtra
