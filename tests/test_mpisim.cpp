// Tests for the simulated message-passing runtime: collective
// semantics must match MPI so the partitioner's program structure
// transfers unchanged.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "mpisim/comm.hpp"

namespace xtra::sim {
namespace {

class WorldSizes : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Ranks, WorldSizes, ::testing::Values(1, 2, 3, 4, 8),
                         [](const auto& inf) {
                           return "nranks_" + std::to_string(inf.param);
                         });

TEST_P(WorldSizes, RunWorldRunsEveryRankExactlyOnce) {
  const int n = GetParam();
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  run_world(n, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), n);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), n);
    ++hits[static_cast<std::size_t>(comm.rank())];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST_P(WorldSizes, BarrierCompletes) {
  run_world(GetParam(), [](Comm& comm) {
    for (int i = 0; i < 10; ++i) comm.barrier();
  });
}

TEST_P(WorldSizes, BcastDeliversRootData) {
  const int n = GetParam();
  run_world(n, [n](Comm& comm) {
    for (int root = 0; root < n; ++root) {
      std::vector<int> data;
      if (comm.rank() == root) data = {root, root + 1, root + 2};
      comm.bcast(data, root);
      ASSERT_EQ(data.size(), 3u);
      EXPECT_EQ(data[0], root);
      EXPECT_EQ(data[2], root + 2);
    }
  });
}

TEST_P(WorldSizes, BcastValueScalar) {
  run_world(GetParam(), [](Comm& comm) {
    const gid_t v = comm.bcast_value<gid_t>(
        comm.rank() == 0 ? 777u : 0u, 0);
    EXPECT_EQ(v, 777u);
  });
}

TEST_P(WorldSizes, AllreduceSumVector) {
  const int n = GetParam();
  run_world(n, [n](Comm& comm) {
    std::vector<count_t> v{comm.rank(), 1, -comm.rank()};
    comm.allreduce_sum(v);
    EXPECT_EQ(v[0], static_cast<count_t>(n) * (n - 1) / 2);
    EXPECT_EQ(v[1], n);
    EXPECT_EQ(v[2], -static_cast<count_t>(n) * (n - 1) / 2);
  });
}

TEST_P(WorldSizes, AllreduceMinMaxScalar) {
  const int n = GetParam();
  run_world(n, [n](Comm& comm) {
    EXPECT_EQ(comm.allreduce_max(comm.rank()), n - 1);
    EXPECT_EQ(comm.allreduce_min(comm.rank()), 0);
    EXPECT_EQ(comm.allreduce_sum(1), n);
  });
}

TEST_P(WorldSizes, AllreduceAndOr) {
  const int n = GetParam();
  run_world(n, [n](Comm& comm) {
    EXPECT_TRUE(comm.allreduce_and(true));
    EXPECT_FALSE(comm.allreduce_or(false));
    // Only rank 0 true:
    const bool only0 = comm.rank() == 0;
    EXPECT_EQ(comm.allreduce_and(only0), n == 1);
    EXPECT_TRUE(comm.allreduce_or(only0));
  });
}

TEST_P(WorldSizes, AlltoallTransposes) {
  const int n = GetParam();
  run_world(n, [n](Comm& comm) {
    // send[r] = 100*me + r; received[r] must be 100*r + me.
    std::vector<int> send(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) send[r] = 100 * comm.rank() + r;
    const std::vector<int> recv = comm.alltoall(send);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) EXPECT_EQ(recv[r], 100 * r + comm.rank());
  });
}

TEST_P(WorldSizes, AlltoallvVariableCounts) {
  const int n = GetParam();
  run_world(n, [n](Comm& comm) {
    // Rank s sends (s + d) copies of value s*1000+d to rank d.
    std::vector<count_t> counts(static_cast<std::size_t>(n));
    std::vector<int> send;
    for (int d = 0; d < n; ++d) {
      counts[d] = comm.rank() + d;
      for (count_t i = 0; i < counts[d]; ++i)
        send.push_back(comm.rank() * 1000 + d);
    }
    std::vector<count_t> rcounts;
    const std::vector<int> recv = comm.alltoallv(send, counts, &rcounts);
    ASSERT_EQ(rcounts.size(), static_cast<std::size_t>(n));
    std::size_t at = 0;
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(rcounts[s], s + comm.rank());
      for (count_t i = 0; i < rcounts[s]; ++i, ++at) {
        ASSERT_LT(at, recv.size());
        EXPECT_EQ(recv[at], s * 1000 + comm.rank());
      }
    }
    EXPECT_EQ(at, recv.size());
  });
}

TEST_P(WorldSizes, AlltoallvAllEmpty) {
  const int n = GetParam();
  run_world(n, [n](Comm& comm) {
    std::vector<count_t> counts(static_cast<std::size_t>(n), 0);
    const std::vector<double> recv =
        comm.alltoallv(std::vector<double>{}, counts);
    EXPECT_TRUE(recv.empty());
  });
}

TEST_P(WorldSizes, GathervConcatenatesInRankOrder) {
  const int n = GetParam();
  run_world(n, [n](Comm& comm) {
    std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1),
                          comm.rank());
    const std::vector<int> all = comm.gatherv(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(n * (n + 1) / 2));
      std::size_t at = 0;
      for (int r = 0; r < n; ++r)
        for (int i = 0; i <= r; ++i) EXPECT_EQ(all[at++], r);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(WorldSizes, AllgathervEveryoneGetsEverything) {
  const int n = GetParam();
  run_world(n, [n](Comm& comm) {
    std::vector<gid_t> mine{static_cast<gid_t>(comm.rank())};
    const std::vector<gid_t> all = comm.allgatherv(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) EXPECT_EQ(all[r], static_cast<gid_t>(r));
  });
}

TEST_P(WorldSizes, CommStatsCountCollectivesAndBytes) {
  const int n = GetParam();
  run_world(n, [n](Comm& comm) {
    comm.reset_stats();
    comm.barrier();
    std::vector<count_t> counts(static_cast<std::size_t>(n), 1);
    std::vector<std::uint64_t> payload(static_cast<std::size_t>(n), 7);
    comm.alltoallv(payload, counts);
    EXPECT_EQ(comm.stats().collectives, 2);
    // One 8-byte element to each remote rank.
    EXPECT_EQ(comm.stats().bytes_sent,
              static_cast<count_t>((n - 1) * sizeof(std::uint64_t)));
    EXPECT_EQ(comm.stats().messages_sent, n - 1);
    EXPECT_GE(comm.stats().comm_seconds, 0.0);
  });
}

TEST_P(WorldSizes, GlobalBytesSumsRanks) {
  const int n = GetParam();
  run_world(n, [n](Comm& comm) {
    comm.reset_stats();
    comm.barrier();  // stats reset is local; barrier keeps ranks aligned
    std::vector<count_t> counts(static_cast<std::size_t>(n), 2);
    std::vector<std::uint32_t> payload(static_cast<std::size_t>(2 * n), 1);
    comm.alltoallv(payload, counts);
    const count_t expected_per_rank =
        static_cast<count_t>((n - 1) * 2 * sizeof(std::uint32_t));
    EXPECT_EQ(comm.global_bytes_sent(),
              expected_per_rank * static_cast<count_t>(n));
  });
}

TEST_P(WorldSizes, NonblockingAlltoallvMatchesBlocking) {
  const int n = GetParam();
  run_world(n, [&](Comm& comm) {
    // Ragged payload: rank r sends (r + d + 1) values to destination d.
    std::vector<count_t> counts(static_cast<std::size_t>(n));
    std::vector<std::uint64_t> send;
    for (int d = 0; d < n; ++d) {
      counts[static_cast<std::size_t>(d)] =
          static_cast<count_t>(comm.rank() + d + 1);
      for (count_t i = 0; i < counts[static_cast<std::size_t>(d)]; ++i)
        send.push_back(static_cast<std::uint64_t>(comm.rank()) * 1'000 +
                       static_cast<std::uint64_t>(i));
    }
    std::vector<count_t> expect_rcounts;
    std::vector<std::byte> expect;
    const count_t expect_total = comm.alltoallv_bytes(
        send.data(), sizeof(std::uint64_t), counts, expect, &expect_rcounts);

    EXPECT_FALSE(comm.alltoallv_in_flight());
    const count_t announced = comm.alltoallv_bytes_start(
        send.data(), sizeof(std::uint64_t), counts);
    EXPECT_TRUE(comm.alltoallv_in_flight());
    EXPECT_EQ(announced, expect_total);
    // Blocking collectives may run while the exchange is in flight —
    // they use separate publication slots.
    EXPECT_EQ(comm.allreduce_sum<count_t>(1), static_cast<count_t>(n));
    (void)comm.alltoall(std::vector<count_t>(
        static_cast<std::size_t>(n), static_cast<count_t>(comm.rank())));
    std::vector<count_t> rcounts;
    std::vector<std::byte> recv;
    const count_t total = comm.alltoallv_bytes_finish(recv, &rcounts);
    EXPECT_FALSE(comm.alltoallv_in_flight());
    EXPECT_EQ(total, expect_total);
    EXPECT_EQ(rcounts, expect_rcounts);
    EXPECT_EQ(recv, expect);
  });
}

TEST_P(WorldSizes, NonblockingAlltoallvBillsLikeBlocking) {
  const int n = GetParam();
  run_world(n, [&](Comm& comm) {
    const std::vector<count_t> counts(static_cast<std::size_t>(n), 3);
    const std::vector<std::uint64_t> send(3 * static_cast<std::size_t>(n), 7);
    std::vector<std::byte> recv;

    comm.barrier();
    comm.reset_stats();
    (void)comm.alltoallv_bytes(send.data(), sizeof(std::uint64_t), counts,
                               recv);
    const CommStats blocking = comm.stats();

    comm.barrier();
    comm.reset_stats();
    (void)comm.alltoallv_bytes_start(send.data(), sizeof(std::uint64_t),
                                     counts);
    (void)comm.alltoallv_bytes_finish(recv);
    const CommStats split = comm.stats();

    // The start/finish pair is one logical collective with the same
    // wire traffic as the blocking call.
    EXPECT_EQ(split.bytes_sent, blocking.bytes_sent);
    EXPECT_EQ(split.messages_sent, blocking.messages_sent);
    EXPECT_EQ(split.collectives, blocking.collectives);
  });
}

TEST_P(WorldSizes, RunWorldCollectGathersReturnValues) {
  const int n = GetParam();
  const std::vector<int> results = run_world_collect<int>(
      n, [](Comm& comm) { return comm.rank() * 10; });
  ASSERT_EQ(results.size(), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) EXPECT_EQ(results[r], r * 10);
}

TEST_P(WorldSizes, ExceptionPropagatesWithoutDeadlock) {
  const int n = GetParam();
  EXPECT_THROW(
      run_world(n,
                [](Comm& comm) {
                  // Rank 0 dies before the barrier; the others must not
                  // hang and the error must surface to the caller.
                  if (comm.rank() == 0)
                    throw std::runtime_error("rank 0 failure");
                  comm.barrier();
                  std::vector<count_t> v{1};
                  comm.allreduce_sum(v);
                }),
      std::runtime_error);
}

TEST(WorldAborted, CascadeKeepsRootCauseMessage) {
  try {
    run_world(4, [](Comm& comm) {
      if (comm.rank() == 2) throw std::logic_error("root cause");
      for (int i = 0; i < 3; ++i) comm.barrier();
    });
    FAIL() << "expected exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "root cause");
  }
}

TEST(WorldEdge, SingleRankCollectivesAreIdentity) {
  run_world(1, [](Comm& comm) {
    std::vector<int> v{1, 2, 3};
    comm.allreduce_sum(v);
    EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
    const auto r = comm.alltoall(std::vector<int>{42});
    EXPECT_EQ(r, (std::vector<int>{42}));
    EXPECT_EQ(comm.stats().bytes_sent, 0);
  });
}

TEST(WorldEdge, ManySmallWorldsSequentially) {
  for (int i = 0; i < 50; ++i) {
    run_world(3, [](Comm& comm) {
      EXPECT_EQ(comm.allreduce_sum(1), 3);
    });
  }
}

TEST(WorldEdge, LargePayloadRoundtrip) {
  run_world(4, [](Comm& comm) {
    const int n = comm.size();
    std::vector<count_t> counts(static_cast<std::size_t>(n), 50000);
    std::vector<std::uint64_t> payload(static_cast<std::size_t>(50000 * n));
    std::iota(payload.begin(), payload.end(),
              static_cast<std::uint64_t>(comm.rank()) << 32);
    std::vector<count_t> rcounts;
    const auto recv = comm.alltoallv(payload, counts, &rcounts);
    ASSERT_EQ(recv.size(), payload.size());
    // Segment from rank s starts with s<<32 + s*50000... verify heads.
    std::size_t at = 0;
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(recv[at], (static_cast<std::uint64_t>(s) << 32) +
                              static_cast<std::uint64_t>(comm.rank()) * 50000);
      at += 50000;
    }
  });
}

// ---- Tagged nonblocking channels -----------------------------------

TEST_P(WorldSizes, ChannelsCarryConcurrentExchanges) {
  const int n = GetParam();
  run_world(n, [&](Comm& comm) {
    // Three exchanges in flight at once, each with a distinct payload
    // signature, with blocking collectives interleaved between the
    // starts and the finishes.
    constexpr int kChans = 3;
    std::vector<std::vector<std::uint64_t>> sends(kChans);
    std::vector<std::vector<count_t>> counts(
        kChans, std::vector<count_t>(static_cast<std::size_t>(n)));
    std::vector<std::vector<std::byte>> expect(kChans);
    std::vector<std::vector<count_t>> expect_rcounts(kChans);
    for (int c = 0; c < kChans; ++c) {
      for (int d = 0; d < n; ++d) {
        counts[c][static_cast<std::size_t>(d)] =
            static_cast<count_t>((comm.rank() + d + c) % 3 + 1);
        for (count_t i = 0; i < counts[c][static_cast<std::size_t>(d)]; ++i)
          sends[c].push_back(static_cast<std::uint64_t>(c) * 1'000'000 +
                             static_cast<std::uint64_t>(comm.rank()) * 1'000 +
                             static_cast<std::uint64_t>(i));
      }
      (void)comm.alltoallv_bytes(sends[c].data(), sizeof(std::uint64_t),
                                 counts[c], expect[c], &expect_rcounts[c]);
    }

    std::array<int, kChans> chan{};
    for (int c = 0; c < kChans; ++c) {
      chan[c] = comm.find_free_channel();
      EXPECT_EQ(chan[c], c);  // lowest-free, rank-uniform
      (void)comm.alltoallv_bytes_start(sends[c].data(),
                                       sizeof(std::uint64_t), counts[c],
                                       chan[c]);
      EXPECT_TRUE(comm.alltoallv_in_flight(chan[c]));
      EXPECT_EQ(comm.channels_in_flight(), c + 1);
      // Blocking collectives ride their own slots mid-flight.
      EXPECT_EQ(comm.allreduce_sum<count_t>(1), static_cast<count_t>(n));
    }

    // Finish out of start order: 1, 2, 0.
    for (const int c : {1, 2, 0}) {
      std::vector<std::byte> recv;
      std::vector<count_t> rcounts;
      (void)comm.alltoallv_bytes_finish(recv, &rcounts, chan[c]);
      EXPECT_FALSE(comm.alltoallv_in_flight(chan[c]));
      EXPECT_EQ(recv, expect[c]) << "channel " << c;
      EXPECT_EQ(rcounts, expect_rcounts[c]);
      comm.barrier();  // interleaved blocking collective between drains
    }
    EXPECT_EQ(comm.channels_in_flight(), 0);
    // A freed channel is immediately reusable, lowest first.
    EXPECT_EQ(comm.find_free_channel(), 0);
  });
}

TEST(Channels, ExhaustionAndBusyStartThrow) {
  run_world(2, [](Comm& comm) {
    const std::vector<count_t> counts(2, 1);
    const std::vector<std::uint64_t> send(2, 9);
    for (int c = 0; c < Comm::max_channels(); ++c)
      (void)comm.alltoallv_bytes_start(send.data(), sizeof(std::uint64_t),
                                       counts, c);
    EXPECT_EQ(comm.channels_in_flight(), Comm::max_channels());
    EXPECT_THROW((void)comm.find_free_channel(), std::runtime_error);
    EXPECT_THROW((void)comm.alltoallv_bytes_start(
                     send.data(), sizeof(std::uint64_t), counts, 0),
                 std::runtime_error);
    std::vector<std::byte> recv;
    for (int c = 0; c < Comm::max_channels(); ++c)
      (void)comm.alltoallv_bytes_finish(recv, nullptr, c);
    EXPECT_EQ(comm.channels_in_flight(), 0);
  });
}

}  // namespace
}  // namespace xtra::sim
