// Deliberate-misuse tests for the comm-correctness verifier
// (src/verify/, DESIGN.md §8): each checker must fire with an
// attributed error — and must stay silent on correct programs.
//
// Every misuse here is a real protocol violation that, without the
// verifier, would deadlock, corrupt slot reads, or silently produce
// wrong answers; the tests therefore skip when XTRA_VERIFY_COMM is
// compiled out (running them would hang the binary). The always-on
// attribution paths (channel exhaustion and double-start
// diagnostics) run in every build mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/exchanger.hpp"
#include "mpisim/comm.hpp"
#include "util/parallel.hpp"
#include "verify/verify.hpp"

namespace xtra::sim {
namespace {

#define SKIP_WITHOUT_VERIFIER()                                       \
  if constexpr (!verify::kEnabled) {                                  \
    GTEST_SKIP() << "XTRA_VERIFY_COMM is compiled out in this build"; \
  }

/// Run a world expected to die with a ProtocolError; returns its
/// message (empty if nothing was thrown — callers EXPECT on content).
template <typename Fn>
std::string protocol_error_of(int nranks, Fn&& fn) {
  try {
    run_world(nranks, std::forward<Fn>(fn));
  } catch (const verify::ProtocolError& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected ProtocolError, got: " << e.what();
    return {};
  }
  ADD_FAILURE() << "expected ProtocolError, world completed cleanly";
  return {};
}

void expect_contains(const std::string& msg, const std::string& needle) {
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "missing \"" << needle << "\" in:\n"
      << msg;
}

// --- Lockstep checker -------------------------------------------------

TEST(VerifyLockstep, DivergentCollectivesAbortWithPerRankDiff) {
  SKIP_WITHOUT_VERIFIER();
  // rank 0 enters a barrier while rank 1 enters an allreduce: without
  // the verifier rank 1 would deadlock on its second sync after rank 0
  // exits. The fingerprint check turns it into an attributed abort.
  const std::string msg = protocol_error_of(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.barrier();
    } else {
      (void)comm.allreduce_sum<int>(1);
    }
  });
  expect_contains(msg, "lockstep divergence");
  expect_contains(msg, "barrier");
  expect_contains(msg, "allreduce");
  expect_contains(msg, "recent collectives");
}

TEST(VerifyLockstep, ChannelMismatchedStartsDetected) {
  SKIP_WITHOUT_VERIFIER();
  // Channel ids are collective state: rank 0 starting on channel 0
  // while rank 1 starts on channel 1 would pair two half-exchanges
  // that can never complete consistently.
  const std::string msg = protocol_error_of(2, [](Comm& comm) {
    const std::vector<count_t> counts{1, 1};
    const std::vector<std::byte> payload(2 * sizeof(int));
    (void)comm.alltoallv_bytes_start(payload.data(), sizeof(int), counts,
                                     comm.rank() == 0 ? 0 : 1);
    std::vector<std::byte> recv;
    (void)comm.alltoallv_bytes_finish(recv, nullptr, comm.rank() == 0 ? 0 : 1);
  });
  expect_contains(msg, "lockstep divergence");
  expect_contains(msg, "alltoallv_bytes_start [channel 0]");
  expect_contains(msg, "alltoallv_bytes_start [channel 1]");
}

TEST(VerifyLockstep, RankExitingEarlyIsAttributed) {
  SKIP_WITHOUT_VERIFIER();
  // rank 0 returns while rank 1 still communicates: the end-of-world
  // fingerprint meets rank 1's barrier at the same sync point and the
  // divergence names both, instead of deadlocking the teardown.
  const std::string msg = protocol_error_of(2, [](Comm& comm) {
    if (comm.rank() == 1) comm.barrier();
  });
  expect_contains(msg, "lockstep divergence");
  expect_contains(msg, "end-of-world");
}

// --- Channel lifecycle checker -------------------------------

TEST(VerifyLifecycle, ChannelLeakAtTeardownNamesOpener) {
  SKIP_WITHOUT_VERIFIER();
  const std::string msg = protocol_error_of(2, [](Comm& comm) {
    const std::vector<count_t> counts{1, 1};
    static const std::vector<std::byte> payload(2 * sizeof(int));
    (void)comm.alltoallv_bytes_start(payload.data(), sizeof(int), counts, 0,
                                     "leaky-test-exchange");
    // No finish: the rank function returns with the channel in flight.
  });
  expect_contains(msg, "leaked at run_world teardown");
  expect_contains(msg, "channel 0 still in flight");
  expect_contains(msg, "leaky-test-exchange");
}

TEST(VerifyLifecycle, FinishWithoutStartThrows) {
  SKIP_WITHOUT_VERIFIER();
  const std::string msg = protocol_error_of(2, [](Comm& comm) {
    std::vector<std::byte> recv;
    (void)comm.alltoallv_bytes_finish(recv);
  });
  expect_contains(msg, "alltoallv_bytes_finish");
  expect_contains(msg, "no exchange in flight");
}

// --- In-flight aliasing checker ---------------------------------------

TEST(VerifyAliasing, MutatedInFlightPayloadDetectedAtFinish) {
  SKIP_WITHOUT_VERIFIER();
  const std::string msg = protocol_error_of(2, [](Comm& comm) {
    const std::vector<count_t> counts{2, 2};
    std::vector<std::byte> payload(4 * sizeof(int));
    (void)comm.alltoallv_bytes_start(payload.data(), sizeof(int), counts, 0,
                                     "aliased-exchange");
    // The payload belongs to the wire until finish; rank 0 stomping it
    // mid-flight is the bug the checksum catches.
    if (comm.rank() == 0) std::memset(payload.data(), 0x5a, payload.size());
    std::vector<std::byte> recv;
    (void)comm.alltoallv_bytes_finish(recv);
  });
  expect_contains(msg, "in-flight send payload mutated");
  expect_contains(msg, "aliased-exchange");
}

// Exchanger::start reads the caller's buffer in place until finish, so
// the substrate's in-flight checksum is the guard against a caller
// that reuses it early — single-phase and phased alike — and the
// error names the Exchanger that started the exchange.
TEST(VerifyAliasing, MutatedExchangerSendBufferNamesItsLabel) {
  SKIP_WITHOUT_VERIFIER();
  for (const count_t bound : {count_t(0), count_t(2 * sizeof(std::uint64_t))}) {
    const std::string msg = protocol_error_of(2, [&](Comm& comm) {
      comm::Exchanger ex(bound);
      ex.set_label("mutated-exchanger");
      const std::vector<count_t> counts{2, 2};
      std::vector<std::uint64_t> send(4, 7);
      ex.start(comm, send.data(), counts);
      if (comm.rank() == 0) std::fill(send.begin(), send.end(), 0x5a5a5a5au);
      (void)ex.finish<std::uint64_t>(comm);
    });
    expect_contains(msg, "in-flight send payload mutated");
    expect_contains(msg, "mutated-exchanger");
  }
}

// --- Thread-context guard ---------------------------------------------

TEST(VerifyThreadGuard, CommInsideParallelRegionThrows) {
  SKIP_WITHOUT_VERIFIER();
  const std::string msg = protocol_error_of(2, [](Comm& comm) {
    par::for_chunks(1, [&](count_t, count_t, count_t) { comm.barrier(); });
  });
  expect_contains(msg, "sim::Comm::barrier");
  expect_contains(msg, "parallel region");
}

TEST(VerifyThreadGuard, CommInsideWidenedPoolRegionThrows) {
  SKIP_WITHOUT_VERIFIER();
  const std::string msg = protocol_error_of(2, [](Comm& comm) {
    par::ThreadScope threads(4);
    std::vector<count_t> counts(static_cast<std::size_t>(comm.size()), 0);
    par::for_chunks(8 * par::kChunkGrain, [&](count_t, count_t, count_t) {
      (void)comm.alltoallv(std::vector<int>{}, counts);
    });
  });
  expect_contains(msg, "sim::Comm::alltoallv");
  expect_contains(msg, "parallel region");
}

// --- Clean programs stay silent; verifier is observability-only -------

TEST(VerifyCleanRun, ExchangerMatrixRunsCleanUnderVerifier) {
  SKIP_WITHOUT_VERIFIER();
  // Single-phase and phased exchanges use channels heavily; a false
  // positive here would break the whole suite, so pin a clean run of
  // both explicitly.
  for (const count_t bound : {count_t(0), count_t(64)}) {
    run_world(4, [&](Comm& comm) {
      comm::Exchanger ex(bound);
      ex.set_label("clean-run-exchanger");
      const int n = comm.size();
      std::vector<count_t> counts(static_cast<std::size_t>(n));
      std::vector<std::uint64_t> send;
      for (int r = 0; r < n; ++r) {
        counts[static_cast<std::size_t>(r)] = comm.rank() + r + 1;
        for (count_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i)
          send.push_back(static_cast<std::uint64_t>(comm.rank()) * 1000 +
                         static_cast<std::uint64_t>(r));
      }
      // Blocking, then overlapped start/finish, twice each.
      for (int round = 0; round < 2; ++round) {
        std::vector<count_t> rcounts;
        const auto recv = ex.exchange(comm, send, counts, &rcounts);
        count_t expect_total = 0;
        for (int s = 0; s < n; ++s)
          expect_total += s + comm.rank() + 1;
        ASSERT_EQ(static_cast<count_t>(recv.size()), expect_total);
        ex.start(comm, send.data(), counts);
        (void)ex.finish<std::uint64_t>(comm);
      }
    });
  }
}

TEST(VerifyCleanRun, VerifierBarriersAreUnbilled) {
  SKIP_WITHOUT_VERIFIER();
  // The verifier adds an extra sync inside finish; the comm ledger
  // must not see it — one collective per call, exactly as in
  // a non-verify build (bench/check_comm_baseline.py --compare-bench
  // gates the same property end-to-end in CI).
  run_world(2, [](Comm& comm) {
    const std::vector<count_t> counts{1, 1};
    std::vector<std::byte> payload(2 * sizeof(int));
    std::vector<std::byte> recv;

    comm.barrier();
    const count_t before = comm.stats().collectives;
    (void)comm.alltoallv_bytes_start(payload.data(), sizeof(int), counts, 0,
                                     "billing-probe");
    (void)comm.alltoallv_bytes_finish(recv);
    EXPECT_EQ(comm.stats().collectives, before + 1);  // start+finish = one
  });
}

// --- Always-on attribution (runs in every build mode) -----------------

TEST(ChannelAttribution, ExhaustionNamesEveryBusyChannelsOpener) {
  run_world(2, [](Comm& comm) {
    const std::vector<count_t> counts{1, 1};
    static const std::vector<std::byte> payload(2 * sizeof(int));
    std::vector<std::string> labels;
    for (int c = 0; c < kMaxChannels; ++c)
      labels.push_back("opener-" + std::to_string(c));
    for (int c = 0; c < kMaxChannels; ++c)
      (void)comm.alltoallv_bytes_start(payload.data(), sizeof(int), counts, c,
                                       labels[static_cast<std::size_t>(c)]
                                           .c_str());
    try {
      (void)comm.find_free_channel();
      ADD_FAILURE() << "expected channel exhaustion";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("all 8 nonblocking channels are in flight"),
                std::string::npos)
          << msg;
      for (int c = 0; c < kMaxChannels; ++c) {
        EXPECT_NE(msg.find("channel " + std::to_string(c) + ": 'opener-" +
                           std::to_string(c) + "'"),
                  std::string::npos)
            << msg;
      }
    }
    std::vector<std::byte> recv;
    for (int c = 0; c < kMaxChannels; ++c)
      (void)comm.alltoallv_bytes_finish(recv, nullptr, c);
  });
}

TEST(ChannelAttribution, DoubleStartNamesBothParties) {
  run_world(2, [](Comm& comm) {
    const std::vector<count_t> counts{1, 1};
    static const std::vector<std::byte> payload(2 * sizeof(int));
    (void)comm.alltoallv_bytes_start(payload.data(), sizeof(int), counts, 0,
                                     "first-opener");
    try {
      (void)comm.alltoallv_bytes_start(payload.data(), sizeof(int), counts, 0,
                                       "second-opener");
      ADD_FAILURE() << "expected double-start rejection";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("already has an exchange in flight"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("first-opener"), std::string::npos) << msg;
      EXPECT_NE(msg.find("second-opener"), std::string::npos) << msg;
    }
    std::vector<std::byte> recv;
    (void)comm.alltoallv_bytes_finish(recv);
  });
}

}  // namespace
}  // namespace xtra::sim
