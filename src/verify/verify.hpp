// Communication-correctness verifier (the MUST-style checking layer).
//
// The substrate's correctness rules — rank-uniform collective order,
// same-channel-on-every-rank, in-flight buffer immutability, no comm
// from worker threads — are protocol contracts: violating them
// produces hangs or silently wrong answers, never a crash at the
// faulty call site. This layer mechanizes those contracts. It is
// compiled in when XTRA_VERIFY_COMM is defined (CMake option of the
// same name; ON by default in Debug builds, always OFF in Release
// unless forced) and costs nothing when absent: every hook in
// sim::Comm folds to a no-op behind `if constexpr`.
//
// Checkers (DESIGN.md §8 has the rule → detector → error table):
//
//  * Lockstep: every collective call records a packed fingerprint
//    (op kind, channel/root id, a hash of the rank-uniform
//    arguments) into a per-world ledger slot immediately before its
//    first barrier; immediately after, every rank cross-checks all
//    slots. Divergence — two ranks entering *different* collectives at
//    the same barrier point — aborts the world with a per-rank
//    fingerprint table and this rank's recent call trace, instead of
//    deadlocking or corrupting slot reads. Per-rank-varying arguments
//    (send counts, payload sizes) are hashed into the trace for the
//    diagnostic but never cross-compared: they differ legitimately.
//  * Channel lifecycle: start/finish are bracketed in per-rank guards
//    carrying an attribution tag (caller label + the rank's collective
//    count at open). Double-start, finish-without-start, and leaks at
//    run_world teardown (channel still in flight when the rank function
//    returns) all throw with the opener's attribution.
//  * In-flight aliasing: the published send payload is checksummed at
//    start and re-verified at finish. A mismatch means the caller
//    mutated a buffer the wire still owned.
//  * Thread context: every sim::Comm entry asserts the calling thread
//    is not inside a par::for_chunks region — pool workers (and chunk
//    bodies on the rank thread) must never touch comm (DESIGN.md §6).
//
// The verifier is observability-only with respect to the comm ledger:
// it adds no collectives, bytes, or messages to CommStats (its extra
// barriers are never note()d), so verifier-on and verifier-off runs
// produce identical gated wire metrics — bench/check_comm_baseline.py
// --compare-bench asserts exactly that in CI.
//
// Errors are thrown as verify::ProtocolError (a std::runtime_error),
// so a failing rank unwinds its world cleanly through the existing
// abandon() machinery and run_world rethrows the attributed error —
// tests assert on it directly (tests/test_verify.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace xtra::verify {

#if defined(XTRA_VERIFY_COMM) && XTRA_VERIFY_COMM
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// Mirrors sim::kMaxChannels (static_asserted in mpisim/comm.hpp —
/// verify.hpp sits below the substrate and cannot include it).
inline constexpr int kChannelSlots = 8;

/// Entries kept in each rank's recent-call ring for divergence reports.
inline constexpr int kTraceLen = 16;

/// A comm-protocol violation, attributed to the offending call. Thrown
/// on the rank that detects it; run_world unwinds the world and
/// rethrows.
struct ProtocolError : std::runtime_error {
  explicit ProtocolError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Collective kinds that carry a lockstep fingerprint.
enum class Op : std::uint8_t {
  kNone = 0,
  kBarrier,
  kBcast,
  kAllreduce,
  kAlltoall,
  kAlltoallv,
  kAlltoallvBytes,
  kA2avStart,
  kA2avFinish,
  kGatherv,
  kAllgatherv,
  kEndOfWorld,
};

const char* op_name(Op op);

/// FNV-1a over raw bytes — the payload/counts checksum.
std::uint64_t fnv1a(const void* data, std::size_t bytes);
/// Order-sensitive combine for small argument tuples.
inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Packed lockstep fingerprint: op(6 bits) | id+1 (10 bits) | a 48-bit
/// fold of the rank-uniform argument hash. Ids are channels or
/// bcast/gatherv roots; -1 (no id) packs to 0.
std::uint64_t pack_fingerprint(Op op, int id, std::uint64_t uniform);
Op fingerprint_op(std::uint64_t fp);
int fingerprint_id(std::uint64_t fp);

/// One entry of a rank's recent-call ring.
struct TraceEntry {
  Op op = Op::kNone;
  int id = -1;
  std::uint64_t uniform = 0;  ///< rank-uniform argument hash
  std::uint64_t local = 0;    ///< per-rank hash (counts/sizes), diagnostic only
  std::uint64_t seq = 0;      ///< this rank's collective ordinal
};

/// Per-world verifier state. Lives inside detail::WorldState; every
/// hook is keyed by rank. Each rank writes only its own slots; the
/// fingerprint slots are double-buffered atomics read cross-rank after
/// a barrier (the barrier is the happens-before edge).
class WorldLedger {
 public:
  explicit WorldLedger(int nranks);

  // --- Lockstep ------------------------------------------------------
  /// Record this rank's fingerprint for the collective it is about to
  /// sync on. Call immediately before the collective's first barrier.
  void begin(int rank, Op op, int id, std::uint64_t uniform,
             std::uint64_t local);
  /// Cross-check every rank's fingerprint for the barrier generation
  /// this rank just passed. Call immediately after the collective's
  /// first barrier. Throws ProtocolError on divergence.
  void check(int rank) const;

  // --- Channel guards (two-sided in-flight exchanges) ----------------
  void channel_open(int rank, int channel, const char* label,
                    const void* base, std::size_t bytes);
  /// Re-verify the published payload is byte-identical to what start
  /// checksummed. Throws ProtocolError naming the opener on mismatch.
  void channel_verify(int rank, int channel) const;
  void channel_close(int rank, int channel);

  /// Diagnostic description of an open channel guard ("opened by 'x'
  /// at this rank's collective #n"), or "idle".
  std::string channel_attribution(int rank, int channel) const;

  int nranks() const { return nranks_; }

 private:
  struct ChannelGuard {
    bool open = false;
    const char* label = nullptr;
    const std::byte* base = nullptr;
    std::size_t bytes = 0;
    std::uint64_t checksum = 0;
    std::uint64_t opened_seq = 0;
  };
  struct RankState {
    /// Double-buffered packed fingerprints, indexed by (seq & 1): the
    /// writer's next begin targets the other slot, and a barrier
    /// always separates a slot's write from every cross-rank read, so
    /// reads are race-free in lockstep programs.
    std::array<std::atomic<std::uint64_t>, 2> fp{};
    std::uint64_t seq = 0;  ///< collectives begun by this rank
    std::array<TraceEntry, kTraceLen> trace{};
    std::array<ChannelGuard, kChannelSlots> channels{};
  };

  std::string describe_divergence(int rank, std::uint64_t mine) const;
  std::string trace_tail(int rank, int max_entries) const;

  int nranks_ = 0;
  std::vector<RankState> ranks_;
};

/// Throws ProtocolError if the calling thread is inside a
/// par::for_chunks region: chunk bodies and pool workers must never
/// touch sim::Comm (the MPI+X contract, DESIGN.md §6).
void thread_guard(const char* entry);

}  // namespace xtra::verify
