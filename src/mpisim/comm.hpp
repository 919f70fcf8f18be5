// Simulated message-passing runtime (the "MPI" substrate).
//
// The paper runs XtraPuLP as MPI+OpenMP on up to 8192 nodes of Blue
// Waters. This environment has no MPI, so — per the documented
// substitution in DESIGN.md — we provide an in-process runtime with the
// same semantics: each *rank* is a std::thread with private data, and
// ranks may exchange data only through the collectives below. Ranks
// run in parallel on the host's cores (the reference host has 4 vCPUs),
// and each rank may fan local work out to its MPI+X worker pool
// (util/parallel.hpp). Because XtraPuLP is bulk-synchronous (local
// compute + Alltoallv + Allreduce per iteration), running the identical
// program over this runtime exercises the same distribution logic,
// ghost-update protocol, and oscillation behaviour as real MPI; only
// absolute wall-clock changes.
//
// Provided collectives (blocking, matching MPI semantics):
//   barrier, bcast, allreduce(sum/max/min), alltoall, alltoallv,
//   gatherv, allgatherv, scan-free reductions of scalars;
// plus a nonblocking alltoallv pair (alltoallv_bytes_start/finish,
// the MPI_Ialltoallv/MPI_Wait shape) so callers can overlap local
// compute with an in-flight exchange. Each rank owns kMaxChannels
// tagged channels (the MPI tag/request analog): up to kMaxChannels
// exchanges may be in flight per rank concurrently, one per channel,
// and blocking collectives may run between any start and its finish —
// they use separate publication slots. Channel ids are collective
// state: every rank must start/finish a matching exchange on the same
// channel, and interleave starts, finishes, and other collectives in
// the same order (find_free_channel() is deterministic for exactly
// this reason).
//
// Every collective accounts the bytes a real MPI rank would put on the
// wire (self-destined data is free), so benches can report
// communication volume — the architecture-independent component of the
// paper's timing results.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"
#include "verify/verify.hpp"

namespace xtra::sim {

/// Thrown on ranks that reach a collective after another rank failed;
/// unwinds the whole world cleanly instead of deadlocking.
struct WorldAborted : std::runtime_error {
  WorldAborted() : std::runtime_error("mpisim world aborted by peer rank") {}
};

/// Per-rank communication statistics.
struct CommStats {
  count_t bytes_sent = 0;      ///< payload bytes leaving this rank
  count_t messages_sent = 0;   ///< point-to-point segments with data
  count_t collectives = 0;     ///< collective invocations
  double comm_seconds = 0.0;   ///< wall time inside collectives
};

/// Tagged in-flight channels per rank: up to this many nonblocking
/// alltoallvs may be pending concurrently on one rank.
inline constexpr int kMaxChannels = 8;

// The verifier sits below this header and mirrors the slot counts.
static_assert(verify::kChannelSlots == kMaxChannels);

namespace detail {

/// Shared state for one world of ranks. Internal to the runtime.
class WorldState {
 public:
  explicit WorldState(int nranks)
      : nranks_(nranks),
        barrier_(nranks),
        slots_(static_cast<std::size_t>(nranks)),
        aux_slots_(static_cast<std::size_t>(nranks)),
        size_slots_(static_cast<std::size_t>(nranks), 0),
        async_slots_(static_cast<std::size_t>(nranks) * kMaxChannels),
        async_aux_slots_(static_cast<std::size_t>(nranks) * kMaxChannels),
        stats_(static_cast<std::size_t>(nranks)),
        // Inert (zero-rank) when the verifier is compiled out — the
        // hooks that would key into it fold away too.
        ledger_(verify::kEnabled ? nranks : 0) {}

  int nranks() const { return nranks_; }

  /// Barrier that converts a peer failure into WorldAborted.
  void sync() {
    barrier_.arrive_and_wait();
    if (failed_.load(std::memory_order_acquire)) throw WorldAborted{};
  }

  /// Called exactly once by a rank that is exiting with an exception:
  /// marks the world failed and permanently removes the rank from the
  /// barrier so surviving ranks cannot deadlock.
  void abandon() {
    failed_.store(true, std::memory_order_release);
    barrier_.arrive_and_drop();
  }

  const void*& slot(int rank) { return slots_[static_cast<std::size_t>(rank)]; }
  const void*& aux_slot(int rank) {
    return aux_slots_[static_cast<std::size_t>(rank)];
  }
  std::size_t& size_slot(int rank) {
    return size_slots_[static_cast<std::size_t>(rank)];
  }
  const void*& async_slot(int rank, int channel) {
    return async_slots_[static_cast<std::size_t>(channel) *
                            static_cast<std::size_t>(nranks_) +
                        static_cast<std::size_t>(rank)];
  }
  const void*& async_aux_slot(int rank, int channel) {
    return async_aux_slots_[static_cast<std::size_t>(channel) *
                                static_cast<std::size_t>(nranks_) +
                            static_cast<std::size_t>(rank)];
  }

  CommStats& stats(int rank) { return stats_[static_cast<std::size_t>(rank)]; }

  verify::WorldLedger& ledger() { return ledger_; }

 private:
  int nranks_;
  std::barrier<> barrier_;
  std::atomic<bool> failed_{false};
  // Publication slots: each rank writes only its own entry between the
  // two barriers of a collective, so no locking is needed.
  std::vector<const void*> slots_;
  std::vector<const void*> aux_slots_;
  std::vector<std::size_t> size_slots_;
  // Dedicated per-(channel, rank) slots for in-flight nonblocking
  // alltoallvs: a pending alltoallv_bytes_start stays published across
  // any interleaved blocking collectives (which use the slots above)
  // and across starts/finishes on other channels.
  std::vector<const void*> async_slots_;
  std::vector<const void*> async_aux_slots_;
  std::vector<CommStats> stats_;
  verify::WorldLedger ledger_;
};

}  // namespace detail

/// Handle through which one rank participates in its world. Move-only
/// view; cheap to pass by reference into algorithm code.
class Comm {
 public:
  Comm(detail::WorldState* world, int rank) : world_(world), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return world_->nranks(); }
  bool is_root() const { return rank_ == 0; }

  /// Block until every rank in the world reaches the barrier.
  void barrier() {
    vguard("barrier");
    Timer t;
    vsync(verify::Op::kBarrier, -1, 0, 0);
    note(0, 0, t);
  }

  /// Broadcast `data` from `root` to all ranks (resizing receivers).
  template <typename T>
  void bcast(std::vector<T>& data, int root = 0) {
    vguard("bcast");
    Timer t;
    if (rank_ == root) {
      world_->slot(root) = data.data();
      world_->size_slot(root) = data.size();
    }
    // The payload length is root-determined (receivers resize), so it
    // is a local diagnostic, not part of the uniform fingerprint.
    vsync(verify::Op::kBcast, root, sizeof(T), data.size());
    if (rank_ != root) {
      data.resize(world_->size_slot(root));
      std::memcpy(data.data(), world_->slot(root), data.size() * sizeof(T));
    }
    world_->sync();
    note(rank_ == root ? static_cast<count_t>(data.size() * sizeof(T)) *
                             (size() - 1)
                       : 0,
         rank_ == root ? size() - 1 : 0, t);
  }

  /// Broadcast a single trivially-copyable value from root.
  template <typename T>
  T bcast_value(T value, int root = 0) {
    std::vector<T> v{value};
    bcast(v, root);
    return v[0];
  }

  /// Element-wise in-place allreduce over equal-length vectors.
  /// `op` must be associative and commutative, e.g. std::plus<>{}.
  template <typename T, typename Op>
  void allreduce(std::vector<T>& data, Op op) {
    vguard("allreduce");
    Timer t;
    world_->slot(rank_) = data.data();
    world_->size_slot(rank_) = data.size();
    vsync(verify::Op::kAllreduce, -1,
          verify::hash_mix(sizeof(T), data.size()), 0);
    std::vector<T> acc(data.size());
    for (int r = 0; r < size(); ++r) {
      XTRA_ASSERT_MSG(world_->size_slot(r) == data.size(),
                      "allreduce length mismatch across ranks");
      const T* src = static_cast<const T*>(world_->slot(r));
      if (r == 0) {
        std::copy(src, src + data.size(), acc.begin());
      } else {
        for (std::size_t i = 0; i < data.size(); ++i)
          acc[i] = op(acc[i], src[i]);
      }
    }
    world_->sync();
    data = std::move(acc);
    // Ring-allreduce cost model: every rank sends its payload once
    // (nothing goes on the wire in a single-rank world).
    note(size() > 1 ? static_cast<count_t>(data.size() * sizeof(T)) : 0,
         size() > 1 ? 1 : 0, t);
  }

  template <typename T>
  void allreduce_sum(std::vector<T>& data) {
    allreduce(data, std::plus<T>{});
  }
  template <typename T>
  void allreduce_max(std::vector<T>& data) {
    allreduce(data, [](T a, T b) { return a > b ? a : b; });
  }
  template <typename T>
  void allreduce_min(std::vector<T>& data) {
    allreduce(data, [](T a, T b) { return a < b ? a : b; });
  }

  template <typename T>
  T allreduce_sum(T value) {
    std::vector<T> v{value};
    allreduce_sum(v);
    return v[0];
  }
  template <typename T>
  T allreduce_max(T value) {
    std::vector<T> v{value};
    allreduce_max(v);
    return v[0];
  }
  template <typename T>
  T allreduce_min(T value) {
    std::vector<T> v{value};
    allreduce_min(v);
    return v[0];
  }

  /// Logical AND/OR reductions for convergence tests.
  bool allreduce_and(bool value) {
    return allreduce_min<std::uint8_t>(value ? 1 : 0) != 0;
  }
  bool allreduce_or(bool value) {
    return allreduce_max<std::uint8_t>(value ? 1 : 0) != 0;
  }

  /// MPI_Alltoall with exactly one element per destination rank.
  /// send.size() == size(); result[r] is what rank r sent to us.
  template <typename T>
  std::vector<T> alltoall(const std::vector<T>& send) {
    vguard("alltoall");
    XTRA_ASSERT(send.size() == static_cast<std::size_t>(size()));
    Timer t;
    world_->slot(rank_) = send.data();
    vsync(verify::Op::kAlltoall, -1, sizeof(T), 0);
    std::vector<T> recv(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r)
      recv[static_cast<std::size_t>(r)] =
          static_cast<const T*>(world_->slot(r))[rank_];
    world_->sync();
    note(static_cast<count_t>((size() - 1) * sizeof(T)), size() - 1, t);
    return recv;
  }

  /// MPI_Alltoallv. sendcounts[r] elements destined for rank r are laid
  /// out contiguously in `send` (offsets are the prefix sums of
  /// sendcounts). Returns the concatenated segments received from ranks
  /// 0..size()-1; if `recvcounts_out` is non-null it receives the
  /// per-source counts.
  template <typename T>
  std::vector<T> alltoallv(const std::vector<T>& send,
                           const std::vector<count_t>& sendcounts,
                           std::vector<count_t>* recvcounts_out = nullptr) {
    vguard("alltoallv");
    XTRA_ASSERT(sendcounts.size() == static_cast<std::size_t>(size()));
    Timer t;
    std::vector<count_t> sendoffsets(sendcounts.size() + 1, 0);
    for (std::size_t i = 0; i < sendcounts.size(); ++i)
      sendoffsets[i + 1] = sendoffsets[i] + sendcounts[i];
    XTRA_ASSERT_MSG(
        static_cast<std::size_t>(sendoffsets.back()) == send.size(),
        "alltoallv sendcounts must sum to send buffer length");

    world_->slot(rank_) = send.data();
    world_->aux_slot(rank_) = sendcounts.data();
    vsync(verify::Op::kAlltoallv, -1, sizeof(T), vhash_counts(sendcounts));

    std::vector<count_t> recvcounts(static_cast<std::size_t>(size()));
    count_t total = 0;
    for (int r = 0; r < size(); ++r) {
      const auto* counts = static_cast<const count_t*>(world_->aux_slot(r));
      recvcounts[static_cast<std::size_t>(r)] = counts[rank_];
      total += counts[rank_];
    }
    std::vector<T> recv(static_cast<std::size_t>(total));
    count_t out = 0;
    for (int r = 0; r < size(); ++r) {
      const auto* counts = static_cast<const count_t*>(world_->aux_slot(r));
      count_t offset = 0;
      for (int q = 0; q < rank_; ++q) offset += counts[q];
      const T* src = static_cast<const T*>(world_->slot(r)) + offset;
      std::copy(src, src + counts[rank_], recv.begin() + out);
      out += counts[rank_];
    }
    world_->sync();

    count_t bytes = 0;
    count_t msgs = 0;
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      if (sendcounts[static_cast<std::size_t>(r)] > 0) {
        bytes += sendcounts[static_cast<std::size_t>(r)] *
                 static_cast<count_t>(sizeof(T));
        ++msgs;
      }
    }
    note(bytes, msgs, t);
    if (recvcounts_out) *recvcounts_out = std::move(recvcounts);
    return recv;
  }

  static constexpr int max_channels() { return kMaxChannels; }

  /// Lowest channel with no exchange in flight on this rank. Because
  /// channels are acquired and released only by collective calls, the
  /// in-flight set is identical on every rank and the scan is
  /// rank-uniform — callers may use the result as a collective channel
  /// id without agreeing on it explicitly. Throws std::runtime_error
  /// when all kMaxChannels channels are pending (channel exhaustion is
  /// a caller bug worth a catchable diagnostic, not an abort).
  int find_free_channel() const {
    for (int c = 0; c < kMaxChannels; ++c)
      if (!async_[static_cast<std::size_t>(c)].active) return c;
    // Exhaustion diagnostic names every busy channel's opener (the
    // label passed to alltoallv_bytes_start) and when it started, so
    // the leaked/forgotten finish is findable without a debugger.
    std::string msg = "mpisim: all " + std::to_string(kMaxChannels) +
                      " nonblocking channels are in flight on this rank "
                      "(rank " +
                      std::to_string(rank_) + "):";
    for (int c = 0; c < kMaxChannels; ++c) {
      const AsyncState& ch = async_[static_cast<std::size_t>(c)];
      count_t staged = 0;
      for (const count_t n : ch.counts) staged += n;
      msg += "\n  channel " + std::to_string(c) + ": '" +
             (ch.label ? ch.label : "(unlabeled)") +
             "' — started at this rank's collective #" +
             std::to_string(ch.opened_at) + ", " +
             std::to_string(staged * static_cast<count_t>(ch.elem)) +
             " bytes staged";
    }
    throw std::runtime_error(msg);
  }

  /// Untyped MPI_Ialltoallv post over elements of `elem_size` bytes —
  /// the primitive the comm layer's Exchanger builds on — on a tagged
  /// channel (semantics of the typed alltoallv). Publishes this rank's send buffer and
  /// per-destination counts, then returns the number of elements that
  /// will arrive. `send` must stay valid and unmodified until the
  /// matching alltoallv_bytes_finish returns (the counts are copied
  /// internally and need not). Up to kMaxChannels exchanges may be in
  /// flight per rank, one per channel; blocking collectives may run
  /// between any start and its finish — they use separate publication
  /// slots. Collective: every rank must use the same channel for a
  /// matching exchange and interleave starts, finishes, and other
  /// collectives in the same order (finishes need not be in start
  /// order). Throws std::runtime_error if `channel` is already busy.
  count_t alltoallv_bytes_start(const void* send, std::size_t elem_size,
                                const std::vector<count_t>& sendcounts,
                                int channel = 0,
                                const char* label = nullptr) {
    vguard("alltoallv_bytes_start");
    XTRA_ASSERT(channel >= 0 && channel < kMaxChannels);
    AsyncState& ch = async_[static_cast<std::size_t>(channel)];
    if (ch.active)
      throw std::runtime_error(
          "mpisim: channel " + std::to_string(channel) +
          " already has an exchange in flight (" +
          std::string(ch.label ? ch.label : "(unlabeled)") +
          ", started at this rank's collective #" +
          std::to_string(ch.opened_at) + "); start by '" +
          (label ? label : "(unlabeled)") + "' rejected");
    XTRA_ASSERT(sendcounts.size() == static_cast<std::size_t>(size()));
    Timer t;
#ifndef NDEBUG
    count_t send_total = 0;
    for (const count_t c : sendcounts) send_total += c;
    XTRA_ASSERT_MSG(send_total == 0 || send != nullptr,
                    "alltoallv_bytes_start needs a send buffer when counts > 0");
#endif
    // Counts are published from rank-owned storage so the caller's
    // vector is free to be reused while the exchange is in flight.
    ch.counts = sendcounts;
    ch.elem = elem_size;
    ch.label = label;
    ch.opened_at = world_->stats(rank_).collectives;
    world_->async_slot(rank_, channel) = send;
    world_->async_aux_slot(rank_, channel) = ch.counts.data();
    if constexpr (verify::kEnabled) {
      // Checksum the published payload: it belongs to the wire until
      // finish. Staged extent = sum(counts) * elem.
      count_t staged = 0;
      for (const count_t c : sendcounts) staged += c;
      world_->ledger().channel_open(
          rank_, channel, label, send,
          static_cast<std::size_t>(staged) * elem_size);
    }
    vsync(verify::Op::kA2avStart, channel, elem_size,
          vhash_counts(sendcounts));
    // Every rank has published; peers keep their slots untouched until
    // the finish barrier, so arrival counts are already knowable here.
    ch.recvcounts.resize(static_cast<std::size_t>(size()));
    ch.total = 0;
    for (int r = 0; r < size(); ++r) {
      const auto* counts =
          static_cast<const count_t*>(world_->async_aux_slot(r, channel));
      ch.recvcounts[static_cast<std::size_t>(r)] = counts[rank_];
      ch.total += counts[rank_];
    }
    ch.active = true;
    ch.seconds = t.seconds();
    return ch.total;
  }

  /// Blocking half (MPI_Wait): drains the exchange pending on `channel`
  /// into `recv` and releases the published buffers. Accounts the pair
  /// as a single collective. Returns the number of elements received.
  count_t alltoallv_bytes_finish(std::vector<std::byte>& recv,
                                 std::vector<count_t>* recvcounts_out =
                                     nullptr,
                                 int channel = 0) {
    vguard("alltoallv_bytes_finish");
    XTRA_ASSERT(channel >= 0 && channel < kMaxChannels);
    AsyncState& ch = async_[static_cast<std::size_t>(channel)];
    if constexpr (verify::kEnabled) {
      if (!ch.active)
        throw verify::ProtocolError(
            "comm verifier: alltoallv_bytes_finish on channel " +
            std::to_string(channel) + " with no exchange in flight (rank " +
            std::to_string(rank_) +
            "; nothing was started, or it was already finished)");
    }
    XTRA_ASSERT_MSG(ch.active,
                    "alltoallv_bytes_finish without a pending start");
    Timer t;
    if constexpr (verify::kEnabled) {
      // The published payload must be byte-identical to what start
      // checksummed — it belonged to the wire the whole flight. Checked
      // before the lockstep point, so a rank that throws here is gone
      // from the barrier before any peer reads its payload.
      world_->ledger().channel_verify(rank_, channel);
      // Extra (unbilled) lockstep point: catches ranks finishing
      // different channels at the same step before slot reads tear.
      vsync(verify::Op::kA2avFinish, channel, ch.elem, 0);
    }
    recv.resize(static_cast<std::size_t>(ch.total) * ch.elem);
    std::size_t out = 0;
    for (int r = 0; r < size(); ++r) {
      const auto* counts =
          static_cast<const count_t*>(world_->async_aux_slot(r, channel));
      if (counts[rank_] == 0) continue;
      count_t offset = 0;
      for (int q = 0; q < rank_; ++q) offset += counts[q];
      const auto* src =
          static_cast<const std::byte*>(world_->async_slot(r, channel)) +
          static_cast<std::size_t>(offset) * ch.elem;
      const std::size_t len =
          static_cast<std::size_t>(counts[rank_]) * ch.elem;
      std::memcpy(recv.data() + out, src, len);
      out += len;
    }
    world_->sync();

    count_t bytes = 0;
    count_t msgs = 0;
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      if (ch.counts[static_cast<std::size_t>(r)] > 0) {
        bytes += ch.counts[static_cast<std::size_t>(r)] *
                 static_cast<count_t>(ch.elem);
        ++msgs;
      }
    }
    note_seconds(bytes, msgs, ch.seconds + t.seconds());
    ch.active = false;
    ch.label = nullptr;
    if constexpr (verify::kEnabled) {
      world_->ledger().channel_close(rank_, channel);
    }
    if (recvcounts_out) *recvcounts_out = ch.recvcounts;
    return ch.total;
  }

  /// Whether this rank has a started-but-unfinished alltoallv on
  /// `channel`.
  bool alltoallv_in_flight(int channel = 0) const {
    XTRA_ASSERT(channel >= 0 && channel < kMaxChannels);
    return async_[static_cast<std::size_t>(channel)].active;
  }

  /// Number of channels with a pending exchange on this rank.
  int channels_in_flight() const {
    int n = 0;
    for (const AsyncState& ch : async_) n += ch.active ? 1 : 0;
    return n;
  }

  /// Gather variable-length contributions to `root` (others get {}).
  template <typename T>
  std::vector<T> gatherv(const std::vector<T>& send, int root = 0) {
    vguard("gatherv");
    Timer t;
    world_->slot(rank_) = send.data();
    world_->size_slot(rank_) = send.size();
    vsync(verify::Op::kGatherv, root, sizeof(T), send.size());
    std::vector<T> recv;
    if (rank_ == root) {
      std::size_t total = 0;
      for (int r = 0; r < size(); ++r) total += world_->size_slot(r);
      recv.reserve(total);
      for (int r = 0; r < size(); ++r) {
        const T* src = static_cast<const T*>(world_->slot(r));
        recv.insert(recv.end(), src, src + world_->size_slot(r));
      }
    }
    world_->sync();
    note(rank_ == root ? 0
                       : static_cast<count_t>(send.size() * sizeof(T)),
         rank_ == root ? 0 : 1, t);
    return recv;
  }

  /// Allgatherv: every rank receives the concatenation of all
  /// contributions in rank order.
  template <typename T>
  std::vector<T> allgatherv(const std::vector<T>& send) {
    vguard("allgatherv");
    Timer t;
    world_->slot(rank_) = send.data();
    world_->size_slot(rank_) = send.size();
    vsync(verify::Op::kAllgatherv, -1, sizeof(T), send.size());
    std::size_t total = 0;
    for (int r = 0; r < size(); ++r) total += world_->size_slot(r);
    std::vector<T> recv;
    recv.reserve(total);
    for (int r = 0; r < size(); ++r) {
      const T* src = static_cast<const T*>(world_->slot(r));
      recv.insert(recv.end(), src, src + world_->size_slot(r));
    }
    world_->sync();
    note(static_cast<count_t>(send.size() * sizeof(T)) * (size() - 1),
         size() - 1, t);
    return recv;
  }

  /// This rank's communication statistics (valid any time).
  const CommStats& stats() const { return world_->stats(rank_); }
  /// Reset this rank's statistics (callers should barrier around this).
  void reset_stats() { world_->stats(rank_) = CommStats{}; }

  /// Sum of bytes_sent across all ranks; collective (must be called by
  /// every rank).
  count_t global_bytes_sent() {
    return allreduce_sum<count_t>(stats().bytes_sent);
  }

  /// Field-wise sum of every rank's statistics, snapshotted before the
  /// reduction (the reductions this call performs are not included).
  /// Collective; the benches' one-stop aggregate.
  CommStats world_stats() {
    const CommStats mine = stats();
    std::vector<count_t> c{mine.bytes_sent, mine.messages_sent,
                           mine.collectives};
    allreduce_sum(c);
    const double seconds = allreduce_sum(mine.comm_seconds);
    CommStats out;
    out.bytes_sent = c[0];
    out.messages_sent = c[1];
    out.collectives = c[2];
    out.comm_seconds = seconds;
    return out;
  }

  /// Teardown checks, called by run_world after the rank function
  /// returns (no-op when the verifier is compiled out): leaked
  /// channels throw with the opener's attribution, then a
  /// final lockstep fingerprint converts "this rank exited while peers
  /// still communicate" into an attributed divergence error instead of
  /// a deadlock.
  void verify_end_of_world() {
    if constexpr (verify::kEnabled) {
      std::string leaks;
      for (int c = 0; c < kMaxChannels; ++c) {
        if (!async_[static_cast<std::size_t>(c)].active) continue;
        leaks += "\n  channel " + std::to_string(c) + " still in flight (" +
                 world_->ledger().channel_attribution(rank_, c) + ")";
      }
      if (!leaks.empty())
        throw verify::ProtocolError(
            "comm verifier: comm resources leaked at run_world teardown on "
            "rank " +
            std::to_string(rank_) + ":" + leaks);
      vsync(verify::Op::kEndOfWorld, -1, 0, 0);
    }
  }

 private:
  // --- Verifier hooks (fold to nothing without XTRA_VERIFY_COMM) -----
  /// Entry assertion: collectives must run on the rank thread, never
  /// inside a par:: parallel region.
  static void vguard(const char* entry) {
    if constexpr (verify::kEnabled) verify::thread_guard(entry);
  }

  /// Lockstep-checked barrier, replacing a collective's first
  /// world_->sync(): record this rank's fingerprint, cross the
  /// barrier, cross-check every rank's fingerprint. `uniform` hashes
  /// only rank-uniform arguments; `local` is a per-rank diagnostic
  /// hash shown in divergence traces.
  void vsync(verify::Op op, int id, std::uint64_t uniform,
             std::uint64_t local) {
    if constexpr (verify::kEnabled) {
      world_->ledger().begin(rank_, op, id, uniform, local);
      world_->sync();
      world_->ledger().check(rank_);
    } else {
      world_->sync();
    }
  }

  /// Hash of a counts vector for trace diagnostics; free in
  /// non-verify builds.
  static std::uint64_t vhash_counts(const std::vector<count_t>& counts) {
    if constexpr (verify::kEnabled)
      return verify::fnv1a(counts.data(), counts.size() * sizeof(count_t));
    else
      return 0;
  }

  void note(count_t bytes, count_t msgs, const Timer& t) {
    note_seconds(bytes, msgs, t.seconds());
  }

  void note_seconds(count_t bytes, count_t msgs, double seconds) {
    CommStats& s = world_->stats(rank_);
    s.bytes_sent += bytes;
    s.messages_sent += msgs;
    s.collectives += 1;
    s.comm_seconds += seconds;
  }

  detail::WorldState* world_;
  int rank_;

  // Pending nonblocking-alltoallv state, one slot per channel.
  struct AsyncState {
    bool active = false;
    std::size_t elem = 0;
    count_t total = 0;
    double seconds = 0.0;  ///< wall time spent inside the start call
    std::vector<count_t> counts;      ///< published to peers
    std::vector<count_t> recvcounts;  ///< per-source arrivals
    /// Always-on attribution for exhaustion/double-start diagnostics:
    /// the opener's label and this rank's collective count at start.
    const char* label = nullptr;
    count_t opened_at = 0;
  };
  std::array<AsyncState, kMaxChannels> async_{};
};

/// Launch `nranks` rank threads, each running fn(comm). Blocks until
/// all ranks finish; rethrows the first rank exception (after cleanly
/// unwinding the rest of the world).
void run_world(int nranks, const std::function<void(Comm&)>& fn);

/// run_world, collecting fn's per-rank return values in rank order.
template <typename T>
std::vector<T> run_world_collect(int nranks,
                                 const std::function<T(Comm&)>& fn) {
  std::vector<T> results(static_cast<std::size_t>(nranks));
  run_world(nranks, [&](Comm& comm) {
    results[static_cast<std::size_t>(comm.rank())] = fn(comm);
  });
  return results;
}

}  // namespace xtra::sim
