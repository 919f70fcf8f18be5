// CoalescingExchanger — cross-superstep message coalescing.
//
// At high rank counts a superstep's per-destination runs can shrink to
// a handful of records, and the exchange cost becomes per-message
// overhead rather than bytes (the regime remote-fetch systems like RFP
// are built around). This wrapper batches staged runs *across
// supersteps*: enqueue() appends a round's records to per-destination
// pending buffers and the rounds only hit the wire when some rank's
// pending payload reaches the flush threshold (agreed collectively,
// one allreduce_or per enqueue, so every rank flushes the same round)
// or when the caller flushes explicitly (end of a sweep, convergence).
// In explicit-flush-only mode (flush_bytes == 0) the agreement
// collective is elided — every rank knows the answer — so enqueue is
// then purely local.
//
// Delivery contract: a flush returns the concatenated arrivals grouped
// by source rank; within one source, records appear in enqueue order
// (round by round, each round in its staged destination order). The
// wire trip itself goes through a normal Exchanger, so max_send_bytes
// phasing applies, and results are independent of it. Callers own the
// deferred-delivery semantics — only updates whose consumers tolerate
// a bounded lag (or that are explicitly flushed before being read)
// should be enqueued.
#pragma once

#include <cstring>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "comm/exchanger.hpp"
#include "mpisim/comm.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace xtra::comm {

class CoalescingExchanger {
 public:
  /// flush_bytes: pending-payload threshold (per rank) that triggers a
  /// collective flush; 0 means only explicit flush() ships anything.
  /// max_send_bytes configures the inner wire engine.
  explicit CoalescingExchanger(count_t flush_bytes,
                               count_t max_send_bytes = 0)
      : flush_bytes_(flush_bytes), ex_(max_send_bytes) {
    ex_.set_label("comm::CoalescingExchanger");
  }

  /// Collective: stage one round's records (counts[r] per destination,
  /// destination-grouped in `send`) and agree whether to flush. When
  /// any rank's pending payload has reached flush_bytes, every rank
  /// flushes and the arrivals are returned; otherwise nullopt (the
  /// records stay pending). One allreduce_or either way — except with
  /// flush_bytes == 0, where the agreement is elided and enqueue is
  /// purely local.
  template <typename T>
  std::optional<std::span<const T>> enqueue(
      sim::Comm& comm, const T* send, const std::vector<count_t>& counts,
      std::vector<count_t>* recvcounts_out = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "wire records must be trivially copyable");
    stage(comm, reinterpret_cast<const std::byte*>(send), sizeof(T), counts);
    // Explicit-flush-only mode skips the agreement collective: every
    // rank knows the answer (flush_bytes_ is rank-uniform).
    if (flush_bytes_ == 0) return std::nullopt;
    if (!comm.allreduce_or(pending_bytes_ >= flush_bytes_))
      return std::nullopt;
    return flush<T>(comm, recvcounts_out);
  }

  template <typename T>
  std::optional<std::span<const T>> enqueue(
      sim::Comm& comm, const std::vector<T>& send,
      const std::vector<count_t>& counts,
      std::vector<count_t>* recvcounts_out = nullptr) {
    return enqueue(comm, send.data(), counts, recvcounts_out);
  }

  template <typename T>
  std::optional<std::span<const T>> enqueue(
      sim::Comm& comm, const DestBuckets<T>& buckets,
      std::vector<count_t>* recvcounts_out = nullptr) {
    return enqueue(comm, buckets.records().data(), buckets.counts(),
                   recvcounts_out);
  }

  /// Collective: ship everything pending (possibly nothing — still
  /// collective) and return the arrivals grouped by source rank. The
  /// span aliases the inner Exchanger's scratch, valid until the next
  /// wire trip on this object.
  template <typename T>
  std::span<const T> flush(sim::Comm& comm,
                           std::vector<count_t>* recvcounts_out = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "wire records must be trivially copyable");
    XTRA_ASSERT_MSG(elem_ == 0 || elem_ == sizeof(T),
                    "flush<T> must match the enqueued element type");
    const int nranks = comm.size();
    staged_counts_.assign(static_cast<std::size_t>(nranks), 0);
    staging_.clear();
    if (pend_.size() == static_cast<std::size_t>(nranks)) {
      for (int d = 0; d < nranks; ++d) {
        auto& run = pend_[static_cast<std::size_t>(d)];
        staged_counts_[static_cast<std::size_t>(d)] =
            static_cast<count_t>(run.size() / sizeof(T));
        staging_.insert(staging_.end(), run.begin(), run.end());
        run.clear();
      }
    }
    pending_bytes_ = 0;
    pending_rounds_ = 0;
    const std::span<const T> got = ex_.exchange(
        comm, reinterpret_cast<const T*>(staging_.data()), staged_counts_,
        recvcounts_out);
    ++ex_.stats_.coalesced_flushes;
    return got;
  }

  count_t pending_bytes() const { return pending_bytes_; }
  count_t pending_rounds() const { return pending_rounds_; }

  void set_max_send_bytes(count_t bytes) { ex_.set_max_send_bytes(bytes); }
  const ExchangeStats& stats() const { return ex_.stats(); }
  void reset_stats() { ex_.reset_stats(); }

 private:
  void stage(sim::Comm& comm, const std::byte* send, std::size_t elem,
             const std::vector<count_t>& counts) {
    const int nranks = comm.size();
    XTRA_ASSERT(counts.size() == static_cast<std::size_t>(nranks));
    XTRA_ASSERT_MSG(elem_ == 0 || elem_ == elem,
                    "all coalesced rounds must use one record type");
    elem_ = elem;
    pend_.resize(static_cast<std::size_t>(nranks));
    std::size_t off = 0;
    for (int d = 0; d < nranks; ++d) {
      const std::size_t len =
          static_cast<std::size_t>(counts[static_cast<std::size_t>(d)]) *
          elem;
      if (len > 0) {
        auto& run = pend_[static_cast<std::size_t>(d)];
        run.insert(run.end(), send + off, send + off + len);
        off += len;
        pending_bytes_ += static_cast<count_t>(len);
      }
    }
    ++pending_rounds_;
  }

  count_t flush_bytes_ = 0;
  std::size_t elem_ = 0;
  count_t pending_bytes_ = 0;
  count_t pending_rounds_ = 0;
  std::vector<std::vector<std::byte>> pend_;  ///< per destination rank
  std::vector<std::byte> staging_;            ///< flush-time send buffer
  std::vector<count_t> staged_counts_;
  Exchanger ex_;  ///< wire engine (phasing applies)
};

}  // namespace xtra::comm
