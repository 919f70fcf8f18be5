#include "comm/exchanger.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"
#include "util/timer.hpp"

namespace xtra::comm {

namespace {

/// Per-destination counts of the record window [lo, hi) of a
/// destination-grouped send buffer whose per-destination prefix sums
/// are `offsets`. The records are grouped by destination, so every
/// window's per-destination runs are contiguous and in destination
/// order — each window is itself a valid alltoallv send buffer.
void window_counts(const std::vector<count_t>& offsets, count_t lo,
                   count_t hi, std::vector<count_t>& out) {
  const std::size_t nranks = offsets.size() - 1;
  out.resize(nranks);
  for (std::size_t r = 0; r < nranks; ++r) {
    const count_t a = std::max(lo, offsets[r]);
    const count_t b = std::min(hi, offsets[r + 1]);
    out[r] = std::max<count_t>(0, b - a);
  }
}

}  // namespace

void Exchanger::start_bytes(sim::Comm& comm, const std::byte* send,
                            std::size_t elem,
                            const std::vector<count_t>& counts,
                            StartMode mode) {
  XTRA_ASSERT_MSG(!pending_.active_,
                  "Exchanger::start while an exchange is in flight");
  XTRA_ASSERT(counts.size() == static_cast<std::size_t>(comm.size()));

  count_t total = 0;
  for (const count_t c : counts) total += c;
  ++stats_.exchanges;
  stats_.records_sent += total;
  if (mode != StartMode::kBlocking) {
    ++stats_.overlapped;
    stats_.max_inflight_bytes =
        std::max(stats_.max_inflight_bytes,
                 total * static_cast<count_t>(elem));
  }

  Timer t;
  const int nranks = comm.size();
  const int me = comm.rank();

  // Stage the in-flight state. A snapshotting start() releases the
  // caller's buffer here; start_inplace() and the blocking exchange()
  // alias it instead (their buffers stay valid until the finish half).
  pending_.elem_ = elem;
  pending_.total_ = total;
  pending_.counts_ = counts;
  pending_.self_count_ = counts[static_cast<std::size_t>(me)];
  pending_.remote_ = total - pending_.self_count_;
  pending_.remote_offsets_.resize(counts.size() + 1);
  count_t running = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    pending_.remote_offsets_[i] = running;
    if (i == static_cast<std::size_t>(me))
      pending_.self_lo_ = running;
    else
      running += counts[i];
  }
  pending_.remote_offsets_[counts.size()] = running;
  if (mode == StartMode::kSnapshot) {
    // Nothing staged locally means nothing to snapshot.
    pending_.staging_.resize(static_cast<std::size_t>(total) * elem);
    if (total > 0)
      std::memcpy(pending_.staging_.data(), send,
                  static_cast<std::size_t>(total) * elem);
    pending_.wire_ = pending_.staging_.data();
  } else {
    pending_.wire_ = send;
  }

  stats_.bytes_sent += pending_.remote_ * static_cast<count_t>(elem);

  // Agree on a global phase count. Unbounded mode skips the allreduce:
  // all ranks constructed with max_send_bytes == 0 know the answer.
  pending_.nphases_ = 1;
  pending_.max_records_ = std::max<count_t>(total, 1);
  if (max_send_bytes_ > 0) {
    // A bound smaller than one record clamps to exactly one record per
    // phase — every phase makes progress, never a zero-record plan.
    pending_.max_records_ =
        std::max<count_t>(1, max_send_bytes_ / static_cast<count_t>(elem));
    const count_t gmax_remote = comm.allreduce_max(pending_.remote_);
    if (gmax_remote == 0) {
      // No rank sends a remote record, so skip the wire entirely —
      // zero phases, and the result is this rank's self segment,
      // identical on the blocking and start/finish paths.
      pending_.nphases_ = 0;
      pending_.phase_ = 0;
      pending_.active_ = true;
      rcounts_.assign(static_cast<std::size_t>(nranks), 0);
      rcounts_[static_cast<std::size_t>(me)] = pending_.self_count_;
      recv_total_ = pending_.self_count_;
      recv_bytes_.resize(static_cast<std::size_t>(recv_total_) * elem);
      copy_self(0);
      const double sec0 = t.seconds();
      stats_.seconds += sec0;
      stats_.start_seconds += sec0;
      return;
    }
    pending_.nphases_ =
        (gmax_remote + pending_.max_records_ - 1) / pending_.max_records_;
  }
  pending_.phase_ = 0;
  pending_.active_ = true;
  // Every started exchange rides its own substrate channel, so several
  // Exchangers (a halo refresh, an aux exchange) may be in flight at
  // once. The scan is rank-uniform — collective ordering keeps the
  // in-flight channel sets identical on every rank.
  pending_.channel_ = comm.find_free_channel();

  if (pending_.nphases_ == 1) {
    // Single-phase: post the whole payload (the substrate copies the
    // self segment in memory); arrival counts and the receive buffer
    // are handled by the finish half.
    (void)comm.alltoallv_bytes_start(pending_.wire_, elem, pending_.counts_,
                                     pending_.channel_, label_);
  } else {
    // Phased mode: learn the final per-source totals up front (one
    // small alltoall), so every phase's arrivals land directly in
    // their final position — the receive side peaks at the payload
    // size, never double-buffers. The self segment lands there now;
    // the phases carry only remote records. Then post phase 0.
    rcounts_ = comm.alltoall(pending_.counts_);
    recv_total_ = 0;
    cursor_.resize(static_cast<std::size_t>(nranks));
    for (int s = 0; s < nranks; ++s) {
      cursor_[static_cast<std::size_t>(s)] = recv_total_;
      recv_total_ += rcounts_[static_cast<std::size_t>(s)];
    }
    recv_bytes_.resize(static_cast<std::size_t>(recv_total_) * elem);
    copy_self(cursor_[static_cast<std::size_t>(me)]);
    cursor_[static_cast<std::size_t>(me)] += pending_.self_count_;
    post_phase(comm);
  }
  const double sec = t.seconds();
  stats_.seconds += sec;
  stats_.start_seconds += sec;
}

void Exchanger::copy_self(count_t at) {
  if (pending_.self_count_ == 0) return;
  const std::size_t elem = pending_.elem_;
  std::memcpy(recv_bytes_.data() + static_cast<std::size_t>(at) * elem,
              pending_.wire_ + static_cast<std::size_t>(pending_.self_lo_) * elem,
              static_cast<std::size_t>(pending_.self_count_) * elem);
}

void Exchanger::post_phase(sim::Comm& comm) {
  const std::size_t elem = pending_.elem_;
  const count_t lo =
      std::min(pending_.phase_ * pending_.max_records_, pending_.remote_);
  const count_t hi = std::min(lo + pending_.max_records_, pending_.remote_);
  window_counts(pending_.remote_offsets_, lo, hi, phase_counts_);
  // Remote index x sits at payload index x below the self segment and
  // x + self_count_ above it. A window on one side is a contiguous
  // slice of the payload; one that straddles the segment is gathered
  // into straddle_ (at most max_records_ records).
  const count_t cut = pending_.self_lo_;
  const std::byte* send = nullptr;
  if (hi <= cut || pending_.self_count_ == 0) {
    send = pending_.wire_ + static_cast<std::size_t>(lo) * elem;
  } else if (lo >= cut) {
    send = pending_.wire_ +
           static_cast<std::size_t>(lo + pending_.self_count_) * elem;
  } else {
    const std::size_t below = static_cast<std::size_t>(cut - lo) * elem;
    const std::size_t above = static_cast<std::size_t>(hi - cut) * elem;
    straddle_.resize(below + above);
    std::memcpy(straddle_.data(),
                pending_.wire_ + static_cast<std::size_t>(lo) * elem, below);
    std::memcpy(straddle_.data() + below,
                pending_.wire_ +
                    static_cast<std::size_t>(cut + pending_.self_count_) * elem,
                above);
    send = straddle_.data();
  }
  // Successor phases reuse the exchange's channel — it freed the
  // instant the previous phase finished.
  (void)comm.alltoallv_bytes_start(send, elem, phase_counts_,
                                   pending_.channel_, label_);
}

void Exchanger::finish_bytes(sim::Comm& comm) {
  XTRA_ASSERT_MSG(pending_.active_,
                  "Exchanger::finish without a started exchange");
  Timer t;
  // nphases_ == 0 is the all-empty exchange: nothing was posted; the
  // (empty) result was installed by the start half.
  if (pending_.nphases_ == 1) {
    recv_total_ =
        comm.alltoallv_bytes_finish(recv_bytes_, &rcounts_, pending_.channel_);
    ++stats_.phases;
  } else if (pending_.nphases_ > 1) {
    finish_phases(comm);
  }
  pending_.active_ = false;
  pending_.wire_ = nullptr;
  const double sec = t.seconds();
  stats_.seconds += sec;
  stats_.finish_seconds += sec;
}

void Exchanger::finish_phases(sim::Comm& comm) {
  const int nranks = comm.size();
  const std::size_t elem = pending_.elem_;
  while (pending_.phase_ < pending_.nphases_) {
    // Drain phase p, immediately post phase p+1 so it is in flight
    // while p's arrivals are scattered into their final positions.
    (void)comm.alltoallv_bytes_finish(phase_bytes_, &phase_rcounts_,
                                      pending_.channel_);
    ++stats_.phases;
    ++pending_.phase_;
    if (pending_.phase_ < pending_.nphases_) post_phase(comm);
    // Arrivals from source s across phases, concatenated in phase
    // order, are exactly s's single-alltoallv segment (each phase
    // window preserves the within-destination record order).
    std::size_t pos = 0;
    for (int s = 0; s < nranks; ++s) {
      const count_t c = phase_rcounts_[static_cast<std::size_t>(s)];
      if (c == 0) continue;
      const std::size_t len = static_cast<std::size_t>(c) * elem;
      std::memcpy(recv_bytes_.data() +
                      static_cast<std::size_t>(
                          cursor_[static_cast<std::size_t>(s)]) *
                          elem,
                  phase_bytes_.data() + pos, len);
      cursor_[static_cast<std::size_t>(s)] += c;
      pos += len;
    }
  }
#ifndef NDEBUG
  // Every cursor must have advanced to the next source's start.
  for (int s = 0; s + 1 < nranks; ++s)
    XTRA_DEBUG_ASSERT(cursor_[static_cast<std::size_t>(s)] ==
                      cursor_[static_cast<std::size_t>(s + 1)] -
                          rcounts_[static_cast<std::size_t>(s + 1)]);
#endif
}

}  // namespace xtra::comm
