// Exchanger — persistent, memory-bounded wrapper over
// sim::Comm::alltoallv.
//
// The paper reaches trillion-edge scale because its ghost-update
// exchange is memory-bounded: send buffers are built once per phase,
// capped in size, and communicated in chunks rather than one unbounded
// Alltoallv. An Exchanger reproduces that contract: with
// max_send_bytes == 0 it issues a single alltoallv; with a positive
// bound it splits the (destination-grouped) send buffer into phases of
// at most max_send_bytes each — chunk boundaries fall inside
// per-destination runs, and the receive side reassembles arrivals by
// source rank, so the result is bit-identical to the single alltoallv
// for any bound.
//
// The exchange is split into explicit start()/finish() halves so a
// caller can kick off the wire transfer and run local compute before
// draining it. start() reads the caller's buffer in place and posts
// the first phase: the buffer belongs to the wire until finish()
// returns and must stay valid and unmodified until then (a verifier
// build checksums each posted phase again at its finish). finish() drains the in-flight
// phase, posts the next, and reassembles arrivals. The blocking
// exchange() is start+finish back to back, so both paths share one
// implementation and produce byte-identical results and identical
// wire accounting. Between start() and finish() any blocking
// collectives may run, and other Exchangers may start, drain, and
// finish their own exchanges: each started exchange acquires its own
// substrate channel (up to sim::kMaxChannels in flight per rank).
// finish() drains the phases in order, posting each successor before
// it scatters the drained phase's arrivals into their final position.
//
// Self-destined records never touch the wire, so the bound phases only
// the remote ones: the phase count follows the largest remote total
// across ranks, and a phased exchange copies its self segment straight
// into the result. An exchange with no remote record anywhere costs
// the one phase-agreement allreduce.
//
// The object owns all wire-side scratch (receive bytes, per-phase
// counts, reassembly cursors) and reuses it across calls, so a
// persistent Exchanger makes the per-iteration exchange of
// label-propagation allocation-free on the send path. It also
// aggregates ExchangeStats across calls for bench reporting.
//
// exchange()/start()/finish() are collective (bounded mode agrees on a
// global phase count with one allreduce); every rank must call them
// with the same max_send_bytes. Returned spans alias the receive
// scratch and are valid until the next exchange()/start() on the same
// object.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "comm/dest_buckets.hpp"
#include "mpisim/comm.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace xtra::comm {

/// Aggregated accounting over every exchange() on one Exchanger.
struct ExchangeStats {
  count_t exchanges = 0;     ///< logical exchange() calls
  count_t phases = 0;        ///< alltoallv rounds issued
  count_t records_sent = 0;  ///< records staged, incl. self-destined
  count_t bytes_sent = 0;    ///< wire bytes (self-destined data is free)
  double seconds = 0.0;      ///< wall time inside exchange()/start()/finish()

  // Overlap accounting for the split start()/finish() path (blocking
  // exchange() calls never touch these).
  count_t overlapped = 0;           ///< exchanges driven via start()/finish()
  count_t max_inflight_bytes = 0;   ///< peak payload bytes held in flight
  double start_seconds = 0.0;       ///< wall time inside start()
  double finish_seconds = 0.0;      ///< wall time inside finish()

  /// Fold another ledger into this one: counters and times add, peak
  /// fields take the max. Used by the engine's per-run rollup.
  void merge_from(const ExchangeStats& from) {
    exchanges += from.exchanges;
    phases += from.phases;
    records_sent += from.records_sent;
    bytes_sent += from.bytes_sent;
    seconds += from.seconds;
    overlapped += from.overlapped;
    max_inflight_bytes = std::max(max_inflight_bytes, from.max_inflight_bytes);
    start_seconds += from.start_seconds;
    finish_seconds += from.finish_seconds;
  }
};

class Exchanger {
 public:
  /// max_send_bytes == 0 means unbounded (one alltoallv per exchange);
  /// a positive bound caps each phase's send payload (always admitting
  /// at least one record per phase — a bound smaller than one record
  /// clamps to sizeof(T), never to a zero-progress phase plan). Same
  /// value required on all ranks.
  explicit Exchanger(count_t max_send_bytes = 0)
      : max_send_bytes_(max_send_bytes) {}

  count_t max_send_bytes() const { return max_send_bytes_; }
  void set_max_send_bytes(count_t bytes) { max_send_bytes_ = bytes; }

  /// Attribution tag passed to the substrate with every channel
  /// acquisition this Exchanger performs; shows up in
  /// channel-exhaustion and verifier diagnostics. Must point at storage
  /// outliving the Exchanger (string literals, in practice).
  const char* label() const { return label_; }
  void set_label(const char* label) { label_ = label; }

  /// Exchange `counts[r]` records per destination rank r, laid out
  /// contiguously in destination order starting at `send`. Returns the
  /// concatenated arrivals grouped by source rank (alltoallv
  /// semantics, regardless of phasing).
  template <typename T>
  std::span<const T> exchange(sim::Comm& comm, const T* send,
                              const std::vector<count_t>& counts,
                              std::vector<count_t>* recvcounts_out = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "wire records must be trivially copyable");
    start_bytes(comm, reinterpret_cast<const std::byte*>(send), sizeof(T),
                counts, /*overlapped=*/false);
    finish_bytes(comm);
    if (recvcounts_out) *recvcounts_out = rcounts_;
    return {reinterpret_cast<const T*>(recv_bytes_.data()),
            static_cast<std::size_t>(recv_total_)};
  }

  template <typename T>
  std::span<const T> exchange(sim::Comm& comm, const std::vector<T>& send,
                              const std::vector<count_t>& counts,
                              std::vector<count_t>* recvcounts_out = nullptr) {
    return exchange(comm, send.data(), counts, recvcounts_out);
  }

  /// Exchange a DestBuckets' staged records.
  template <typename T>
  std::span<const T> exchange(sim::Comm& comm, const DestBuckets<T>& buckets,
                              std::vector<count_t>* recvcounts_out = nullptr) {
    return exchange(comm, buckets.records().data(), buckets.counts(),
                    recvcounts_out);
  }

  /// Collective: kick off an exchange and return immediately. The
  /// phases slice `send` in place, so it must stay valid and
  /// unmodified until finish<T>() returns (a persistent staging buffer
  /// or DestBuckets member). Run local compute, then drain with
  /// finish<T>(). Only one exchange may be in flight per Exchanger.
  template <typename T>
  void start(sim::Comm& comm, const T* send,
             const std::vector<count_t>& counts) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "wire records must be trivially copyable");
    start_bytes(comm, reinterpret_cast<const std::byte*>(send), sizeof(T),
                counts, /*overlapped=*/true);
  }

  template <typename T>
  void start(sim::Comm& comm, const DestBuckets<T>& buckets) {
    start(comm, buckets.records().data(), buckets.counts());
  }

  /// Collective: drain the in-flight exchange started with start().
  /// T must match the started type. Returns the same grouped-by-source
  /// span the blocking exchange() would have.
  template <typename T>
  std::span<const T> finish(sim::Comm& comm,
                            std::vector<count_t>* recvcounts_out = nullptr) {
    XTRA_ASSERT_MSG(pending_.elem == sizeof(T),
                    "finish<T> must match the started element type");
    finish_bytes(comm);
    if (recvcounts_out) *recvcounts_out = rcounts_;
    return {reinterpret_cast<const T*>(recv_bytes_.data()),
            static_cast<std::size_t>(recv_total_)};
  }

  bool in_flight() const { return pending_.active; }

  const ExchangeStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ExchangeStats{}; }

 private:
  /// In-flight state of one started exchange: the per-destination
  /// layout of the caller's payload and the cursor of the phase
  /// currently on the wire.
  struct InFlight {
    std::vector<count_t> counts;  ///< per-destination element counts
    /// Prefix sums of counts with the self segment left out: the
    /// remote-record index space the phase windows cut.
    std::vector<count_t> remote_offsets;
    const std::byte* wire = nullptr;  ///< the caller's payload
    std::size_t elem = 0;             ///< element size in bytes
    count_t remote = 0;               ///< staged elements not for self
    count_t self_lo = 0;              ///< payload index of the self segment
    count_t self_count = 0;           ///< self-destined elements
    count_t max_records = 0;          ///< per-phase record cap
    count_t nphases = 0;              ///< agreed global phase count
    count_t phase = 0;                ///< phase currently in flight
    int channel = 0;                  ///< substrate channel
    bool active = false;
  };

  /// Untyped first half: lays out the payload, agrees on the phase
  /// count, and posts phase 0. `overlapped` marks a start() (counted
  /// in the overlap ledger) rather than the blocking exchange().
  void start_bytes(sim::Comm& comm, const std::byte* send, std::size_t elem,
                   const std::vector<count_t>& counts, bool overlapped);
  /// Untyped second half: drains every phase (posting each
  /// successor), leaving the result in recv_bytes_/recv_total_/rcounts_.
  void finish_bytes(sim::Comm& comm);
  /// The phased (nphases > 1) drain loop of finish_bytes.
  void finish_phases(sim::Comm& comm);
  /// Posts the remote-record window of phase pending_.phase.
  void post_phase(sim::Comm& comm);
  /// Copies the self segment of the payload to recv_bytes_ at `at`.
  void copy_self(count_t at);

  count_t max_send_bytes_ = 0;
  const char* label_ = "comm::Exchanger";
  ExchangeStats stats_;
  InFlight pending_;  ///< in-flight state between start and finish

  // Wire-side scratch, reused across calls.
  std::vector<std::byte> recv_bytes_;   ///< final grouped-by-source result
  count_t recv_total_ = 0;              ///< elements in recv_bytes_
  std::vector<count_t> rcounts_;        ///< per-source element counts
  std::vector<count_t> phase_counts_;   ///< per-dest counts, one phase
  std::vector<count_t> phase_rcounts_;  ///< per-source counts, one phase
  std::vector<std::byte> phase_bytes_;  ///< one phase's arrivals
  std::vector<count_t> cursor_;         ///< reassembly write positions
  /// Send buffer of the one phase whose window straddles the self
  /// segment (at most max_send_bytes).
  std::vector<std::byte> straddle_;
};

}  // namespace xtra::comm
