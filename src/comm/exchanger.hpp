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
// draining it. start() snapshots the caller's payload into the
// AsyncExchange handle (the caller's buffer is released the moment
// start() returns) and posts the first phase; finish() drains the
// in-flight phase, posts the next, and reassembles arrivals. The
// blocking exchange() is a thin start+finish wrapper (minus the
// payload snapshot — its caller's buffer is valid throughout), so both
// paths share one implementation and produce byte-identical results
// and identical wire accounting. Between start() and finish() any
// blocking collectives may run, and other Exchangers may start, drain,
// and finish their own exchanges: each started exchange acquires its
// own substrate channel (up to sim::kMaxChannels in flight per rank).
//
// The finish half can also be driven incrementally: drain_one()
// completes one phase at a time and hands each phase's arrivals to a
// consumer callback as they land (try_finish() is the poll-style
// twin), so compute can consume arrivals mid-exchange instead of after
// the last phase — the hook the cross-superstep SuperstepPipeline in
// graph/halo.hpp builds on. finish() is a loop over the same drain
// step, so one-shot and incremental draining are bit-identical.
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
#include <optional>
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

  /// Cross-superstep flushes performed by a CoalescingExchanger that
  /// owns this engine (plain exchanges never touch it).
  count_t coalesced_flushes = 0;

  // Overlap accounting for the split start()/finish() path (blocking
  // exchange() calls never touch these).
  count_t overlapped = 0;           ///< exchanges driven via start()/finish()
  count_t max_inflight_bytes = 0;   ///< peak payload bytes held in flight
  double start_seconds = 0.0;       ///< wall time inside start()
  double finish_seconds = 0.0;      ///< wall time inside finish()

  // Incremental-drain / cross-superstep pipeline ledger. One-shot
  // finish() never touches these; drain_one()/try_finish() mark the
  // exchange incrementally drained, and a SuperstepPipeline that
  // carries a refresh across a superstep boundary records the carry
  // (and the deepest carry seen) via note_pipeline_carry().
  count_t drained_incrementally = 0;  ///< exchanges consumed phase by phase
  count_t pipeline_carried = 0;       ///< refreshes carried across supersteps
  count_t max_pipeline_depth = 0;     ///< deepest superstep carry observed

  /// Fold another ledger into this one: counters and times add, peak
  /// fields take the max. Used by HaloPlan's lane aggregation and the
  /// engine's per-run rollup.
  void merge_from(const ExchangeStats& from) {
    exchanges += from.exchanges;
    phases += from.phases;
    records_sent += from.records_sent;
    bytes_sent += from.bytes_sent;
    seconds += from.seconds;
    coalesced_flushes += from.coalesced_flushes;
    overlapped += from.overlapped;
    max_inflight_bytes = std::max(max_inflight_bytes, from.max_inflight_bytes);
    start_seconds += from.start_seconds;
    finish_seconds += from.finish_seconds;
    drained_incrementally += from.drained_incrementally;
    pipeline_carried += from.pipeline_carried;
    max_pipeline_depth = std::max(max_pipeline_depth, from.max_pipeline_depth);
  }
};

/// In-flight state of one started exchange. Owned by the Exchanger;
/// it holds the snapshot of the caller's send payload (`staging_`),
/// the per-destination layout, and the cursor of the phase currently
/// on the wire, so nothing the caller owns needs to survive between
/// start() and finish().
class AsyncExchange {
 public:
  bool active() const { return active_; }
  /// Payload bytes currently in flight (total staged send payload).
  count_t bytes_in_flight() const {
    return active_ ? total_ * static_cast<count_t>(elem_) : 0;
  }

 private:
  friend class Exchanger;

  std::vector<std::byte> staging_;   ///< owned payload snapshot (start())
  std::vector<count_t> counts_;      ///< per-destination element counts
  std::vector<count_t> offsets_;     ///< prefix sums of counts_
  const std::byte* wire_ = nullptr;  ///< payload the phases slice from
  std::size_t elem_ = 0;             ///< element size in bytes
  count_t total_ = 0;                ///< total elements staged
  count_t max_records_ = 0;          ///< per-phase record cap
  count_t nphases_ = 0;              ///< agreed global phase count
  count_t phase_ = 0;                ///< phase currently in flight
  int channel_ = 0;                  ///< substrate channel
  bool active_ = false;
  bool counted_incremental_ = false;  ///< drained_incrementally billed
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
    // Blocking path: the caller's buffer outlives the call, so the
    // phases slice it directly — no payload snapshot.
    start_bytes(comm, reinterpret_cast<const std::byte*>(send), sizeof(T),
                counts, StartMode::kBlocking);
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
  /// payload is snapshotted into the AsyncExchange handle, so `send`
  /// may be reused or destroyed as soon as this returns. Run local
  /// compute, then drain with finish<T>(). Only one exchange may be in
  /// flight per Exchanger (and per rank, substrate-wide).
  template <typename T>
  void start(sim::Comm& comm, const T* send,
             const std::vector<count_t>& counts) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "wire records must be trivially copyable");
    start_bytes(comm, reinterpret_cast<const std::byte*>(send), sizeof(T),
                counts, StartMode::kSnapshot);
  }

  template <typename T>
  void start(sim::Comm& comm, const std::vector<T>& send,
             const std::vector<count_t>& counts) {
    start(comm, send.data(), counts);
  }

  template <typename T>
  void start(sim::Comm& comm, const DestBuckets<T>& buckets) {
    start(comm, buckets.records().data(), buckets.counts());
  }

  /// start() without the payload snapshot, for callers whose send
  /// buffer provably stays valid and unmodified until finish<T>()
  /// returns (a persistent staging buffer or DestBuckets member).
  /// Saves a full-payload copy per exchange on hot per-superstep
  /// paths; when in doubt use start().
  template <typename T>
  void start_inplace(sim::Comm& comm, const T* send,
                     const std::vector<count_t>& counts) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "wire records must be trivially copyable");
    start_bytes(comm, reinterpret_cast<const std::byte*>(send), sizeof(T),
                counts, StartMode::kAlias);
  }

  template <typename T>
  void start_inplace(sim::Comm& comm, const DestBuckets<T>& buckets) {
    start_inplace(comm, buckets.records().data(), buckets.counts());
  }

  /// Collective: drain the in-flight exchange started with start<T>().
  /// T must match the started type. Returns the same grouped-by-source
  /// span the blocking exchange() would have.
  template <typename T>
  std::span<const T> finish(sim::Comm& comm,
                            std::vector<count_t>* recvcounts_out = nullptr) {
    XTRA_ASSERT_MSG(pending_.elem_ == sizeof(T),
                    "finish<T> must match the started element type");
    finish_bytes(comm);
    if (recvcounts_out) *recvcounts_out = rcounts_;
    return {reinterpret_cast<const T*>(recv_bytes_.data()),
            static_cast<std::size_t>(recv_total_)};
  }

  /// Collective: complete exactly one phase of the in-flight exchange
  /// and hand that phase's arrivals to `consume` as they land, posting
  /// the successor phase so it is on the wire while the caller keeps
  /// computing. `consume` is invoked once per source rank with data in
  /// the drained phase, as
  ///   consume(int source, count_t dst_offset, std::span<const T> recs)
  /// where dst_offset is the element offset of the segment in the
  /// final grouped-by-source result (the records are already installed
  /// there, so the span stays valid until the next exchange()/start()
  /// on this object). Returns true while phases remain in flight; the
  /// call that returns false leaves the full result exactly as
  /// finish<T>() would have. The unbounded single-phase plan drains in
  /// one step.
  template <typename T, typename Consume>
  bool drain_one(sim::Comm& comm, Consume&& consume) {
    XTRA_ASSERT_MSG(pending_.elem_ == sizeof(T),
                    "drain_one<T> must match the started element type");
    note_incremental();
    const bool more = drain_step_bytes(comm);
    const T* base = reinterpret_cast<const T*>(recv_bytes_.data());
    for (const PhaseSegment& s : drained_segs_)
      consume(s.source, s.dst_offset,
              std::span<const T>(base + s.dst_offset,
                                 static_cast<std::size_t>(s.count)));
    return more;
  }

  /// Collective: drain at most one phase; returns the full
  /// grouped-by-source result once the exchange has fully drained
  /// (exactly what finish<T>() returns), or nullopt while phases
  /// remain in flight. Poll-style twin of drain_one for callers that
  /// only need the completed result.
  template <typename T>
  std::optional<std::span<const T>> try_finish(
      sim::Comm& comm, std::vector<count_t>* recvcounts_out = nullptr) {
    XTRA_ASSERT_MSG(pending_.elem_ == sizeof(T),
                    "try_finish<T> must match the started element type");
    note_incremental();
    if (drain_step_bytes(comm)) return std::nullopt;
    if (recvcounts_out) *recvcounts_out = rcounts_;
    return std::span<const T>(
        reinterpret_cast<const T*>(recv_bytes_.data()),
        static_cast<std::size_t>(recv_total_));
  }

  /// Drain steps left in the in-flight exchange (0 when idle). The
  /// phase count is collectively agreed at start, so the value is
  /// rank-uniform — callers can size compute chunks to interleave with
  /// exactly this many drain_one calls.
  count_t phases_remaining() const {
    if (!pending_.active_) return 0;
    return std::max<count_t>(1, pending_.nphases_ - pending_.phase_);
  }

  /// Pipeline ledger hook (SuperstepPipeline): a started refresh was
  /// carried in flight across `depth` superstep boundaries before
  /// draining.
  void note_pipeline_carry(count_t depth) {
    ++stats_.pipeline_carried;
    stats_.max_pipeline_depth = std::max(stats_.max_pipeline_depth, depth);
  }

  bool in_flight() const { return pending_.active(); }
  const AsyncExchange& pending() const { return pending_; }

  const ExchangeStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ExchangeStats{}; }

 private:
  friend class CoalescingExchanger;

  /// How start_bytes treats the caller's payload: kBlocking and
  /// kAlias slice it in place (it must outlive the finish half —
  /// trivially true for the blocking wrapper); kSnapshot copies it
  /// into the AsyncExchange staging. kAlias and kSnapshot count as
  /// overlapped exchanges.
  enum class StartMode { kBlocking, kSnapshot, kAlias };

  /// One arrived segment of the most recently drained phase: `count`
  /// elements from `source`, installed at element offset `dst_offset`
  /// of the final grouped-by-source result.
  struct PhaseSegment {
    int source;
    count_t dst_offset;
    count_t count;
  };

  /// Untyped first half: stages the payload, agrees on the phase
  /// count, and posts phase 0.
  void start_bytes(sim::Comm& comm, const std::byte* send, std::size_t elem,
                   const std::vector<count_t>& counts, StartMode mode);
  /// Untyped second half: drains phases (posting each successor),
  /// leaving the result in recv_bytes_/recv_total_/rcounts_. A loop
  /// over drain_step_bytes, so the one-shot and incremental paths are
  /// one implementation.
  void finish_bytes(sim::Comm& comm);
  /// Untyped single drain step: completes one phase, installs its
  /// arrivals in recv_bytes_, records the arrived segments in
  /// drained_segs_, and posts the next phase. Returns whether the
  /// exchange is still in flight.
  bool drain_step_bytes(sim::Comm& comm);
  /// Record the whole grouped-by-source result as drained segments
  /// (single-phase completions).
  void note_full_result_segments();
  /// Bill the in-flight exchange as incrementally drained (once).
  void note_incremental() {
    if (pending_.active_ && !pending_.counted_incremental_) {
      pending_.counted_incremental_ = true;
      ++stats_.drained_incrementally;
    }
  }

  count_t max_send_bytes_ = 0;
  const char* label_ = "comm::Exchanger";
  ExchangeStats stats_;
  AsyncExchange pending_;  ///< in-flight state between start and finish

  // Wire-side scratch, reused across calls.
  std::vector<std::byte> recv_bytes_;   ///< final grouped-by-source result
  count_t recv_total_ = 0;              ///< elements in recv_bytes_
  std::vector<count_t> rcounts_;        ///< per-source element counts
  std::vector<count_t> phase_counts_;   ///< per-dest counts, one phase
  std::vector<count_t> phase_rcounts_;  ///< per-source counts, one phase
  std::vector<std::byte> phase_bytes_;  ///< one phase's arrivals
  std::vector<count_t> cursor_;         ///< reassembly write positions
  std::vector<PhaseSegment> drained_segs_;  ///< last drained phase's arrivals
};

}  // namespace xtra::comm
