// DestBuckets — the two-pass count/prefix-sum/fill bucketing engine
// behind every point-to-point exchange (Algorithm 3's send-side
// structure, generalized from the partitioner's ExchangeUpdates).
//
// Builds an alltoallv-ready send buffer: records destined for rank r
// laid out contiguously, in destination-rank order. All scratch —
// per-destination counts, prefix-summed offsets, fill cursors, and the
// record buffer itself — is owned by the object and reused across
// calls, so steady-state use (one exchange per label-propagation
// iteration) allocates nothing.
//
// Protocol per exchange:
//   begin(nranks);
//   pass 1: count(dest) per record;
//   commit();
//   pass 2 (same traversal order): push(dest, rec);
// then hand records()/counts() to an Exchanger.
#pragma once

#include <cstddef>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace xtra::comm {

template <typename T>
class DestBuckets {
 public:
  /// Start a new exchange: zero the counts.
  void begin(int nranks) {
    counts_.assign(static_cast<std::size_t>(nranks), 0);
  }

  void count(int dest) { ++counts_[static_cast<std::size_t>(dest)]; }

  /// Finish the count pass: prefix-sum the offsets, size the record
  /// buffer, rewind the cursors for the fill pass.
  void commit() {
    offsets_.resize(counts_.size() + 1);
    count_t running = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      offsets_[i] = running;
      running += counts_[i];
    }
    offsets_[counts_.size()] = running;
    cursor_.assign(offsets_.begin(), offsets_.end() - 1);
    buf_.resize(static_cast<std::size_t>(running));
  }

  /// Place a record; returns the slot it landed in, so callers keeping
  /// side arrays (e.g. "which ghost lid issued this query") can index
  /// them by the same slot.
  count_t push(int dest, const T& rec) {
    const auto d = static_cast<std::size_t>(dest);
    const count_t slot = cursor_[d]++;
    XTRA_DEBUG_ASSERT(slot < offsets_[d + 1]);
    buf_[static_cast<std::size_t>(slot)] = rec;
    return slot;
  }

  /// The grouped send buffer (valid once every record is pushed).
  const std::vector<T>& records() const { return buf_; }
  /// Per-destination record counts (valid after commit()).
  const std::vector<count_t>& counts() const { return counts_; }
  count_t total() const { return offsets_.empty() ? 0 : offsets_.back(); }

  /// Convenience for the common one-record-per-item shape: two passes
  /// over `items` with dest_of(item) -> rank and make(item) -> record.
  template <typename Range, typename DestFn, typename MakeFn>
  void build(int nranks, const Range& items, DestFn&& dest_of,
             MakeFn&& make) {
    begin(nranks);
    for (const auto& item : items) count(dest_of(item));
    commit();
    for (const auto& item : items) push(dest_of(item), make(item));
  }

 private:
  std::vector<count_t> counts_;   ///< records per destination
  std::vector<count_t> offsets_;  ///< exclusive prefix sums of counts
  std::vector<count_t> cursor_;   ///< next free slot per destination
  std::vector<T> buf_;            ///< grouped records
};

}  // namespace xtra::comm
