// Deterministic intra-rank thread parallelism (the "+X" of MPI+X).
//
// Every simulated rank is a thread (sim::run_world), so a rank's
// compute pool is a *thread_local* lazily-started set of workers: the
// first par::for_chunks call with num_threads() > 1 spawns them, and
// they die with the rank thread. Pool workers run only plain compute —
// they must never touch sim::Comm (collectives are rank-granular; the
// comm layer stays exactly as wide as the rank count).
//
// The determinism contract, used by every threaded layer above
// (engine sweeps, partitioner phases, SpMV, generators):
//
//  * Work over [0, n) is cut into chunks of a FIXED grain
//    (kChunkGrain), so the chunk layout depends only on n — never on
//    the thread count.
//  * Chunks are handed to threads dynamically (any order, any
//    assignment), so a chunk's side effects must land in per-chunk or
//    per-vertex slots — never in shared accumulators.
//  * Order-sensitive reductions (floating-point sums, merged record
//    streams) combine the per-chunk partials in chunk-index order
//    after the join (ordered_sum, comm::ShardedBuckets).
//
// Under that discipline the result of a threaded region is a pure
// function of the chunk layout, so {1, T} threads produce
// byte-identical outputs for every T — the single path is used even at
// num_threads() == 1 (the chunks just run inline on the caller).
//
// Error contract: exceptions thrown by chunk bodies are rethrown on
// the calling thread (first one wins; remaining chunks are abandoned).
// Nested for_chunks calls — from inside a chunk body — throw
// std::logic_error: the pool is not reentrant, and silently
// serializing would hide the layering bug.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "util/types.hpp"

namespace xtra::par {

/// Hard cap on per-rank pool width (slot arrays in contexts and
/// per-slot scratch size against it).
inline constexpr int kMaxThreads = 32;

/// Items per chunk. Fixed — never derived from the thread count — so
/// chunk boundaries (and therefore every chunk-ordered reduction) are
/// identical for any number of threads.
inline constexpr count_t kChunkGrain = 1024;

/// Configured thread count of the calling rank (>= 1). Set with
/// ThreadScope; defaults to 1.
int num_threads();

/// Slot of the executing thread inside a for_chunks region: 0 for the
/// calling rank's own thread, 1..t-1 for pool workers. 0 outside any
/// region. Index for per-slot scratch.
int current_slot();

/// True while the calling thread is executing a chunk body (used to
/// reject nested parallel regions).
bool in_parallel_region();

/// RAII thread-count override for the calling rank. The engine and the
/// partitioner open one around a run from Config/Params::num_threads;
/// benches and examples open one from XTRA_THREADS.
class ThreadScope {
 public:
  explicit ThreadScope(int n);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int prev_;
};

inline count_t chunk_count(count_t n) {
  return (n + kChunkGrain - 1) / kChunkGrain;
}

namespace detail {

/// Type-erased dispatch: run fn(chunk, slot) for every chunk index in
/// [0, nchunks), on the caller plus up to num_threads()-1 pool
/// workers. Blocks until every chunk ran (or one threw).
void dispatch(count_t nchunks,
              const std::function<void(count_t, int)>& fn);

}  // namespace detail

/// Chunked parallel for over [0, n): body(chunk, lo, hi) for each
/// chunk [lo, hi). See the file header for the determinism contract.
template <typename Body>
void for_chunks(count_t n, Body&& body) {
  const count_t nchunks = chunk_count(n);
  if (nchunks == 0) return;
  detail::dispatch(nchunks, [&](count_t c, int /*slot*/) {
    const count_t lo = c * kChunkGrain;
    const count_t hi = std::min(n, lo + kChunkGrain);
    body(c, lo, hi);
  });
}

/// Parallel for over n independent tasks, one per index: body(i) for
/// each i in [0, n). Tasks follow the chunk contract above — each
/// writes only its own slots — so the result is the same for any
/// thread count.
template <typename Body>
void for_tasks(count_t n, Body&& body) {
  if (n == 0) return;
  detail::dispatch(n, [&](count_t i, int /*slot*/) { body(i); });
}

/// Deterministic chunked reduction: partial(chunk, lo, hi) returns the
/// chunk's contribution; the partials are summed in chunk-index order,
/// so the result is bit-identical for any thread count (and equals the
/// chunked serial sum — NOT the unchunked left-to-right sum).
template <typename F>
double ordered_sum(count_t n, F&& partial) {
  const count_t nchunks = chunk_count(n);
  if (nchunks == 0) return 0.0;
  std::vector<double> partials(static_cast<std::size_t>(nchunks), 0.0);
  for_chunks(n, [&](count_t c, count_t lo, count_t hi) {
    partials[static_cast<std::size_t>(c)] = partial(c, lo, hi);
  });
  double sum = 0.0;
  for (const double p : partials) sum += p;
  return sum;
}

}  // namespace xtra::par
