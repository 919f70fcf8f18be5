#include "graph/edge_list.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace xtra::graph {

namespace {

// The bucket pass reuses the edge buffer as 2m 64-bit words.
static_assert(std::is_same_v<gid_t, std::uint64_t>);
static_assert(sizeof(Edge) == 2 * sizeof(std::uint64_t) &&
              std::is_trivially_copyable_v<Edge>);

/// Buckets pack an edge as u << 32 | v, so every id must fit 32 bits.
constexpr gid_t kMaxBucketIds = gid_t{1} << 32;
/// Above twice the edge count, the O(n) part of the bucket pass would
/// outweigh its O(m) part.
constexpr gid_t kMaxIdsPerEdge = 2;

void check_ids(const EdgeList& el) {
  for (const Edge& x : el.edges) {
    if (x.u >= el.n || x.v >= el.n)
      throw std::invalid_argument(
          "edge (" + std::to_string(x.u) + ", " + std::to_string(x.v) +
          ") has an id outside [0, " + std::to_string(el.n) + ")");
  }
}

/// Comparison-sort path, for id ranges too wide to bucket.
void sort_unique(EdgeList& el) {
  auto& e = el.edges;
  if (!el.directed) {
    for (Edge& x : e)
      if (x.u > x.v) std::swap(x.u, x.v);
  }
  std::erase_if(e, [](const Edge& x) { return x.u == x.v; });
  std::sort(e.begin(), e.end());
  e.erase(std::unique(e.begin(), e.end()), e.end());
}

/// Counting scatter of src[0, len) into dst by key(x) < start.size();
/// leaves start[b] at bucket b's first slot in dst.
template <typename Key>
void scatter_by(const std::uint64_t* src, std::size_t len, std::uint64_t* dst,
                std::vector<std::size_t>& start, Key key) {
  std::fill(start.begin(), start.end(), 0);
  for (std::size_t i = 0; i < len; ++i) ++start[key(src[i])];
  std::size_t at = 0;
  for (std::size_t& c : start) c = at += c;
  for (std::size_t i = len; i-- > 0;) dst[--start[key(src[i])]] = src[i];
}

/// Bucket path: O(m + n + sum d log d) time, O(sqrt n) extra memory.
///
/// The buffer holds 2m 64-bit words. Words [0, m) receive the kept
/// edges packed as u << 32 | v, then a counting scatter on u's high
/// bits moves them to words [m, 2m) in coarse buckets. Each coarse
/// bucket is staged below itself, scattered back by u's low bits, each
/// u's run is sorted, and its unique pairs are written out as Edges
/// from the front. No write reaches an unread word: the stage ends at
/// or below its bucket (2k + len <= m + lo for k edges written, k <= lo),
/// and output edge k covers words 2k and 2k + 1 <= m + j for the j-th
/// bucketed word, since k <= j < m.
void bucket_unique(EdgeList& el) {
  auto& e = el.edges;
  const std::size_t m = e.size();
  // memmove onto itself starts the lifetime of a uint64_t array over
  // the buffer (C++20 implicit object creation; the compiler folds it
  // away), so the word indexing below stays inside one array object.
  auto* const w = static_cast<std::uint64_t*>(
      std::memmove(e.data(), e.data(), m * sizeof(Edge)));

  std::size_t kept = 0;
  for (std::size_t i = 0; i < m; ++i) {
    std::uint64_t u = w[2 * i], v = w[2 * i + 1];
    if (u == v) continue;
    if (!el.directed && u > v) std::swap(u, v);
    w[kept++] = u << 32 | v;
  }

  // Split u's bits in half: both count arrays hold about sqrt(n)
  // entries, small enough to stay off glibc's mmap path (DESIGN.md §11).
  const int shift = std::bit_width(el.n - 1) / 2;
  const std::uint64_t low = (std::uint64_t{1} << shift) - 1;
  std::vector<std::size_t> coarse(
      static_cast<std::size_t>((el.n - 1) >> shift) + 1);
  std::vector<std::size_t> fine(std::size_t{1} << shift);
  std::uint64_t* const up = w + m;
  scatter_by(w, kept, up, coarse,
             [shift](std::uint64_t x) { return x >> 32 >> shift; });

  std::size_t out = 0;
  std::uint64_t prev = ~std::uint64_t{0};  // u == v == 2^32 - 1 is a loop
  for (std::size_t b = 0; b < coarse.size(); ++b) {
    const std::size_t lo = coarse[b];
    const std::size_t len =
        (b + 1 < coarse.size() ? coarse[b + 1] : kept) - lo;
    std::uint64_t* const stage = w + 2 * out;
    std::copy(up + lo, up + lo + len, stage);
    scatter_by(stage, len, up + lo, fine,
               [low](std::uint64_t x) { return (x >> 32) & low; });
    for (std::size_t f = 0; f < fine.size(); ++f) {
      const std::size_t run_lo = lo + fine[f];
      const std::size_t run_hi =
          lo + (f + 1 < fine.size() ? fine[f + 1] : len);
      std::sort(up + run_lo, up + run_hi);
      for (std::size_t j = run_lo; j < run_hi; ++j) {
        const std::uint64_t x = up[j];
        if (x == prev) continue;
        prev = x;
        w[2 * out] = x >> 32;
        w[2 * out + 1] = x & 0xffffffffu;
        ++out;
      }
    }
  }
  // And back to Edge objects holding the same bytes.
  std::memmove(e.data(), w, out * sizeof(Edge));
  e.resize(out);
}

}  // namespace

void canonicalize(EdgeList& el) {
  check_ids(el);
  if (el.edges.empty()) return;
  const auto m = static_cast<gid_t>(el.edges.size());
  if (el.n > kMaxBucketIds || el.n > kMaxIdsPerEdge * m)
    sort_unique(el);
  else
    bucket_unique(el);
}

EdgeList symmetrized(const EdgeList& el) {
  EdgeList out{el.n, false, el.edges};
  canonicalize(out);
  return out;
}

}  // namespace xtra::graph
