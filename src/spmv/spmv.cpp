#include "spmv/spmv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "comm/dest_buckets.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace xtra::spmv {

namespace {

/// Largest divisor of p that is <= sqrt(p): the squarest pr x pc grid.
int grid_rows_for(int p) {
  int best = 1;
  for (int r = 1; r * r <= p; ++r)
    if (p % r == 0) best = r;
  return best;
}

/// Dense index of a gid within the sorted list of gids owned by one
/// rank under `owners`. Precomputed as a global prefix per rank.
struct OwnedIndexer {
  // For each gid: its index among its owner's entries.
  std::vector<count_t> index_in_owner;
  std::vector<count_t> owned_count;  // per rank

  OwnedIndexer(const std::vector<int>& owners, int nranks) {
    owned_count.assign(static_cast<std::size_t>(nranks), 0);
    index_in_owner.resize(owners.size());
    for (std::size_t v = 0; v < owners.size(); ++v)
      index_in_owner[v] = owned_count[static_cast<std::size_t>(owners[v])]++;
  }
};

}  // namespace

std::vector<int> owners_from_parts(const std::vector<part_t>& parts) {
  std::vector<int> owners(parts.size());
  for (std::size_t v = 0; v < parts.size(); ++v)
    owners[v] = static_cast<int>(parts[v]);
  return owners;
}

DistSpmv::DistSpmv(sim::Comm& comm, const graph::EdgeList& el,
                   const std::vector<int>& owners, Layout layout) {
  ex_.set_label("spmv::DistSpmv");
  XTRA_ASSERT(owners.size() == el.n);
  XTRA_ASSERT_MSG(!el.directed, "SpMV expects an undirected edge list");
  const int p = comm.size();
  const int me = comm.rank();
  for (const int o : owners) XTRA_ASSERT(o >= 0 && o < p);

  if (layout == Layout::kTwoD) {
    pr_ = grid_rows_for(p);
    pc_ = p / pr_;
  } else {
    pr_ = 1;
    pc_ = p;
  }
  // Boman et al. [6] fold: entry (u,v) -> grid(row(owners[u]),
  // col(owners[v])); under 1D (pr=1) this degenerates to owners[u].
  auto entry_rank = [&](gid_t u, gid_t v) {
    if (layout == Layout::kOneD) return owners[u];
    const int qr = owners[u] % pr_;
    const int qc = owners[v] / pr_;
    return qr + pr_ * qc;
  };

  // --- Collect my entries (symmetric adjacency + unit diagonal). ---
  std::vector<std::pair<gid_t, gid_t>> mine;
  for (const graph::Edge& e : el.edges) {
    if (e.u == e.v) continue;
    if (entry_rank(e.u, e.v) == me) mine.push_back({e.u, e.v});
    if (entry_rank(e.v, e.u) == me) mine.push_back({e.v, e.u});
  }
  for (gid_t v = 0; v < el.n; ++v)
    if (entry_rank(v, v) == me) mine.push_back({v, v});
  std::sort(mine.begin(), mine.end());
  mine.erase(std::unique(mine.begin(), mine.end()), mine.end());

  // --- Compact row and column id spaces. ---
  std::vector<gid_t> rows, cols;
  rows.reserve(mine.size());
  cols.reserve(mine.size());
  for (const auto& [u, v] : mine) {
    rows.push_back(u);
    cols.push_back(v);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  n_rows_ = static_cast<count_t>(rows.size());
  n_cols_ = static_cast<count_t>(cols.size());
  auto row_of = [&rows](gid_t u) {
    return static_cast<count_t>(
        std::lower_bound(rows.begin(), rows.end(), u) - rows.begin());
  };
  auto col_of = [&cols](gid_t v) {
    return static_cast<count_t>(
        std::lower_bound(cols.begin(), cols.end(), v) - cols.begin());
  };

  // CSR over local rows ("mine" is sorted by row already).
  row_offsets_.assign(static_cast<std::size_t>(n_rows_) + 1, 0);
  col_index_.resize(mine.size());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    ++row_offsets_[static_cast<std::size_t>(row_of(mine[i].first)) + 1];
    col_index_[i] = col_of(mine[i].second);
  }
  for (count_t r = 0; r < n_rows_; ++r)
    row_offsets_[static_cast<std::size_t>(r) + 1] +=
        row_offsets_[static_cast<std::size_t>(r)];

  const OwnedIndexer idx(owners, p);
  n_own_ = idx.owned_count[static_cast<std::size_t>(me)];

  // --- x import plan: self-owned columns copy locally; every remote
  // column's value is requested from its owner (once, at setup). ---
  {
    comm::DestBuckets<gid_t> requests;
    requests.begin(p);
    for (const gid_t v : cols)
      if (owners[v] != me) requests.count(owners[v]);
    requests.commit();
    x_recv_slot_.resize(static_cast<std::size_t>(requests.total()));
    for (const gid_t v : cols) {
      if (owners[v] == me) {
        x_self_src_.push_back(idx.index_in_owner[v]);
        x_self_dst_.push_back(col_of(v));
      } else {
        const count_t slot = requests.push(owners[v], v);
        x_recv_slot_[static_cast<std::size_t>(slot)] = col_of(v);
      }
    }
    const std::span<const gid_t> incoming =
        ex_.exchange(comm, requests, &x_send_counts_);
    x_send_index_.resize(incoming.size());
    for (std::size_t i = 0; i < incoming.size(); ++i) {
      XTRA_ASSERT(owners[incoming[i]] == me);
      x_send_index_[i] = idx.index_in_owner[incoming[i]];
    }
  }

  // --- Overlap split: interior rows read only self-owned columns, so
  // they multiply while the remote x import is in flight. ---
  {
    std::vector<std::uint8_t> col_remote(static_cast<std::size_t>(n_cols_), 0);
    for (std::size_t i = 0; i < cols.size(); ++i)
      if (owners[cols[i]] != me) col_remote[i] = 1;
    for (count_t r = 0; r < n_rows_; ++r) {
      bool remote = false;
      for (count_t i = row_offsets_[static_cast<std::size_t>(r)];
           i < row_offsets_[static_cast<std::size_t>(r) + 1]; ++i)
        if (col_remote[static_cast<std::size_t>(
                col_index_[static_cast<std::size_t>(i)])]) {
          remote = true;
          break;
        }
      (remote ? rows_boundary_ : rows_interior_).push_back(r);
    }
  }

  // --- y fold plan: announce which rows we hold partials for. ---
  {
    comm::DestBuckets<gid_t> announce;
    announce.begin(p);
    for (const gid_t u : rows) announce.count(owners[u]);
    announce.commit();
    y_send_row_.resize(rows.size());
    for (const gid_t u : rows) {
      const count_t slot = announce.push(owners[u], u);
      y_send_row_[static_cast<std::size_t>(slot)] = row_of(u);
    }
    y_send_counts_ = announce.counts();
    const std::span<const gid_t> incoming = ex_.exchange(comm, announce);
    y_recv_slot_.resize(incoming.size());
    for (std::size_t i = 0; i < incoming.size(); ++i) {
      XTRA_ASSERT(owners[incoming[i]] == me);
      y_recv_slot_[i] = idx.index_in_owner[incoming[i]];
    }
  }
}

SpmvStats DistSpmv::run(sim::Comm& comm, int iters) {
  SpmvStats stats;
  stats.local_nnz = static_cast<count_t>(col_index_.size());
  // Remote x values = imports not owned by this rank; count the
  // locally-copied self columns too (no wire traffic) so the reported
  // import size stays the full gathered column set.
  stats.x_imports =
      static_cast<count_t>(x_recv_slot_.size() + x_self_dst_.size());

  const count_t bytes_before = comm.stats().bytes_sent;
  Timer timer;

  std::vector<double> x(static_cast<std::size_t>(n_own_), 1.0);
  std::vector<double> xcol(static_cast<std::size_t>(n_cols_), 0.0);
  std::vector<double> y_partial(static_cast<std::size_t>(n_rows_), 0.0);
  std::vector<double> y(static_cast<std::size_t>(n_own_), 0.0);
  std::vector<double> xsend(x_send_index_.size());
  std::vector<double> ysend(y_send_row_.size());

  const auto row_mult = [&](count_t r) {
    double sum = 0.0;
    for (count_t i = row_offsets_[static_cast<std::size_t>(r)];
         i < row_offsets_[static_cast<std::size_t>(r) + 1]; ++i)
      sum += xcol[static_cast<std::size_t>(col_index_[static_cast<std::size_t>(i)])];
    y_partial[static_cast<std::size_t>(r)] = sum;
  };
  // Chunked on the ambient par::ThreadScope width (the "+X" threads):
  // rows write disjoint y_partial slots and each row's sum keeps its
  // serial association, so the result is bit-identical at any width.
  const auto mult_rows = [&](const std::vector<count_t>& rows) {
    par::for_chunks(static_cast<count_t>(rows.size()),
                    [&](count_t, count_t lo, count_t hi) {
                      for (count_t i = lo; i < hi; ++i)
                        row_mult(rows[static_cast<std::size_t>(i)]);
                    });
  };

  for (int iter = 0; iter < iters; ++iter) {
    // Expand: owners ship x values to every rank holding a matching
    // remote column. While the import is on the wire, self columns
    // copy in memory and the interior rows (which read nothing
    // remote) multiply — the classic overlap of local SpMV work with
    // the halo import.
    for (std::size_t i = 0; i < x_send_index_.size(); ++i)
      xsend[i] = x[static_cast<std::size_t>(x_send_index_[i])];
    // xsend is untouched until the finish below: in-place, no copy.
    ex_.start_inplace(comm, xsend.data(), x_send_counts_);
    for (std::size_t i = 0; i < x_self_dst_.size(); ++i)
      xcol[static_cast<std::size_t>(x_self_dst_[i])] =
          x[static_cast<std::size_t>(x_self_src_[i])];
    mult_rows(rows_interior_);  // overlaps the in-flight x import
    const std::span<const double> ximp = ex_.finish<double>(comm);
    XTRA_ASSERT(ximp.size() == x_recv_slot_.size());
    for (std::size_t i = 0; i < ximp.size(); ++i)
      xcol[static_cast<std::size_t>(x_recv_slot_[i])] = ximp[i];
    mult_rows(rows_boundary_);

    // Fold: partials travel to the row owner and accumulate.
    for (std::size_t i = 0; i < y_send_row_.size(); ++i)
      ysend[i] = y_partial[static_cast<std::size_t>(y_send_row_[i])];
    const std::span<const double> yimp =
        ex_.exchange(comm, ysend, y_send_counts_);
    XTRA_ASSERT(yimp.size() == y_recv_slot_.size());
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t i = 0; i < yimp.size(); ++i)
      y[static_cast<std::size_t>(y_recv_slot_[i])] += yimp[i];

    // Power-method normalization keeps values bounded across 100
    // iterations (and is itself one small allreduce, as in practice).
    double local_max = 0.0;
    for (const double v : y) local_max = std::max(local_max, std::abs(v));
    const double norm = std::max(comm.allreduce_max(local_max), 1e-300);
    for (std::size_t i = 0; i < y.size(); ++i) x[i] = y[i] / norm;
    stats.checksum = norm;
  }

  stats.seconds = timer.seconds();
  stats.comm_bytes = comm.stats().bytes_sent - bytes_before;
  return stats;
}

}  // namespace xtra::spmv
