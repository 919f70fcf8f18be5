// Distributed sparse matrix-vector multiplication (Table III).
//
// The matrix is the graph's symmetric adjacency plus a unit diagonal
// (the structure Epetra would build from these graphs). Two layouts:
//
//  * 1D: matrix row u and vector entries x(u), y(u) live on rank
//    owners[u]. Each SpMV imports the halo x values (the Epetra Import
//    pattern).
//  * 2D: ranks form a pr x pc grid. A 1D map `owners` is folded into
//    the grid with the Boman–Devine–Rajamanickam construction [6]:
//    entry (u,v) is stored at grid(row(owners[u]), col(owners[v]))
//    with row(q) = q mod pr, col(q) = q div pr, so communication for
//    x(v) stays inside one processor column (<= pr peers) and the
//    y-fold inside one processor row (<= pc peers). Locality of the 1D
//    map (e.g. an XtraPuLP partition) shrinks both message sets, which
//    is exactly the 2D-XtraPuLP win the paper reports.
//
// Each run executes `iters` power-method steps y = A x, x = y/||y||_inf
// and reports wall time plus communication volume.
#pragma once

#include <vector>

#include "comm/exchanger.hpp"
#include "graph/edge_list.hpp"
#include "mpisim/comm.hpp"

namespace xtra::spmv {

enum class Layout { kOneD, kTwoD };

struct SpmvStats {
  double seconds = 0.0;
  count_t comm_bytes = 0;      ///< bytes sent by this rank
  count_t local_nnz = 0;       ///< matrix entries stored on this rank
  /// Column values gathered per iteration (the x import list; entries
  /// whose owner is this rank move in memory, not on the wire — the
  /// comm_bytes field has the wire truth).
  count_t x_imports = 0;
  double checksum = 0.0;       ///< ||x||_inf after the final iteration
};

class DistSpmv {
 public:
  /// Collective. `owners[v]` in [0, comm.size()) assigns vector entry
  /// v (and, under 1D, matrix row v) to a rank — derive it from a
  /// partition to measure that partition's SpMV behaviour. The edge
  /// list must be undirected; duplicates merge.
  DistSpmv(sim::Comm& comm, const graph::EdgeList& el,
           const std::vector<int>& owners, Layout layout);

  /// Collective: run `iters` multiply+normalize steps.
  SpmvStats run(sim::Comm& comm, int iters);

  int grid_rows() const { return pr_; }
  int grid_cols() const { return pc_; }

 private:
  struct Entry {
    count_t row;  ///< local row index
    count_t col;  ///< local col index
  };

  int pr_ = 1, pc_ = 1;
  count_t n_own_ = 0;  ///< vector entries owned by this rank

  // Local matrix (all values are 1.0, so entries alone suffice).
  std::vector<count_t> row_offsets_;
  std::vector<count_t> col_index_;
  count_t n_rows_ = 0, n_cols_ = 0;

  // x import plan: owned x values to send (by local x index, grouped
  // per destination), and where arriving values land in the col array.
  // Self-owned columns never touch the exchange: they copy through the
  // x_self_* map while the remote import is in flight.
  std::vector<count_t> x_send_counts_;
  std::vector<count_t> x_send_index_;
  std::vector<count_t> x_recv_slot_;  ///< col-array slot per arrival
  std::vector<count_t> x_self_src_;   ///< owned-x index per self column
  std::vector<count_t> x_self_dst_;   ///< col-array slot per self column

  // Overlap split of the local multiply: interior rows touch only
  // self-owned columns and run while the x import is on the wire;
  // boundary rows wait for the arrivals.
  std::vector<count_t> rows_interior_;
  std::vector<count_t> rows_boundary_;

  // y fold plan: local row partials to send (grouped per owner), and
  // accumulation slots for arriving partials.
  std::vector<count_t> y_send_counts_;
  std::vector<count_t> y_send_row_;
  std::vector<count_t> y_recv_slot_;  ///< owned-x slot per arrival

  /// Persistent wire engine shared by the setup round trips and both
  /// per-iteration exchanges (expand and fold).
  comm::Exchanger ex_;
};

/// Convenience: ranks-from-partition. parts must use exactly
/// comm.size() parts; returned vector is owners for DistSpmv.
std::vector<int> owners_from_parts(const std::vector<part_t>& parts);

}  // namespace xtra::spmv
