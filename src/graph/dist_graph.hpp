// Distributed one-dimensional CSR graph with ghost vertices
// (paper §III-A "Graph Representation").
//
// Each rank owns a subset of vertices (per a VertexDist) and stores:
//   * a CSR over its owned vertices whose adjacency entries are local
//     ids — owned vertices occupy lids [0, n_local), ghosts (one-hop
//     neighbors owned elsewhere) occupy [n_local, n_local + n_ghost);
//   * lid -> gid translation in a flat array and gid -> lid in an
//     open-addressing hash map, exactly as the paper describes;
//   * the *global* degree of every owned and ghost vertex (ghost
//     degrees are fetched from their owners at build time; the vertex
//     balance phase weights neighbor counts by degree(u), so ghosts'
//     degrees must be known locally);
//   * per owned vertex, Algorithm 3's toSend ranks and the ghost lid
//     each of them gave the vertex (its send slots), learned on the
//     same degree query.
//
// For directed graphs an additional in-edge CSR is kept; the ghost set
// covers both directions. Undirected graphs are stored symmetrically
// (each edge appears in both endpoints' adjacency).
//
// Id widths: gids are 64-bit, lids 32-bit (a rank holds at most
// 2^32 - 1 owned plus ghost vertices; the build asserts it), and CSR
// offsets and degrees are count_t. The adjacency therefore costs 4 B
// per arc plus 8 B per owned vertex. The build's transient memory is
// one 16 B arc payload on the wire plus its 16 B send buckets, 32 B per
// arc at most: arcs are bucketed straight from the rank's edge slice,
// the buckets are freed when the exchange returns, and each CSR is
// built from the receive buffer in place (DESIGN.md §10).
#pragma once

#include <span>
#include <vector>

#include "graph/dist.hpp"
#include "graph/edge_list.hpp"
#include "mpisim/comm.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace xtra::graph {

class DistGraph {
 public:
  /// --- Global shape ---
  gid_t n_global() const { return dist_.n_global(); }
  /// Number of undirected edges (or arcs when directed()).
  count_t m_global() const { return m_global_; }
  bool directed() const { return directed_; }
  const VertexDist& dist() const { return dist_; }
  int rank() const { return rank_; }
  int nranks() const { return dist_.nranks(); }

  /// --- Local shape ---
  lid_t n_local() const { return n_local_; }
  lid_t n_ghost() const { return n_ghost_; }
  lid_t n_total() const { return n_local_ + n_ghost_; }
  /// Number of local adjacency entries (out-edges of owned vertices).
  count_t m_local() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }

  bool is_owned(lid_t l) const { return l < n_local_; }
  gid_t gid_of(lid_t l) const { return lid_to_gid_[l]; }
  /// Local id of a gid present on this rank, kInvalidLid otherwise.
  lid_t lid_of(gid_t g) const { return gid_to_lid_.find(g); }
  int owner_of_gid(gid_t g) const { return dist_.owner(g); }
  int owner_of(lid_t l) const {
    return l < n_local_ ? rank_ : dist_.owner(lid_to_gid_[l]);
  }

  /// Global degree of a local-or-ghost vertex.
  count_t degree(lid_t l) const { return degree_[l]; }
  /// Position of owned vertex l's first arc in the local CSR, for l in
  /// [0, n_local]; arc_begin(n_local()) == m_local().
  count_t arc_begin(lid_t l) const { return offsets_[l]; }
  /// Local out-degree of an owned vertex (== degree for undirected).
  count_t out_degree(lid_t l) const { return offsets_[l + 1] - offsets_[l]; }

  /// Out-neighborhood of an owned vertex, as local ids. Valid for
  /// range-for (`for (lid_t u : g.arcs(v))`).
  std::span<const lid_t> arcs(lid_t l) const {
    XTRA_DEBUG_ASSERT(l < n_local_);
    return {adj_.data() + offsets_[l],
            static_cast<std::size_t>(offsets_[l + 1] - offsets_[l])};
  }

  /// In-neighborhood (directed graphs only; == arcs otherwise).
  std::span<const lid_t> in_arcs(lid_t l) const {
    XTRA_DEBUG_ASSERT(l < n_local_);
    if (!directed_) return arcs(l);
    return {in_adj_.data() + in_offsets_[l],
            static_cast<std::size_t>(in_offsets_[l + 1] - in_offsets_[l])};
  }

  /// Algorithm 3's toSend set of an owned vertex: the distinct ranks
  /// other than this one that own an out-neighbor, in first-arc order.
  /// It depends only on the graph, so the build computes it once and
  /// ExchangeUpdates iterates it instead of hashing owners per arc.
  std::span<const int> send_ranks(lid_t l) const {
    XTRA_DEBUG_ASSERT(l < n_local_);
    return {send_ranks_.data() + send_offsets_[l],
            static_cast<std::size_t>(send_offsets_[l + 1] -
                                     send_offsets_[l])};
  }

  /// Parallel to send_ranks(l): entry k is the lid that rank
  /// send_ranks(l)[k] gave this vertex's ghost, so an update record can
  /// name its target by slot instead of by gid.
  std::span<const lid_t> send_slots(lid_t l) const {
    XTRA_DEBUG_ASSERT(l < n_local_);
    return {send_slots_.data() + send_offsets_[l],
            static_cast<std::size_t>(send_offsets_[l + 1] -
                                     send_offsets_[l])};
  }

  count_t in_degree(lid_t l) const {
    if (!directed_) return out_degree(l);
    return in_offsets_[l + 1] - in_offsets_[l];
  }

  /// All gids this rank stores, owned first then ghosts.
  const std::vector<gid_t>& lid_to_gid() const { return lid_to_gid_; }

  /// Sum over owned vertices of degree (== 2*m_global for undirected
  /// graphs once allreduced).
  count_t local_degree_sum() const;

 private:
  friend DistGraph build_dist_graph(sim::Comm&, const EdgeList&,
                                    const VertexDist&);
  DistGraph(const VertexDist& dist, int rank)
      : dist_(dist), rank_(rank) {}

  VertexDist dist_;
  int rank_;
  bool directed_ = false;
  count_t m_global_ = 0;

  lid_t n_local_ = 0;
  lid_t n_ghost_ = 0;
  std::vector<gid_t> lid_to_gid_;
  GidToLidMap gid_to_lid_;

  std::vector<count_t> offsets_;  // n_local + 1
  std::vector<lid_t> adj_;
  std::vector<count_t> in_offsets_;  // directed only
  std::vector<lid_t> in_adj_;

  std::vector<count_t> degree_;  // n_local + n_ghost, global degrees

  std::vector<count_t> send_offsets_;  // n_local + 1
  std::vector<int> send_ranks_;
  std::vector<lid_t> send_slots_;  // parallel to send_ranks_
};

/// Build the distributed graph collectively. Every rank passes the same
/// EdgeList (each rank ingests its slice of the edge array; ownership
/// of endpoints then drives an all-to-all edge exchange, as a parallel
/// loader would). Self-loops are dropped; duplicate edges are kept.
DistGraph build_dist_graph(sim::Comm& comm, const EdgeList& el,
                           const VertexDist& dist);

}  // namespace xtra::graph
