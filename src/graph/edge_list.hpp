// Global edge-list representation produced by generators and file I/O.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace xtra::graph {

/// One edge (or directed arc when EdgeList::directed).
struct Edge {
  gid_t u;
  gid_t v;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// A whole graph as a flat edge list. Undirected edges are stored once
/// (either orientation); the distributed build symmetrizes them.
struct EdgeList {
  gid_t n = 0;             ///< number of vertices (ids in [0, n))
  bool directed = false;   ///< arcs vs. undirected edges
  std::vector<Edge> edges;

  count_t edge_count() const { return static_cast<count_t>(edges.size()); }
};

/// Remove self loops and duplicate edges (treating {u,v} == {v,u} for
/// undirected lists, which come out with u < v), leaving the edges
/// sorted by (u, v). Every id must lie in [0, el.n): otherwise throws
/// std::invalid_argument before the list is touched. Buckets by source
/// in O(m + n + sum d log d) time when n <= 2^32 and n <= 2m, and falls
/// back to a comparison sort otherwise (DESIGN.md §11).
void canonicalize(EdgeList& el);

/// Return the undirected, canonicalized version of an edge list. Same
/// [0, el.n) contract as canonicalize.
EdgeList symmetrized(const EdgeList& el);

}  // namespace xtra::graph
