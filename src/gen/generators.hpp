// Synthetic graph generators covering every graph class of Table I.
//
// All generators are deterministic in (parameters, seed). Sizes here
// are scaled down from the paper's (the substrate runs every rank as a
// thread, with MPI+X workers, on one 4-vCPU host);
// the *structural* properties the experiments depend on — degree
// skew, diameter, locality of a block ordering — are preserved. See
// DESIGN.md §2 for the substitution table.
#pragma once

#include <cstdint>

#include "graph/edge_list.hpp"

namespace xtra::gen {

using graph::EdgeList;
using xtra::count_t;
using xtra::gid_t;

/// R-MAT recursive-quadrant generator [Chakrabarti et al. 2004], the
/// paper's RMAT class. n = 2^scale vertices, ~avg_degree*n/2 edges,
/// default Graph500 probabilities. Undirected, duplicates removed.
EdgeList rmat(int scale, count_t avg_degree, std::uint64_t seed,
              double a = 0.57, double b = 0.19, double c = 0.19);

/// Erdős–Rényi G(n, m) with m = n*avg_degree/2 uniform edges (RandER).
EdgeList erdos_renyi(gid_t n, count_t avg_degree, std::uint64_t seed);

/// The paper's high-diameter random graph (RandHD, §IV): vertex k gets
/// edges to vertices chosen uniformly from (k - avg_degree,
/// k + avg_degree), wrapping modulo n. Diameter Θ(n / avg_degree).
EdgeList rand_hd(gid_t n, count_t avg_degree, std::uint64_t seed);

/// Regular 2D grid, 5-point stencil (InternalMesh stand-in).
EdgeList mesh2d(gid_t rows, gid_t cols);

/// Regular 3D grid, 7-point stencil (nlpkkt stand-in: banded, low
/// constant degree, large diameter).
EdgeList mesh3d(gid_t nx, gid_t ny, gid_t nz);

/// Watts–Strogatz small-world ring lattice with rewiring.
EdgeList watts_strogatz(gid_t n, count_t k, double beta, std::uint64_t seed);

/// Community-structured power-law graph (online-social-network
/// stand-in: lj/orkut/friendster/twitter classes). Pareto community
/// sizes, Zipf degrees, `p_in` fraction of edges internal to the
/// community, remainder preferential-attachment-like. Undirected.
EdgeList community_graph(gid_t n, count_t avg_degree, double p_in,
                         double degree_alpha, std::uint64_t seed);

/// Web-crawl stand-in (WDC12 / uk-xxxx classes): vertices in crawl
/// order grouped into Pareto-sized hosts; most arcs stay within the
/// host or go to nearby hosts, a small fraction targets global hubs
/// with Zipf popularity. Directed; block partitions of the crawl order
/// get a low cut but poor balance — the WDC12 behaviour of Fig 5/8.
EdgeList webcrawl(gid_t n, count_t avg_degree, std::uint64_t seed,
                  double p_host = 0.50, double p_near = 0.10);

}  // namespace xtra::gen
