// XtraPuLP — the paper's primary contribution (Algorithm 1 driver).
//
// Multi-constraint (vertex and edge balance), multi-objective (total
// cut and max per-part cut) distributed-memory label-propagation
// partitioner. Usage:
//
//   sim::run_world(nranks, [&](sim::Comm& comm) {
//     auto g = graph::build_dist_graph(comm, edges,
//                  graph::VertexDist::random(edges.n, comm.size()));
//     core::Params params;
//     params.nparts = 16;
//     core::PartitionResult r = core::partition(comm, g, params);
//     // r.parts[l] is the part of local vertex l
//   });
#pragma once

#include "core/params.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"

namespace xtra::core {

/// Run the full XtraPuLP pipeline (init, Iouter x (vertex balance +
/// refine), then Iouter x (edge balance + refine) unless disabled).
/// Collective; every rank receives its local view of the partition.
/// Throws std::invalid_argument on a directed graph (symmetrize first)
/// or out-of-range params.
PartitionResult partition(sim::Comm& comm, const graph::DistGraph& g,
                          const Params& params);

/// Replicate the global part vector (indexed by gid) on every rank.
/// Collective. Intended for metrics and for feeding explicit
/// distributions; O(n_global) memory per rank.
std::vector<part_t> gather_global_parts(sim::Comm& comm,
                                        const graph::DistGraph& g,
                                        const std::vector<part_t>& parts);

/// Internal invariant check (used by tests): every owned label is in
/// range and every ghost label matches its owner's. Collective;
/// returns true on every rank iff consistent.
bool check_partition_consistent(sim::Comm& comm, const graph::DistGraph& g,
                                const std::vector<part_t>& parts,
                                part_t nparts);

}  // namespace xtra::core
