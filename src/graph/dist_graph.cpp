#include "graph/dist_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "comm/dest_buckets.hpp"
#include "comm/exchanger.hpp"
#include "comm/query_reply.hpp"
#include "util/prefix_sum.hpp"

namespace xtra::graph {

namespace {

/// One directed arc in flight during the build exchange.
struct Arc {
  gid_t src;
  gid_t dst;
};

/// A ghost's degree query to its owner. It also names the lid the
/// asking rank gave the ghost, which becomes the owner's send slot.
struct GhostQuery {
  gid_t gid;
  lid_t lid;
  int rank;
};

/// CSR over owned vertices from arcs whose src is owned here, read
/// straight from the build exchange's receive span. Ghost discovery
/// happens via `intern`, which maps a gid to a lid (creating ghost
/// lids on first sight).
template <typename InternFn>
void build_csr(std::span<const Arc> arcs, lid_t n_local, InternFn&& intern,
               std::vector<count_t>& offsets, std::vector<lid_t>& adj) {
  std::vector<count_t> deg(n_local, 0);
  for (const Arc& a : arcs) {
    const lid_t s = intern(a.src);
    XTRA_ASSERT_MSG(s < n_local, "arc delivered to non-owner rank");
    ++deg[s];
  }
  offsets = exclusive_prefix_sum(deg);
  adj.resize(arcs.size());
  std::vector<count_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Arc& a : arcs) {
    const lid_t s = intern(a.src);
    adj[static_cast<std::size_t>(cursor[s]++)] = intern(a.dst);
  }
}

/// Move the arcs `emit(edge, sink)` yields for each edge of the rank's
/// slice to the ranks owning their sources, and build that CSR from
/// the arrivals. The arcs are bucketed straight from the slice (a
/// count pass, then a fill pass in the same order) and the buckets are
/// freed as soon as the exchange returns, so one arc payload and its
/// send buckets are the most this holds at once. Self-loops carry no
/// partitioning signal and are skipped.
template <typename EmitFn, typename InternFn>
void exchange_into_csr(sim::Comm& comm, const VertexDist& dist,
                       std::span<const Edge> slice, EmitFn&& emit,
                       lid_t n_local, InternFn&& intern,
                       std::vector<count_t>& offsets,
                       std::vector<lid_t>& adj) {
  comm::Exchanger ex;
  std::span<const Arc> recv;
  {
    comm::DestBuckets<Arc> buckets;
    buckets.begin(comm.size());
    for (const Edge& e : slice)
      if (e.u != e.v)
        emit(e, [&](const Arc& a) { buckets.count(dist.owner(a.src)); });
    buckets.commit();
    for (const Edge& e : slice)
      if (e.u != e.v)
        emit(e, [&](const Arc& a) { buckets.push(dist.owner(a.src), a); });
    recv = ex.exchange(comm, buckets);
  }
  build_csr(recv, n_local, intern, offsets, adj);
}

}  // namespace

count_t DistGraph::local_degree_sum() const {
  count_t sum = 0;
  for (lid_t v = 0; v < n_local_; ++v) sum += degree_[v];
  return sum;
}

DistGraph build_dist_graph(sim::Comm& comm, const EdgeList& el,
                           const VertexDist& dist) {
  XTRA_ASSERT(dist.nranks() == comm.size());
  // Every rank holds the same list and map, so this throws on all ranks
  // alike, before any collective.
  if (dist.n_global() < el.n)
    throw std::invalid_argument(
        "build_dist_graph: the vertex distribution covers " +
        std::to_string(dist.n_global()) + " vertices but the edge list has " +
        std::to_string(el.n));
  const int rank = comm.rank();
  DistGraph g(dist, rank);
  g.directed_ = el.directed;

  // 1. Enumerate owned vertices in gid order -> lids [0, n_local); the
  //    CSR builds below intern ghosts after them on first sight. This
  //    is the only place lids are minted.
  auto mint = [&g](gid_t gid) -> lid_t {
    XTRA_ASSERT_MSG(g.lid_to_gid_.size() < kInvalidLid,
                    "a rank's owned plus ghost vertices exceed the 32-bit "
                    "lid limit of 2^32 - 1");
    const auto l = static_cast<lid_t>(g.lid_to_gid_.size());
    g.gid_to_lid_.insert(gid, l);
    g.lid_to_gid_.push_back(gid);
    return l;
  };
  for (gid_t v = 0; v < dist.n_global(); ++v)
    if (dist.owner(v) == rank) mint(v);
  g.n_local_ = static_cast<lid_t>(g.lid_to_gid_.size());
  auto intern = [&g, &mint](gid_t gid) -> lid_t {
    const lid_t l = g.gid_to_lid_.find(gid);
    return l != kInvalidLid ? l : mint(gid);
  };

  // 2. Each rank ingests a contiguous slice of the global edge array,
  //    mimicking a parallel loader; every arc moves to the rank owning
  //    its source vertex. Undirected edges give (u,v) then (v,u) to the
  //    out-CSR; directed edges give (u,v) to it and (v,u) to the
  //    in-CSR, which is exchanged only after the out-CSR is built.
  const std::size_t m_in = el.edges.size();
  const std::size_t p = static_cast<std::size_t>(comm.size());
  const std::size_t lo = m_in * static_cast<std::size_t>(rank) / p;
  const std::size_t hi = m_in * (static_cast<std::size_t>(rank) + 1) / p;
  const std::span<const Edge> slice(el.edges.data() + lo, hi - lo);
  exchange_into_csr(
      comm, dist, slice,
      [&el](const Edge& e, auto&& sink) {
        XTRA_ASSERT(e.u < el.n && e.v < el.n);
        sink(Arc{e.u, e.v});
        if (!el.directed) sink(Arc{e.v, e.u});
      },
      g.n_local_, intern, g.offsets_, g.adj_);
  if (el.directed)
    exchange_into_csr(
        comm, dist, slice,
        [](const Edge& e, auto&& sink) { sink(Arc{e.v, e.u}); }, g.n_local_,
        intern, g.in_offsets_, g.in_adj_);
  g.n_ghost_ = static_cast<lid_t>(g.lid_to_gid_.size()) - g.n_local_;

  // 3. Owner of every ghost, then each owned vertex's toSend ranks
  //    (distinct remote owners of its out-neighbors, deduplicated by a
  //    per-vertex stamp). The list has at most min(arcs, n_local *
  //    (nranks - 1)) entries; reserving that bound avoids regrowth.
  std::vector<int> ghost_owner(g.n_ghost_);
  for (lid_t v = g.n_local_; v < g.n_total(); ++v)
    ghost_owner[v - g.n_local_] = dist.owner(g.lid_to_gid_[v]);
  g.send_ranks_.reserve(std::min(
      g.adj_.size(), static_cast<std::size_t>(g.n_local_) * (p - 1)));
  g.send_offsets_.assign(static_cast<std::size_t>(g.n_local_) + 1, 0);
  std::vector<lid_t> stamp(p, kInvalidLid);
  for (lid_t v = 0; v < g.n_local_; ++v) {
    for (count_t a = g.offsets_[v]; a < g.offsets_[v + 1]; ++a) {
      const lid_t u = g.adj_[static_cast<std::size_t>(a)];
      if (u < g.n_local_) continue;
      const int r = ghost_owner[u - g.n_local_];
      if (stamp[static_cast<std::size_t>(r)] == v) continue;
      stamp[static_cast<std::size_t>(r)] = v;
      g.send_ranks_.push_back(r);
    }
    g.send_offsets_[v + 1] = static_cast<count_t>(g.send_ranks_.size());
  }

  // 4. Global edge/arc count.
  const count_t local_arcs = static_cast<count_t>(g.adj_.size());
  count_t total_arcs = comm.allreduce_sum(local_arcs);
  g.m_global_ = el.directed ? total_arcs : total_arcs / 2;

  // 5. Degrees: owned vertices know theirs locally; ghost degrees are
  //    fetched from their owners (one query + one response exchange).
  //    The vertex-balance phase needs degree(u) for ghost u. Each query
  //    also carries the asker's ghost lid, which the owner files as the
  //    send slot of that (vertex, rank) toSend entry. Every toSend
  //    entry gets one: a neighbor on rank r makes the vertex a ghost
  //    there (in the in-CSR when directed).
  g.degree_.assign(g.n_total(), 0);
  for (lid_t v = 0; v < g.n_local_; ++v) {
    g.degree_[v] = g.out_degree(v);
    if (el.directed) g.degree_[v] += g.in_offsets_[v + 1] - g.in_offsets_[v];
  }
  g.send_slots_.assign(g.send_ranks_.size(), kInvalidLid);

  comm::Exchanger ex;
  // Ghost queries grouped by owner; responses come back in identical
  // order, so each is scattered to its query's ghost lid.
  comm::DestBuckets<GhostQuery> queries;
  queries.begin(comm.size());
  for (const int owner : ghost_owner) queries.count(owner);
  queries.commit();
  for (lid_t v = g.n_local_; v < g.n_total(); ++v)
    queries.push(ghost_owner[v - g.n_local_],
                 GhostQuery{g.lid_to_gid_[v], v, rank});
  const std::span<const count_t> responses = comm::query_reply(
      comm, ex, queries.records(), queries.counts(),
      [&g](const GhostQuery& q) {
        const lid_t l = g.gid_to_lid_.find(q.gid);
        XTRA_ASSERT_MSG(l != kInvalidLid && l < g.n_local_,
                        "degree query for vertex not owned here");
        for (count_t k = g.send_offsets_[l]; k < g.send_offsets_[l + 1]; ++k)
          if (g.send_ranks_[static_cast<std::size_t>(k)] == q.rank)
            g.send_slots_[static_cast<std::size_t>(k)] = q.lid;
        return g.degree_[l];
      });
  XTRA_ASSERT(responses.size() == queries.records().size());
  for (std::size_t i = 0; i < responses.size(); ++i)
    g.degree_[queries.records()[i].lid] = responses[i];
  XTRA_ASSERT_MSG(std::find(g.send_slots_.begin(), g.send_slots_.end(),
                            kInvalidLid) == g.send_slots_.end(),
                  "a toSend rank never asked for its ghost's degree");

  return g;
}

}  // namespace xtra::graph
