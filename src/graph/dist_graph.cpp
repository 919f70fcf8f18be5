#include "graph/dist_graph.hpp"

#include <algorithm>
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

/// Bucket arcs by owner(src) and exchange them so that every arc lands
/// on the rank owning its source.
std::vector<Arc> exchange_arcs(sim::Comm& comm, comm::Exchanger& ex,
                               const VertexDist& dist,
                               const std::vector<Arc>& arcs) {
  comm::DestBuckets<Arc> buckets;
  buckets.build(
      comm.size(), arcs, [&dist](const Arc& a) { return dist.owner(a.src); },
      [](const Arc& a) { return a; });
  const std::span<const Arc> recv = ex.exchange(comm, buckets);
  return {recv.begin(), recv.end()};
}

/// CSR over owned vertices from arcs whose src is owned here. Ghost
/// discovery happens via `intern`, which maps a gid to a lid (creating
/// ghost lids on first sight).
template <typename InternFn>
void build_csr(const std::vector<Arc>& arcs, lid_t n_local,
               InternFn&& intern, std::vector<count_t>& offsets,
               std::vector<lid_t>& adj) {
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

}  // namespace

count_t DistGraph::local_degree_sum() const {
  count_t sum = 0;
  for (lid_t v = 0; v < n_local_; ++v) sum += degree_[v];
  return sum;
}

DistGraph build_dist_graph(sim::Comm& comm, const EdgeList& el,
                           const VertexDist& dist) {
  XTRA_ASSERT(dist.nranks() == comm.size());
  const int rank = comm.rank();
  DistGraph g(dist, rank);
  g.directed_ = el.directed;

  // 1. Each rank ingests a contiguous slice of the global edge array,
  //    mimicking a parallel loader; the exchange below moves every arc
  //    to the rank owning its source vertex.
  const std::size_t m_in = el.edges.size();
  const std::size_t p = static_cast<std::size_t>(comm.size());
  const std::size_t lo = m_in * static_cast<std::size_t>(rank) / p;
  const std::size_t hi = m_in * (static_cast<std::size_t>(rank) + 1) / p;

  std::vector<Arc> out_arcs;
  out_arcs.reserve((hi - lo) * (el.directed ? 1 : 2));
  std::vector<Arc> in_arcs;  // directed graphs only
  if (el.directed) in_arcs.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    const Edge& e = el.edges[i];
    if (e.u == e.v) continue;  // self-loops carry no partitioning signal
    XTRA_ASSERT(e.u < el.n && e.v < el.n);
    if (el.directed) {
      out_arcs.push_back({e.u, e.v});
      in_arcs.push_back({e.v, e.u});
    } else {
      out_arcs.push_back({e.u, e.v});
      out_arcs.push_back({e.v, e.u});
    }
  }

  comm::Exchanger ex;  // one wire engine for the whole build
  std::vector<Arc> my_out = exchange_arcs(comm, ex, dist, out_arcs);
  std::vector<Arc> my_in;
  if (el.directed) my_in = exchange_arcs(comm, ex, dist, in_arcs);
  out_arcs.clear();
  out_arcs.shrink_to_fit();
  in_arcs.clear();
  in_arcs.shrink_to_fit();

  // 2. Enumerate owned vertices in gid order -> lids [0, n_local).
  for (gid_t v = 0; v < dist.n_global(); ++v) {
    if (dist.owner(v) == rank) {
      g.gid_to_lid_.insert(v, static_cast<lid_t>(g.lid_to_gid_.size()));
      g.lid_to_gid_.push_back(v);
    }
  }
  g.n_local_ = static_cast<lid_t>(g.lid_to_gid_.size());

  // 3. Build CSRs, interning ghosts on first sight.
  auto intern = [&g](gid_t gid) -> lid_t {
    lid_t l = g.gid_to_lid_.find(gid);
    if (l != kInvalidLid) return l;
    l = static_cast<lid_t>(g.lid_to_gid_.size());
    g.gid_to_lid_.insert(gid, l);
    g.lid_to_gid_.push_back(gid);
    return l;
  };
  build_csr(my_out, g.n_local_, intern, g.offsets_, g.adj_);
  if (el.directed) build_csr(my_in, g.n_local_, intern, g.in_offsets_, g.in_adj_);
  g.n_ghost_ = static_cast<lid_t>(g.lid_to_gid_.size()) - g.n_local_;

  // 4. Owner of every ghost, then each owned vertex's toSend ranks
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

  // 5. Global edge/arc count.
  const count_t local_arcs = static_cast<count_t>(g.adj_.size());
  count_t total_arcs = comm.allreduce_sum(local_arcs);
  g.m_global_ = el.directed ? total_arcs : total_arcs / 2;

  // 6. Degrees: owned vertices know theirs locally; ghost degrees are
  //    fetched from their owners (one query + one response exchange).
  //    The vertex-balance phase needs degree(u) for ghost u.
  g.degree_.assign(g.n_total(), 0);
  for (lid_t v = 0; v < g.n_local_; ++v) {
    g.degree_[v] = g.out_degree(v);
    if (el.directed) g.degree_[v] += g.in_offsets_[v + 1] - g.in_offsets_[v];
  }

  // Ghost gids grouped by owner, remembering each query's ghost lid so
  // responses (which come back in identical order) can be scattered.
  comm::DestBuckets<gid_t> queries;
  queries.begin(comm.size());
  for (const int owner : ghost_owner) queries.count(owner);
  queries.commit();
  std::vector<lid_t> query_lid(g.n_ghost_);
  for (lid_t v = g.n_local_; v < g.n_total(); ++v) {
    const count_t slot =
        queries.push(ghost_owner[v - g.n_local_], g.lid_to_gid_[v]);
    query_lid[static_cast<std::size_t>(slot)] = v;
  }
  const std::span<const count_t> responses = comm::query_reply(
      comm, ex, queries.records(), queries.counts(), [&g](const gid_t q) {
        const lid_t l = g.gid_to_lid_.find(q);
        XTRA_ASSERT_MSG(l != kInvalidLid && l < g.n_local_,
                        "degree query for vertex not owned here");
        return g.degree_[l];
      });
  XTRA_ASSERT(responses.size() == query_lid.size());
  for (std::size_t i = 0; i < responses.size(); ++i)
    g.degree_[query_lid[i]] = responses[i];

  return g;
}

}  // namespace xtra::graph
