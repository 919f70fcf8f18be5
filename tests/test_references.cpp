// Cross-validation of the distributed analytics against independent
// serial reference implementations (union-find, peeling, Tarjan-style
// SCC via Kosaraju, dijkstra-free BFS harmonic sums). The references
// are written from first principles so an error in the distributed
// code cannot be mirrored here.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <queue>
#include <set>

#include "analytics/analytics.hpp"
#include "analytics/programs.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "mpisim/comm.hpp"

namespace xtra::analytics {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::VertexDist;

// ---------------------------------------------------------------------------
// Serial references

struct UnionFind {
  std::vector<gid_t> parent;
  explicit UnionFind(gid_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), gid_t{0});
  }
  gid_t find(gid_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(gid_t a, gid_t b) { parent[find(a)] = find(b); }
};

/// Exact coreness by iterative peeling.
std::vector<count_t> serial_coreness(const EdgeList& el) {
  std::vector<std::set<gid_t>> adj(el.n);
  for (const Edge& e : el.edges) {
    if (e.u == e.v) continue;
    adj[e.u].insert(e.v);
    adj[e.v].insert(e.u);
  }
  std::vector<count_t> core(el.n, 0);
  std::vector<bool> removed(el.n, false);
  for (count_t k = 0;; ++k) {
    bool all_removed = true;
    bool changed = true;
    while (changed) {
      changed = false;
      for (gid_t v = 0; v < el.n; ++v) {
        if (removed[v]) continue;
        if (static_cast<count_t>(adj[v].size()) <= k) {
          core[v] = k;
          removed[v] = true;
          changed = true;
          for (const gid_t u : adj[v]) adj[u].erase(v);
          adj[v].clear();
        }
      }
    }
    for (gid_t v = 0; v < el.n; ++v)
      if (!removed[v]) all_removed = false;
    if (all_removed) break;
  }
  return core;
}

/// Largest SCC size via Kosaraju's algorithm.
count_t serial_largest_scc(const EdgeList& el) {
  std::vector<std::vector<gid_t>> out(el.n), in(el.n);
  for (const Edge& e : el.edges) {
    if (e.u == e.v) continue;
    out[e.u].push_back(e.v);
    in[e.v].push_back(e.u);
  }
  std::vector<bool> seen(el.n, false);
  std::vector<gid_t> order;
  order.reserve(el.n);
  // Iterative post-order DFS on the forward graph.
  for (gid_t s = 0; s < el.n; ++s) {
    if (seen[s]) continue;
    std::vector<std::pair<gid_t, std::size_t>> stack{{s, 0}};
    seen[s] = true;
    while (!stack.empty()) {
      auto& [v, i] = stack.back();
      if (i < out[v].size()) {
        const gid_t u = out[v][i++];
        if (!seen[u]) {
          seen[u] = true;
          stack.push_back({u, 0});
        }
      } else {
        order.push_back(v);
        stack.pop_back();
      }
    }
  }
  // Reverse pass in decreasing post-order.
  std::vector<bool> assigned(el.n, false);
  count_t largest = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (assigned[*it]) continue;
    count_t size = 0;
    std::vector<gid_t> stack{*it};
    assigned[*it] = true;
    while (!stack.empty()) {
      const gid_t v = stack.back();
      stack.pop_back();
      ++size;
      for (const gid_t u : in[v])
        if (!assigned[u]) {
          assigned[u] = true;
          stack.push_back(u);
        }
    }
    largest = std::max(largest, size);
  }
  return largest;
}

/// Harmonic centrality of one source by plain BFS.
double serial_harmonic(const EdgeList& el, gid_t source) {
  std::vector<std::vector<gid_t>> adj(el.n);
  for (const Edge& e : el.edges) {
    if (e.u == e.v) continue;
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<count_t> dist(el.n, -1);
  std::queue<gid_t> q;
  q.push(source);
  dist[source] = 0;
  double hc = 0.0;
  while (!q.empty()) {
    const gid_t v = q.front();
    q.pop();
    if (dist[v] > 0) hc += 1.0 / static_cast<double>(dist[v]);
    for (const gid_t u : adj[v])
      if (dist[u] < 0) {
        dist[u] = dist[v] + 1;
        q.push(u);
      }
  }
  return hc;
}

// ---------------------------------------------------------------------------
// Cross-validation

class RefRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, RefRanks, ::testing::Values(1, 3),
                         [](const auto& inf) {
                           return "nranks_" + std::to_string(inf.param);
                         });

TEST_P(RefRanks, WccMatchesUnionFind) {
  const int nranks = GetParam();
  // Sparse ER below the connectivity threshold: many components.
  const EdgeList el = gen::erdos_renyi(2000, 2, 7);
  UnionFind uf(el.n);
  for (const Edge& e : el.edges) uf.unite(e.u, e.v);
  std::map<gid_t, count_t> sizes;
  for (gid_t v = 0; v < el.n; ++v) ++sizes[uf.find(v)];
  count_t ref_largest = 0;
  for (const auto& [root, size] : sizes)
    ref_largest = std::max(ref_largest, size);

  sim::run_world(nranks, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::random(el.n, nranks, 3));
    WccProgram r;
    engine::run(comm, g, r);
    EXPECT_EQ(r.num_components, static_cast<count_t>(sizes.size()));
    EXPECT_EQ(r.largest_size, ref_largest);
  });
}

TEST_P(RefRanks, KcoreMatchesPeeling) {
  const int nranks = GetParam();
  const EdgeList el = gen::community_graph(800, 8, 0.6, 2.3, 5);
  const std::vector<count_t> ref = serial_coreness(el);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::random(el.n, nranks, 5));
    // Enough rounds for full h-index convergence.
    KCoreProgram r;
    engine::run(comm, g, r, {.max_supersteps = 200});
    for (lid_t v = 0; v < g.n_local(); ++v)
      EXPECT_EQ(r.core[v], ref[g.gid_of(v)]) << "gid " << g.gid_of(v);
  });
}

TEST_P(RefRanks, SccMatchesKosaraju) {
  const int nranks = GetParam();
  // Directed random graph dense enough for a giant SCC.
  EdgeList el;
  el.n = 600;
  el.directed = true;
  Rng rng(17);
  for (int e = 0; e < 2400; ++e)
    el.edges.push_back({rng.next_below(el.n), rng.next_below(el.n)});
  const count_t ref = serial_largest_scc(el);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::random(el.n, nranks, 9));
    const SccResult r = largest_scc(comm, g);
    // The distributed extractor targets the pivot's SCC; with a giant
    // SCC the max-degree pivot lies inside it.
    EXPECT_EQ(r.scc_size, ref);
  });
}

TEST_P(RefRanks, HarmonicMatchesBfsReference) {
  const int nranks = GetParam();
  const EdgeList el = gen::watts_strogatz(500, 6, 0.1, 3);
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, nranks));
    const HarmonicResult r = harmonic_centrality(comm, g, 5, 21);
    for (std::size_t i = 0; i < r.sources.size(); ++i)
      EXPECT_NEAR(r.centrality[i], serial_harmonic(el, r.sources[i]), 1e-9);
  });
}

TEST_P(RefRanks, PageRankSumsToOneOnDisconnectedGraph) {
  // Dangling mass handling: isolated vertices + components.
  const int nranks = GetParam();
  EdgeList el;
  el.n = 50;
  el.edges = {{0, 1}, {1, 2}, {10, 11}};  // mostly isolated vertices
  sim::run_world(nranks, [&](sim::Comm& comm) {
    const auto g = graph::build_dist_graph(
        comm, el, VertexDist::block(el.n, nranks));
    PageRankProgram pr;
    engine::run(comm, g, pr, {.max_supersteps = 30});
    EXPECT_NEAR(pr.sum, 1.0, 1e-9);
  });
}

TEST(SerialReferenceSanity, CorenessOfK4PlusTail) {
  EdgeList el;
  el.n = 6;
  el.edges = {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}};
  const auto core = serial_coreness(el);
  EXPECT_EQ(core, (std::vector<count_t>{3, 3, 3, 3, 1, 1}));
}

TEST(SerialReferenceSanity, KosarajuOnCycleWithTail) {
  EdgeList el;
  el.n = 5;
  el.directed = true;
  el.edges = {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}};
  EXPECT_EQ(serial_largest_scc(el), 3);
}

}  // namespace
}  // namespace xtra::analytics
