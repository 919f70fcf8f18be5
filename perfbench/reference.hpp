// Serial references the benchmark checks the distributed outputs
// against. Computed outside every timed region.
#pragma once

#include <cstdint>
#include <functional>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/types.hpp"

namespace perfbench {

using xtra::count_t;
using xtra::gid_t;

/// Connected-component root (smallest member gid) of every vertex of
/// an undirected edge list: union-find with path halving.
inline std::vector<gid_t> component_roots(const xtra::graph::EdgeList& el) {
  std::vector<gid_t> parent(el.n);
  std::iota(parent.begin(), parent.end(), gid_t{0});
  auto find = [&parent](gid_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (const xtra::graph::Edge& e : el.edges) {
    const gid_t a = find(e.u), b = find(e.v);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  for (gid_t v = 0; v < el.n; ++v) parent[v] = find(v);
  return parent;
}

/// Dijkstra from `root` over an undirected edge list with weights
/// weight(u, v); unreachable vertices get `inf`.
inline std::vector<count_t> dijkstra(
    const xtra::graph::EdgeList& el, gid_t root, count_t inf,
    const std::function<count_t(gid_t, gid_t)>& weight) {
  std::vector<count_t> offsets(el.n + 1, 0);
  for (const xtra::graph::Edge& e : el.edges) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<std::pair<gid_t, count_t>> adj(
      static_cast<std::size_t>(offsets.back()));
  std::vector<count_t> fill(offsets.begin(), offsets.end() - 1);
  for (const xtra::graph::Edge& e : el.edges) {
    const count_t w = weight(e.u, e.v);
    adj[static_cast<std::size_t>(fill[e.u]++)] = {e.v, w};
    adj[static_cast<std::size_t>(fill[e.v]++)] = {e.u, w};
  }
  std::vector<count_t> dist(el.n, inf);
  using Item = std::pair<count_t, gid_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[root] = 0;
  heap.push({0, root});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[v]) continue;
    for (count_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const auto [u, w] = adj[static_cast<std::size_t>(i)];
      if (d + w < dist[u]) {
        dist[u] = d + w;
        heap.push({dist[u], u});
      }
    }
  }
  return dist;
}

}  // namespace perfbench
