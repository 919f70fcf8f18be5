#include <algorithm>
#include <cmath>

#include "gen/chunk_gen.hpp"
#include "gen/generators.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace xtra::gen {

namespace {

/// Zipf-like degree sample: floor(xmin * u^(-1/(alpha-1))) capped.
count_t powerlaw_degree(Rng& rng, double xmin, double alpha, count_t cap) {
  const double u = std::max(rng.next_double(), 1e-12);
  const double x = xmin * std::pow(u, -1.0 / (alpha - 1.0));
  return std::min<count_t>(static_cast<count_t>(x), cap);
}

/// Pareto-sized contiguous groups covering [0, n). Returns group start
/// offsets (size k+1, last element n).
std::vector<gid_t> pareto_groups(gid_t n, gid_t min_size, double alpha,
                                 Rng& rng) {
  std::vector<gid_t> starts{0};
  gid_t at = 0;
  while (at < n) {
    const double u = std::max(rng.next_double(), 1e-12);
    auto size = static_cast<gid_t>(
        static_cast<double>(min_size) * std::pow(u, -1.0 / alpha));
    size = std::min(size, n - at);
    size = std::min(size, n / 8 + 1);  // no single group dominates
    at += std::max<gid_t>(size, 1);
    starts.push_back(std::min(at, n));
  }
  if (starts.back() != n) starts.push_back(n);
  return starts;
}

/// Index of the group containing v given sorted start offsets.
std::size_t group_of(const std::vector<gid_t>& starts, gid_t v) {
  auto it = std::upper_bound(starts.begin(), starts.end(), v);
  return static_cast<std::size_t>(it - starts.begin()) - 1;
}

}  // namespace

EdgeList watts_strogatz(gid_t n, count_t k, double beta, std::uint64_t seed) {
  XTRA_ASSERT(n >= 4 && k >= 2);
  EdgeList el;
  el.n = n;
  el.directed = false;
  el.edges.reserve(static_cast<std::size_t>(n * (k / 2)));
  // Chunked over vertices, one stream per chunk (chunk_gen.hpp).
  detail::generate_chunked(
      el, static_cast<count_t>(n),
      [&](count_t c, count_t lo, count_t hi, auto& out) {
        Rng rng = detail::chunk_rng(seed, 0x3757, c);
        for (count_t i = lo; i < hi; ++i) {
          const gid_t v = static_cast<gid_t>(i);
          for (count_t j = 1; j <= k / 2; ++j) {
            gid_t target = (v + static_cast<gid_t>(j)) % n;
            if (rng.next_bool(beta)) {
              target = rng.next_below(n);
              if (target == v) target = (v + 1) % n;
            }
            out.push_back({v, target});
          }
        }
      });
  graph::canonicalize(el);
  return el;
}

EdgeList community_graph(gid_t n, count_t avg_degree, double p_in,
                         double degree_alpha, std::uint64_t seed) {
  XTRA_ASSERT(n >= 16 && avg_degree >= 2);
  Rng rng(seed, 0xC0FFEE);
  // Communities of Pareto-distributed size, mean a few hundred.
  const std::vector<gid_t> starts = pareto_groups(n, 32, 1.5, rng);

  EdgeList el;
  el.n = n;
  el.directed = false;
  el.edges.reserve(static_cast<std::size_t>(n * avg_degree / 2));
  const count_t cap = static_cast<count_t>(std::sqrt(double(n))) * 8;
  for (gid_t v = 0; v < n; ++v) {
    const std::size_t c = group_of(starts, v);
    const gid_t c_lo = starts[c], c_hi = starts[c + 1];
    // Each undirected edge adds degree at both endpoints, so the
    // per-vertex stub budget targets avg_degree/2; the Pareto mean is
    // xmin*(alpha-1)/(alpha-2), solved here for xmin (heavier tails
    // are cap-dominated and need a smaller floor).
    const double xmin =
        std::max(static_cast<double>(avg_degree) /
                     (degree_alpha > 2.05 ? 6.5 : 15.0),
                 0.8);
    const count_t deg = powerlaw_degree(rng, xmin, degree_alpha, cap);
    for (count_t j = 0; j < deg; ++j) {
      gid_t target;
      if (c_hi - c_lo > 1 && rng.next_bool(p_in)) {
        target = c_lo + rng.next_below(c_hi - c_lo);
      } else {
        // Global edge with mild preferential attachment: low ids of a
        // random community are its "hubs" under the quadratic skew.
        const double u = rng.next_double();
        target = static_cast<gid_t>(u * u * static_cast<double>(n));
        target = std::min(target, n - 1);
      }
      if (target == v) continue;
      el.edges.push_back({v, target});
    }
  }
  graph::canonicalize(el);
  return el;
}

EdgeList webcrawl(gid_t n, count_t avg_degree, std::uint64_t seed,
                  double p_host, double p_near) {
  XTRA_ASSERT(n >= 64 && avg_degree >= 2);
  XTRA_ASSERT(p_host + p_near <= 1.0);
  Rng rng(seed, 0x3EB);
  // Hosts are contiguous in crawl (= vertex) order; Pareto sizes give a
  // few giant hosts, matching the WDC12 imbalance under block layout.
  const std::vector<gid_t> hosts = pareto_groups(n, 16, 1.2, rng);
  const auto n_hosts = static_cast<gid_t>(hosts.size() - 1);

  // Topical communities *across* hosts: real crawls cluster by topic,
  // not just by crawl order, so a good partitioner can beat the block
  // layout (the XtraPuLP-vs-block gap of Fig 5/8). Hosts of one topic
  // are scattered through the id space.
  const auto n_topics = std::max<gid_t>(16, n_hosts / 24);
  std::vector<std::vector<gid_t>> topic_hosts(n_topics);
  for (gid_t h = 0; h < n_hosts; ++h)
    topic_hosts[hash_to_bucket(h, seed ^ 0x70F1C, n_topics)].push_back(h);
  // Of the non-host, non-near probability mass, 3/4 goes to same-topic
  // hosts and 1/4 to global Zipf hubs.
  const double p_topic = (1.0 - p_host - p_near) * 0.75;

  EdgeList el;
  el.n = n;
  el.directed = true;
  el.edges.reserve(static_cast<std::size_t>(n * avg_degree));
  const count_t cap = static_cast<count_t>(std::sqrt(double(n))) * 16;
  for (gid_t v = 0; v < n; ++v) {
    const auto h = static_cast<gid_t>(group_of(hosts, v));
    const count_t deg = powerlaw_degree(
        rng, std::max(static_cast<double>(avg_degree) / 6.0, 0.8), 2.1, cap);
    for (count_t j = 0; j < deg; ++j) {
      gid_t target;
      const double roll = rng.next_double();
      if (roll < p_host && hosts[h + 1] - hosts[h] > 1) {
        // intra-host navigation link
        target = hosts[h] + rng.next_below(hosts[h + 1] - hosts[h]);
      } else if (roll < p_host + p_near && n_hosts > 1) {
        // link to a crawl-adjacent host (window of +-8 hosts)
        const std::uint64_t win = std::min<std::uint64_t>(17, n_hosts);
        auto th = static_cast<std::int64_t>(h) +
                  static_cast<std::int64_t>(rng.next_below(win)) -
                  static_cast<std::int64_t>(win / 2);
        th = ((th % static_cast<std::int64_t>(n_hosts)) +
              static_cast<std::int64_t>(n_hosts)) %
             static_cast<std::int64_t>(n_hosts);
        const auto t = static_cast<gid_t>(th);
        target = hosts[t] + rng.next_below(std::max<gid_t>(
                                hosts[t + 1] - hosts[t], 1));
      } else if (roll < p_host + p_near + p_topic &&
                 !topic_hosts[hash_to_bucket(h, seed ^ 0x70F1C, n_topics)]
                      .empty()) {
        // link to a page of another host with the same topic
        const auto& peers =
            topic_hosts[hash_to_bucket(h, seed ^ 0x70F1C, n_topics)];
        const gid_t t = peers[rng.next_below(peers.size())];
        target = hosts[t] +
                 rng.next_below(std::max<gid_t>(hosts[t + 1] - hosts[t], 1));
      } else {
        // long-range link to a globally popular page (Zipf hubs)
        const double u = rng.next_double();
        target = static_cast<gid_t>(u * u * u * static_cast<double>(n));
        target = std::min(target, n - 1);
      }
      if (target == v) continue;
      el.edges.push_back({v, target});
    }
  }
  // Keep duplicates out but preserve direction.
  graph::canonicalize(el);
  return el;
}

}  // namespace xtra::gen
