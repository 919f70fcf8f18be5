// Out-of-core segment cache (graph::SegmentCache, DESIGN.md §9):
// frame-pool mechanics at the unit level (undersized budgets, pinned
// borrows, zero-degree ranges, prefetch stall accounting), the
// DistGraph arcs()/in_arcs() surface against the in-core arrays for
// both backings, and the ISSUE acceptance matrix — Partition +
// PageRank + WCC bit-identical with an equal exchange wire ledger
// between in-core and a 4x-undersized cache, across the engine's
// transport knob matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "analytics/analytics.hpp"
#include "analytics/programs.hpp"
#include "core/xtrapulp.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "graph/segcache.hpp"
#include "mpisim/comm.hpp"

namespace xtra::graph {
namespace {

using analytics::CommLpProgram;
using analytics::PageRankProgram;
using analytics::WccProgram;

/// Per-rank adjacency working set in bytes (out + in regions), i.e.
/// exactly what enable_out_of_core moves into the backing.
count_t working_set_bytes(const DistGraph& g) {
  count_t entries = g.m_local();
  for (lid_t v = 0; v < g.n_local(); ++v)
    if (g.directed()) entries += g.in_degree(v);
  return entries * static_cast<count_t>(sizeof(lid_t));
}

std::vector<lid_t> to_vec(const NeighborRef& r) {
  return {r.begin(), r.end()};
}

/// Gather a per-vertex result into gid order on every rank's view.
template <typename T>
std::vector<T> by_gid(sim::Comm& comm, const DistGraph& g,
                      const std::vector<T>& vals) {
  std::vector<T> global(g.n_global(), T{});
  for (lid_t v = 0; v < g.n_local(); ++v) global[g.gid_of(v)] = vals[v];
  comm.allreduce_max(global);
  return global;
}

/// Every deterministic counter of the run's wire accounting. The
/// segment-cache ledger is deliberately excluded: OOC runs must leave
/// these exact fields untouched (seg fetch traffic is not exchange
/// traffic).
std::vector<count_t> wire_ledger(const engine::Stats& st) {
  const comm::ExchangeStats& ex = st.exchange;
  return {st.supersteps,          ex.exchanges,
          ex.phases,              ex.records_sent,
          ex.bytes_sent,          ex.inter_node_bytes,
          ex.intra_node_bytes,    ex.inter_node_msgs,
          ex.coalesced_flushes,   ex.overlapped,
          ex.max_inflight_bytes,  ex.drained_incrementally,
          ex.pipeline_carried,    ex.max_pipeline_depth,
          ex.one_sided_gets,      ex.one_sided_bytes};
}

// ---------------------------------------------------------------------------
// SegmentCache unit mechanics (kMmap; no world interaction needed
// beyond the run_world harness).

std::vector<lid_t> iota_entries(count_t n) {
  std::vector<lid_t> e(static_cast<std::size_t>(n));
  std::iota(e.begin(), e.end(), lid_t{1000});
  return e;
}

TEST(SegCache, BudgetSmallerThanOneSegmentStillServes) {
  sim::run_world(1, [&](sim::Comm& comm) {
    const count_t n = 1000;
    const std::vector<lid_t> src = iota_entries(n);
    SegCacheOptions opt;
    opt.segment_bytes = 1 << 12;  // 512 entries/segment
    opt.budget_bytes = 8;         // far below one segment
    SegmentCache cache(comm, std::vector<lid_t>(src), opt);
    EXPECT_EQ(cache.num_frames(), 1);
    EXPECT_EQ(cache.num_segments(), 2);
    // Single-segment, spanning, and whole-store borrows all come back
    // byte-exact through the one frame.
    for (const auto& [b, e] : {std::pair<count_t, count_t>{0, 10},
                              {500, 520},  // spans the segment boundary
                              {0, n},
                              {n - 3, n}}) {
      const NeighborRef r = cache.borrow(b, e);
      ASSERT_EQ(r.size(), static_cast<std::size_t>(e - b));
      for (count_t i = b; i < e; ++i)
        EXPECT_EQ(r[static_cast<std::size_t>(i - b)],
                  src[static_cast<std::size_t>(i)]);
    }
    EXPECT_GT(cache.stats().seg_misses, 0);
    EXPECT_EQ(cache.pinned_frames(), 0);  // all refs released
  });
}

TEST(SegCache, ZeroLengthBorrowTouchesNothing) {
  sim::run_world(1, [&](sim::Comm& comm) {
    SegCacheOptions opt;
    opt.budget_bytes = 1 << 20;
    SegmentCache cache(comm, iota_entries(100), opt);
    const SegCacheStats before = cache.stats();
    const NeighborRef r = cache.borrow(42, 42);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(cache.stats().seg_hits, before.seg_hits);
    EXPECT_EQ(cache.stats().seg_misses, before.seg_misses);
    EXPECT_EQ(cache.stats().seg_fetch_bytes, before.seg_fetch_bytes);
  });
}

TEST(SegCache, BorrowedFrameIsNeverEvicted) {
  sim::run_world(1, [&](sim::Comm& comm) {
    const count_t n = 1024;  // two 512-entry segments
    const std::vector<lid_t> src = iota_entries(n);
    SegCacheOptions opt;
    opt.segment_bytes = 1 << 12;
    opt.budget_bytes = 1 << 12;  // exactly one frame
    opt.prefetch = false;
    SegmentCache cache(comm, std::vector<lid_t>(src), opt);
    ASSERT_EQ(cache.num_frames(), 1);

    // Pin segment 0 with a live borrow, then demand segment 1: the
    // cache must bounce (serve a copy) rather than evict the pinned
    // frame under the first ref's feet.
    const NeighborRef pinned = cache.borrow(0, 8);
    EXPECT_EQ(cache.pinned_frames(), 1);
    const count_t evictions_before = cache.stats().seg_evictions;
    const NeighborRef bounced = cache.borrow(512, 520);
    EXPECT_EQ(cache.stats().seg_evictions, evictions_before);
    EXPECT_TRUE(cache.resident(0));
    EXPECT_FALSE(cache.resident(1));
    // Both views stay correct.
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(pinned[i], src[i]);
      EXPECT_EQ(bounced[i], src[512 + i]);
    }
  });
}

TEST(SegCache, PlannedPrefetchConvertsStallIntoOverlap) {
  sim::run_world(1, [&](sim::Comm& comm) {
    const count_t n = 8 * 512;  // 8 segments
    double stall[2] = {0.0, 0.0};
    count_t prefetch_hits[2] = {0, 0};
    for (const bool prefetch : {false, true}) {
      SegCacheOptions opt;
      opt.segment_bytes = 1 << 12;
      opt.budget_bytes = 4 << 12;  // 4 frames: half the working set
      opt.prefetch = prefetch;
      SegmentCache cache(comm, iota_entries(n), opt);
      std::vector<count_t> plan(8);
      std::iota(plan.begin(), plan.end(), count_t{0});
      cache.set_plan(plan);
      for (count_t s = 0; s < 8; ++s) {
        const NeighborRef r = cache.borrow(s * 512, (s + 1) * 512);
        EXPECT_EQ(r.size(), 512u);
      }
      stall[prefetch] = cache.stats().seg_stall_seconds;
      prefetch_hits[prefetch] = cache.stats().seg_prefetch_hits;
      // Every entry crossed the backing at least once either way.
      EXPECT_GE(cache.stats().seg_fetch_bytes,
                n * static_cast<count_t>(sizeof(lid_t)));
    }
    EXPECT_EQ(prefetch_hits[0], 0);
    EXPECT_GT(prefetch_hits[1], 0);
    // The contract CI gates on: a landed plan strictly reduces the
    // modeled demand stall.
    EXPECT_LT(stall[1], stall[0]);
  });
}

TEST(SegCache, RemoteBackingRoundTripsAndClosesCleanly) {
  // 4 ranks, rank 0 hosts everyone's segments; each rank's slice must
  // come back byte-exact and the fetch-lane window must be unexposed
  // before the world ends (the comm verifier audits the lifecycle).
  sim::run_world(
      4,
      [&](sim::Comm& comm) {
        const count_t n = 300 + 100 * comm.rank();
        std::vector<lid_t> src(static_cast<std::size_t>(n));
        std::iota(src.begin(), src.end(),
                  static_cast<lid_t>(10000 * (comm.rank() + 1)));
        SegCacheOptions opt;
        opt.backing = SegBacking::kRemote;
        opt.host_rank = 0;
        opt.segment_bytes = 256;  // 32 entries: plenty of segments
        opt.budget_bytes = 512;   // 2 frames
        SegmentCache cache(comm, std::vector<lid_t>(src), opt);
        for (const auto& [b, e] : {std::pair<count_t, count_t>{0, 5},
                                  {40, 100},
                                  {n - 7, n}}) {
          const NeighborRef r = cache.borrow(b, e);
          ASSERT_EQ(r.size(), static_cast<std::size_t>(e - b));
          for (count_t i = b; i < e; ++i)
            EXPECT_EQ(r[static_cast<std::size_t>(i - b)],
                      src[static_cast<std::size_t>(i)]);
        }
        EXPECT_GT(cache.stats().seg_fetch_bytes, 0);
        cache.close(comm);
      },
      /*ranks_per_node=*/2);
}

// ---------------------------------------------------------------------------
// DistGraph surface: arcs()/in_arcs() against the in-core arrays.

TEST(SegCacheGraph, ArcsMatchInCoreAdjacencyBothBackings) {
  const EdgeList el = gen::community_graph(600, 8, 0.7, 2.3, 5);
  for (const SegBacking backing : {SegBacking::kMmap, SegBacking::kRemote}) {
    sim::run_world(
        4,
        [&](sim::Comm& comm) {
          DistGraph g = build_dist_graph(
              comm, el, VertexDist::random(el.n, 4, 3));
          std::vector<std::vector<lid_t>> expect(g.n_local());
          for (lid_t v = 0; v < g.n_local(); ++v) {
            const auto s = g.neighbors(v);
            expect[v] = {s.begin(), s.end()};
          }
          SegCacheOptions opt;
          opt.backing = backing;
          opt.segment_bytes = 1 << 9;
          opt.budget_bytes = working_set_bytes(g) / 4;
          g.enable_out_of_core(comm, opt);
          EXPECT_TRUE(g.out_of_core());
          for (lid_t v = 0; v < g.n_local(); ++v)
            EXPECT_EQ(to_vec(g.arcs(v)), expect[v]) << "lid " << v;
          EXPECT_GT(g.segcache_stats().seg_misses, 0);
          g.disable_out_of_core(comm);
          EXPECT_FALSE(g.out_of_core());
          // In-core arrays restored bit-exact.
          for (lid_t v = 0; v < g.n_local(); ++v) {
            const auto s = g.neighbors(v);
            EXPECT_EQ(std::vector<lid_t>(s.begin(), s.end()), expect[v]);
          }
        },
        /*ranks_per_node=*/2);
  }
}

TEST(SegCacheGraph, DirectedInArcsMatchAndZeroDegreeSafe) {
  // Webcrawl graphs are directed and leave plenty of vertices with
  // zero in- or out-degree, so the [adj | in_adj] concatenation's
  // segment boundaries get exercised by empty ranges on both sides.
  const EdgeList el = gen::webcrawl(800, 6, 7);
  sim::run_world(4, [&](sim::Comm& comm) {
    DistGraph g = build_dist_graph(
        comm, el, VertexDist::random(el.n, 4, 3));
    ASSERT_TRUE(g.directed());
    std::vector<std::vector<lid_t>> out(g.n_local()), in(g.n_local());
    count_t zero_deg = 0;
    for (lid_t v = 0; v < g.n_local(); ++v) {
      const auto so = g.neighbors(v);
      const auto si = g.in_neighbors(v);
      out[v] = {so.begin(), so.end()};
      in[v] = {si.begin(), si.end()};
      if (out[v].empty() || in[v].empty()) ++zero_deg;
    }
    EXPECT_GT(comm.allreduce_sum(zero_deg), 0);
    SegCacheOptions opt;
    opt.segment_bytes = 1 << 8;  // tiny segments: many boundaries
    opt.budget_bytes = working_set_bytes(g) / 4;
    g.enable_out_of_core(comm, opt);
    const SegCacheStats before = g.segcache_stats();
    for (lid_t v = 0; v < g.n_local(); ++v)
      if (out[v].empty()) {
        EXPECT_TRUE(g.arcs(v).empty());
      }
    // Zero-degree borrows are free: no fetches, no hits, no misses.
    EXPECT_EQ(g.segcache_stats().seg_fetch_bytes, before.seg_fetch_bytes);
    EXPECT_EQ(g.segcache_stats().seg_hits, before.seg_hits);
    for (lid_t v = 0; v < g.n_local(); ++v) {
      EXPECT_EQ(to_vec(g.arcs(v)), out[v]) << "out lid " << v;
      EXPECT_EQ(to_vec(g.in_arcs(v)), in[v]) << "in lid " << v;
    }
    g.disable_out_of_core(comm);
  });
}

// ---------------------------------------------------------------------------
// ISSUE acceptance: the analytics knob matrix, bit-identical between
// in-core and a 4x-undersized cache, with the exchange wire ledger
// untouched. WCC contracts to a unique fixpoint, so every transport
// cell must reproduce the in-core run bit for bit — and since seg
// fetches are not exchange traffic, each cell's wire ledger must be
// byte-equal too.

std::vector<engine::Config> knob_matrix() {
  std::vector<engine::Config> cfgs;
  for (const comm::ShardPolicy policy :
       {comm::ShardPolicy::kFlat, comm::ShardPolicy::kHierarchical})
    for (const comm::Backend backend :
         {comm::Backend::kTwoSided, comm::Backend::kOneSided}) {
      for (const int depth : {0, 1, 2}) {
        engine::Config cfg;
        cfg.shard_policy = policy;
        cfg.backend = backend;
        cfg.pipeline_depth = depth;
        cfgs.push_back(cfg);
      }
      for (const int coalesce : {1, 3}) {
        engine::Config cfg;
        cfg.shard_policy = policy;
        cfg.backend = backend;
        cfg.coalesce_every = coalesce;
        cfgs.push_back(cfg);
      }
    }
  return cfgs;
}

std::string cfg_name(const engine::Config& cfg) {
  return std::string(cfg.shard_policy == comm::ShardPolicy::kFlat ? "flat"
                                                                  : "hier") +
         (cfg.backend == comm::Backend::kOneSided ? "/1s" : "/2s") + "/d" +
         std::to_string(cfg.pipeline_depth) + "/c" +
         std::to_string(cfg.coalesce_every);
}

TEST(SegCacheMatrix, WccBitIdenticalAndWireLedgerEqualUnderPressure) {
  const EdgeList el = gen::community_graph(1'000, 10, 0.7, 2.3, 5);
  for (const SegBacking backing : {SegBacking::kMmap, SegBacking::kRemote}) {
    for (const engine::Config& cfg : knob_matrix()) {
      std::vector<gid_t> ref;
      std::vector<count_t> ref_wire;
      for (const bool ooc : {false, true}) {
        sim::run_world(
            4,
            [&](sim::Comm& comm) {
              DistGraph g = build_dist_graph(
                  comm, el, VertexDist::random(el.n, 4, 3));
              if (ooc) {
                SegCacheOptions opt;
                opt.backing = backing;
                opt.budget_bytes = working_set_bytes(g) / 4;
                g.enable_out_of_core(comm, opt);
              }
              WccProgram p;
              const engine::Stats st = engine::run(comm, g, p, cfg);
              const auto global = by_gid(comm, g, p.component);
              auto wire = wire_ledger(st);
              comm.allreduce_max(wire);
              if (ooc) {
                EXPECT_GT(st.exchange.seg_misses, 0) << cfg_name(cfg);
                g.disable_out_of_core(comm);
              } else {
                EXPECT_EQ(st.exchange.seg_misses, 0);
                EXPECT_EQ(st.exchange.seg_fetch_bytes, 0);
              }
              if (comm.rank() != 0) return;
              if (!ooc) {
                ref = global;
                ref_wire = wire;
              } else {
                EXPECT_EQ(global, ref)
                    << cfg_name(cfg) << (backing == SegBacking::kMmap
                                             ? " mmap"
                                             : " remote");
                EXPECT_EQ(wire, ref_wire)
                    << cfg_name(cfg) << (backing == SegBacking::kMmap
                                             ? " mmap"
                                             : " remote");
              }
            },
            /*ranks_per_node=*/2);
      }
    }
  }
}

// Partition + PageRank + WCC on one graph whose adjacency is >= 4x
// the cache budget: results bit-identical, engine wire ledger equal,
// and (mmap only — remote fetches are themselves wire traffic) the
// substrate byte total equal too.
TEST(SegCacheAcceptance, PartitionPageRankWccBitIdenticalBothBackings) {
  const EdgeList el = gen::community_graph(1'200, 12, 0.7, 2.3, 7);
  struct Reference {
    std::vector<part_t> parts;
    std::vector<double> rank;
    std::vector<gid_t> comp;
    std::vector<count_t> pr_wire, wcc_wire;
    count_t comm_bytes = -1;
  } ref;
  const auto run = [&](SegBacking backing, bool ooc) {
    sim::run_world(
        4,
        [&](sim::Comm& comm) {
          DistGraph g = build_dist_graph(
              comm, el, VertexDist::random(el.n, 4, 3));
          const count_t working = working_set_bytes(g);
          if (ooc) {
            SegCacheOptions opt;
            opt.backing = backing;
            opt.budget_bytes = working / 4;
            g.enable_out_of_core(comm, opt);
            ASSERT_GE(working,
                      4 * g.segcache()->num_frames() *
                          g.segcache()->entries_per_segment() *
                          static_cast<count_t>(sizeof(lid_t)));
          }
          const count_t bytes0 = comm.stats().bytes_sent;
          core::Params params;
          params.nparts = 8;
          const core::PartitionResult pr =
              core::partition(comm, g, params);
          PageRankProgram prog;
          engine::Config cfg;
          cfg.max_supersteps = 12;
          const engine::Stats pr_st = engine::run(comm, g, prog, cfg);
          WccProgram wcc;
          const engine::Stats wcc_st = engine::run(comm, g, wcc, cfg);
          // World total, not rank 0's: the host rank's own fetch-lane
          // pulls are self-target and therefore free.
          const count_t total_bytes =
              comm.allreduce_sum(comm.stats().bytes_sent - bytes0);

          const auto parts = by_gid(comm, g, pr.parts);
          const auto rank = by_gid(comm, g, prog.rank);
          const auto comp = by_gid(comm, g, wcc.component);
          auto pr_wire = wire_ledger(pr_st);
          auto wcc_wire = wire_ledger(wcc_st);
          comm.allreduce_max(pr_wire);
          comm.allreduce_max(wcc_wire);
          if (ooc) {
            EXPECT_GT(pr_st.exchange.seg_misses, 0);
            g.disable_out_of_core(comm);
          }
          if (comm.rank() != 0) return;
          if (!ooc) {
            ref.parts = parts;
            ref.rank = rank;
            ref.comp = comp;
            ref.pr_wire = pr_wire;
            ref.wcc_wire = wcc_wire;
            ref.comm_bytes = total_bytes;
            return;
          }
          const char* tag =
              backing == SegBacking::kMmap ? "mmap" : "remote";
          EXPECT_EQ(parts, ref.parts) << tag;
          EXPECT_EQ(rank, ref.rank) << tag;
          EXPECT_EQ(comp, ref.comp) << tag;
          EXPECT_EQ(pr_wire, ref.pr_wire) << tag;
          EXPECT_EQ(wcc_wire, ref.wcc_wire) << tag;
          if (backing == SegBacking::kMmap) {
            // Spill fetches never touch the substrate: the run's
            // total wire bytes are exactly the in-core run's.
            EXPECT_EQ(total_bytes, ref.comm_bytes);
          } else {
            EXPECT_GT(total_bytes, ref.comm_bytes);
          }
        },
        /*ranks_per_node=*/2);
  };
  run(SegBacking::kMmap, /*ooc=*/false);  // reference
  run(SegBacking::kMmap, /*ooc=*/true);
  run(SegBacking::kRemote, /*ooc=*/true);
}

// Frontier engine under pressure: the per-level plan is rebuilt from
// the frontier scan order; results and notify traffic must match the
// in-core run.
TEST(SegCacheFrontier, BfsBitIdenticalUnderPressure) {
  const EdgeList el = gen::erdos_renyi(800, 6, 3);
  std::vector<count_t> ref;
  std::vector<count_t> ref_wire;
  for (const bool ooc : {false, true}) {
    sim::run_world(4, [&](sim::Comm& comm) {
      DistGraph g = build_dist_graph(
          comm, el, VertexDist::random(el.n, 4, 3));
      if (ooc) {
        SegCacheOptions opt;
        opt.segment_bytes = 1 << 9;
        opt.budget_bytes = working_set_bytes(g) / 4;
        g.enable_out_of_core(comm, opt);
      }
      analytics::MultiBfsProgram<gid_t> p;
      p.roots = {1};
      const engine::Stats st = engine::run(comm, g, p, engine::Config{});
      auto levels = p.levels;
      levels.resize(g.n_local());  // owned only: ghosts differ by rank
      const auto global = by_gid(comm, g, levels);
      auto wire = wire_ledger(st);
      comm.allreduce_max(wire);
      if (ooc) g.disable_out_of_core(comm);
      if (comm.rank() != 0) return;
      if (!ooc) {
        ref = global;
        ref_wire = wire;
      } else {
        EXPECT_EQ(global, ref);
        EXPECT_EQ(wire, ref_wire);
      }
    });
  }
}

// Engine-level prefetch contract: same graph, same budget, same
// kernel — the prefetch-on run must land plan hits and stall strictly
// less than its prefetch-off twin (the invariant the comm baseline
// gate enforces on the bench rows).
TEST(SegCacheStats, EnginePrefetchStrictlyReducesStall) {
  const EdgeList el = gen::community_graph(1'000, 10, 0.7, 2.3, 5);
  double stall[2] = {0.0, 0.0};
  count_t hits[2] = {0, 0};
  for (const bool prefetch : {false, true}) {
    sim::run_world(
        4,
        [&](sim::Comm& comm) {
          DistGraph g = build_dist_graph(
              comm, el, VertexDist::random(el.n, 4, 3));
          SegCacheOptions opt;
          // Small segments so a quarter budget still holds several
          // frames — prefetch needs spare frames to run ahead into.
          opt.segment_bytes = 1 << 9;
          opt.budget_bytes = working_set_bytes(g) / 4;
          opt.prefetch = prefetch;
          g.enable_out_of_core(comm, opt);
          PageRankProgram p;
          engine::Config cfg;
          cfg.max_supersteps = 8;
          const engine::Stats st = engine::run(comm, g, p, cfg);
          double total_stall =
              comm.allreduce_sum(st.exchange.seg_stall_seconds);
          count_t total_hits =
              comm.allreduce_sum(st.exchange.seg_prefetch_hits);
          g.disable_out_of_core(comm);
          if (comm.rank() == 0) {
            stall[prefetch] = total_stall;
            hits[prefetch] = total_hits;
          }
        },
        /*ranks_per_node=*/2);
  }
  EXPECT_EQ(hits[0], 0);
  EXPECT_GT(hits[1], 0);
  EXPECT_LT(stall[1], stall[0]);
}

// The ledger reaches Stats::to_json with live values.
TEST(SegCacheStats, LedgerExportedInJson) {
  const EdgeList el = gen::erdos_renyi(500, 6, 3);
  sim::run_world(2, [&](sim::Comm& comm) {
    DistGraph g = build_dist_graph(
        comm, el, VertexDist::block(el.n, 2));
    SegCacheOptions opt;
    opt.budget_bytes = working_set_bytes(g) / 4;
    g.enable_out_of_core(comm, opt);
    WccProgram p;
    const engine::Stats st = engine::run(comm, g, p, engine::Config{});
    g.disable_out_of_core(comm);
    EXPECT_GT(st.exchange.seg_misses, 0);
    EXPECT_GT(st.exchange.seg_fetch_bytes, 0);
    EXPECT_GT(st.exchange.seg_stall_seconds, 0.0);
    const std::string json = st.to_json();
    EXPECT_EQ(json.find("\"seg_misses\": 0,"), std::string::npos);
    EXPECT_NE(json.find("\"seg_stall_seconds\""), std::string::npos);
  });
}

}  // namespace
}  // namespace xtra::graph
