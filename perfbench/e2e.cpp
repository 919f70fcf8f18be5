// perfbench workload runner: one workload per process.
//
// A workload has kInstances instances. Instance i is a graph generated
// from a seed derived from (--instance-seed, i) and partitioned with
// that seed as core::Params::seed. The traversal roots of the analytics
// pass and the SSSP check sample derive from (--seed, i). The instances
// are pinned because partition quality differs more between graph
// draws and init draws than any usable regression bound; the quality
// metrics are the median over the instances.
//
// One repetition on instance i:
//
//   setup       rank 0 generates the edge list, then every rank runs
//               graph::build_dist_graph (timed: gen, then build on the
//               slowest rank)
//   partition   core::partition (timed)
//   analytics   gather the parts, redistribute the graph so that part
//               p lives on rank p * ranks / nparts, and run the fixed
//               Fig-8 pass through engine::run: PageRank (200
//               supersteps), WCC, commLP (10 supersteps), harmonic
//               centrality as one multi-source BFS, SSSP (timed)
//   checks      partition consistency and range, no empty part,
//               evaluate_dist == serial evaluate, WCC component count,
//               PageRank mass and sampled SSSP distances against serial
//               references; quality equal to any earlier repetition of
//               the same instance (untimed)
//
// An untimed warm-up repetition on instance 0 comes first. Timed
// repetitions then run in whole cycles over the instances: at least
// one, and another only while it is predicted to end within --seconds.
// Every instance so gets the same number of timed repetitions, however
// fast the host is.
//
// With --trace 1 one more repetition on instance 0 runs with spans:
// set-up, core::partition, a per-phase replay of Algorithm 1 through
// core/init.hpp, core/phases.hpp and core/state.hpp (labels must match
// core::partition byte for byte), a 1-thread twin when the workload
// runs more than one thread (labels must match again), and the
// analytics pass. The spans go to --trace-out as JSON lines.
//
// The last stdout line is one JSON object; perfbench/run.py turns it
// and the spans into the benchmark's metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytics/programs.hpp"
#include "core/init.hpp"
#include "core/phases.hpp"
#include "core/state.hpp"
#include "core/xtrapulp.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "graph/dist_graph.hpp"
#include "metrics/quality.hpp"
#include "mpisim/comm.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include "reference.hpp"
#include "trace.hpp"

using namespace xtra;
using perfbench::Scope;
using perfbench::Tracer;

namespace {

using xtra::gid_t;  // not the POSIX one

// SSSP parameters of the analytics pass (the Fig-8 bench's).
constexpr count_t kSsspDelta = 8;
constexpr count_t kSsspMaxWeight = 16;
constexpr std::uint64_t kSsspWeightSeed = 1;
constexpr int kSsspSamples = 64;

/// Pinned instances per workload (see the top of this file).
constexpr int kInstances = 4;

struct Options {
  std::string gen;  ///< rander | rmat | webcrawl
  gid_t n = 0;      ///< vertices (rander, webcrawl)
  int scale = 0;    ///< log2 vertices (rmat)
  count_t davg = 16;
  part_t nparts = 64;
  int ranks = 1;
  int threads = 1;
  bool block_dist = false;
  core::InitStrategy init = core::InitStrategy::kBfsGrowing;
  std::uint64_t seed = 1;
  std::uint64_t instance_seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int harmonic_sources = 32;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--gen") o.gen = val;
    else if (key == "--n") o.n = std::stoull(val);
    else if (key == "--scale") o.scale = std::stoi(val);
    else if (key == "--davg") o.davg = std::stoll(val);
    else if (key == "--nparts") o.nparts = std::stoi(val);
    else if (key == "--ranks") o.ranks = std::stoi(val);
    else if (key == "--threads") o.threads = std::stoi(val);
    else if (key == "--dist") o.block_dist = val == "block";
    else if (key == "--init")
      o.init = val == "block" ? core::InitStrategy::kBlock
                              : core::InitStrategy::kBfsGrowing;
    else if (key == "--seed") o.seed = std::stoull(val);
    else if (key == "--instance-seed") o.instance_seed = std::stoull(val);
    else if (key == "--seconds") o.seconds = std::stod(val);
    else if (key == "--trace") o.trace = val != "0";
    else if (key == "--harmonic-sources") o.harmonic_sources = std::stoi(val);
    else if (key == "--trace-out") o.trace_out = val;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (o.ranks < 1 || o.threads < 1 || o.nparts < 1)
    throw std::invalid_argument("ranks, threads, nparts must be >= 1");
  if (o.trace && o.trace_out.empty())
    throw std::invalid_argument("--trace 1 needs --trace-out");
  return o;
}

/// Seed of instance i derived from a run-level seed.
std::uint64_t derive_seed(std::uint64_t seed, int instance) {
  return splitmix64(seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(instance));
}

graph::EdgeList generate(const Options& o, std::uint64_t seed) {
  if (o.gen == "rander") return gen::erdos_renyi(o.n, o.davg, seed);
  if (o.gen == "rmat") return gen::rmat(o.scale, o.davg, seed);
  if (o.gen == "webcrawl")
    return graph::symmetrized(gen::webcrawl(o.n, o.davg, seed));
  throw std::invalid_argument("unknown generator " + o.gen);
}

struct References {
  count_t components = 0;
  gid_t sssp_root = 0;
  std::vector<gid_t> sample;         ///< SSSP-checked vertices
  std::vector<count_t> sample_dist;  ///< their Dijkstra distances
  std::vector<gid_t> sources;        ///< harmonic-centrality sources
};

References make_references(const graph::EdgeList& el, std::uint64_t seed,
                           int harmonic_sources) {
  References r;
  const std::vector<gid_t> root = perfbench::component_roots(el);
  std::vector<count_t> size(el.n, 0);
  for (const gid_t c : root) ++size[c];
  r.components = std::count_if(size.begin(), size.end(),
                               [](count_t s) { return s > 0; });
  // The traversal roots come from the largest component, so every
  // instance's traversals do comparable work whatever the seed.
  const auto giant = static_cast<gid_t>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<gid_t> pool;
  for (gid_t v = 0; v < el.n; ++v)
    if (root[v] == giant) pool.push_back(v);
  auto pick = [&pool, seed](std::uint64_t k) {
    return pool[splitmix64(seed ^ k) % pool.size()];
  };
  r.sssp_root = pick(0x5555);
  for (int i = 0; i < harmonic_sources; ++i)
    r.sources.push_back(pick(7919 * static_cast<std::uint64_t>(i + 1)));
  const std::vector<count_t> dist = perfbench::dijkstra(
      el, r.sssp_root, analytics::kInfDist, [](gid_t a, gid_t b) {
        return analytics::edge_weight(a, b, kSsspWeightSeed, kSsspMaxWeight);
      });
  for (int i = 0; i < kSsspSamples; ++i) {
    const gid_t v =
        splitmix64(seed * 131 + static_cast<std::uint64_t>(i)) % el.n;
    r.sample.push_back(v);
    r.sample_dist.push_back(dist[v]);
  }
  return r;
}

/// What one repetition measured and found wrong (filled on rank 0).
struct RepResult {
  int instance = 0;
  count_t edges = 0;  ///< undirected edges of the instance's graph
  double gen_s = 0.0;
  double build_s = 0.0;
  double partition_s = 0.0;
  double analytics_s = 0.0;
  double peak_rss_mb = 0.0;  ///< process peak once core::partition returned
  metrics::QualityReport quality;
  std::vector<std::string> failures;
};

/// Outputs of the analytics pass that the checks read.
struct AnalyticsOut {
  count_t components = 0;
  double pagerank_mass = 0.0;
  bool sssp_ok = true;  ///< this rank's sampled distances match
};

/// One engine::run under a span carrying the engine's own counters.
template <typename P>
void run_kernel(Tracer& tr, sim::Comm& comm, const graph::DistGraph& g,
                P& program, const engine::Config& cfg, const char* name,
                int run) {
  Scope span(tr, comm, name, run);
  const engine::Stats st = engine::run(comm, g, program, cfg);
  span.add("supersteps", static_cast<double>(st.supersteps));
  span.add("exchange_s", st.exchange.seconds);
}

/// The timed analytics pass: redistribute by `parts`, then run the
/// five kernels on the redistributed graph.
AnalyticsOut run_analytics(Tracer& tr, sim::Comm& comm,
                           const graph::DistGraph& g,
                           const graph::EdgeList& el,
                           const std::vector<part_t>& parts,
                           const core::Params& params, const References& refs,
                           int run) {
  Scope pass(tr, comm, "analytics", run);
  std::optional<graph::DistGraph> placed;
  {
    Scope span(tr, comm, "graph.redistribute", run);
    const std::vector<part_t> global =
        core::gather_global_parts(comm, g, parts);
    auto owners = std::make_shared<std::vector<int>>(global.size());
    const auto ranks = static_cast<std::int64_t>(comm.size());
    for (std::size_t v = 0; v < global.size(); ++v)
      (*owners)[v] = static_cast<int>(global[v] * ranks / params.nparts);
    placed = graph::build_dist_graph(
        comm, el,
        graph::VertexDist::explicit_map(el.n, comm.size(), std::move(owners)));
  }
  const graph::DistGraph& h = *placed;
  const engine::Config cfg = engine::Config::from_params(params);
  AnalyticsOut out;
  {
    analytics::PageRankProgram pr;
    engine::Config c = cfg;
    c.max_supersteps = 200;
    c.coalesce_every = 0;
    run_kernel(tr, comm, h, pr, c, "engine.pagerank", run);
    out.pagerank_mass = pr.sum;
  }
  {
    analytics::WccProgram wcc;
    run_kernel(tr, comm, h, wcc, cfg, "engine.wcc", run);
    out.components = wcc.num_components;
  }
  {
    analytics::CommLpProgram lp;
    engine::Config c = cfg;
    c.max_supersteps = 10;
    run_kernel(tr, comm, h, lp, c, "engine.commlp", run);
  }
  {
    analytics::MultiBfsProgram bfs;
    bfs.roots = refs.sources;
    run_kernel(tr, comm, h, bfs, cfg, "engine.harmonic", run);
  }
  {
    analytics::DeltaSsspProgram sp;
    sp.root = refs.sssp_root;
    sp.delta = kSsspDelta;
    sp.max_weight = kSsspMaxWeight;
    sp.weight_seed = kSsspWeightSeed;
    run_kernel(tr, comm, h, sp, cfg, "engine.sssp", run);
    for (std::size_t i = 0; i < refs.sample.size(); ++i) {
      if (h.owner_of_gid(refs.sample[i]) != comm.rank()) continue;
      const lid_t l = h.lid_of(refs.sample[i]);
      if (l == kInvalidLid || sp.dist[l] != refs.sample_dist[i])
        out.sssp_ok = false;
    }
  }
  return out;
}

/// Untimed correctness gate for one repetition. Collective; failures
/// are appended on rank 0.
void check_rep(sim::Comm& comm, const graph::DistGraph& g,
               const graph::EdgeList& el, const std::vector<part_t>& parts,
               const AnalyticsOut& a, const References& refs, part_t nparts,
               RepResult& rep) {
  const bool consistent =
      core::check_partition_consistent(comm, g, parts, nparts);
  const metrics::QualityReport qd =
      metrics::evaluate_dist(comm, g, parts, nparts);
  const std::vector<part_t> global = core::gather_global_parts(comm, g, parts);
  const bool sssp_ok = comm.allreduce_and(a.sssp_ok);
  rep.quality = qd;
  if (comm.rank() != 0) return;
  auto fail = [&rep](const std::string& what) { rep.failures.push_back(what); };
  if (!consistent) fail("check_partition_consistent");
  std::vector<count_t> sizes(static_cast<std::size_t>(nparts), 0);
  bool in_range = true;
  for (const part_t p : global) {
    if (p < 0 || p >= nparts) {
      in_range = false;
      continue;
    }
    ++sizes[static_cast<std::size_t>(p)];
  }
  if (!in_range) fail("label out of range");
  if (std::count(sizes.begin(), sizes.end(), count_t{0}) > 0)
    fail("empty part");
  if (in_range) {
    const metrics::QualityReport qs = metrics::evaluate(el, global, nparts);
    if (qs.cut != qd.cut || qs.max_part_cut != qd.max_part_cut ||
        qs.edges != qd.edges || qs.vertex_imbalance != qd.vertex_imbalance ||
        qs.edge_imbalance != qd.edge_imbalance)
      fail("evaluate_dist disagrees with serial evaluate");
  }
  if (a.components != refs.components)
    fail("WCC components " + std::to_string(a.components) + " != " +
         std::to_string(refs.components));
  if (!(std::abs(a.pagerank_mass - 1.0) < 1e-6))
    fail("PageRank mass " + std::to_string(a.pagerank_mass));
  if (!sssp_ok) fail("SSSP distance differs from Dijkstra");
}

/// Owned vertices whose label differs between two label vectors.
count_t moved(const graph::DistGraph& g, const std::vector<part_t>& before,
              const std::vector<part_t>& after) {
  count_t n = 0;
  for (lid_t v = 0; v < g.n_local(); ++v) n += before[v] != after[v];
  return n;
}

/// Algorithm 1 stage by stage, in core::partition's order, with one
/// span per init/phase call. Returns the labels.
std::vector<part_t> replay_stages(Tracer& tr, sim::Comm& comm,
                                  const graph::DistGraph& g,
                                  const core::Params& params, int run) {
  Scope whole(tr, comm, "core.replay", run);
  par::ThreadScope threads(params.num_threads);
  std::vector<part_t> parts;
  {
    Scope span(tr, comm, "core.init", run);
    parts = core::initialize_parts(comm, g, params);
  }
  core::PhaseState st;
  st.nparts = params.nparts;
  st.nprocs = comm.size();
  st.exchanger.set_max_send_bytes(params.max_exchange_bytes);
  st.exchanger.set_shard_policy(params.shard_policy);
  st.exchanger.set_backend(params.backend);
  st.x = params.mult_x;
  st.y = params.mult_y;
  st.i_tot = std::max(params.outer_iters * (params.bal_iters + params.ref_iters), 1);
  st.imb_v = static_cast<count_t>(
      std::ceil((1.0 + params.vert_imbalance) *
                static_cast<double>(g.n_global()) /
                static_cast<double>(params.nparts)));
  st.imb_e = static_cast<count_t>(
      std::ceil((1.0 + params.edge_imbalance) * 2.0 *
                static_cast<double>(g.m_global()) /
                static_cast<double>(params.nparts)));

  using Phase = void (*)(sim::Comm&, const graph::DistGraph&,
                         std::vector<part_t>&, core::PhaseState&,
                         const core::Params&);
  std::vector<part_t> before;
  auto phase = [&](const char* name, Phase fn) {
    before = parts;
    Scope span(tr, comm, name, run);
    fn(comm, g, parts, st, params);
    span.add("moves", static_cast<double>(moved(g, before, parts)));
  };

  {
    Scope stage(tr, comm, "core.vert_stage", run);
    st.size_v = core::compute_vertex_sizes(comm, g, parts, params.nparts);
    st.change_v.assign(static_cast<std::size_t>(params.nparts), 0);
    st.iter_tot = 0;
    for (int outer = 0; outer < params.outer_iters; ++outer) {
      phase("core.vert_balance", core::vert_balance_phase);
      phase("core.vert_refine", core::vert_refine_phase);
    }
  }
  if (params.edge_phases) {
    Scope stage(tr, comm, "core.edge_stage", run);
    st.size_e = core::compute_edge_sizes(comm, g, parts, params.nparts);
    st.size_c = core::compute_cut_sizes(comm, g, parts, params.nparts);
    st.change_e.assign(static_cast<std::size_t>(params.nparts), 0);
    st.change_c.assign(static_cast<std::size_t>(params.nparts), 0);
    st.iter_tot = 0;
    for (int outer = 0; outer < params.outer_iters; ++outer) {
      phase("core.edge_balance", core::edge_balance_phase);
      phase("core.edge_refine", core::edge_refine_phase);
    }
  }
  return parts;
}

/// Adjacency-array bytes of the CSR this rank holds (offsets + lids).
double adjacency_bytes(const graph::DistGraph& g) {
  count_t entries = g.m_local();
  count_t offsets = g.n_local() + 1;
  if (g.directed()) {
    for (lid_t v = 0; v < g.n_local(); ++v) entries += g.in_degree(v);
    offsets *= 2;
  }
  return static_cast<double>(entries) * sizeof(lid_t) +
         static_cast<double>(offsets) * sizeof(count_t);
}

/// Peak resident memory of the process so far, in MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// State rank 0 publishes to the other ranks between barriers.
struct Shared {
  graph::EdgeList el;
  References refs;
  std::vector<std::string> invalid;  ///< traced-run determinism mismatches
};

/// One repetition on `instance`: set-up, partition, analytics, checks.
/// With `profile`, the traced extras run between partition and
/// analytics (stage replay, thread twin). Collective.
RepResult run_rep(Tracer& tr, sim::Comm& comm, Shared& sh, const Options& o,
                  int instance, int run, bool profile) {
  RepResult rep;
  rep.instance = instance;
  const std::uint64_t input_seed = derive_seed(o.instance_seed, instance);
  const std::uint64_t seed = derive_seed(o.seed, instance);
  comm.barrier();
  if (comm.rank() == 0) {
    sh.el = graph::EdgeList{};
    Scope span(tr, comm, "gen", run);
    Timer t;
    sh.el = generate(o, input_seed);
    rep.gen_s = t.seconds();
  }
  comm.barrier();
  const graph::EdgeList& el = sh.el;
  const graph::VertexDist dist =
      o.block_dist ? graph::VertexDist::block(el.n, o.ranks)
                   : graph::VertexDist::random(el.n, o.ranks);
  std::optional<graph::DistGraph> built;
  {
    Scope span(tr, comm, "graph.build", run);
    Timer t;
    built = graph::build_dist_graph(comm, el, dist);
    rep.build_s = comm.allreduce_max(t.seconds());
    span.add("adj_bytes", adjacency_bytes(*built));
    span.add("n_local", static_cast<double>(built->n_local()));
    span.add("n_ghost", static_cast<double>(built->n_ghost()));
    span.add("m_global", static_cast<double>(built->m_global()));
  }
  const graph::DistGraph& g = *built;
  rep.edges = g.m_global();

  core::Params params;
  params.nparts = o.nparts;
  params.init = o.init;
  params.num_threads = o.threads;
  params.seed = input_seed;
  comm.barrier();
  core::PartitionResult r;
  {
    Scope span(tr, comm, "core.partition", run);
    Timer t;
    r = core::partition(comm, g, params);
    rep.partition_s = comm.allreduce_max(t.seconds());
    span.add("init_s", r.init_seconds);
    span.add("vert_stage_s", r.vert_stage_seconds);
    span.add("edge_stage_s", r.edge_stage_seconds);
  }
  if (profile) {
    comm.barrier();
    const std::vector<part_t> replayed = replay_stages(tr, comm, g, params, run);
    if (!comm.allreduce_and(replayed == r.parts) && comm.rank() == 0)
      sh.invalid.push_back("stage replay labels differ from core::partition");
    if (params.num_threads > 1) {
      core::Params single = params;
      single.num_threads = 1;
      comm.barrier();
      std::vector<part_t> labels;
      {
        Scope span(tr, comm, "core.partition_t1", run);
        labels = core::partition(comm, g, single).parts;
      }
      if (!comm.allreduce_and(labels == r.parts) && comm.rank() == 0)
        sh.invalid.push_back("1-thread twin labels differ from the " +
                             std::to_string(params.num_threads) +
                             "-thread run");
    }
  }
  // The references are computed after the partition, so the memory
  // they take stays out of the partitioning peak.
  comm.barrier();
  if (comm.rank() == 0) {
    rep.peak_rss_mb = peak_rss_mb();
    sh.refs = make_references(el, seed, o.harmonic_sources);
  }
  comm.barrier();
  Timer ta;
  const AnalyticsOut a =
      run_analytics(tr, comm, g, el, r.parts, params, sh.refs, run);
  rep.analytics_s = comm.allreduce_max(ta.seconds());
  check_rep(comm, g, el, r.parts, a, sh.refs, params.nparts, rep);
  return rep;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

template <typename F>
std::string json_list(const std::vector<RepResult>& reps, F&& field) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "",
                  static_cast<double>(field(reps[i])));
    out += buf;
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 2;
  }

  Tracer tr(o.trace, o.ranks);
  Shared sh;
  std::vector<RepResult> timed;    // timed repetitions
  std::vector<RepResult> untimed;  // warm-up, then the traced one
  std::vector<std::string> errors;
  try {
    sim::run_world(o.ranks, [&](sim::Comm& comm) {
      Tracer off(false, o.ranks);
      RepResult warm = run_rep(off, comm, sh, o, 0, 0, false);
      if (comm.rank() == 0) untimed.push_back(std::move(warm));
      // Rank 0 decides whether to go on and broadcasts it, so every
      // rank runs the same repetitions.
      Timer window;
      for (int done = 0, more = 1; more;) {
        RepResult rep =
            run_rep(off, comm, sh, o, done % kInstances, done + 1, false);
        ++done;
        if (comm.rank() == 0) {
          timed.push_back(std::move(rep));
          const int cycles = done / kInstances;
          more = done % kInstances != 0 ||
                 window.seconds() * (cycles + 1) / cycles <= o.seconds;
        }
        more = comm.bcast_value(more);
      }
      if (!o.trace) return;
      RepResult traced = run_rep(tr, comm, sh, o, 0,
                                 static_cast<int>(timed.size()) + 1, true);
      if (comm.rank() == 0) untimed.push_back(std::move(traced));
    });
  } catch (const std::exception& e) {
    errors.push_back(e.what());
  }
  if (o.trace && !tr.write(o.trace_out))
    errors.push_back("cannot write " + o.trace_out);

  // Every repetition of an instance must report the same quality
  // (deterministic in graph and seed).
  std::vector<const RepResult*> first(static_cast<std::size_t>(kInstances));
  std::vector<RepResult*> all;
  for (RepResult& r : untimed) all.push_back(&r);
  for (RepResult& r : timed) all.push_back(&r);
  for (RepResult* r : all) {
    const RepResult*& f = first[static_cast<std::size_t>(r->instance)];
    if (!f) {
      f = r;
      continue;
    }
    const metrics::QualityReport& a = f->quality;
    const metrics::QualityReport& b = r->quality;
    if (a.cut != b.cut || a.max_part_cut != b.max_part_cut ||
        a.vertex_imbalance != b.vertex_imbalance ||
        a.edge_imbalance != b.edge_imbalance)
      r->failures.push_back("quality differs between repetitions of instance " +
                            std::to_string(r->instance));
  }
  count_t failed = errors.empty() ? 0 : 1;
  std::string failures;
  auto note = [&failures](const std::string& what) {
    failures += (failures.empty() ? "\"" : ",\"") + json_escape(what) + "\"";
  };
  for (const RepResult* r : all) {
    if (!r->failures.empty()) ++failed;
    for (const std::string& f : r->failures) note(f);
  }
  for (const std::string& e : errors) note(e);
  for (const std::string& e : sh.invalid) note("traced run invalid: " + e);
  const bool correct = failed == 0 && sh.invalid.empty() &&
                       static_cast<int>(timed.size()) >= kInstances;

  // Quality per instance, from the first timed repetition of each.
  const std::vector<RepResult> per_instance(
      timed.begin(), timed.begin() + std::min<std::ptrdiff_t>(
                                         kInstances,
                                         static_cast<std::ptrdiff_t>(timed.size())));
  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%lld,\"failures\":[%s],"
      "\"build_type\":\"%s\",\"compiler\":\"%s\",\"instance\":%s,"
      "\"edges\":%s,\"gen_s\":%s,\"build_s\":%s,\"partition_s\":%s,"
      "\"analytics_s\":%s,\"edge_cut_ratio\":%s,"
      "\"scaled_max_cut\":%s,\"vert_imbalance\":%s,\"edge_imbalance\":%s,"
      "\"peak_rss_mb\":%.3f}\n",
      correct ? "true" : "false", std::max<std::size_t>(all.size(), 1),
      static_cast<long long>(failed), failures.c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER,
      json_list(timed, [](const RepResult& r) { return r.instance; }).c_str(),
      json_list(timed, [](const RepResult& r) { return r.edges; }).c_str(),
      json_list(timed, [](const RepResult& r) { return r.gen_s; }).c_str(),
      json_list(timed, [](const RepResult& r) { return r.build_s; }).c_str(),
      json_list(timed, [](const RepResult& r) { return r.partition_s; }).c_str(),
      json_list(timed, [](const RepResult& r) { return r.analytics_s; }).c_str(),
      json_list(per_instance,
           [](const RepResult& r) { return r.quality.edge_cut_ratio; }).c_str(),
      json_list(per_instance,
           [](const RepResult& r) { return r.quality.scaled_max_cut; }).c_str(),
      json_list(per_instance,
           [](const RepResult& r) { return r.quality.vertex_imbalance; }).c_str(),
      json_list(per_instance,
           [](const RepResult& r) { return r.quality.edge_imbalance; }).c_str(),
      untimed.empty() ? 0.0 : untimed.front().peak_rss_mb);
  return 0;
}
