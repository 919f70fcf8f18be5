#include "gen/suite.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "gen/generators.hpp"
#include "util/assert.hpp"

namespace xtra::gen {

namespace {

// Vertex counts are the paper's divided by ~1000 (Table I lists n in
// millions); average degrees are the paper's. This keeps each graph's
// relative size and density so cross-graph comparisons (Table II,
// Fig 4) retain their shape while a full suite sweep stays tractable
// on a 4-vCPU host (ranks are threads, each with MPI+X workers).
const std::vector<SuiteEntry> kSuite = {
    {"lj", GraphClass::kSocial, 54'000, 14},
    {"orkut", GraphClass::kSocial, 31'000, 38},
    {"friendster", GraphClass::kSocial, 120'000, 28},
    {"twitter", GraphClass::kSocial, 80'000, 38},
    {"wikilinks", GraphClass::kSocial, 26'000, 23},
    {"dbpedia", GraphClass::kSocial, 67'000, 4},
    {"indochina", GraphClass::kWeb, 30'000, 41},
    {"arabic", GraphClass::kWeb, 46'000, 49},
    {"uk-2002", GraphClass::kWeb, 18'000, 16},
    {"uk-2005", GraphClass::kWeb, 78'000, 40},
    {"wdc12-pay", GraphClass::kWeb, 78'000, 16},
    {"wdc12-host", GraphClass::kWeb, 120'000, 23},
    {"rmat_14", GraphClass::kRmat, 1 << 14, 16},
    {"rmat_16", GraphClass::kRmat, 1 << 16, 16},
    {"rmat_18", GraphClass::kRmat, 1 << 18, 16},
    {"InternalMesh1", GraphClass::kMesh, 17'000, 4},
    {"InternalMesh2", GraphClass::kMesh, 66'000, 4},
    {"nlpkkt_s", GraphClass::kMesh, 27'000, 6},
    {"nlpkkt_m", GraphClass::kMesh, 64'000, 6},
};

gid_t scaled(gid_t base, double scale) {
  const double v = static_cast<double>(base) * scale;
  return std::max<gid_t>(static_cast<gid_t>(v), 256);
}

}  // namespace

const std::vector<SuiteEntry>& suite() { return kSuite; }

std::vector<SuiteEntry> suite(GraphClass cls) {
  std::vector<SuiteEntry> out;
  for (const auto& e : kSuite)
    if (e.cls == cls) out.push_back(e);
  return out;
}

const char* to_string(GraphClass cls) {
  switch (cls) {
    case GraphClass::kSocial: return "social";
    case GraphClass::kWeb: return "web";
    case GraphClass::kRmat: return "rmat";
    case GraphClass::kMesh: return "mesh";
  }
  return "?";
}

double env_scale() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read-once startup probe
  const char* env = std::getenv("XTRA_SCALE");
  if (!env) return 1.0;
  const double s = std::atof(env);
  return s > 0 ? s : 1.0;
}

graph::EdgeList make_suite_graph(const std::string& name, double scale,
                                 std::uint64_t seed) {
  const SuiteEntry* entry = nullptr;
  for (const auto& e : kSuite)
    if (e.name == name) entry = &e;
  if (!entry) throw std::out_of_range("unknown suite graph: " + name);

  const gid_t n = scaled(entry->base_n, scale);
  switch (entry->cls) {
    case GraphClass::kSocial: {
      // twitter/dbpedia have extreme hub skew -> lower alpha.
      const double alpha =
          (name == "twitter" || name == "dbpedia") ? 1.9 : 2.3;
      return community_graph(n, entry->avg_degree, 0.55, alpha, seed);
    }
    case GraphClass::kWeb:
      return graph::symmetrized(webcrawl(n, entry->avg_degree, seed));
    case GraphClass::kRmat: {
      const int sc = static_cast<int>(std::lround(std::log2(double(n))));
      return rmat(sc, entry->avg_degree, seed);
    }
    case GraphClass::kMesh: {
      if (name.rfind("nlpkkt", 0) == 0) {
        const auto side = static_cast<gid_t>(std::cbrt(double(n)));
        return mesh3d(side, side, side);
      }
      const auto side = static_cast<gid_t>(std::sqrt(double(n)));
      return mesh2d(side, side);
    }
  }
  throw std::logic_error("unhandled graph class");
}

}  // namespace xtra::gen
