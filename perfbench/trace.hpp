// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer: name, start, end, the span that
// enclosed it, the repetition it belongs to, and the counters read at
// its boundaries (the rank's CommStats deltas, plus any the caller
// adds). Each simulated rank writes only its own lane, so recording
// needs no lock. Spans stay in memory until write() dumps them as JSON
// lines.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "mpisim/comm.hpp"

namespace perfbench {

struct Span {
  std::string name;
  int rank = 0;
  int run = 0;      ///< repetition id
  int parent = -1;  ///< index of the enclosing span in the same lane
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; Scope on it is a no-op.
  Tracer(bool enabled, int nranks)
      : enabled_(enabled), lanes_(static_cast<std::size_t>(nranks)),
        stacks_(lanes_.size()) {}

  bool enabled() const { return enabled_; }

  /// Write every span as one JSON object per line.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (const std::vector<Span>& lane : lanes_)
      for (const Span& s : lane) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"rank\":%d,\"run\":%d,\"parent\":%d,"
                     "\"start\":%.9f,\"end\":%.9f,\"counters\":{",
                     s.name.c_str(), s.rank, s.run, s.parent, s.start, s.end);
        for (std::size_t i = 0; i < s.counters.size(); ++i)
          std::fprintf(f, "%s\"%s\":%.17g", i ? "," : "",
                       s.counters[i].first.c_str(), s.counters[i].second);
        std::fprintf(f, "}}\n");
      }
    return std::fclose(f) == 0;
  }

 private:
  friend class Scope;
  using clock = std::chrono::steady_clock;

  double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  bool enabled_;
  clock::time_point origin_ = clock::now();
  std::vector<std::vector<Span>> lanes_;
  std::vector<std::vector<int>> stacks_;  ///< open span indices per lane
};

/// RAII span on the calling rank. It records the rank's wire bytes,
/// messages, collectives and collective wait (CommStats::comm_seconds)
/// between open and close.
class Scope {
 public:
  Scope(Tracer& t, xtra::sim::Comm& comm, std::string name, int run)
      : t_(t), comm_(comm) {
    if (!t_.enabled()) return;
    lane_ = static_cast<std::size_t>(comm.rank());
    std::vector<int>& stack = t_.stacks_[lane_];
    Span s;
    s.name = std::move(name);
    s.rank = comm.rank();
    s.run = run;
    s.parent = stack.empty() ? -1 : stack.back();
    index_ = static_cast<int>(t_.lanes_[lane_].size());
    stack.push_back(index_);
    before_ = comm_.stats();
    s.start = t_.now();
    t_.lanes_[lane_].push_back(std::move(s));
  }

  ~Scope() {
    if (!t_.enabled()) return;
    span().end = t_.now();
    const xtra::sim::CommStats& after = comm_.stats();
    add("wire_bytes", static_cast<double>(after.bytes_sent - before_.bytes_sent));
    add("messages",
        static_cast<double>(after.messages_sent - before_.messages_sent));
    add("collectives",
        static_cast<double>(after.collectives - before_.collectives));
    add("wait_s", after.comm_seconds - before_.comm_seconds);
    t_.stacks_[lane_].pop_back();
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void add(std::string key, double value) {
    if (t_.enabled()) span().counters.emplace_back(std::move(key), value);
  }

 private:
  Span& span() { return t_.lanes_[lane_][static_cast<std::size_t>(index_)]; }

  Tracer& t_;
  xtra::sim::Comm& comm_;
  std::size_t lane_ = 0;
  int index_ = -1;
  xtra::sim::CommStats before_;
};

}  // namespace perfbench
