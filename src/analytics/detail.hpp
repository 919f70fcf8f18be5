// Shared instrumentation for the analytics kernels.
#pragma once

#include "analytics/analytics.hpp"
#include "engine/stats.hpp"
#include "util/timer.hpp"

namespace xtra::analytics::detail {

/// Scoped measurement of wall time and sent bytes into a RunInfo (for
/// the composite kernels that meter several engine runs plus glue).
class Meter {
 public:
  Meter(sim::Comm& comm, RunInfo& info)
      : comm_(comm), info_(info), start_bytes_(comm.stats().bytes_sent) {}
  ~Meter() {
    info_.seconds = timer_.seconds();
    info_.comm_bytes = comm_.stats().bytes_sent - start_bytes_;
  }
  Meter(const Meter&) = delete;
  Meter& operator=(const Meter&) = delete;

 private:
  sim::Comm& comm_;
  RunInfo& info_;
  count_t start_bytes_;
  Timer timer_;
};

/// The RunInfo triple of one engine run.
inline RunInfo to_run_info(const engine::Stats& st) {
  RunInfo info;
  info.seconds = st.seconds;
  info.comm_bytes = st.comm_bytes;
  info.supersteps = st.supersteps;
  return info;
}

}  // namespace xtra::analytics::detail
