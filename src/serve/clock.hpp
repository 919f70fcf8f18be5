// The serving subsystem's virtual clock (DESIGN.md §9).
//
// Latency under simulated MPI cannot come from wall time — wall time
// varies with thread width, sanitizers, and host load, and the serve
// determinism contract promises byte-identical per-query latencies
// for the same seed + config. So the scheduler advances a virtual
// clock from rank-uniform inputs only: an alpha-beta wire model
// (kModelAlphaSeconds / kModelBytesPerSecond below) applied to the
// world's exchanged payload bytes, plus a per-edge compute charge for
// the superstep's adjacency sweep. Both inputs arrive through the
// scheduler's per-superstep ledger allreduce, so every rank's clock
// reads identically at every instant a decision is made.
//
// lint rule F enforces the other half of the contract: nothing in
// src/serve/ may read a wall clock or a thread id.
#pragma once

#include "util/types.hpp"

namespace xtra::serve {

/// Alpha-beta wire model: a deliberately slow link (2 ms startup,
/// 1 MB/s) so the modeled wire time of the serving workloads' small
/// exchanges is not dwarfed by the per-edge compute charge. Nothing
/// ever sleeps on this model; it is bookkeeping only.
inline constexpr double kModelAlphaSeconds = 2e-3;
inline constexpr double kModelBytesPerSecond = 1e6;

/// Modeled compute cost of visiting one adjacency entry during a
/// packed superstep sweep (10M edges/s — the same order as the wire
/// model's 1MB/s beta, so neither term degenerates to noise).
inline constexpr double kComputeSecondsPerEdge = 1e-7;

/// Fixed per-superstep overhead: the latency term of the alpha-beta
/// model, charged once per packed superstep no matter how many slots
/// share it — sharing this alpha is precisely what superstep packing
/// amortizes.
inline constexpr double kSuperstepAlphaSeconds = kModelAlphaSeconds;

class VirtualClock {
 public:
  double now() const { return now_; }

  /// Bill one packed superstep: alpha + world wire bytes / beta +
  /// world adjacency entries * per-edge charge. Inputs must be
  /// rank-uniform (allreduced) — the clock IS the schedule.
  void advance_superstep(count_t world_wire_bytes, count_t world_edges) {
    now_ += kSuperstepAlphaSeconds +
            static_cast<double>(world_wire_bytes) / kModelBytesPerSecond +
            static_cast<double>(world_edges) * kComputeSecondsPerEdge;
  }

  /// Idle jump to the next open-loop arrival (never backwards).
  void advance_to(double t) {
    if (t > now_) now_ = t;
  }

 private:
  double now_ = 0.0;
};

}  // namespace xtra::serve
