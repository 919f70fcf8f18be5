// Public configuration and result types of the XtraPuLP partitioner.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace xtra::core {

/// One-enumerator stubs behind Params::shard_policy and Params::backend.
enum class ShardPolicy { kFlat };
enum class Backend { kTwoSided };

/// How part labels are seeded before the balance/refine stages.
enum class InitStrategy {
  kBfsGrowing,  ///< Algorithm 2: roots + BFS-like growth (paper default)
  kRandom,      ///< uniform random labels
  kBlock,       ///< contiguous gid blocks (used by Fig 8's analytics runs)
};

/// Partitioner parameters. Defaults are the paper's (Alg 1 and §III-C:
/// Iouter=3, Ibal=5, Iref=10, X=1.0, Y=0.25, 10% imbalance).
struct Params {
  part_t nparts = 2;
  double vert_imbalance = 0.10;  ///< Ratv of Eq (1)
  double edge_imbalance = 0.10;  ///< Rate of Eq (2)

  int outer_iters = 3;  ///< Iouter
  int bal_iters = 5;    ///< Ibal
  int ref_iters = 10;   ///< Iref

  /// Dynamic multiplier endpoints (§III-C): mult ramps linearly from
  /// D*Y at iteration 0 to D*X at iteration Itot, with D the decider
  /// count nprocs * max(1, floor(4 / nprocs)) (PhaseState::deciders).
  double mult_x = 1.0;
  double mult_y = 0.25;

  InitStrategy init = InitStrategy::kBfsGrowing;

  /// Run the second outer loop (edge balance + refinement). Disabled
  /// for the single-objective/single-constraint comparison of Fig 6.
  bool edge_phases = true;

  /// Ablation: weight balance-phase counts by neighbor degree (Alg 4's
  /// "counts(parts(u)) + degree(u)"); plain label counts otherwise.
  bool degree_weighted_balance = true;

  /// Ablation: at init, pick uniformly among the parts seen in the
  /// neighborhood (paper's choice) instead of the max-count label.
  bool init_random_among_assigned = true;

  /// Per-phase send-buffer cap for the ghost-update exchange, in bytes
  /// (0 = unbounded single Alltoallv). A positive value reproduces the
  /// paper's memory-bounded multi-phase communication; results are
  /// bit-identical for any value.
  count_t max_exchange_bytes = 0;

  // No effect; kept only because perfbench/e2e.cpp:358 passes it on.
  ShardPolicy shard_policy = ShardPolicy::kFlat;
  // No effect; kept only because perfbench/e2e.cpp:359 passes it on.
  Backend backend = Backend::kTwoSided;

  /// Intra-rank worker threads (the "+X" of MPI+X): they run the
  /// partitioner's sub-rank label sweeps (on one or two ranks,
  /// DESIGN.md §6), its chunked cut recount and the engine-run
  /// analytics.
  /// Results are byte-identical for any value — the sub-rank split
  /// depends on the rank count, not on this (see util/parallel.hpp for
  /// the determinism contract); clamped to [1, par::kMaxThreads]. Same
  /// value required on every rank only for like-for-like timing —
  /// correctness never depends on it.
  int num_threads = 1;

  std::uint64_t seed = 1;
};

/// Partitioning outcome on one rank. `parts` covers owned vertices then
/// ghosts (ghost labels are consistent with their owners on return).
struct PartitionResult {
  std::vector<part_t> parts;
  part_t nparts = 0;

  double total_seconds = 0.0;
  double init_seconds = 0.0;
  double vert_stage_seconds = 0.0;
  double edge_stage_seconds = 0.0;
  count_t comm_bytes = 0;  ///< bytes this rank sent during partitioning
};

}  // namespace xtra::core
