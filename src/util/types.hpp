// Fundamental scalar types shared across the library.
#pragma once

#include <cstdint>

namespace xtra {

/// Global vertex identifier (valid range [0, n_global)).
using gid_t = std::uint64_t;
/// Local vertex index within one rank (owned vertices first, then
/// ghosts). 32-bit: a rank holds at most 2^32 - 1 owned plus ghost
/// vertices, which graph::build_dist_graph asserts as it mints lids.
using lid_t = std::uint32_t;
/// Part (partition) label. kNoPart marks an unassigned vertex.
using part_t = std::int32_t;
/// Signed 64-bit count used for sizes, offsets, and deltas.
using count_t = std::int64_t;

inline constexpr part_t kNoPart = -1;
inline constexpr lid_t kInvalidLid = ~lid_t(0);

}  // namespace xtra
