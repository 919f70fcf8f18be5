// Edge-list file I/O (text and binary).
//
// Text format:  first line "n <num_vertices> directed|undirected",
// then one "u v" pair per line. Binary format: a fixed header followed
// by packed uint64 pairs — the loader a downstream user would feed
// SNAP/KONECT-converted data through.
#pragma once

#include <string>

#include "graph/edge_list.hpp"

namespace xtra::graph {

/// Write `el` as text; throws std::runtime_error on I/O failure.
void write_edge_list_text(const std::string& path, const EdgeList& el);

/// Read a text edge list; throws std::runtime_error on a malformed
/// header or pair (anything but clean EOF after the last pair).
EdgeList read_edge_list_text(const std::string& path);

/// Write `el` in the packed binary format.
void write_edge_list_binary(const std::string& path, const EdgeList& el);

/// Read a packed binary edge list; throws std::runtime_error on a bad
/// magic, a truncated file, or a header edge count the file cannot
/// hold (checked before anything is allocated).
EdgeList read_edge_list_binary(const std::string& path);

}  // namespace xtra::graph
