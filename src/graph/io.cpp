#include "graph/io.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace xtra::graph {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_or_throw(const std::string& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode));
  if (!f) throw std::runtime_error("cannot open " + path);
  return f;
}

constexpr char kBinaryMagic[8] = {'X', 'T', 'R', 'A', 'E', 'L', '0', '1'};

}  // namespace

void write_edge_list_text(const std::string& path, const EdgeList& el) {
  FilePtr f = open_or_throw(path, "w");
  std::fprintf(f.get(), "n %llu %s\n",
               static_cast<unsigned long long>(el.n),
               el.directed ? "directed" : "undirected");
  for (const Edge& e : el.edges)
    std::fprintf(f.get(), "%llu %llu\n",
                 static_cast<unsigned long long>(e.u),
                 static_cast<unsigned long long>(e.v));
  if (std::ferror(f.get())) throw std::runtime_error("write failed: " + path);
}

EdgeList read_edge_list_text(const std::string& path) {
  FilePtr f = open_or_throw(path, "r");
  EdgeList el;
  unsigned long long n = 0;
  char kind[32] = {0};
  if (std::fscanf(f.get(), "n %llu %31s", &n, kind) != 2)
    throw std::runtime_error("bad edge-list header in " + path);
  el.n = n;
  if (!std::strcmp(kind, "directed")) {
    el.directed = true;
  } else if (!std::strcmp(kind, "undirected")) {
    el.directed = false;
  } else {
    throw std::runtime_error("bad directedness token in " + path);
  }
  unsigned long long u = 0, v = 0;
  int got = 0;
  while ((got = std::fscanf(f.get(), "%llu %llu", &u, &v)) == 2) {
    if (u >= el.n || v >= el.n)
      throw std::runtime_error("vertex id out of range in " + path);
    el.edges.push_back({u, v});
  }
  // fscanf returns EOF only when input ends before the first
  // conversion; a short count means a malformed or half pair.
  if (got != EOF || std::ferror(f.get()))
    throw std::runtime_error("malformed edge pair in " + path);
  return el;
}

void write_edge_list_binary(const std::string& path, const EdgeList& el) {
  FilePtr f = open_or_throw(path, "wb");
  std::fwrite(kBinaryMagic, 1, sizeof(kBinaryMagic), f.get());
  const std::uint64_t header[3] = {el.n, el.directed ? 1ull : 0ull,
                                   el.edges.size()};
  std::fwrite(header, sizeof(std::uint64_t), 3, f.get());
  static_assert(sizeof(Edge) == 2 * sizeof(std::uint64_t));
  if (!el.edges.empty())
    std::fwrite(el.edges.data(), sizeof(Edge), el.edges.size(), f.get());
  if (std::ferror(f.get())) throw std::runtime_error("write failed: " + path);
}

EdgeList read_edge_list_binary(const std::string& path) {
  FilePtr f = open_or_throw(path, "rb");
  char magic[sizeof(kBinaryMagic)] = {0};
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0)
    throw std::runtime_error("bad binary edge-list magic in " + path);
  std::uint64_t header[3] = {0, 0, 0};
  if (std::fread(header, sizeof(std::uint64_t), 3, f.get()) != 3)
    throw std::runtime_error("truncated binary edge list " + path);
  EdgeList el;
  el.n = header[0];
  el.directed = header[1] != 0;
  // Bound the claimed count by the bytes left in the file before
  // allocating, so a corrupt header cannot demand terabytes.
  const long body = std::ftell(f.get());
  if (body < 0 || std::fseek(f.get(), 0, SEEK_END) != 0)
    throw std::runtime_error("cannot seek in " + path);
  const long end = std::ftell(f.get());
  if (end < body || std::fseek(f.get(), body, SEEK_SET) != 0)
    throw std::runtime_error("cannot seek in " + path);
  if (header[2] > static_cast<std::uint64_t>(end - body) / sizeof(Edge))
    throw std::runtime_error("truncated binary edge list " + path);
  el.edges.resize(header[2]);
  if (!el.edges.empty() &&
      std::fread(el.edges.data(), sizeof(Edge), el.edges.size(), f.get()) !=
          el.edges.size())
    throw std::runtime_error("truncated binary edge list " + path);
  for (const Edge& e : el.edges)
    if (e.u >= el.n || e.v >= el.n)
      throw std::runtime_error("vertex id out of range in " + path);
  return el;
}

}  // namespace xtra::graph
