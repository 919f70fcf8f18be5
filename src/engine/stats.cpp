#include "engine/stats.hpp"

#include <algorithm>
#include <cstdio>

namespace xtra::engine {

void merge(comm::ExchangeStats& into, const comm::ExchangeStats& from) {
  into.merge_from(from);
}

std::string Stats::to_json() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"seconds\": %.6f, \"comm_bytes\": %lld, \"supersteps\": %lld, "
      "\"num_threads\": %d, "
      "\"exchanges\": %lld, \"phases\": %lld, \"records_sent\": %lld, "
      "\"bytes_sent\": %lld, \"overlapped\": %lld, "
      "\"max_inflight_bytes\": %lld}",
      seconds, static_cast<long long>(comm_bytes),
      static_cast<long long>(supersteps), num_threads,
      static_cast<long long>(exchange.exchanges),
      static_cast<long long>(exchange.phases),
      static_cast<long long>(exchange.records_sent),
      static_cast<long long>(exchange.bytes_sent),
      static_cast<long long>(exchange.overlapped),
      static_cast<long long>(exchange.max_inflight_bytes));
  return buf;
}

}  // namespace xtra::engine
