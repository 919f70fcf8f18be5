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
      "\"bytes_sent\": %lld, \"coalesced_flushes\": %lld, "
      "\"overlapped\": %lld, "
      "\"max_inflight_bytes\": %lld, \"drained_incrementally\": %lld, "
      "\"pipeline_carried\": %lld, \"max_pipeline_depth\": %lld}",
      seconds, static_cast<long long>(comm_bytes),
      static_cast<long long>(supersteps), num_threads,
      static_cast<long long>(exchange.exchanges),
      static_cast<long long>(exchange.phases),
      static_cast<long long>(exchange.records_sent),
      static_cast<long long>(exchange.bytes_sent),
      static_cast<long long>(exchange.coalesced_flushes),
      static_cast<long long>(exchange.overlapped),
      static_cast<long long>(exchange.max_inflight_bytes),
      static_cast<long long>(exchange.drained_incrementally),
      static_cast<long long>(exchange.pipeline_carried),
      static_cast<long long>(exchange.max_pipeline_depth));
  return buf;
}

}  // namespace xtra::engine
