#include "engine/stats.hpp"

#include <algorithm>
#include <cstdio>

namespace xtra::engine {

void merge(comm::ExchangeStats& into, const comm::ExchangeStats& from) {
  into.merge_from(from);
}

std::string Stats::to_json() const {
  char buf[1152];
  std::snprintf(
      buf, sizeof(buf),
      "{\"seconds\": %.6f, \"comm_bytes\": %lld, \"supersteps\": %lld, "
      "\"num_threads\": %d, "
      "\"exchanges\": %lld, \"phases\": %lld, \"records_sent\": %lld, "
      "\"bytes_sent\": %lld, \"inter_node_bytes\": %lld, "
      "\"intra_node_bytes\": %lld, \"inter_node_msgs\": %lld, "
      "\"coalesced_flushes\": %lld, \"overlapped\": %lld, "
      "\"max_inflight_bytes\": %lld, \"drained_incrementally\": %lld, "
      "\"pipeline_carried\": %lld, \"max_pipeline_depth\": %lld, "
      "\"one_sided_gets\": %lld, \"one_sided_bytes\": %lld}",
      seconds, static_cast<long long>(comm_bytes),
      static_cast<long long>(supersteps), num_threads,
      static_cast<long long>(exchange.exchanges),
      static_cast<long long>(exchange.phases),
      static_cast<long long>(exchange.records_sent),
      static_cast<long long>(exchange.bytes_sent),
      static_cast<long long>(exchange.inter_node_bytes),
      static_cast<long long>(exchange.intra_node_bytes),
      static_cast<long long>(exchange.inter_node_msgs),
      static_cast<long long>(exchange.coalesced_flushes),
      static_cast<long long>(exchange.overlapped),
      static_cast<long long>(exchange.max_inflight_bytes),
      static_cast<long long>(exchange.drained_incrementally),
      static_cast<long long>(exchange.pipeline_carried),
      static_cast<long long>(exchange.max_pipeline_depth),
      static_cast<long long>(exchange.one_sided_gets),
      static_cast<long long>(exchange.one_sided_bytes));
  return buf;
}

}  // namespace xtra::engine
