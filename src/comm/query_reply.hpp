// Owner-lookup round trip — the query/reply pattern behind ghost
// degree fetches and ghost-consistency checks: ship queries to each
// record's owner, answer each arrival, and return the replies to their
// askers in query order (alltoallv preserves order both ways, so the
// i-th reply answers the i-th query).
#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "comm/exchanger.hpp"
#include "mpisim/comm.hpp"
#include "util/types.hpp"

namespace xtra::comm {

/// Collective. `queries` must be grouped by destination per `qcounts`
/// (use DestBuckets). `answer(q)` runs on the owning rank and its
/// results travel back. The returned span aliases the Exchanger's
/// receive scratch — valid until its next exchange, aligned 1:1 with
/// `queries`.
template <typename Q, typename AnswerFn>
auto query_reply(sim::Comm& comm, Exchanger& ex, const std::vector<Q>& queries,
                 const std::vector<count_t>& qcounts, AnswerFn&& answer)
    -> std::span<const std::decay_t<std::invoke_result_t<AnswerFn&, const Q&>>> {
  using R = std::decay_t<std::invoke_result_t<AnswerFn&, const Q&>>;
  std::vector<count_t> rcounts;
  const std::span<const Q> incoming = ex.exchange(comm, queries, qcounts,
                                                  &rcounts);
  std::vector<R> replies(incoming.size());
  for (std::size_t i = 0; i < incoming.size(); ++i)
    replies[i] = answer(incoming[i]);
  return ex.exchange(comm, replies, rcounts);
}

}  // namespace xtra::comm
