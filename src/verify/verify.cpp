#include "verify/verify.hpp"

#include <algorithm>
#include <sstream>

#include "util/parallel.hpp"

namespace xtra::verify {

const char* op_name(Op op) {
  switch (op) {
    case Op::kNone: return "(none)";
    case Op::kBarrier: return "barrier";
    case Op::kBcast: return "bcast";
    case Op::kAllreduce: return "allreduce";
    case Op::kAlltoall: return "alltoall";
    case Op::kAlltoallv: return "alltoallv";
    case Op::kAlltoallvBytes: return "alltoallv_bytes";
    case Op::kA2avStart: return "alltoallv_bytes_start";
    case Op::kA2avFinish: return "alltoallv_bytes_finish";
    case Op::kGatherv: return "gatherv";
    case Op::kAllgatherv: return "allgatherv";
    case Op::kEndOfWorld: return "end-of-world (rank fn returned)";
  }
  return "(unknown)";
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t pack_fingerprint(Op op, int id, std::uint64_t uniform) {
  // Fold the 64-bit uniform hash into 48 bits so op and id stay
  // directly decodable from the packed word.
  const std::uint64_t folded = (uniform ^ (uniform >> 48)) & 0xffffffffffffULL;
  const std::uint64_t id_bits =
      static_cast<std::uint64_t>(id + 1) & 0x3ffULL;  // -1 (no id) -> 0
  return (static_cast<std::uint64_t>(op) << 58) | (id_bits << 48) | folded;
}

Op fingerprint_op(std::uint64_t fp) {
  return static_cast<Op>((fp >> 58) & 0x3f);
}

int fingerprint_id(std::uint64_t fp) {
  return static_cast<int>((fp >> 48) & 0x3ff) - 1;
}

namespace {

/// "alltoallv_bytes_start [channel 2]" — decoded from a
/// packed fingerprint for divergence tables.
std::string describe_fp(std::uint64_t fp) {
  if (fp == 0) return "(no collective recorded)";
  const Op op = fingerprint_op(fp);
  const int id = fingerprint_id(fp);
  std::ostringstream os;
  os << op_name(op);
  if (id >= 0) {
    switch (op) {
      case Op::kA2avStart:
      case Op::kA2avFinish:
        os << " [channel " << id << "]";
        break;
      case Op::kBcast:
      case Op::kGatherv:
        os << " [root " << id << "]";
        break;
      default:
        os << " [id " << id << "]";
        break;
    }
  }
  return os.str();
}

}  // namespace

WorldLedger::WorldLedger(int nranks)
    : nranks_(nranks), ranks_(static_cast<std::size_t>(nranks)) {}

void WorldLedger::begin(int rank, Op op, int id, std::uint64_t uniform,
                        std::uint64_t local) {
  RankState& me = ranks_[static_cast<std::size_t>(rank)];
  const std::uint64_t seq = ++me.seq;
  // The previous generation's slot stays readable until every peer has
  // passed the barrier that published it; a rank can be at most one
  // collective ahead of the slowest peer (its own next barrier blocks
  // on them), so two slots suffice.
  me.fp[seq & 1].store(pack_fingerprint(op, id, uniform),
                       std::memory_order_release);
  TraceEntry& t = me.trace[seq % kTraceLen];
  t.op = op;
  t.id = id;
  t.uniform = uniform;
  t.local = local;
  t.seq = seq;
}

void WorldLedger::check(int rank) const {
  const RankState& me = ranks_[static_cast<std::size_t>(rank)];
  const std::size_t slot = me.seq & 1;
  const std::uint64_t mine = me.fp[slot].load(std::memory_order_acquire);
  for (int r = 0; r < nranks_; ++r) {
    const std::uint64_t theirs =
        ranks_[static_cast<std::size_t>(r)].fp[slot].load(
            std::memory_order_acquire);
    if (theirs != mine) {
      throw ProtocolError(describe_divergence(rank, mine));
    }
  }
}

std::string WorldLedger::describe_divergence(int rank,
                                             std::uint64_t mine) const {
  const RankState& me = ranks_[static_cast<std::size_t>(rank)];
  const std::size_t slot = me.seq & 1;
  std::ostringstream os;
  os << "comm verifier: lockstep divergence — ranks entered different "
        "collectives at the same barrier point.\n"
     << "  rank " << rank << " (this rank) arrived at its collective #"
     << me.seq << ": " << describe_fp(mine) << "\n"
     << "  fingerprints of all ranks at this barrier point:\n";
  for (int r = 0; r < nranks_; ++r) {
    const std::uint64_t fp =
        ranks_[static_cast<std::size_t>(r)].fp[slot].load(
            std::memory_order_acquire);
    os << "    rank " << r << ": " << describe_fp(fp)
       << (fp == mine ? "" : "   <-- differs") << "\n";
  }
  os << "  recent collectives on rank " << rank << " (oldest first):\n"
     << trace_tail(rank, kTraceLen);
  return os.str();
}

std::string WorldLedger::trace_tail(int rank, int max_entries) const {
  const RankState& me = ranks_[static_cast<std::size_t>(rank)];
  std::ostringstream os;
  const std::uint64_t hi = me.seq;
  const std::uint64_t span =
      std::min<std::uint64_t>(hi, static_cast<std::uint64_t>(max_entries));
  for (std::uint64_t s = hi - span + 1; s <= hi && span > 0; ++s) {
    const TraceEntry& t = me.trace[s % kTraceLen];
    if (t.seq != s) continue;  // overwritten by wraparound
    os << "    #" << t.seq << " "
       << describe_fp(pack_fingerprint(t.op, t.id, t.uniform));
    os << "  (local-args hash " << std::hex << t.local << std::dec << ")\n";
  }
  return os.str();
}

void WorldLedger::channel_open(int rank, int channel, const char* label,
                               const void* base, std::size_t bytes) {
  ChannelGuard& g =
      ranks_[static_cast<std::size_t>(rank)].channels[static_cast<std::size_t>(
          channel)];
  // Double-start on a busy channel is caught by sim::Comm before this
  // hook; the guard here just (re)arms attribution + checksum.
  g.open = true;
  g.label = label;
  g.base = static_cast<const std::byte*>(base);
  g.bytes = bytes;
  g.checksum = fnv1a(base, bytes);
  g.opened_seq = ranks_[static_cast<std::size_t>(rank)].seq;
}

void WorldLedger::channel_verify(int rank, int channel) const {
  const ChannelGuard& g =
      ranks_[static_cast<std::size_t>(rank)].channels[static_cast<std::size_t>(
          channel)];
  if (!g.open) return;
  if (fnv1a(g.base, g.bytes) != g.checksum) {
    std::ostringstream os;
    os << "comm verifier: in-flight send payload mutated on rank " << rank
       << ", channel " << channel << " (" << channel_attribution(rank, channel)
       << ", " << g.bytes << " bytes published). The caller wrote into the "
       << "send buffer between alltoallv_bytes_start and finish/drain; "
       << "in-flight payloads are owned by the wire until finish returns.";
    throw ProtocolError(os.str());
  }
}

void WorldLedger::channel_close(int rank, int channel) {
  ChannelGuard& g =
      ranks_[static_cast<std::size_t>(rank)].channels[static_cast<std::size_t>(
          channel)];
  g.open = false;
}

std::string WorldLedger::channel_attribution(int rank, int channel) const {
  const ChannelGuard& g =
      ranks_[static_cast<std::size_t>(rank)].channels[static_cast<std::size_t>(
          channel)];
  if (!g.open) return "idle";
  std::ostringstream os;
  os << "opened by '" << (g.label ? g.label : "(unlabeled)")
     << "' at this rank's collective #" << g.opened_seq;
  return os.str();
}

void thread_guard(const char* entry) {
  if (par::in_parallel_region()) {
    std::ostringstream os;
    os << "comm verifier: sim::Comm::" << entry
       << " called from inside a par:: parallel region (worker slot "
       << par::current_slot()  // lint-ok: diagnostic, not an observable
       << "). Pool workers and for_chunks bodies must never touch comm "
       << "(MPI+X contract, DESIGN.md §6): hoist the call out of the "
       << "parallel region onto the rank thread.";
    throw ProtocolError(os.str());
  }
}

}  // namespace xtra::verify
