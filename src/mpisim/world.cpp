#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "mpisim/comm.hpp"

namespace xtra::sim {

void run_world(int nranks, const std::function<void(Comm&)>& fn) {
  XTRA_ASSERT_MSG(nranks >= 1, "world needs at least one rank");

  detail::WorldState world(nranks);
  std::exception_ptr first_error;
  std::mutex error_mutex;
  // Every rank's Comm outlives every rank thread: a peer may still read
  // a rank's published channel state (an exchange it left open, e.g. a
  // leak the end-of-world check reports) after that rank returned.
  std::vector<Comm> comms;
  comms.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) comms.emplace_back(&world, r);

  auto rank_main = [&](int rank) {
    Comm& comm = comms[static_cast<std::size_t>(rank)];
    try {
      fn(comm);
      // Leak + final-lockstep checks (no-op unless XTRA_VERIFY_COMM):
      // inside the try so an attributed ProtocolError unwinds the
      // world exactly like a failure in fn itself.
      comm.verify_end_of_world();
    } catch (const WorldAborted&) {
      // Cascade from a peer's failure: the root cause was already
      // recorded (abandon() publishes the failed flag only after the
      // originating rank stored its exception), so just exit cleanly.
      world.abandon();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      world.abandon();
    }
  };

  if (nranks == 1) {
    rank_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) threads.emplace_back(rank_main, r);
    for (auto& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace xtra::sim
