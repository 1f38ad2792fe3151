#include "simcore/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace bgckpt::sim {

void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t t =
      threads <= 1 ? 1 : std::min<std::size_t>(threads, n);
  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> errors(n);
  auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  // The calling thread is worker 0, so t == 1 spawns nothing and runs the
  // jobs in index order through the same loop as the threaded case.
  std::vector<std::thread> pool;
  pool.reserve(t - 1);
  try {
    for (std::size_t w = 1; w < t; ++w) pool.emplace_back(worker);
  } catch (const std::system_error&) {
    // The host refused a thread: the workers already started and this one
    // still drain the cursor, and every started worker is joined below.
  }
  worker();
  for (std::thread& th : pool) th.join();
  for (std::size_t i = 0; i < n; ++i)
    if (errors[i]) std::rethrow_exception(errors[i]);
}

}  // namespace bgckpt::sim
