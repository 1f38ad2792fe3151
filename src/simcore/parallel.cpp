#include "simcore/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace bgckpt::sim {

namespace {
// The process-wide runtime observer (parallel.hpp). An atomic pointer, not
// a plain global: installs happen on the main thread while no region is in
// flight, reads happen from parallelFor on any thread.
std::atomic<RuntimeObserver*> gRuntimeObserver{nullptr};
// Process-unique parallelFor region ids for the observer.
std::atomic<std::uint64_t> gParallelForId{0};
}  // namespace

RuntimeObserver* setRuntimeObserver(RuntimeObserver* observer) noexcept {
  return gRuntimeObserver.exchange(observer, std::memory_order_acq_rel);
}

RuntimeObserver* runtimeObserver() noexcept {
  return gRuntimeObserver.load(std::memory_order_acquire);
}

void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t t =
      threads <= 1 ? 1 : std::min<std::size_t>(threads, n);
  RuntimeObserver* const ro = runtimeObserver();
  const std::uint64_t id =
      ro ? gParallelForId.fetch_add(1, std::memory_order_relaxed) : 0;
  if (ro) ro->parallelForBegin(id, n, static_cast<unsigned>(t));
  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> errors(n);
  auto worker = [&](unsigned w) {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (ro) ro->jobBegin(id, i, w);
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      if (ro) ro->jobEnd(id, i, w);
    }
  };
  // The calling thread is worker 0, so t == 1 spawns nothing and runs the
  // jobs in index order through the same loop as the threaded case.
  std::vector<std::thread> pool;
  pool.reserve(t - 1);
  try {
    for (std::size_t w = 1; w < t; ++w)
      pool.emplace_back(worker, static_cast<unsigned>(w));
  } catch (const std::system_error&) {
    // The host refused a thread: the workers already started and this one
    // still drain the cursor, and every started worker is joined below.
  }
  worker(0);
  for (std::thread& th : pool) th.join();
  if (ro) ro->parallelForEnd(id);
  for (std::size_t i = 0; i < n; ++i)
    if (errors[i]) std::rethrow_exception(errors[i]);
}

}  // namespace bgckpt::sim
