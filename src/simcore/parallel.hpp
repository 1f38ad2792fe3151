// Parallel execution of independent jobs: sim::parallelFor, the one
// production parallel path (bench::prefetchSims runs one whole simulation
// per job), plus the observer seam that lets obs::RuntimeProfiler time it.
//
// simcore itself never reads a clock: all real-time measurement lives
// behind RuntimeObserver, outside this layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace bgckpt::sim {

/// Process-wide hook for real-time execution profiling. Dormant when
/// unset: every instrumentation site is a single null check. Installed by
/// obs::RuntimeProfiler; simcore only defines the seam.
class RuntimeObserver {
 public:
  virtual ~RuntimeObserver() = default;
  /// parallelFor region lifecycle. `id` is a process-unique region id;
  /// jobBegin/jobEnd run on worker threads (worker < threads).
  virtual void parallelForBegin(std::uint64_t id, std::size_t jobs,
                                unsigned threads) noexcept = 0;
  virtual void jobBegin(std::uint64_t id, std::size_t job,
                        unsigned worker) noexcept = 0;
  virtual void jobEnd(std::uint64_t id, std::size_t job,
                      unsigned worker) noexcept = 0;
  virtual void parallelForEnd(std::uint64_t id) noexcept = 0;
};

/// Install (or clear, with nullptr) the process-wide runtime observer.
/// Not synchronized against in-flight regions: install before starting
/// work, clear after joining it. Returns the previous observer.
RuntimeObserver* setRuntimeObserver(RuntimeObserver* observer) noexcept;
RuntimeObserver* runtimeObserver() noexcept;

/// Deterministically-slotted parallel job map: run body(0..n-1) on up to
/// `threads` workers (dynamic work stealing via an atomic cursor; callers
/// make determinism a property of each job, e.g. one independent simulation
/// per job writing only its own slot). The calling thread is worker 0;
/// threads <= 1 spawns nothing and runs the jobs in index order.
/// Exceptions: every job runs, and the lowest job index's exception is
/// rethrown after all workers finish.
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& body);

}  // namespace bgckpt::sim
