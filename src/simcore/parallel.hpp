// Parallel execution of independent jobs: sim::parallelFor, the one
// production parallel path (bench::prefetchSims runs one whole simulation
// per job).
//
// simcore itself never reads a clock: the caller times its jobs.
#pragma once

#include <cstddef>
#include <functional>

namespace bgckpt::sim {

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
