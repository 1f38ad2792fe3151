// One-stop wiring of the full simulated Intrepid stack.
//
// Bundles the scheduler, machine model, torus + collective networks, ION
// forwarding, storage fabric, parallel filesystem and the MPI runtime, so
// benches and tests can stand up a complete system in one line:
//
//   iolib::SimStack stack(16384);                 // 16K-rank Intrepid, GPFS
//   auto result = runCheckpoint(stack, spec, cfg);
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fssim/parallel_fs.hpp"
#include "machine/bgp.hpp"
#include "mpisim/comm.hpp"
#include "netsim/ion.hpp"
#include "netsim/torus.hpp"
#include "obs/obs.hpp"
#include "profiling/profile.hpp"
#include "simcore/scheduler.hpp"
#include "simcore/simcheck.hpp"
#include "storsim/fabric.hpp"

namespace bgckpt::iolib {

struct SimStackOptions {
  fs::FsConfig fsConfig = fs::gpfsConfig();
  stor::NoiseModel noise;  // paper conditions: shared system, normal load
  std::uint64_t seed = 2011;
  /// Runtime invariant checking (simcore/simcheck.hpp). `kAuto` consults
  /// the SIM_CHECK environment variable, then defaults to on in debug
  /// builds and off in release. Benches expose this as `--simcheck`.
  sim::SimCheckMode simcheck = sim::SimCheckMode::kAuto;

  bool operator==(const SimStackOptions&) const = default;
};

class SimStack {
 public:
  explicit SimStack(int numRanks, SimStackOptions options = {});
  ~SimStack();

  sim::Scheduler sched;
  /// Invariant checker, when enabled (see SimStackOptions::simcheck). Null
  /// when disabled. Declared right after `sched` so it outlives every layer
  /// below: Resources self-report token leaks at their own destructors
  /// through sched.checker(), and the checker's finalize() reads the
  /// scheduler clock and queue depth.
  std::unique_ptr<sim::SimChecker> checker;
  machine::Machine mach;
  /// Observability hub for the whole stack. Every layer below reports into
  /// it; `profile` is fed from its kIo event stream via prof::IoCountsSink.
  /// Benches attach extra sinks (Chrome trace, a prof::IoProfileSink for
  /// per-op records) with obs.addSink(). Each SimChecker violation flushes
  /// them, so a trace file holds every event up to the one that aborts.
  /// Declared before the layers (they hold a pointer) and after sched (its
  /// destructor reads the scheduler clock for end-of-run exports).
  obs::Observability obs;
  net::TorusNetwork torus;
  net::CollectiveNetwork coll;
  net::IonForwarding ion;
  stor::StorageFabric fabric;
  fs::ParallelFsSim fsys;
  mpi::Runtime rt;
  /// Per-op counts, bytes and busy seconds: O(1) space, no per-op records.
  prof::IoCounts profile;
  std::uint64_t seed;
};

/// Run `program` on every rank of `stack` until no event is left and return
/// the largest entry of `perRank`, which the program fills. Throws
/// std::runtime_error("<what> deadlocked") if a rank is still blocked.
double runRanks(SimStack& stack, const char* what,
                std::function<sim::Task<>(mpi::Comm)> program,
                const std::vector<double>& perRank);

}  // namespace bgckpt::iolib
