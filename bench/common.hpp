// Shared plumbing for the figure/table reproduction harnesses.
//
// Every harness prints:
//   1. a banner naming the paper artifact it regenerates,
//   2. the measured series (plus the paper's approximate values where the
//      text/figures state them),
//   3. an ASCII rendering,
//   4. SHAPE CHECK lines — the qualitative claims that must hold (who wins,
//      by roughly what factor, where crossovers fall). A failed check makes
//      the binary exit nonzero.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/ascii.hpp"
#include "iolib/strategies.hpp"
#include "simcore/simcheck.hpp"

namespace bgckpt::bench {

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

void banner(const std::string& artifact, const std::string& description);

/// Write the --perf-json record, finalize every attached stack the harness
/// still holds (so its exports are written), and print all checks. Returns
/// the process exit code: 0 iff every check passes, 1 if one fails or an
/// export could not be written (`error: --FLAG: cannot write PATH`).
int reportChecks(const std::vector<Check>& checks);

/// Format helpers.
std::string gbs(double bytesPerSecond);
std::string secs(double seconds);

/// Parse observability flags from the harness command line:
///   --trace <file>     stream a Chrome trace_event JSON there (open the
///                      file in Perfetto / chrome://tracing), plus a
///                      <file>.jsonl event log for tools/trace_report
///   --metrics <file>   export the metrics registry as JSON there
///   --perf-json <file> write a machine-readable perf record there (schema
///                      bgckpt-perf-1): one entry per simulated run (label,
///                      wall seconds, events processed, events/sec) and,
///                      with --threads, the wall time of each prefetch
///                      region and of its jobs. bench/golden/golden.py gates
///                      its event counts; `trace_report --runtime` renders
///                      one record, and `--runtime A --diff B` compares two
///                      point by point (with --min-speedup or --tolerance,
///                      as a gate on same-machine wall time).
///   --simcheck[=MODE]  enable the runtime invariant checker on every
///                      fresh-stack runSim (MODE: on [default], warn, off;
///                      see simcore/simcheck.hpp). Harnesses that build
///                      their own SimStack honour the SIM_CHECK environment
///                      variable instead.
///   --attr <file>      export per-rank blocked-time attribution there as
///                      JSON (obs/attr.hpp)
///   --critpath <file>  record the causal event graph and write the
///                      critical-path report there as JSON (obs/critpath.hpp)
///   --telemetry[=DT] <file>
///                      sample every registered telemetry probe into
///                      DT-second buckets (default obs::Telemetry::
///                      kDefaultDt) and write the timeseries there as JSON.
///                      Feed it to `trace_report --timeline` for
///                      utilization heatmaps and server-imbalance stats.
///   --optrace[=RATE] [file]
///                      per-request causal tracing (obs/optrace.hpp): every
///                      checkpoint write op carries a span context from the
///                      issuing rank down to the DDN commit. RATE > 1 keeps
///                      every RATE-th waterfall, RATE in (0,1] is a sampling
///                      probability (default 1 in 64; the slowest requests
///                      are always kept). With a file, the hop-percentile
///                      tables, lineage trees, and tail waterfalls are
///                      exported as JSON for `trace_report --waterfall`.
///   --obs-dir DIR      derive every observability artifact path not given
///                      explicitly (trace/metrics/attr/critpath/telemetry/
///                      optrace) as DIR/<artifact>.json, creating DIR
///                      first. Explicit flags win.
///   --flightrec[=N]    keep a flight recorder of the last N (default 256)
///                      trace events per layer per stack; SimChecker
///                      violations and failed SHAPE CHECKs dump it to stderr
///   --threads=N        simulate the harness's independent points on N
///                      worker threads (default 1 = the serial reference).
///                      Results, stdout, and every obs artifact are
///                      byte-identical to the serial run: points are
///                      prefetched into a cache and consumed in program
///                      order (see prefetchSims). The perf record differs
///                      only in wall times, thread counts and its
///                      parallel_regions.
/// Every announce line ("[obs] ...", "[perf] ...") goes to stderr, so
/// figure stdout is the same whichever flags are on. A path that cannot be
/// opened exits 2 at startup; a file that cannot be written exits 1 at
/// reportChecks. A flag that takes a separate value exits 2 when the value
/// is missing or is itself a flag. Unknown arguments are ignored so
/// harnesses stay forward-compatible.
void obsInit(int argc, char** argv);

/// Matches `name` at argv[i], given as `name=VALUE` or as `name VALUE`,
/// and stores VALUE in `out` (advancing `i` past a separate value). A
/// separate value that is missing or is itself a flag exits 2 with
/// `error: NAME needs a value`: otherwise `--telemetry --optrace` would
/// write a file named "--optrace" and never turn op tracing on. Harnesses
/// parse their own valued flags with it, so they share this contract.
bool flagValue(int argc, char** argv, int& i, const char* name,
               std::string& out);

/// The worker-thread count requested with --threads (>= 1).
unsigned benchThreads();

/// Wall-clock stopwatch for benchmark harnesses. Lives in bench/common on
/// purpose: srclint's wall-clock rule bans host clocks everywhere else in
/// bench/ and src/, so harness timing goes through this one allowlisted
/// type instead of ad-hoc steady_clock calls (see tools/srclint rules.cpp,
/// "wall-clock").
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Record one simulated run in the --perf-json report (no-op without the
/// flag). The runSim overloads call this automatically; harnesses that
/// drive runCheckpoint/runCampaign themselves can call it directly. The
/// record carries the --threads value.
void perfRecord(const std::string& label, double wallSeconds,
                std::uint64_t events);

/// Write the --perf-json record, if requested. Returns false (and prints
/// to stderr) if the file could not be written. Called by reportChecks.
bool perfFlush();

/// The --simcheck mode requested on the command line (kAuto when absent).
sim::SimCheckMode simCheckMode();

/// Attach the requested trace/metrics sinks to a stack. Called by the
/// fresh-stack runSim overload; harnesses that build their own SimStack
/// (e.g. fig12) call it once per stack. Each attach after the first gets a
/// numbered path suffix (".2", ".3", ...) so multi-stack harnesses emit one
/// trace per stack. A stack writes its exports when it is destroyed, or at
/// reportChecks if the harness still holds it. No-op when no observability
/// flag was given.
void attachObs(iolib::SimStack& stack);

/// One independent simulation point: what the fresh-stack runSim overload
/// takes. Harnesses that loop over scales and approaches list their points
/// up front (in the exact order runSim will consume them) and hand them to
/// prefetchSims.
struct SimPoint {
  int np = 0;
  iolib::StrategyConfig cfg;
  std::uint64_t seed = 2011;

  bool operator==(const SimPoint&) const = default;
};

/// Simulate every point ahead of time on benchThreads() workers and cache
/// the results (checkpoint result, wall time, event count, pre-assigned obs
/// artifact numbers). A later fresh-stack runSim with matching (np, config,
/// seed) consumes its cache entry in FIFO order — so a harness that
/// prefetches its whole point list in call order produces byte-identical
/// stdout and obs artifacts whatever the thread count, and the same perf
/// run records apart from wall times. Each simulated point is itself a
/// single-threaded discrete-event run (the points are independent;
/// determinism is per point by construction). The region's wall time and
/// each job's (stack build through teardown) go to the perf record's
/// parallel_regions. No-op when --threads <= 1: the serial path stays
/// exactly the reference.
void prefetchSims(const std::vector<SimPoint>& points);

/// Run one simulated checkpoint on a fresh Intrepid stack (paper noise
/// conditions, fixed seed) and return the result. Consumes a prefetched
/// cache entry when one matches (see prefetchSims).
iolib::CheckpointResult runSim(int np, const iolib::StrategyConfig& cfg,
                               std::uint64_t seed = 2011);

/// Same, but also hand back the stack (for profile/fs inspection).
iolib::CheckpointResult runSim(iolib::SimStack& stack, int np,
                               const iolib::StrategyConfig& cfg);

/// The five approaches of Figs. 5-7, in the paper's legend order.
struct Approach {
  std::string name;
  iolib::StrategyConfig cfg;
};
std::vector<Approach> paperApproaches(int np);

}  // namespace bgckpt::bench
