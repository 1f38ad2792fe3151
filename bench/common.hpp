// Shared plumbing for the paper driver (bench/paper.cpp) and its figures.
//
// Every figure prints:
//   1. a banner naming the paper artifact it regenerates,
//   2. the measured series (plus the paper's approximate values where the
//      text/figures state them),
//   3. an ASCII rendering,
//   4. SHAPE CHECK lines — the qualitative claims that must hold (who wins,
//      by roughly what factor, where crossovers fall). A failed check makes
//      the driver exit nonzero.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "iolib/campaign.hpp"
#include "iolib/multilevel.hpp"
#include "iolib/strategies.hpp"
#include "obs/attr.hpp"
#include "profiling/profile.hpp"

namespace bgckpt::bench {


/// The driver's command line: `paper [FIGURE...] [FLAG...]`. Positional
/// arguments name figures (none = all). Flags:
///   --trace <file>     stream a Chrome trace_event JSON there, one event
///                      per line: open it in Perfetto / chrome://tracing,
///                      or summarize it with tools/trace_report. A fatal
///                      SimChecker violation leaves it holding every event
///                      up to the violation (no closing `]`).
///   --metrics <file>   export the metrics registry as JSON there
///   --perf-json <file> write a machine-readable perf record there (schema
///                      bgckpt-perf-1): one entry per simulated run (label,
///                      wall seconds, events processed, events/sec) and,
///                      with --threads, the wall time of the parallel
///                      region and of each scenario in it.
///                      bench/golden/golden.py gates its event counts;
///                      `trace_report --runtime` renders one record, and
///                      `--runtime A --diff B` compares two point by point
///                      (with --min-speedup or --tolerance, as a gate on
///                      same-machine wall time).
///   --simcheck[=MODE]  enable the runtime invariant checker on every
///                      stack (MODE: on [default], warn, off; see
///                      simcore/simcheck.hpp)
///   --attr <file>      export per-rank blocked-time attribution there as
///                      JSON (obs/attr.hpp, schema bgckpt-attr-1) for
///                      `trace_report --attr`
///   --optrace[=RATE] <file>
///                      per-request causal tracing (obs/optrace.hpp): every
///                      checkpoint write op carries a span context from the
///                      issuing rank down to the DDN commit. RATE > 1 keeps
///                      every RATE-th waterfall, RATE in (0,1] is a sampling
///                      probability (default 1 in 64; the slowest requests
///                      are always kept). The hop-percentile tables, lineage
///                      trees, and tail waterfalls are exported there as
///                      JSON for `trace_report --waterfall`.
///   --obs-dir DIR      derive every observability artifact path not given
///                      explicitly (trace/metrics/attr/optrace)
///                      as DIR/<artifact>.json, creating DIR first.
///                      Explicit flags win.
///   --threads=N        simulate the scenarios on N worker threads (default
///                      1). Stdout and every obs artifact are byte-identical
///                      whatever N is: scenarios are simulated in one fixed
///                      order with pre-assigned artifact ordinals, and
///                      rendered after all of them finish. The perf record
///                      differs only in wall times, thread counts and its
///                      parallel_regions.
///   --max-np N         fig5_write_bandwidth only: run the scales up to N
///                      (a smoke mode for slow builds; shape checks skipped)
///   --np N             eq7_measured_vs_model only: ranks (default 4096;
///                      must be an Intrepid partition)
/// Every announce line ("[obs] ...", "[perf] ...") goes to stderr, so
/// figure stdout is the same whichever flags are on. Each stack's exports
/// are numbered in simulation order (".2", ".3", ...). --threads, --max-np
/// and --np take whole positive integers, --optrace=RATE a whole positive
/// number. A bad value, a missing value, a value that is itself a flag, an
/// unknown flag, an unknown figure name or a path that cannot be opened
/// exits 2 before anything is simulated; a file that cannot be written
/// exits 1 at the end.
struct Flags {
  std::vector<std::string> figures;  ///< positional arguments, in order
  int maxNp = 65536;
  int np = 4096;
};
Flags parseFlags(int argc, char** argv);

/// Wall-clock stopwatch for benchmark harnesses. Lives in bench/common on
/// purpose: srclint's wall-clock rule bans host clocks everywhere else in
/// bench/ and src/, so harness timing goes through this one allowlisted
/// type instead of ad-hoc steady_clock calls (see tools/srclint rules.cpp,
/// "wall-clock").
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  /// Seconds elapsed since construction.
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Section III-B's presetup: rank 0 reads the global mesh of `elements`
/// spectral elements (*.rea and *.map), parses it and broadcasts it.
struct MeshRead {
  std::uint64_t elements = 0;

  bool operator==(const MeshRead&) const = default;
};

/// One simulated run on a fresh stack of `np` ranks built with `stack`:
/// `spec` written as one checkpoint (a StrategyConfig), as a campaign or as
/// a multilevel checkpoint, or a mesh read (which ignores `spec`). Two
/// figures that declare equal scenarios read one simulation. The driver
/// fills in the stack's --simcheck setting, so figures leave it
/// defaulted.
struct Scenario {
  int np = 0;
  iolib::SimStackOptions stack;
  iolib::CheckpointSpec spec;
  std::variant<iolib::StrategyConfig, iolib::CampaignConfig,
               iolib::MultilevelConfig, MeshRead>
      run;

  bool operator==(const Scenario&) const = default;
};

/// What a figure keeps of its scenarios beyond their Outcome's result,
/// revocations and op counts (a mask on its table entry). Each grows with
/// the run, so only the scenarios of figures that ask keep it.
enum Keep : unsigned {
  kKeepRecords = 1,      ///< every op record (Outcome::records)
  kKeepAttribution = 2,  ///< the blocked-time report (Outcome::attribution)
};

/// What a figure reads of one simulated scenario.
struct Outcome {
  /// The run's result, in the alternative of Scenario::run: a checkpoint's,
  /// a campaign's, a multilevel checkpoint's, or the mesh read's seconds.
  std::variant<iolib::CheckpointResult, iolib::CampaignResult,
               iolib::MultilevelResult, double>
      result;
  /// fsys.totalRevocations() after the run.
  std::uint64_t revocations = 0;
  /// The stack's per-op counts after the run.
  prof::IoCounts counts;
  /// Every op record, if a figure keeps them (kKeepRecords).
  std::optional<prof::IoProfile> records;
  /// The attribution report, if a figure keeps it (kKeepAttribution).
  std::optional<obs::AttributionEngine::Report> attribution;
};

/// Simulate every scenario once, in order, on --threads workers, keeping
/// what keep[i] (a Keep mask) asks of scenario i, and record each in the
/// perf report in that order (plus one parallel region under --threads >
/// 1). Outcome i belongs to scenario i. The only place a SimStack is built,
/// so called once per process: every stack gets --simcheck and the
/// observability exports, stack i numbered i + 1.
std::vector<Outcome> simulate(const std::vector<Scenario>& scenarios,
                              const std::vector<unsigned>& keep);

/// What one figure's render reads: the outcomes of the scenarios it
/// declared. Reading any other scenario, or op records or an attribution
/// report no figure kept, throws std::logic_error naming it: a figure never
/// re-simulates behind the table's back.
struct Results {
  std::string figure;
  const std::vector<Scenario>& declared;
  const std::vector<Scenario>& simulated;  ///< in simulate() order
  const std::vector<Outcome>& outcomes;    ///< outcomes[i] of simulated[i]

  const Outcome& outcome(const Scenario& s) const;
  /// The result of `s`; R is the alternative its run produces.
  template <typename R>
  const R& get(const Scenario& s) const {
    return std::get<R>(outcome(s).result);
  }
  const iolib::CheckpointResult& at(const Scenario& s) const {
    return get<iolib::CheckpointResult>(s);
  }
  const prof::IoProfile& records(const Scenario& s) const;
  const obs::AttributionEngine::Report& attribution(const Scenario& s) const;
};

/// Write the perf record and report every export that failed to write.
/// Returns the exit code: 0 iff no check failed and every file was written.
int finish(int failedChecks);

}  // namespace bgckpt::bench
