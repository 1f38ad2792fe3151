// perf_compare: gate simulator performance against a committed baseline.
//
// Reads two --perf-json reports (emitted by the figure benches) and fails
// if the current run regressed beyond a tolerance:
//
//   perf_compare baseline.json current.json [--tolerance 0.15] [--no-wall]
//   perf_compare serial.json parallel.json --min-speedup 3
//
// Run records carry a "threads" field (records from before the field exist
// count as threads=1). The default mode totals the runs per thread count
// and compares each thread group present in both reports — a baseline
// holding serial and 8-thread entries gates a serial-only current run on
// just the serial group. Two independent gates per group:
//
//   events  the total simulated event count. For a fixed seed the simulator
//           is deterministic, so ANY change here is a real change in the
//           amount of work the simulation performs (an accidental extra
//           event per message, a lost batching optimisation, ...). Machine
//           independent — safe to enforce in CI. Events may also not move
//           by more than the tolerance in either direction without the
//           baseline being regenerated.
//
//   wall    total wall-clock seconds, compared only upward (slower). Wall
//           time depends on the host, so CI passes --no-wall and only
//           developers' local runs (same machine as their baseline) gate
//           on it.
//
// --min-speedup X switches to the parallel-scaling gate: both reports must
// describe the same workload (events within tolerance), and the second
// file's total wall time must be at least X times smaller than the first's.
// Both runs come from the same machine/job, so wall is meaningful here.
//
// Exit code: 0 pass, 1 regression, 2 usage/parse error. A report that is
// not valid JSON (a truncated file, say) or has no "runs" array is a parse
// error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace {

using bgckpt::obs::json::Value;

struct GroupTotals {
  double wallSeconds = 0.0;
  double events = 0.0;
};

struct PerfReport {
  /// Totals per "threads" value of the run records.
  std::map<unsigned, GroupTotals> groups;
  bool ok = false;

  GroupTotals merged() const {
    GroupTotals t;
    for (const auto& [threads, g] : groups) {
      t.wallSeconds += g.wallSeconds;
      t.events += g.events;
    }
    return t;
  }
};

/// Totals of one --perf-json record's "runs" array, per thread count. Run
/// records without wall_seconds or events are skipped.
PerfReport readReport(const std::string& path) {
  PerfReport r;
  std::ifstream in(path);
  if (!in) return r;
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = bgckpt::obs::json::parse(ss.str());
  const Value* runs = doc ? doc->find("runs") : nullptr;
  if (runs == nullptr || !runs->isArray()) return r;
  for (const Value& run : *runs->array) {
    const double wall = run.numberOr("wall_seconds", -1.0);
    const double events = run.numberOr("events", -1.0);
    if (wall < 0.0 || events < 0.0) continue;
    const double threads = run.numberOr("threads", 1.0);
    GroupTotals& g =
        r.groups[threads >= 1.0 ? static_cast<unsigned>(threads) : 1u];
    g.wallSeconds += wall;
    g.events += events;
  }
  r.ok = true;
  return r;
}

std::string groupTag(unsigned threads) {
  return " [threads=" + std::to_string(threads) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const char* baselinePath = nullptr;
  const char* currentPath = nullptr;
  double tolerance = 0.15;
  double minSpeedup = 0.0;
  bool checkWall = true;
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: perf_compare BASELINE.json CURRENT.json "
                 "[--tolerance FRAC] [--no-wall] [--min-speedup X]\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::atof(argv[++i]);
    } else if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
      tolerance = std::atof(argv[i] + 12);
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      minSpeedup = std::atof(argv[++i]);
    } else if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      minSpeedup = std::atof(argv[i] + 14);
    } else if (std::strcmp(argv[i], "--no-wall") == 0) {
      checkWall = false;
    } else if (!baselinePath) {
      baselinePath = argv[i];
    } else if (!currentPath) {
      currentPath = argv[i];
    } else {
      return usage();
    }
  }
  if (!baselinePath || !currentPath) return usage();

  const PerfReport base = readReport(baselinePath);
  const PerfReport cur = readReport(currentPath);
  if (!base.ok) {
    std::fprintf(stderr, "perf_compare: cannot read run records from %s\n",
                 baselinePath);
    return 2;
  }
  if (!cur.ok) {
    std::fprintf(stderr, "perf_compare: cannot read run records from %s\n",
                 currentPath);
    return 2;
  }

  int failures = 0;

  if (minSpeedup > 0.0) {
    // Parallel-scaling mode: file 1 is the serial reference, file 2 the
    // parallel run of the same workload.
    const GroupTotals serial = base.merged();
    const GroupTotals parallel = cur.merged();
    if (serial.events > 0.0) {
      const double drift = (parallel.events - serial.events) / serial.events;
      const bool pass = std::fabs(drift) <= tolerance;
      std::printf("PERF CHECK [%s]: events %.0f -> %.0f (%+.1f%%; parallel "
                  "run must do the same work)\n",
                  pass ? "PASS" : "FAIL", serial.events, parallel.events,
                  drift * 100.0);
      if (!pass) ++failures;
    }
    const double speedup = parallel.wallSeconds > 0.0
                               ? serial.wallSeconds / parallel.wallSeconds
                               : 0.0;
    const bool pass = speedup >= minSpeedup;
    std::printf("PERF CHECK [%s]: speedup %.2fx (wall %.2fs -> %.2fs, "
                "required >= %.2fx)\n",
                pass ? "PASS" : "FAIL", speedup, serial.wallSeconds,
                parallel.wallSeconds, minSpeedup);
    if (!pass) ++failures;
    return failures == 0 ? 0 : 1;
  }

  int compared = 0;
  for (const auto& [threads, b] : base.groups) {
    const auto it = cur.groups.find(threads);
    if (it == cur.groups.end()) {
      std::printf("PERF CHECK [SKIP]: no%s runs in current report\n",
                  groupTag(threads).c_str());
      continue;
    }
    const GroupTotals& c = it->second;
    ++compared;
    const std::string tag = base.groups.size() > 1 ? groupTag(threads) : "";

    if (b.events > 0.0) {
      const double drift = (c.events - b.events) / b.events;
      const bool pass = std::fabs(drift) <= tolerance;
      std::printf("PERF CHECK [%s]: events %.0f -> %.0f (%+.1f%%, tolerance "
                  "+/-%.0f%%)%s\n",
                  pass ? "PASS" : "FAIL", b.events, c.events, drift * 100.0,
                  tolerance * 100.0, tag.c_str());
      if (!pass) ++failures;
    }

    if (checkWall && b.wallSeconds > 0.0) {
      const double slowdown = (c.wallSeconds - b.wallSeconds) / b.wallSeconds;
      const bool pass = slowdown <= tolerance;
      std::printf("PERF CHECK [%s]: wall %.2fs -> %.2fs (%+.1f%%, tolerance "
                  "+%.0f%%)%s\n",
                  pass ? "PASS" : "FAIL", b.wallSeconds, c.wallSeconds,
                  slowdown * 100.0, tolerance * 100.0, tag.c_str());
      if (!pass) ++failures;
    }
  }
  if (!checkWall) {
    std::printf("PERF CHECK [SKIP]: wall-clock (--no-wall: baseline from a "
                "different machine)\n");
  }
  if (compared == 0) {
    std::fprintf(stderr, "perf_compare: no thread group present in both "
                         "reports\n");
    return 2;
  }

  return failures == 0 ? 0 : 1;
}
