#include "common.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "machine/bgp.hpp"
#include "obs/attr.hpp"
#include "obs/critpath.hpp"
#include "obs/flightrec.hpp"
#include "obs/obs.hpp"
#include "obs/optrace.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "simcore/parallel.hpp"

namespace bgckpt::bench {

namespace {

std::string gTracePath;
std::string gMetricsPath;
std::string gPerfJsonPath;
std::string gAttrPath;
std::string gCritPathPath;
std::string gTelemetryPath;
double gTelemetryDt = 0.0;  // 0 = Telemetry::kDefaultDt
std::size_t gFlightRecEvents = 0;
bool gOpTraceEnabled = false;
std::string gOpTracePath;
std::uint32_t gOpTraceSampleEvery = 0;  // 0 = OpTracer::kDefaultSampleEvery
std::string gObsDir;
sim::SimCheckMode gSimCheckMode = sim::SimCheckMode::kAuto;
unsigned gThreads = 1;
int gStacksAttached = 0;
// Guards the two attach registries below: simulate()'s workers attach
// concurrently.
std::mutex gAttachMu;
// Keep attached recorders alive past their stacks so a SHAPE CHECK failure
// at report time can still dump what each run was doing (the global
// registry in obs/flightrec holds only weak references).
std::vector<std::shared_ptr<obs::FlightRecorder>> gFlightRecorders;
// Export path -> the flag that asked for it, so finish() can name the flag
// of an export obs::failedWrites() lists.
std::map<std::string, const char*> gExportFlags;

struct PerfEntry {
  std::string label;
  double wallSeconds = 0.0;
  std::uint64_t events = 0;
};
std::vector<PerfEntry> gPerfEntries;

/// One simulate() fan-out: wall time of the region and of each job, a job
/// timed from stack build through teardown.
struct ParallelRegion {
  unsigned threads = 1;
  double wallSeconds = 0.0;
  std::vector<std::pair<std::string, double>> jobs;  // (label, wall seconds)
};
std::vector<ParallelRegion> gRegions;

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// "out/trace.json" -> "out/trace.2.json" for the second stack, etc.
std::string numbered(const std::string& path, int n) {
  if (n <= 1) return path;
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  // Built with += rather than `"." + to_string(n)`: the rvalue-insert
  // overload trips GCC 12's -Wrestrict false positive at -O3 under -Werror.
  std::string tag(".");
  tag += std::to_string(n);
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + tag;
  return path.substr(0, dot) + tag + path.substr(dot);
}

std::string jsonlTwin(const std::string& path) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0)
    return path + "l";
  return path + ".jsonl";
}

/// Matches `name` at argv[i], given as `name=VALUE` or as `name VALUE`,
/// and stores VALUE in `out` (advancing `i` past a separate value). A
/// separate value that is missing or is itself a flag exits 2 with
/// `error: NAME needs a value`: otherwise `--telemetry --optrace` would
/// write a file named "--optrace" and never turn op tracing on.
bool flagValue(int argc, char** argv, int& i, const char* name,
               std::string& out) {
  const char* a = argv[i];
  const std::size_t n = std::strlen(name);
  if (std::strncmp(a, name, n) != 0) return false;
  if (a[n] == '=') {
    out = a + n + 1;
    return true;
  }
  if (a[n] != '\0') return false;
  const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
  if (next == nullptr || std::strncmp(next, "--", 2) == 0) {
    std::fprintf(stderr, "error: %s needs a value%s%s\n", a,
                 next != nullptr ? ", got " : "", next != nullptr ? next : "");
    std::exit(2);
  }
  out = argv[++i];
  return true;
}

[[noreturn]] void notPositive(const char* flag, const char* what,
                              const std::string& value) {
  std::fprintf(stderr, "error: %s: not a positive %s: %s\n", flag, what,
               value.c_str());
  std::exit(2);
}

/// VALUE read whole as a positive int ("16k", "-4" and "abc" are not), or
/// exit 2 naming the flag.
int positiveInt(const char* flag, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(value.c_str(), &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0' ||
      errno == ERANGE || n <= 0 || n > INT_MAX)
    notPositive(flag, "integer", value);
  return static_cast<int>(n);
}

/// VALUE read whole as a positive finite number, or exit 2 naming the flag.
double positiveNumber(const char* flag, const std::string& value) {
  char* end = nullptr;
  const double x = std::strtod(value.c_str(), &end);
  if (!(std::isdigit(static_cast<unsigned char>(value[0])) ||
        value[0] == '.') ||
      *end != '\0' || !std::isfinite(x) || !(x > 0))
    notPositive(flag, "number", value);
  return x;
}

}  // namespace

Flags parseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string value;
    if (std::strncmp(a, "--telemetry=", 12) == 0) {
      // --telemetry=<dt> <file>: the value attached to the flag is the
      // bucket width in simulated seconds; the output path follows.
      gTelemetryDt = positiveNumber("--telemetry", a + 12);
      flagValue(argc, argv, i, a, gTelemetryPath);
    } else if (flagValue(argc, argv, i, "--trace", gTracePath) ||
               flagValue(argc, argv, i, "--metrics", gMetricsPath) ||
               flagValue(argc, argv, i, "--perf-json", gPerfJsonPath) ||
               flagValue(argc, argv, i, "--attr", gAttrPath) ||
               flagValue(argc, argv, i, "--critpath", gCritPathPath) ||
               flagValue(argc, argv, i, "--telemetry", gTelemetryPath) ||
               flagValue(argc, argv, i, "--obs-dir", gObsDir)) {
      continue;
    } else if (flagValue(argc, argv, i, "--threads", value)) {
      gThreads = static_cast<unsigned>(positiveInt("--threads", value));
    } else if (flagValue(argc, argv, i, "--max-np", value)) {
      flags.maxNp = positiveInt("--max-np", value);
    } else if (flagValue(argc, argv, i, "--np", value)) {
      flags.np = positiveInt("--np", value);
      try {
        machine::intrepidMachine(flags.np);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: --np %d: %s\n", flags.np, e.what());
        std::exit(2);
      }
    } else if (std::strcmp(a, "--optrace") == 0) {
      gOpTraceEnabled = true;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        gOpTracePath = argv[++i];
    } else if (std::strncmp(a, "--optrace=", 10) == 0) {
      // --optrace=RATE [file]: RATE > 1 means "every Nth request"; RATE in
      // (0, 1] is a sampling probability converted to the nearest 1-in-N.
      gOpTraceEnabled = true;
      const double rate = positiveNumber("--optrace", a + 10);
      const double every =
          rate > 1.0 ? std::round(rate) : std::max(1.0, std::round(1.0 / rate));
      gOpTraceSampleEvery = static_cast<std::uint32_t>(std::min(
          every, double(std::numeric_limits<std::uint32_t>::max())));
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        gOpTracePath = argv[++i];
    } else if (std::strcmp(a, "--flightrec") == 0) {
      gFlightRecEvents = obs::FlightRecorder::kDefaultEvents;
    } else if (std::strncmp(a, "--flightrec=", 12) == 0) {
      gFlightRecEvents =
          static_cast<std::size_t>(positiveInt("--flightrec", a + 12));
    } else if (std::strcmp(a, "--simcheck") == 0) {
      gSimCheckMode = sim::SimCheckMode::kOn;
    } else if (std::strncmp(a, "--simcheck=", 11) == 0) {
      const char* mode = a + 11;
      if (std::strcmp(mode, "off") == 0) {
        gSimCheckMode = sim::SimCheckMode::kOff;
      } else if (std::strcmp(mode, "warn") == 0) {
        gSimCheckMode = sim::SimCheckMode::kWarn;
      } else {
        gSimCheckMode = sim::SimCheckMode::kOn;
      }
    } else if (a[0] == '-') {
      std::fprintf(stderr, "error: unknown flag %s\n", a);
      std::exit(2);
    } else {
      flags.figures.emplace_back(a);
    }
  }
  if (!gObsDir.empty()) {
    // One directory for the whole observability suite: every artifact not
    // explicitly pointed elsewhere lands in DIR with a conventional name
    // (explicit flags win over the derived paths).
    std::error_code ec;
    std::filesystem::create_directories(gObsDir, ec);
    if (ec) {
      std::fprintf(stderr, "error: --obs-dir: cannot create %s: %s\n",
                   gObsDir.c_str(), ec.message().c_str());
      std::exit(2);
    }
    const auto derive = [&](std::string& path, const char* name) {
      if (path.empty()) path = gObsDir + "/" + name;
    };
    derive(gTracePath, "trace.json");
    derive(gMetricsPath, "metrics.json");
    derive(gAttrPath, "attr.json");
    derive(gCritPathPath, "critpath.json");
    derive(gTelemetryPath, "telemetry.json");
    gOpTraceEnabled = true;
    derive(gOpTracePath, "optrace.json");
  }
  return flags;
}

sim::SimCheckMode simCheckMode() { return gSimCheckMode; }

void perfRecord(const std::string& label, double wallSeconds,
                std::uint64_t events) {
  if (gPerfJsonPath.empty()) return;
  gPerfEntries.push_back(PerfEntry{label, wallSeconds, events});
}

namespace {

/// Write the --perf-json record, if requested. Returns false (and prints
/// to stderr) if the file could not be written.
bool perfFlush() {
  if (gPerfJsonPath.empty()) return true;
  std::FILE* f = std::fopen(gPerfJsonPath.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: --perf-json: cannot write %s\n",
                 gPerfJsonPath.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"schema\": \"%s\",\n  \"runs\": [\n",
               obs::kPerfSchemaVersion);
  for (std::size_t i = 0; i < gPerfEntries.size(); ++i) {
    const PerfEntry& e = gPerfEntries[i];
    const double eps = e.wallSeconds > 0.0
                           ? static_cast<double>(e.events) / e.wallSeconds
                           : 0.0;
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"threads\": %u, "
                 "\"wall_seconds\": %.6f, "
                 "\"events\": %llu, \"events_per_second\": %.0f}%s\n",
                 jsonEscape(e.label).c_str(), gThreads, e.wallSeconds,
                 static_cast<unsigned long long>(e.events), eps,
                 i + 1 < gPerfEntries.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
  if (!gRegions.empty()) {
    std::fprintf(f, ",\n  \"parallel_regions\": [\n");
    for (std::size_t r = 0; r < gRegions.size(); ++r) {
      const ParallelRegion& reg = gRegions[r];
      std::fprintf(f,
                   "    {\"threads\": %u, \"wall_seconds\": %.6f, "
                   "\"jobs\": [\n",
                   reg.threads, reg.wallSeconds);
      for (std::size_t j = 0; j < reg.jobs.size(); ++j)
        std::fprintf(f, "      {\"label\": \"%s\", \"wall_seconds\": %.6f}%s\n",
                     jsonEscape(reg.jobs[j].first).c_str(),
                     reg.jobs[j].second, j + 1 < reg.jobs.size() ? "," : "");
      std::fprintf(f, "    ]}%s\n", r + 1 < gRegions.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
  }
  std::fprintf(f, "\n}\n");
  // fclose flushes the buffered tail, which is the write a full disk fails.
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "error: --perf-json: cannot write %s\n",
                 gPerfJsonPath.c_str());
    return false;
  }
  std::fprintf(stderr, "[perf] wrote %zu run records to %s\n",
               gPerfEntries.size(), gPerfJsonPath.c_str());
  return true;
}

bool obsActive() {
  return !(gTracePath.empty() && gMetricsPath.empty() && gAttrPath.empty() &&
           gCritPathPath.empty() && gTelemetryPath.empty() &&
           !gOpTraceEnabled && gFlightRecEvents == 0);
}

/// attachObs with an explicit stack ordinal: simulate() pre-assigns numbers
/// in scenario order so the ".2"/".3" artifact suffixes are the same
/// whatever order the workers finish in.
void attachObsNumbered(iolib::SimStack& stack, int n) {
  const auto exportFlag = [](const std::string& path, const char* flag) {
    std::lock_guard<std::mutex> lock(gAttachMu);
    gExportFlags[path] = flag;
  };
  if (!gTracePath.empty()) {
    const std::string chrome = numbered(gTracePath, n);
    const std::string jsonl = jsonlTwin(chrome);
    try {
      stack.obs.addSink(obs::ChromeTraceSink::toFiles(chrome, jsonl));
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "error: --trace: %s\n", e.what());
      std::exit(2);
    }
    exportFlag(chrome, "--trace");
    exportFlag(jsonl, "--trace");
    std::fprintf(stderr, "[obs] streaming Chrome trace to %s (+ %s)\n",
                 chrome.c_str(), jsonl.c_str());
  }
  if (!gMetricsPath.empty()) {
    const std::string json = numbered(gMetricsPath, n);
    stack.obs.exportOnDestroy(json);
    exportFlag(json, "--metrics");
    std::fprintf(stderr, "[obs] metrics will be written to %s\n",
                 json.c_str());
  }
  // Every announce line goes to stderr, so figure stdout is byte-identical
  // whichever flags are on. These sinks only write at finalize, so probe
  // the path now — a typo must fail at startup with exit 2, the same
  // contract as --trace.
  const auto requireWritable = [&](const char* flag, const std::string& path) {
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "error: %s: cannot open %s\n", flag, path.c_str());
      std::exit(2);
    }
    exportFlag(path, flag);
  };
  if (!gAttrPath.empty()) {
    const std::string json = numbered(gAttrPath, n);
    requireWritable("--attr", json);
    auto attr = std::make_shared<obs::AttributionSink>();
    attr->exportTo(json);
    stack.obs.addSink(std::move(attr));
    std::fprintf(stderr, "[obs] blocked-time attribution to %s\n",
                 json.c_str());
  }
  if (!gCritPathPath.empty()) {
    const std::string json = numbered(gCritPathPath, n);
    requireWritable("--critpath", json);
    stack.obs.attachCritPath(stack.sched, json);
    std::fprintf(stderr, "[obs] critical-path report to %s\n", json.c_str());
  }
  if (!gTelemetryPath.empty()) {
    const std::string json = numbered(gTelemetryPath, n);
    requireWritable("--telemetry", json);
    stack.obs.attachTelemetry(stack.sched, gTelemetryDt, json);
    std::fprintf(stderr, "[obs] sampled telemetry (dt=%.3gs) to %s\n",
                 stack.obs.telemetry().bucketDt(), json.c_str());
  }
  if (gOpTraceEnabled) {
    const std::string json =
        gOpTracePath.empty() ? std::string() : numbered(gOpTracePath, n);
    if (!json.empty()) requireWritable("--optrace", json);
    stack.obs.attachOpTrace(gOpTraceSampleEvery, -1, json);
    std::fprintf(stderr, "[obs] op tracing on (sampling 1 in %u)%s%s\n",
                 stack.obs.opTracer()->sampleEvery(),
                 json.empty() ? "" : ", report to ",
                 json.c_str());
  }
  if (gFlightRecEvents > 0) {
    // simulate() already creates one via SimStackOptions; cover figures
    // that build their own SimStack and only call attachObs.
    if (!stack.flightRecorder) {
      stack.flightRecorder = obs::FlightRecorder::create(gFlightRecEvents);
      stack.obs.addSink(stack.flightRecorder);
    }
    {
      std::lock_guard<std::mutex> lock(gAttachMu);
      gFlightRecorders.push_back(stack.flightRecorder);
    }
    std::fprintf(stderr, "[obs] flight recorder armed (%zu events/layer)\n",
                 gFlightRecEvents);
  }
}

/// Report each export that failed to write (every stack has been
/// destroyed, so every export has been attempted). Returns false if any
/// did.
bool obsFlush() {
  bool ok = true;
  for (const std::string& path : obs::failedWrites()) {
    const auto it = gExportFlags.find(path);
    std::fprintf(stderr, "error: %s: cannot write %s\n",
                 it != gExportFlags.end() ? it->second : "export",
                 path.c_str());
    ok = false;
  }
  return ok;
}

std::string label(int np, const iolib::StrategyConfig& cfg) {
  return "np=" + std::to_string(np) + " " + cfg.describe();
}

}  // namespace

void attachObs(iolib::SimStack& stack) {
  if (obsActive()) attachObsNumbered(stack, ++gStacksAttached);
}

int finish(int failedChecks) {
  const bool perfWritten = perfFlush();
  if (!obsFlush() || !perfWritten) return 1;
  if (failedChecks > 0 && !gFlightRecorders.empty()) {
    std::fprintf(stderr,
                 "[flightrec] %d shape check(s) failed; dumping the last "
                 "recorded events per stack\n",
                 failedChecks);
    obs::dumpFlightRecorders(std::cerr);
  }
  return failedChecks == 0 ? 0 : 1;
}

std::vector<Outcome> simulate(const std::vector<Scenario>& scenarios) {
  const bool obs = obsActive();
  const int base = gStacksAttached;
  // Reserve artifact ordinals in scenario order up front; the stacks
  // figures build while rendering continue after them.
  if (obs) gStacksAttached = base + static_cast<int>(scenarios.size());
  struct Timing {
    double wallSeconds = 0.0;  // the checkpoint alone
    double jobSeconds = 0.0;   // stack build through teardown
    std::uint64_t events = 0;
  };
  std::vector<Outcome> outcomes(scenarios.size());
  std::vector<Timing> timings(scenarios.size());
  const WallTimer regionWall;
  sim::parallelFor(scenarios.size(), gThreads, [&](std::size_t i) {
    const WallTimer jobWall;
    const Scenario& s = scenarios[i];
    {
      iolib::SimStackOptions opt = s.stack;
      opt.simcheck = gSimCheckMode;
      opt.flightRecorderEvents = gFlightRecEvents;
      iolib::SimStack stack(s.np, opt);
      if (obs) attachObsNumbered(stack, base + static_cast<int>(i) + 1);
      const WallTimer wall;
      const std::uint64_t events0 = stack.sched.eventsProcessed();
      outcomes[i].result = iolib::runCheckpoint(stack, s.spec, s.strategy);
      timings[i].wallSeconds = wall.seconds();
      timings[i].events = stack.sched.eventsProcessed() - events0;
      outcomes[i].revocations = stack.fsys.totalRevocations();
    }
    timings[i].jobSeconds = jobWall.seconds();
  });
  ParallelRegion region{static_cast<unsigned>(std::min<std::size_t>(
                            gThreads, scenarios.size())),
                        regionWall.seconds(), {}};
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string name = label(scenarios[i].np, scenarios[i].strategy);
    perfRecord(name, timings[i].wallSeconds, timings[i].events);
    region.jobs.emplace_back(name, timings[i].jobSeconds);
  }
  if (gThreads > 1 && !scenarios.empty() && !gPerfJsonPath.empty())
    gRegions.push_back(std::move(region));
  return outcomes;
}

const Outcome& Results::outcome(const Scenario& s) const {
  if (std::find(declared.begin(), declared.end(), s) == declared.end())
    throw std::logic_error(figure + " reads a scenario it did not declare: " +
                           label(s.np, s.strategy));
  return outcomes[static_cast<std::size_t>(
      std::find(simulated.begin(), simulated.end(), s) - simulated.begin())];
}

iolib::CheckpointResult runSim(iolib::SimStack& stack, int np,
                               const iolib::StrategyConfig& cfg) {
  const auto spec = iolib::CheckpointSpec::nekcemWeakScaling(np);
  const WallTimer wall;
  const std::uint64_t events0 = stack.sched.eventsProcessed();
  auto result = iolib::runCheckpoint(stack, spec, cfg);
  perfRecord(label(np, cfg), wall.seconds(),
             stack.sched.eventsProcessed() - events0);
  return result;
}

}  // namespace bgckpt::bench
