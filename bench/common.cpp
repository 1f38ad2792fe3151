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
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "machine/bgp.hpp"
#include "netsim/torus.hpp"
#include "obs/attr.hpp"
#include "obs/obs.hpp"
#include "obs/optrace.hpp"
#include "obs/trace.hpp"
#include "simcore/parallel.hpp"
#include "simcore/simcheck.hpp"

namespace bgckpt::bench {

namespace {

std::string gTracePath;
std::string gMetricsPath;
std::string gPerfJsonPath;
std::string gAttrPath;
std::string gOpTracePath;
std::uint32_t gOpTraceSampleEvery = 0;  // 0 = OpTracer::kDefaultSampleEvery
std::string gObsDir;
sim::SimCheckMode gSimCheckMode = sim::SimCheckMode::kAuto;
unsigned gThreads = 1;
// Guards gExportFlags: simulate()'s workers attach concurrently.
std::mutex gAttachMu;
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

/// Matches `name` at argv[i], given as `name=VALUE` or as `name VALUE`,
/// and stores VALUE in `out` (advancing `i` past a separate value). A
/// separate value that is missing or is itself a flag exits 2 with
/// `error: NAME needs a value`: otherwise `--attr --optrace` would write a
/// file named "--optrace" and never turn op tracing on.
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
    if (std::strncmp(a, "--optrace=", 10) == 0) {
      // --optrace=<rate> <file>: RATE > 1 means "every Nth request"; RATE
      // in (0, 1] is a sampling probability converted to the nearest 1-in-N.
      const double rate = positiveNumber("--optrace", a + 10);
      const double every =
          rate > 1.0 ? std::round(rate) : std::max(1.0, std::round(1.0 / rate));
      gOpTraceSampleEvery = static_cast<std::uint32_t>(std::min(
          every, double(std::numeric_limits<std::uint32_t>::max())));
      flagValue(argc, argv, i, a, gOpTracePath);
    } else if (flagValue(argc, argv, i, "--trace", gTracePath) ||
               flagValue(argc, argv, i, "--metrics", gMetricsPath) ||
               flagValue(argc, argv, i, "--perf-json", gPerfJsonPath) ||
               flagValue(argc, argv, i, "--attr", gAttrPath) ||
               flagValue(argc, argv, i, "--optrace", gOpTracePath) ||
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
    } else if (std::strcmp(a, "--simcheck") == 0) {
      gSimCheckMode = sim::SimCheckMode::kOn;
    } else if (std::strncmp(a, "--simcheck=", 11) == 0) {
      const std::string mode = a + 11;
      if (mode == "on") {
        gSimCheckMode = sim::SimCheckMode::kOn;
      } else if (mode == "warn") {
        gSimCheckMode = sim::SimCheckMode::kWarn;
      } else if (mode == "off") {
        gSimCheckMode = sim::SimCheckMode::kOff;
      } else {
        std::fprintf(stderr,
                     "error: --simcheck: unknown mode %s (on, warn or off)\n",
                     mode.c_str());
        std::exit(2);
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
    derive(gOpTracePath, "optrace.json");
  }
  return flags;
}

namespace {

/// Record one simulated run in the --perf-json report (no-op without the
/// flag). The record carries the --threads value.
void perfRecord(const std::string& label, double wallSeconds,
                std::uint64_t events) {
  if (gPerfJsonPath.empty()) return;
  gPerfEntries.push_back(PerfEntry{label, wallSeconds, events});
}

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
           gOpTracePath.empty());
}

/// Attach the requested trace/metrics sinks to stack number `n`: every
/// stack after the first gets a numbered path suffix (".2", ".3", ...), so
/// each emits its own files, and simulate() pre-assigns the numbers in
/// scenario order so they do not depend on which worker finishes first. A
/// stack writes its exports when it is destroyed.
void attachExports(iolib::SimStack& stack, int n) {
  const auto exportFlag = [](const std::string& path, const char* flag) {
    std::lock_guard<std::mutex> lock(gAttachMu);
    gExportFlags[path] = flag;
  };
  if (!gTracePath.empty()) {
    const std::string chrome = numbered(gTracePath, n);
    try {
      stack.obs.addSink(obs::ChromeTraceSink::toFile(chrome));
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "error: --trace: %s\n", e.what());
      std::exit(2);
    }
    exportFlag(chrome, "--trace");
    std::fprintf(stderr, "[obs] streaming Chrome trace to %s\n",
                 chrome.c_str());
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
  if (!gOpTracePath.empty()) {
    const std::string json = numbered(gOpTracePath, n);
    requireWritable("--optrace", json);
    stack.obs.attachOpTrace(gOpTraceSampleEvery, json);
    std::fprintf(stderr, "[obs] op tracing (sampling 1 in %u) to %s\n",
                 stack.obs.opTracer()->sampleEvery(), json.c_str());
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

// Section III-B's mesh inputs: ASCII .rea + binary .map bytes per element
// (coordinates of 8 vertices, curvature flags, processor mapping), and the
// ASCII parsing throughput of one 850 MHz BG/P core.
constexpr double kMeshBytesPerElement = 500.0;
constexpr double kParseBytesPerSecond = 22e6;

/// Rank 0 creates the global mesh file once out of band, then reads it
/// back through the ION path, parses it and broadcasts it over the tree
/// network. Returns the seconds from the open to the end of the broadcast.
double runMeshRead(iolib::SimStack& stack, const MeshRead& mesh) {
  const sim::Bytes meshBytes = static_cast<sim::Bytes>(
      static_cast<double>(mesh.elements) * kMeshBytesPerElement);
  double seconds = 0;
  auto program = [&stack, meshBytes, &seconds]() -> sim::Task<> {
    auto fh = co_await stack.fsys.create(0, "input/mesh.rea");
    co_await stack.fsys.write(0, fh, 0, meshBytes);
    co_await stack.fsys.close(0, fh);

    const double t0 = stack.sched.now();
    auto rfh = co_await stack.fsys.open(0, "input/mesh.rea");
    co_await stack.fsys.read(0, rfh, 0, meshBytes);
    co_await stack.fsys.close(0, rfh);
    co_await stack.sched.delay(static_cast<double>(meshBytes) /
                               kParseBytesPerSecond);
    co_await stack.sched.delay(
        stack.coll.broadcastCost(stack.mach.numRanks(), meshBytes));
    seconds = stack.sched.now() - t0;
  };
  stack.sched.spawn(program());
  stack.sched.run();
  return seconds;
}

// One overload per alternative of Scenario::run: what its perf label names
// and how it runs on a stack built for it.
std::string describe(const iolib::StrategyConfig& cfg) {
  return cfg.describe();
}
std::string describe(const iolib::CampaignConfig& cfg) {
  return "campaign " + cfg.strategy.describe();
}
std::string describe(const iolib::MultilevelConfig& cfg) {
  return "multilevel (local + partner, " + cfg.pfsStrategy.describe() +
         " drain)";
}
std::string describe(const MeshRead& mesh) {
  return "mesh read E=" + std::to_string(mesh.elements / 1000) + "K";
}

using Result = decltype(Outcome::result);
Result execute(iolib::SimStack& stack, const iolib::CheckpointSpec& spec,
               const iolib::StrategyConfig& cfg) {
  return iolib::runCheckpoint(stack, spec, cfg);
}
Result execute(iolib::SimStack& stack, const iolib::CheckpointSpec& spec,
               const iolib::CampaignConfig& cfg) {
  return iolib::runCampaign(stack, spec, cfg);
}
Result execute(iolib::SimStack& stack, const iolib::CheckpointSpec& spec,
               const iolib::MultilevelConfig& cfg) {
  return iolib::runMultilevelCheckpoint(stack, spec, cfg);
}
Result execute(iolib::SimStack& stack, const iolib::CheckpointSpec&,
               const MeshRead& mesh) {
  return runMeshRead(stack, mesh);
}

std::string label(const Scenario& s) {
  return "np=" + std::to_string(s.np) + " " +
         std::visit([](const auto& run) { return describe(run); }, s.run);
}

}  // namespace

int finish(int failedChecks) {
  const bool perfWritten = perfFlush();
  if (!obsFlush() || !perfWritten) return 1;
  return failedChecks == 0 ? 0 : 1;
}

std::vector<Outcome> simulate(const std::vector<Scenario>& scenarios,
                              const std::vector<unsigned>& keep) {
  const bool obs = obsActive();
  struct Timing {
    double wallSeconds = 0.0;  // the run alone
    double jobSeconds = 0.0;   // stack build through teardown
    std::uint64_t events = 0;
  };
  std::vector<Outcome> outcomes(scenarios.size());
  std::vector<Timing> timings(scenarios.size());
  const WallTimer regionWall;
  sim::parallelFor(scenarios.size(), gThreads, [&](std::size_t i) {
    const WallTimer jobWall;
    const Scenario& s = scenarios[i];
    Outcome& out = outcomes[i];
    std::shared_ptr<obs::AttributionSink> attr;
    {
      iolib::SimStackOptions opt = s.stack;
      opt.simcheck = gSimCheckMode;
      iolib::SimStack stack(s.np, opt);
      if (obs) attachExports(stack, static_cast<int>(i) + 1);
      if (keep[i] & kKeepRecords) {
        out.records.emplace();
        stack.obs.addSink(std::make_shared<prof::IoProfileSink>(*out.records));
      }
      if (keep[i] & kKeepAttribution) {
        attr = std::make_shared<obs::AttributionSink>();
        stack.obs.addSink(attr);
      }
      const WallTimer wall;
      const std::uint64_t events0 = stack.sched.eventsProcessed();
      out.result = std::visit(
          [&](const auto& run) { return execute(stack, s.spec, run); }, s.run);
      timings[i].wallSeconds = wall.seconds();
      timings[i].events = stack.sched.eventsProcessed() - events0;
      out.revocations = stack.fsys.totalRevocations();
      out.counts = stack.profile;
    }  // teardown finalizes the stack's sinks and writes its exports
    if (attr) out.attribution = attr->report();
    timings[i].jobSeconds = jobWall.seconds();
  });
  ParallelRegion region{static_cast<unsigned>(std::min<std::size_t>(
                            gThreads, scenarios.size())),
                        regionWall.seconds(), {}};
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string name = label(scenarios[i]);
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
                           label(s));
  return outcomes[static_cast<std::size_t>(
      std::find(simulated.begin(), simulated.end(), s) - simulated.begin())];
}

const prof::IoProfile& Results::records(const Scenario& s) const {
  const Outcome& o = outcome(s);
  if (!o.records)
    throw std::logic_error(figure + " reads op records no figure kept: " +
                           label(s));
  return *o.records;
}

const obs::AttributionEngine::Report& Results::attribution(
    const Scenario& s) const {
  const Outcome& o = outcome(s);
  if (!o.attribution)
    throw std::logic_error(
        figure + " reads an attribution report no figure kept: " + label(s));
  return *o.attribution;
}

}  // namespace bgckpt::bench
