#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "obs/attr.hpp"
#include "obs/critpath.hpp"
#include "obs/flightrec.hpp"
#include "obs/optrace.hpp"
#include "obs/runstore.hpp"
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
// Guards the two attach registries below: prefetch workers attach
// concurrently.
std::mutex gAttachMu;
// Keep attached recorders alive past their stacks so a SHAPE CHECK failure
// at report time can still dump what each run was doing (the global
// registry in obs/flightrec holds only weak references).
std::vector<std::shared_ptr<obs::FlightRecorder>> gFlightRecorders;
// Export path -> the flag that asked for it, so reportChecks can name the
// flag of an export obs::failedWrites() lists.
std::map<std::string, const char*> gExportFlags;

/// Held only by the stack attachObs attached it to, so a live weak_ptr
/// means a live stack: reportChecks finalizes the stacks a harness still
/// holds, which writes their exports before it picks the exit code.
class LiveStack final : public obs::TraceSink {
 public:
  explicit LiveStack(iolib::SimStack& stack) : stack_(stack) {}
  void event(const obs::TraceEvent&) override {}
  unsigned layerMask() const override { return 0; }
  void exportNow() { stack_.obs.finalize(stack_.sched.now()); }

 private:
  iolib::SimStack& stack_;
};
std::vector<std::weak_ptr<LiveStack>> gLiveStacks;

/// Strategy/result metadata attached to runSim perf records. The campaign
/// roll-up (trace_report --campaign) re-derives figure tables from these
/// fields; measuredGbs stores the exact string the bench printed, so the
/// ledger view is byte-identical to the individually-run bench's stdout by
/// construction, not by re-formatting.
struct SimMeta {
  bool present = false;
  int np = 0;
  int nf = 0;
  std::string strategy;     // strategyName(cfg.kind)
  std::string config;       // cfg.describe()
  std::string measuredGbs;  // gbs(result.bandwidth)
  double simSeconds = 0.0;  // result.makespan, simulated seconds
};

struct PerfEntry {
  std::string label;
  double wallSeconds = 0.0;
  std::uint64_t events = 0;
  unsigned threads = 1;
  SimMeta sim;
};
std::vector<PerfEntry> gPerfEntries;

/// One prefetchSims fan-out: wall time of the region and of each job, a job
/// timed from stack build through teardown.
struct ParallelRegion {
  unsigned threads = 1;
  double wallSeconds = 0.0;
  std::vector<std::pair<std::string, double>> jobs;  // (label, wall seconds)
};
std::vector<ParallelRegion> gRegions;

/// Completed-but-not-yet-consumed simulation points (see prefetchSims).
/// Written single-threaded after the parallel phase, consumed by runSim.
struct CachedRun {
  iolib::CheckpointResult result;
  std::string label;
  double wallSeconds = 0.0;
  std::uint64_t events = 0;
};
std::map<std::string, std::deque<CachedRun>> gSimCache;

/// Cache key covering *every* field that changes simulated behaviour.
/// StrategyConfig::describe() is presentation (it omits hints and buffer
/// sizes), so it must not be the key.
std::string pointKey(int np, const iolib::StrategyConfig& cfg,
                     std::uint64_t seed) {
  std::string key = std::to_string(np);
  key += '|';
  key += std::to_string(static_cast<int>(cfg.kind));
  key += '|';
  key += std::to_string(cfg.nf);
  key += '|';
  key += std::to_string(cfg.groupSize);
  key += '|';
  key += std::to_string(cfg.hints.bgpNodesPset);
  key += '|';
  key += std::to_string(cfg.hints.cbBufferSize);
  key += '|';
  key += cfg.hints.alignFileDomains ? '1' : '0';
  key += cfg.hints.deferredOpen ? '1' : '0';
  key += '|';
  key += std::to_string(cfg.writerBuffer);
  key += '|';
  key += cfg.onePfppPrivateDirs ? '1' : '0';
  key += '|';
  key += std::to_string(seed);
  return key;
}

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
/// and stores VALUE in `out`. A separate value that is missing or is itself
/// a flag exits 2: otherwise `--telemetry --optrace` would write a file
/// named "--optrace" and never turn op tracing on.
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

}  // namespace

void obsInit(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string threads;
    if (std::strncmp(a, "--telemetry=", 12) == 0) {
      // --telemetry=<dt> <file>: the value attached to the flag is the
      // bucket width in simulated seconds; the output path follows.
      const double dt = std::strtod(a + 12, nullptr);
      gTelemetryDt = dt > 0 ? dt : 0.0;
      flagValue(argc, argv, i, a, gTelemetryPath);
    } else if (flagValue(argc, argv, i, "--trace", gTracePath) ||
               flagValue(argc, argv, i, "--metrics", gMetricsPath) ||
               flagValue(argc, argv, i, "--perf-json", gPerfJsonPath) ||
               flagValue(argc, argv, i, "--attr", gAttrPath) ||
               flagValue(argc, argv, i, "--critpath", gCritPathPath) ||
               flagValue(argc, argv, i, "--telemetry", gTelemetryPath) ||
               flagValue(argc, argv, i, "--obs-dir", gObsDir)) {
      continue;
    } else if (flagValue(argc, argv, i, "--threads", threads)) {
      const long n = std::strtol(threads.c_str(), nullptr, 10);
      gThreads = n > 1 ? static_cast<unsigned>(n) : 1;
    } else if (std::strcmp(a, "--optrace") == 0) {
      gOpTraceEnabled = true;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        gOpTracePath = argv[++i];
    } else if (std::strncmp(a, "--optrace=", 10) == 0) {
      // --optrace=RATE [file]: RATE > 1 means "every Nth request"; RATE in
      // (0, 1] is a sampling probability converted to the nearest 1-in-N.
      gOpTraceEnabled = true;
      const double rate = std::strtod(a + 10, nullptr);
      if (rate > 1.0) {
        gOpTraceSampleEvery = static_cast<std::uint32_t>(std::lround(rate));
      } else if (rate > 0.0) {
        gOpTraceSampleEvery = static_cast<std::uint32_t>(
            std::max(1.0, std::round(1.0 / rate)));
      }
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        gOpTracePath = argv[++i];
    } else if (std::strcmp(a, "--flightrec") == 0) {
      gFlightRecEvents = obs::FlightRecorder::kDefaultEvents;
    } else if (std::strncmp(a, "--flightrec=", 12) == 0) {
      const long n = std::strtol(a + 12, nullptr, 10);
      gFlightRecEvents = n > 0 ? static_cast<std::size_t>(n)
                               : obs::FlightRecorder::kDefaultEvents;
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
}

sim::SimCheckMode simCheckMode() { return gSimCheckMode; }

unsigned benchThreads() { return gThreads; }

void perfRecord(const std::string& label, double wallSeconds,
                std::uint64_t events) {
  if (gPerfJsonPath.empty()) return;
  gPerfEntries.push_back(
      PerfEntry{label, wallSeconds, events, gThreads, SimMeta{}});
}

bool perfFlush() {
  if (gPerfJsonPath.empty()) return true;
  std::FILE* f = std::fopen(gPerfJsonPath.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: --perf-json: cannot write %s\n",
                 gPerfJsonPath.c_str());
    return false;
  }
  double totalWall = 0.0;
  std::uint64_t totalEvents = 0;
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
                 "\"events\": %llu, \"events_per_second\": %.0f",
                 jsonEscape(e.label).c_str(), e.threads, e.wallSeconds,
                 static_cast<unsigned long long>(e.events), eps);
    if (e.sim.present) {
      std::fprintf(f,
                   ", \"np\": %d, \"nf\": %d, \"strategy\": \"%s\", "
                   "\"config\": \"%s\", \"measured_gbs\": \"%s\", "
                   "\"sim_seconds\": %.6f",
                   e.sim.np, e.sim.nf, jsonEscape(e.sim.strategy).c_str(),
                   jsonEscape(e.sim.config).c_str(),
                   jsonEscape(e.sim.measuredGbs).c_str(), e.sim.simSeconds);
    }
    std::fprintf(f, "}%s\n", i + 1 < gPerfEntries.size() ? "," : "");
    totalWall += e.wallSeconds;
    totalEvents += e.events;
  }
  const double totalEps =
      totalWall > 0.0 ? static_cast<double>(totalEvents) / totalWall : 0.0;
  std::fprintf(f,
               "  ],\n  \"total\": {\"wall_seconds\": %.6f, \"events\": %llu, "
               "\"events_per_second\": %.0f}",
               totalWall, static_cast<unsigned long long>(totalEvents),
               totalEps);
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

namespace {

bool obsActive() {
  return !(gTracePath.empty() && gMetricsPath.empty() && gAttrPath.empty() &&
           gCritPathPath.empty() && gTelemetryPath.empty() &&
           !gOpTraceEnabled && gFlightRecEvents == 0);
}

/// attachObs with an explicit stack ordinal: prefetch workers pre-assign
/// numbers in point order so the ".2"/".3" artifact suffixes are identical
/// to a serial run whatever order the workers finish in.
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
    // Fresh-stack runSim already creates one via SimStackOptions; cover
    // harnesses that build their own SimStack and only call attachObs.
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

/// Finalize every attached stack a harness still holds (the rest exported
/// at teardown), then report each export that failed to write. Returns
/// false if any did.
bool obsFlush() {
  for (const auto& weak : gLiveStacks)
    if (const auto live = weak.lock()) live->exportNow();
  gLiveStacks.clear();
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

}  // namespace

void attachObs(iolib::SimStack& stack) {
  if (!obsActive()) return;
  attachObsNumbered(stack, ++gStacksAttached);
  auto live = std::make_shared<LiveStack>(stack);
  gLiveStacks.push_back(live);
  stack.obs.addSink(std::move(live));
}

void banner(const std::string& artifact, const std::string& description) {
  std::printf("\n====================================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("Fu, Min, Latham, Carothers - \"Parallel I/O Performance for\n");
  std::printf("Application-Level Checkpointing on the Blue Gene/P System\" (2011)\n");
  std::printf("%s\n", description.c_str());
  std::printf("====================================================================\n");
}

int reportChecks(const std::vector<Check>& checks) {
  const bool perfWritten = perfFlush();
  if (!obsFlush() || !perfWritten) return 1;
  int failures = 0;
  std::printf("\n");
  for (const auto& c : checks) {
    std::printf("SHAPE CHECK [%s]: %s (%s)\n", c.pass ? "PASS" : "FAIL",
                c.name.c_str(), c.detail.c_str());
    if (!c.pass) ++failures;
  }
  std::printf("%d/%zu shape checks passed\n",
              static_cast<int>(checks.size()) - failures, checks.size());
  if (failures > 0 && !gFlightRecorders.empty()) {
    std::fprintf(stderr,
                 "[flightrec] %d shape check(s) failed; dumping the last "
                 "recorded events per stack\n",
                 failures);
    obs::dumpFlightRecorders(std::cerr);
  }
  return failures == 0 ? 0 : 1;
}

std::string gbs(double bytesPerSecond) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f GB/s", bytesPerSecond / 1e9);
  return buf;
}

std::string secs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  return buf;
}

namespace {

/// The measured core shared by the serial path and the prefetch workers:
/// run the checkpoint, hand back wall time and event count without touching
/// the (order-sensitive) perf record.
iolib::CheckpointResult runMeasured(iolib::SimStack& stack, int np,
                                    const iolib::StrategyConfig& cfg,
                                    double& wallSeconds,
                                    std::uint64_t& events) {
  const auto spec = iolib::CheckpointSpec::nekcemWeakScaling(np);
  const WallTimer wall;
  const std::uint64_t events0 = stack.sched.eventsProcessed();
  auto result = iolib::runCheckpoint(stack, spec, cfg);
  wallSeconds = wall.seconds();
  events = stack.sched.eventsProcessed() - events0;
  return result;
}

/// perfRecord plus the strategy/result metadata of one simulated
/// checkpoint. Both runSim paths (fresh run, prefetch-cache replay) land
/// here, so the --perf-json record carries the same sim fields whatever
/// the thread count.
void perfRecordSim(const std::string& label, double wallSeconds,
                   std::uint64_t events, int np,
                   const iolib::StrategyConfig& cfg,
                   const iolib::CheckpointResult& result) {
  perfRecord(label, wallSeconds, events);
  if (gPerfJsonPath.empty() || gPerfEntries.empty()) return;
  SimMeta& sim = gPerfEntries.back().sim;
  sim.present = true;
  sim.np = np;
  sim.nf = cfg.nf;
  sim.strategy = iolib::strategyName(cfg.kind);
  sim.config = cfg.describe();
  sim.measuredGbs = gbs(result.bandwidth);
  sim.simSeconds = result.makespan;
}

}  // namespace

void prefetchSims(const std::vector<SimPoint>& points) {
  if (gThreads <= 1 || points.size() < 2) return;
  const bool obs = obsActive();
  const int base = gStacksAttached;
  // Reserve artifact ordinals in point order up front; any later
  // non-prefetched attach continues after them.
  if (obs) gStacksAttached = base + static_cast<int>(points.size());
  struct Slot {
    std::string key;
    CachedRun run;
    double jobSeconds = 0.0;  // stack build through teardown
  };
  std::vector<Slot> slots(points.size());
  const WallTimer regionWall;
  sim::parallelFor(points.size(), gThreads, [&](std::size_t i) {
    const WallTimer jobWall;
    const SimPoint& p = points[i];
    Slot& slot = slots[i];
    {
      iolib::SimStackOptions opt;
      opt.seed = p.seed;
      opt.simcheck = gSimCheckMode;
      opt.flightRecorderEvents = gFlightRecEvents;
      iolib::SimStack stack(p.np, opt);
      if (obs) attachObsNumbered(stack, base + static_cast<int>(i) + 1);
      slot.key = pointKey(p.np, p.cfg, p.seed);
      slot.run.label = "np=" + std::to_string(p.np) + " " + p.cfg.describe();
      slot.run.result = runMeasured(stack, p.np, p.cfg, slot.run.wallSeconds,
                                    slot.run.events);
    }
    slot.jobSeconds = jobWall.seconds();
  });
  if (!gPerfJsonPath.empty()) {
    ParallelRegion region;
    region.threads = static_cast<unsigned>(
        std::min<std::size_t>(gThreads, points.size()));
    region.wallSeconds = regionWall.seconds();
    for (const Slot& slot : slots)
      region.jobs.emplace_back(slot.run.label, slot.jobSeconds);
    gRegions.push_back(std::move(region));
  }
  for (Slot& slot : slots)
    gSimCache[slot.key].push_back(std::move(slot.run));
}

iolib::CheckpointResult runSim(int np, const iolib::StrategyConfig& cfg,
                               std::uint64_t seed) {
  const auto cached = gSimCache.find(pointKey(np, cfg, seed));
  if (cached != gSimCache.end() && !cached->second.empty()) {
    CachedRun run = std::move(cached->second.front());
    cached->second.pop_front();
    if (cached->second.empty()) gSimCache.erase(cached);
    // Replayed at consumption time so the perf record keeps serial order.
    perfRecordSim(run.label, run.wallSeconds, run.events, np, cfg,
                  run.result);
    return run.result;
  }
  iolib::SimStackOptions opt;
  opt.seed = seed;
  opt.simcheck = gSimCheckMode;
  opt.flightRecorderEvents = gFlightRecEvents;
  iolib::SimStack stack(np, opt);
  attachObs(stack);
  return runSim(stack, np, cfg);
}

iolib::CheckpointResult runSim(iolib::SimStack& stack, int np,
                               const iolib::StrategyConfig& cfg) {
  double wall = 0.0;
  std::uint64_t events = 0;
  auto result = runMeasured(stack, np, cfg, wall, events);
  perfRecordSim("np=" + std::to_string(np) + " " + cfg.describe(), wall,
                events, np, cfg, result);
  return result;
}

std::vector<Approach> paperApproaches(int np) {
  using iolib::StrategyConfig;
  return {
      {"1PFPP", StrategyConfig::onePfpp()},
      {"coIO, nf=1", StrategyConfig::coIo(1)},
      {"coIO, np:nf=64:1", StrategyConfig::coIo(np / 64)},
      {"rbIO, 64:1, nf=1", StrategyConfig::rbIo(64, false)},
      {"rbIO, 64:1, nf=ng", StrategyConfig::rbIo(64, true)},
  };
}

}  // namespace bgckpt::bench
