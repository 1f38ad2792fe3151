#include "common.hpp"

#include <chrono>
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
#include "obs/runtimeprof.hpp"
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
std::string gRuntimeProfPath;
// The process-wide runtime profiler (obs/runtimeprof.hpp), created and
// installed by obsInit when --runtime-profile is given; flushed (JSON +
// manifest) by perfFlush. Process-global rather than per-stack: real time
// cuts across stacks.
std::unique_ptr<obs::RuntimeProfiler> gRuntimeProf;
bool gRuntimeProfFlushed = false;
// Captured by obsInit for the run manifests written next to each artifact.
std::string gBenchName;
std::vector<std::string> gCmdArgs;
// Manifest-v2 provenance: the sweep driver exports the revision and the
// ledger config hash it derived for this child (BGCKPT_GIT_REV /
// BGCKPT_CONFIG_HASH); standalone runs self-derive a config hash over
// (bench, args) and stamp the rev as "unknown".
std::string gGitRev;
std::string gConfigHash;
sim::SimCheckMode gSimCheckMode = sim::SimCheckMode::kAuto;
unsigned gThreads = 1;
int gStacksAttached = 0;
// Keep attached recorders alive past their stacks so a SHAPE CHECK failure
// at report time can still dump what each run was doing (the global
// registry in obs/flightrec holds only weak references). Guarded: prefetch
// workers attach concurrently.
std::mutex gFlightRecMu;
std::vector<std::shared_ptr<obs::FlightRecorder>> gFlightRecorders;

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

std::string swapJsonForCsv(const std::string& path) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0)
    return path.substr(0, path.size() - 5) + ".csv";
  return path + ".csv";
}

std::string jsonlTwin(const std::string& path) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0)
    return path + "l";
  return path + ".jsonl";
}

/// Write the run manifest next to an obs artifact: which harness produced
/// it, on what partition, with which flags, at which revision. Serialized
/// by the shared stamping helper (obs::writeArtifactManifest) so every
/// sidecar in the repo carries the same v2 provenance fields. The artifact
/// path itself was already probed writable, so a failure here is
/// unexpected enough to warrant the same exit-2 contract.
void writeManifest(const std::string& artifactPath, const char* artifact,
                   int np, int stackN) {
  obs::ManifestInfo info;
  info.artifact = artifact;
  info.bench = gBenchName;
  info.np = np;
  info.stack = stackN;
  info.bucketDt = gTelemetryDt > 0 ? gTelemetryDt : obs::Telemetry::kDefaultDt;
  info.gitRev = gGitRev;
  info.configHash = gConfigHash;
  const auto flag = [&](const char* name, bool active) {
    if (active) info.flags.emplace_back(name);
  };
  flag("--trace", !gTracePath.empty());
  flag("--metrics", !gMetricsPath.empty());
  flag("--attr", !gAttrPath.empty());
  flag("--critpath", !gCritPathPath.empty());
  flag("--telemetry", !gTelemetryPath.empty());
  flag("--optrace", gOpTraceEnabled);
  flag("--obs-dir", !gObsDir.empty());
  flag("--flightrec", gFlightRecEvents > 0);
  flag("--runtime-profile", !gRuntimeProfPath.empty());
  info.args = gCmdArgs;
  if (!obs::writeArtifactManifest(artifactPath, info)) {
    std::fprintf(stderr, "error: cannot write manifest for %s\n",
                 artifactPath.c_str());
    std::exit(2);
  }
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
  if (argc > 0) {
    gBenchName = argv[0];
    const auto slash = gBenchName.find_last_of('/');
    if (slash != std::string::npos) gBenchName = gBenchName.substr(slash + 1);
  }
  gCmdArgs.assign(argv + (argc > 0 ? 1 : 0), argv + argc);
  const char* rev = std::getenv("BGCKPT_GIT_REV");
  gGitRev = rev != nullptr && *rev != '\0' ? rev : "unknown";
  if (const char* hash = std::getenv("BGCKPT_CONFIG_HASH");
      hash != nullptr && *hash != '\0') {
    gConfigHash = hash;
  } else {
    // Standalone run: hash (bench, args) so two invocations of the same
    // command line still share a config identity.
    std::string material = gBenchName;
    for (const std::string& a : gCmdArgs) {
      material += '\n';
      material += a;
    }
    gConfigHash = obs::hex16(obs::fnv1a64(material));
  }
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
    } else if (std::strcmp(a, "--runtime-profile") == 0) {
      gRuntimeProfPath = "runtimeprof.json";
    } else if (std::strncmp(a, "--runtime-profile=", 18) == 0) {
      gRuntimeProfPath = a + 18;
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
    // Deliberately NOT derived: the runtime profile records wall time, so
    // its JSON can never be byte-stable; keeping it out of the obs dir
    // keeps the serial-vs-threaded artifact identity contract intact.
  }
  if (!gRuntimeProfPath.empty()) {
    // Fail a typo'd path at startup (exit 2), same contract as --trace.
    {
      std::ofstream probe(gRuntimeProfPath);
      if (!probe) {
        std::fprintf(stderr, "error: --runtime-profile: cannot open %s\n",
                     gRuntimeProfPath.c_str());
        std::exit(2);
      }
    }
    gRuntimeProf = std::make_unique<obs::RuntimeProfiler>();
    gRuntimeProf->install();
    std::fprintf(stderr, "[obs] runtime execution profile to %s\n",
                 gRuntimeProfPath.c_str());
  }
}

sim::SimCheckMode simCheckMode() { return gSimCheckMode; }

unsigned benchThreads() { return gThreads; }

void perfRecord(const std::string& label, double wallSeconds,
                std::uint64_t events) {
  if (gRuntimeProf)
    gRuntimeProf->recordPoint(label, wallSeconds, events, gThreads);
  if (gPerfJsonPath.empty()) return;
  gPerfEntries.push_back(
      PerfEntry{label, wallSeconds, events, gThreads, SimMeta{}});
}

namespace {

/// Export the runtime profile (once): JSON + manifest sidecar. Announces
/// on stderr so figure stdout stays byte-identical with profiling on.
bool runtimeProfFlush() {
  if (!gRuntimeProf || gRuntimeProfFlushed) return true;
  gRuntimeProfFlushed = true;
  // Stop observing before export: no run should be in flight at flush
  // time, and uninstalling makes that a hard property.
  gRuntimeProf->uninstall();
  if (!gRuntimeProf->writeJson(gRuntimeProfPath)) {
    std::fprintf(stderr, "error: --runtime-profile: cannot write %s\n",
                 gRuntimeProfPath.c_str());
    return false;
  }
  writeManifest(gRuntimeProfPath, "runtimeprof", 0, 0);
  std::fprintf(stderr,
               "[obs] runtime profile: %zu parallel region(s), %zu point(s) "
               "-> %s\n",
               gRuntimeProf->regions().size(), gRuntimeProf->points().size(),
               gRuntimeProfPath.c_str());
  return true;
}

}  // namespace

bool perfFlush() {
  if (!runtimeProfFlush()) return false;
  if (gPerfJsonPath.empty()) return true;
  std::FILE* f = std::fopen(gPerfJsonPath.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: --perf-json: cannot write %s\n",
                 gPerfJsonPath.c_str());
    return false;
  }
  double totalWall = 0.0;
  std::uint64_t totalEvents = 0;
  std::fprintf(f, "{\n  \"runs\": [\n");
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
      // Flat scalar fields only: perf_compare scans each record up to its
      // first '}', so nothing nested may appear here.
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
               "\"events_per_second\": %.0f}\n}\n",
               totalWall, static_cast<unsigned long long>(totalEvents),
               totalEps);
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
  const int np = stack.rt.numRanks();
  // Each artifact written by this attach gets a "<path>.manifest.json"
  // sidecar so downstream tools can validate provenance and schema.
  std::vector<std::pair<const char*, std::string>> artifacts;
  if (!gTracePath.empty()) {
    const std::string chrome = numbered(gTracePath, n);
    const std::string jsonl = jsonlTwin(chrome);
    try {
      stack.obs.addSink(obs::ChromeTraceSink::toFiles(chrome, jsonl));
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "error: --trace: %s\n", e.what());
      std::exit(2);
    }
    std::fprintf(stderr, "[obs] streaming Chrome trace to %s (+ %s)\n",
                 chrome.c_str(), jsonl.c_str());
    artifacts.emplace_back("trace", chrome);
  }
  if (!gMetricsPath.empty()) {
    const std::string json = numbered(gMetricsPath, n);
    stack.obs.exportOnDestroy(json, swapJsonForCsv(json));
    std::fprintf(stderr, "[obs] metrics will be written to %s and %s\n",
                 json.c_str(), swapJsonForCsv(json).c_str());
    artifacts.emplace_back("metrics", json);
  }
  // Every announce line goes to stderr, so figure stdout is byte-identical
  // whichever flags are on. These sinks only write at finalize, so probe
  // the path now — a typo must fail at startup with exit 2, the same
  // contract as --trace.
  const auto requireWritable = [](const char* flag, const std::string& path) {
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "error: %s: cannot open %s\n", flag, path.c_str());
      std::exit(2);
    }
  };
  if (!gAttrPath.empty()) {
    const std::string json = numbered(gAttrPath, n);
    requireWritable("--attr", json);
    requireWritable("--attr", swapJsonForCsv(json));
    auto attr = std::make_shared<obs::AttributionSink>();
    attr->exportTo(json, swapJsonForCsv(json));
    stack.obs.addSink(std::move(attr));
    std::fprintf(stderr, "[obs] blocked-time attribution to %s and %s\n",
                 json.c_str(), swapJsonForCsv(json).c_str());
    artifacts.emplace_back("attr", json);
  }
  if (!gCritPathPath.empty()) {
    const std::string json = numbered(gCritPathPath, n);
    requireWritable("--critpath", json);
    stack.obs.attachCritPath(stack.sched, json);
    std::fprintf(stderr, "[obs] critical-path report to %s\n", json.c_str());
    artifacts.emplace_back("critpath", json);
  }
  if (!gTelemetryPath.empty()) {
    const std::string json = numbered(gTelemetryPath, n);
    const std::string csv = swapJsonForCsv(json);
    requireWritable("--telemetry", json);
    requireWritable("--telemetry", csv);
    stack.obs.attachTelemetry(stack.sched, gTelemetryDt, json, csv);
    std::fprintf(stderr,
                 "[obs] sampled telemetry (dt=%.3gs) to %s and %s\n",
                 stack.obs.telemetry().bucketDt(), json.c_str(), csv.c_str());
    artifacts.emplace_back("telemetry", json);
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
    if (!json.empty()) artifacts.emplace_back("optrace", json);
  }
  for (const auto& [kind, path] : artifacts) writeManifest(path, kind, np, n);
  if (gFlightRecEvents > 0) {
    // Fresh-stack runSim already creates one via SimStackOptions; cover
    // harnesses that build their own SimStack and only call attachObs.
    if (!stack.flightRecorder) {
      stack.flightRecorder = obs::FlightRecorder::create(gFlightRecEvents);
      stack.obs.addSink(stack.flightRecorder);
    }
    {
      std::lock_guard<std::mutex> lock(gFlightRecMu);
      gFlightRecorders.push_back(stack.flightRecorder);
    }
    std::fprintf(stderr, "[obs] flight recorder armed (%zu events/layer)\n",
                 gFlightRecEvents);
  }
}

}  // namespace

void attachObs(iolib::SimStack& stack) {
  if (!obsActive()) return;
  attachObsNumbered(stack, ++gStacksAttached);
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
  if (!perfFlush()) return 1;
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
  const auto wall0 = std::chrono::steady_clock::now();
  const std::uint64_t events0 = stack.sched.eventsProcessed();
  auto result = iolib::runCheckpoint(stack, spec, cfg);
  wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
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
  };
  std::vector<Slot> slots(points.size());
  if (gRuntimeProf) {
    // Name the parallelFor jobs after their figure points, so the profile's
    // job table (and trace_report --runtime) says "np=65536 coIO nf=1"
    // instead of "job 7".
    std::vector<std::string> labels;
    labels.reserve(points.size());
    for (const SimPoint& p : points)
      labels.push_back("np=" + std::to_string(p.np) + " " + p.cfg.describe());
    gRuntimeProf->setPointLabels(std::move(labels));
  }
  sim::parallelFor(points.size(), gThreads, [&](std::size_t i) {
    const SimPoint& p = points[i];
    iolib::SimStackOptions opt;
    opt.seed = p.seed;
    opt.simcheck = gSimCheckMode;
    opt.flightRecorderEvents = gFlightRecEvents;
    iolib::SimStack stack(p.np, opt);
    if (obs) attachObsNumbered(stack, base + static_cast<int>(i) + 1);
    Slot& slot = slots[i];
    slot.key = pointKey(p.np, p.cfg, p.seed);
    slot.run.label = "np=" + std::to_string(p.np) + " " + p.cfg.describe();
    slot.run.result =
        runMeasured(stack, p.np, p.cfg, slot.run.wallSeconds, slot.run.events);
  });
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
