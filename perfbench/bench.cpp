// The bgckpt benchmark driver. It runs one workload in this process as a
// closed loop (one caller; each public library call starts only after the
// previous one returned) and prints its measurements as one JSON line.
//
//   bgckpt_perfbench --workload W --seed N --mode time|untraced|traced
//                    [--seconds T] [--scratch DIR] [--spans FILE]
//
//   time      rounds for up to T seconds; reports the per-round
//             timing samples behind the end-to-end metrics, and peak RSS.
//   untraced  one round with tracing off; reports the layer counters and
//             the host seconds of each public call.
//   traced    one round with the library's tracing attached (blocked-time
//             attribution on the simulated stacks, per-request tracing on
//             the host path); reports counters and attributed simulated
//             seconds, cross-checks layer accessors against the metrics
//             registry, and writes one span per public call to FILE.
//
// host_roundtrip writes its files under DIR (default: the current
// directory), one directory per round and strategy, removed once checked.
//
// The driver touches the library only through its public entry points
// (SimStack, runCheckpoint, runRestart, writeCheckpoint, verifyCheckpoint,
// readCheckpoint, crc32) and the layers' public counters. perfbench/run.py
// builds it and turns its output into the benchmark's metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "hostio/host_checkpoint.hpp"
#include "iofmt/format.hpp"
#include "iolib/restart.hpp"
#include "iolib/strategies.hpp"
#include "obs/attr.hpp"
#include "obs/optrace.hpp"
#include "simcore/arena.hpp"

namespace {

using namespace bgckpt;
using Clock = std::chrono::steady_clock;

constexpr int kSimRanks = 65536;
constexpr int kHostRanks = 4;  // one thread each: no more than nproc
constexpr std::uint64_t kHostFieldBytes = 2u << 20;
constexpr int kSetupReps = 5;
constexpr std::uint64_t kDefaultSeed = 2011;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Mode { kTime, kUntraced, kTraced };

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  Mode mode = Mode::kTime;
  double seconds = 10;
  std::string scratch = ".";
  std::string spansPath;
};

/// Spans of the public calls, kept in memory and written out at exit with
/// each span's self time. Recording is off outside the traced mode.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  /// Open a span under `parent` (0: none); returns its id (0 when off).
  int open(const char* name, int parent, int round) {
    if (!on_) return 0;
    spans_.push_back({name, parent, round, now(), -1});
    return static_cast<int>(spans_.size());
  }
  void close(int id) {
    if (id > 0) spans_[static_cast<std::size_t>(id - 1)].end = now();
  }

  bool write(const std::string& path) const {
    std::vector<double> childSeconds(spans_.size() + 1, 0.0);
    for (const Span& s : spans_)
      childSeconds[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::ofstream out(path);
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                    "\"round\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                    "\"self_s\": %.9f}",
                    i ? "," : "", i + 1, s.name, s.parent, s.round, s.start,
                    s.end, s.end - s.start - childSeconds[i + 1]);
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    int parent;
    int round;
    double start;
    double end;
  };
  double now() const { return since(origin_); }

  bool on_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

struct Report {
  std::map<std::string, std::vector<double>> samples;  // one per round
  std::map<std::string, double> layers;       // counts, simulated seconds
  std::map<std::string, double> hostLayers;   // host seconds per call kind
  std::vector<std::string> mismatches;        // accessor/registry pairs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double callSeconds = 0;  // wall time inside the timed public calls
  int rounds = 0;

  /// Count one operation and whether its output check held.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "output check failed: %s\n", what.c_str());
  }
  void max(const std::string& key, double v) {
    layers[key] = std::max(layers[key], v);
  }
};

/// Per-round state shared by the workloads.
struct Run {
  Options opt;
  Report rep;
  Spans spans;
  int round = 0;
  int roundSpan = 0;

  bool traced() const { return opt.mode == Mode::kTraced; }

  /// Time one public call as a span under the current round.
  template <class F>
  double call(const char* name, F&& fn) {
    const int id = spans.open(name, roundSpan, round);
    const auto t0 = Clock::now();
    fn();
    const double s = since(t0);
    spans.close(id);
    rep.callSeconds += s;
    return s;
  }
};

// ---------------------------------------------------------------- simulated

iolib::SimStackOptions stackOptions(std::uint64_t seed) {
  iolib::SimStackOptions o;
  o.seed = seed;
  // Pinned, so the SIM_CHECK environment variable cannot change what is
  // timed.
  o.simcheck = sim::SimCheckMode::kOff;
  return o;
}

/// A fresh 64K-rank stack, with blocked-time attribution when traced.
struct Stack {
  std::unique_ptr<iolib::SimStack> sim;
  std::shared_ptr<obs::AttributionSink> attr;
};

Stack buildStack(Run& run, double& setupSeconds) {
  Stack s;
  setupSeconds += run.call("SimStack", [&] {
    s.sim = std::make_unique<iolib::SimStack>(kSimRanks,
                                              stackOptions(run.opt.seed));
  });
  if (run.traced()) {
    s.attr = std::make_shared<obs::AttributionSink>();
    s.sim->obs.addSink(s.attr);
  }
  return s;
}

/// fig5's printed results at np=65536 under the default seed.
struct Fig5Point {
  double gbs;
  double makespan;
  std::uint64_t events;
};

std::optional<Fig5Point> fig5At64k(const iolib::StrategyConfig& cfg) {
  switch (cfg.kind) {
    case iolib::StrategyKind::k1Pfpp:
      return Fig5Point{0.07, 2411.027455, 2791651};
    case iolib::StrategyKind::kCoIo:
      if (cfg.nf == 1) return Fig5Point{4.59, 34.275380, 10408268};
      break;
    case iolib::StrategyKind::kRbIo:
      if (cfg.nf == 0) return Fig5Point{17.70, 8.887598, 979345};
      break;
  }
  return std::nullopt;
}

std::string twoDecimals(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Every byte of the checkpoint written exactly once: each file's extents
/// tile [0, size) without a gap, and the image's covered bytes and written
/// bytes both equal the checkpoint's logical size.
bool imageHoldsCheckpoint(const fs::FsImage& image, sim::Bytes logicalBytes) {
  std::uint64_t covered = 0;
  std::uint64_t written = 0;
  for (const auto& [path, file] : image.files()) {
    if (!file.coversExactly(file.size())) return false;
    covered += file.coveredBytes();
    written += file.bytesWritten();
  }
  return covered == logicalBytes && written == logicalBytes;
}

/// Metric-name form of a strategy: "1pfpp", "coio", "rbio".
std::string metricName(iolib::StrategyKind kind) {
  std::string name = iolib::strategyName(kind);
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

struct Totals {
  double ckpt = 0;
  double restart = 0;
  double verify = 0;
  double setup = 0;
};

/// One checkpoint on `s`, then the image check (timed as verify).
sim::Bytes checkpoint(Run& run, Stack& s, const iolib::StrategyConfig& cfg,
                      Totals& t) {
  const auto spec = iolib::CheckpointSpec::nekcemWeakScaling(kSimRanks);
  const std::uint64_t events0 = s.sim->sched.eventsProcessed();
  iolib::CheckpointResult r;
  const double wall =
      run.call("runCheckpoint", [&] { r = iolib::runCheckpoint(*s.sim, spec, cfg); });
  const auto events = s.sim->sched.eventsProcessed() - events0;
  bool ok = false;
  t.verify += run.call("verifyImage", [&] {
    ok = imageHoldsCheckpoint(s.sim->fsys.image(), r.logicalBytes);
  });
  std::string what = cfg.describe() + ": image does not hold each byte once";
  if (ok && run.opt.seed == kDefaultSeed) {
    if (const auto ref = fig5At64k(cfg)) {
      ok = twoDecimals(r.bandwidth / 1e9) == twoDecimals(ref->gbs) &&
           std::fabs(r.makespan - ref->makespan) < 1e-6 &&
           events == ref->events;
      what = cfg.describe() + ": differs from fig5 (" +
             twoDecimals(r.bandwidth / 1e9) + " GB/s, makespan " +
             std::to_string(r.makespan) + " s, " + std::to_string(events) +
             " events)";
    }
  }
  run.rep.op(ok, what);

  t.ckpt += wall;
  auto& L = run.rep.layers;
  L["simcore.events"] += static_cast<double>(events);
  L["iolib.sim_makespan_s"] += r.makespan;
  L["iolib.logical_bytes"] += static_cast<double>(r.logicalBytes);
  run.rep.hostLayers["iolib.ckpt_s." + metricName(cfg.kind)] += wall;
  run.rep.hostLayers["simcore.call_s"] += wall;
  return r.logicalBytes;
}

void restart(Run& run, Stack& s, const iolib::RestartConfig& cfg,
             sim::Bytes writtenBytes, Totals& t) {
  const auto spec = iolib::CheckpointSpec::nekcemWeakScaling(kSimRanks);
  const std::uint64_t events0 = s.sim->sched.eventsProcessed();
  iolib::RestartResult r;
  const double wall =
      run.call("runRestart", [&] { r = iolib::runRestart(*s.sim, spec, cfg); });
  run.rep.op(r.logicalBytes == writtenBytes,
             "restart read " + std::to_string(r.logicalBytes) +
                 " logical bytes, checkpoint wrote " +
                 std::to_string(writtenBytes));
  t.restart += wall;
  run.rep.layers["simcore.events"] +=
      static_cast<double>(s.sim->sched.eventsProcessed() - events0);
  run.rep.hostLayers["iolib.restart_s"] += wall;
  run.rep.hostLayers["simcore.call_s"] += wall;
}

double counter(const obs::MetricsRegistry& reg, const char* name) {
  const auto it = reg.counters().find(name);
  return it == reg.counters().end() ? 0.0
                                    : static_cast<double>(it->second.value());
}

double gauge(const obs::MetricsRegistry& reg, const char* name) {
  const auto it = reg.gauges().find(name);
  return it == reg.gauges().end() ? 0.0 : it->second.value();
}

/// Fold one finished stack's layer counters into the report.
void collect(Run& run, Stack& s, bool coIo) {
  iolib::SimStack& st = *s.sim;
  const auto& reg = st.obs.metrics();
  auto& L = run.rep.layers;
  auto add = [&L](const char* key, double v) { L[key] += v; };
  add("netsim.torus_messages", static_cast<double>(st.torus.messagesDelivered()));
  add("netsim.torus_bytes", static_cast<double>(st.torus.bytesDelivered()));
  add("netsim.ion_requests", static_cast<double>(st.ion.requestsForwarded()));
  add("netsim.ion_bytes", static_cast<double>(st.ion.bytesForwarded()));
  add("fssim.creates", static_cast<double>(st.fsys.createsIssued()));
  const auto opens = reg.histograms().find("fs.open.latency");
  if (opens != reg.histograms().end())
    add("fssim.opens", static_cast<double>(opens->second.stats().count()));
  add("fssim.writes", static_cast<double>(st.fsys.writesIssued()));
  add("fssim.token_acquires", counter(reg, "fs.token.acquires"));
  add("fssim.token_revocations", static_cast<double>(st.fsys.totalRevocations()));
  add("storsim.requests", static_cast<double>(st.fabric.requestsServed()));
  add("storsim.bytes_written", static_cast<double>(st.fabric.bytesWritten()));
  if (coIo)
    add("mpiio.collective_writes",
        static_cast<double>(st.profile.opCount(prof::Op::kWrite)));
  run.rep.max("simcore.queue_depth_max", gauge(reg, "sched.queue_depth.max"));
  run.rep.max("storsim.active_streams_max",
              gauge(reg, "stor.active_streams.max"));

  const std::array<std::pair<const char*, std::pair<double, double>>, 3>
      pairs = {{
          {"net.torus.messages",
           {static_cast<double>(st.torus.messagesDelivered()),
            counter(reg, "net.torus.messages")}},
          {"stor.requests",
           {static_cast<double>(st.fabric.requestsServed()),
            counter(reg, "stor.requests")}},
          {"fs.token.revocations",
           {static_cast<double>(st.fsys.totalRevocations()),
            counter(reg, "fs.token.revocations")}},
      }};
  for (const auto& [name, v] : pairs)
    if (v.first != v.second)
      run.rep.mismatches.push_back(std::string(name) + ": accessor " +
                                   std::to_string(v.first) + " vs registry " +
                                   std::to_string(v.second));

  if (s.attr) {
    run.call("finalizeTrace", [&] { st.obs.finalize(st.sched.now()); });
    const auto& tot = s.attr->report().totals;
    auto phase = [&tot](obs::Phase p) {
      return tot[static_cast<std::size_t>(p)];
    };
    add("mpisim.handoff_s",
        phase(obs::Phase::kHandoffSend) + phase(obs::Phase::kHandoffRecv));
    add("mpisim.barrier_s", phase(obs::Phase::kBarrier));
    add("mpiio.token_wait_s", phase(obs::Phase::kTokenWait));
    add("fssim.metadata_s", phase(obs::Phase::kMetadata));
  }
}

/// coio_shared_64k: one coIO nf=1 checkpoint, read back by one leader that
/// scatters over the torus, so fssim metadata stays idle.
void coioRound(Run& run, Totals& t) {
  Stack s = buildStack(run, t.setup);
  const auto written = checkpoint(run, s, iolib::StrategyConfig::coIo(1), t);
  restart(run, s, {iolib::RestartMode::kLeaderScatter, kSimRanks}, written, t);
  collect(run, s, true);
}

/// independent_64k: 1PFPP, then rbIO 64:1 nf=ng and a direct restart of
/// its files on the same stack.
void independentRound(Run& run, Totals& t) {
  {
    Stack a = buildStack(run, t.setup);
    checkpoint(run, a, iolib::StrategyConfig::onePfpp(), t);
    collect(run, a, false);
  }
  Stack b = buildStack(run, t.setup);
  const auto written = checkpoint(run, b, iolib::StrategyConfig::rbIo(64, true), t);
  restart(run, b, {iolib::RestartMode::kDirect, 64}, written, t);
  collect(run, b, false);
}

// --------------------------------------------------------------------- host

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const std::vector<std::string> kHostFields = {"Ex", "Ey", "Ez",
                                              "Hx", "Hy", "Hz"};

std::vector<hostio::HostRankData> makePayload(std::uint64_t seed) {
  std::vector<hostio::HostRankData> data(kHostRanks);
  std::uint64_t state = seed;
  for (auto& rank : data) {
    rank.fields.assign(kHostFields.size(),
                       std::vector<std::byte>(kHostFieldBytes));
    for (auto& field : rank.fields)
      for (std::size_t i = 0; i < field.size(); i += 8) {
        const std::uint64_t word = splitmix64(state);
        std::memcpy(field.data() + i, &word, 8);
      }
  }
  return data;
}

bool sameData(const std::vector<hostio::HostRankData>& a,
              const std::vector<hostio::HostRankData>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r)
    if (a[r].fields != b[r].fields) return false;
  return true;
}

/// host_roundtrip: every HostStrategy writes, verifies and reads back the
/// payload through real files; the read-back must match byte for byte.
void hostRound(Run& run, const std::vector<hostio::HostRankData>& payload,
               Totals& t) {
  constexpr std::array<std::pair<hostio::HostStrategy, const char*>, 4>
      strategies = {{{hostio::HostStrategy::k1Pfpp, "1pfpp"},
                     {hostio::HostStrategy::kCoIo, "coio"},
                     {hostio::HostStrategy::kCoIoTwoPhase, "coio_twophase"},
                     {hostio::HostStrategy::kRbIo, "rbio"}}};
  std::optional<obs::OpTracer> tracer;
  if (run.traced()) tracer.emplace();
  auto& H = run.rep.hostLayers;
  for (const auto& [strategy, name] : strategies) {
    hostio::HostSpec spec;
    spec.directory = run.opt.scratch + "/round" + std::to_string(run.round) +
                     "_" + name;
    spec.step = run.round;
    spec.fieldNames = kHostFields;
    spec.fieldBytesPerRank = kHostFieldBytes;
    spec.iteration = static_cast<std::uint64_t>(run.round);
    hostio::HostConfig cfg;
    cfg.strategy = strategy;
    cfg.nf = 1;
    cfg.tracer = tracer ? &*tracer : nullptr;

    hostio::HostRunResult w;
    const double write = run.call("writeCheckpoint", [&] {
      w = hostio::writeCheckpoint(spec, cfg, payload);
    });
    bool verified = false;
    const double verify = run.call("verifyCheckpoint", [&] {
      verified = hostio::verifyCheckpoint(spec);
    });
    hostio::HostSpec readSpec;
    readSpec.directory = spec.directory;
    readSpec.step = spec.step;
    std::vector<hostio::HostRankData> back;
    const double read = run.call("readCheckpoint", [&] {
      back = hostio::readCheckpoint(readSpec, kHostRanks);
    });
    run.rep.op(verified && sameData(back, payload) &&
                   readSpec.fieldNames == kHostFields &&
                   readSpec.iteration == spec.iteration,
               std::string("host ") + name +
                   ": verify failed or read-back differs from the payload");
    std::filesystem::remove_all(spec.directory);

    t.ckpt += write;
    t.verify += verify;
    t.restart += read;
    H[std::string("hostio.write_s.") + name] += write;
    H["hostio.verify_s"] += verify;
    H["hostio.read_s"] += read;
    if (strategy == hostio::HostStrategy::kRbIo)
      H["hostio.max_handoff_s"] += w.maxHandoffSeconds;
  }
}

// Keeps the timed checksums observable, so they cannot be optimised away.
volatile std::uint32_t gCrcSink = 0;

/// Time iofmt::crc32 over the whole payload, once.
void crcRate(Run& run, const std::vector<hostio::HostRankData>& payload) {
  double bytes = 0;
  std::uint32_t sink = 0;
  const auto t0 = Clock::now();
  for (const auto& rank : payload)
    for (const auto& field : rank.fields) {
      sink ^= iofmt::crc32(field);
      bytes += static_cast<double>(field.size());
    }
  const double s = since(t0);
  run.rep.layers["iofmt.crc_bytes"] = bytes;
  run.rep.hostLayers["iofmt.crc_gbs"] = bytes / s / 1e9;
  gCrcSink = sink;
}

// ------------------------------------------------------------------ driver

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--scratch") {
      o.scratch = val;
    } else if (key == "--spans") {
      o.spansPath = val;
    } else if (key == "--mode") {
      if (val == "time") o.mode = Mode::kTime;
      else if (val == "untraced") o.mode = Mode::kUntraced;
      else if (val == "traced") o.mode = Mode::kTraced;
      else return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty();
}

bool sanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return PERFBENCH_SANITIZE[0] != '\0';
#endif
}

void printJsonMap(const char* key, const std::map<std::string, double>& m) {
  std::printf(", \"%s\": {", key);
  const char* sep = "";
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
    sep = ", ";
  }
  std::printf("}");
}

void printReport(const Report& rep, double peakRssMb) {
  std::printf("{\"build_type\": \"%s\", \"simcheck\": \"off\"",
              PERFBENCH_BUILD_TYPE);
  std::printf(", \"rounds\": %d, \"attempted\": %llu, \"failed\": %llu",
              rep.rounds, static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  std::printf(", \"call_s\": %.17g, \"peak_rss_mb\": %.17g", rep.callSeconds,
              peakRssMb);
  std::printf(", \"samples\": {");
  const char* sep = "";
  for (const auto& [k, v] : rep.samples) {
    std::printf("%s\"%s\": [", sep, k.c_str());
    for (std::size_t i = 0; i < v.size(); ++i)
      std::printf("%s%.17g", i ? ", " : "", v[i]);
    std::printf("]");
    sep = ", ";
  }
  std::printf("}");
  printJsonMap("layers", rep.layers);
  printJsonMap("host_layers", rep.hostLayers);
  std::printf(", \"mismatches\": [");
  for (std::size_t i = 0; i < rep.mismatches.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", rep.mismatches[i].c_str());
  std::printf("]}\n");
}

int runWorkload(const Options& opt) {
  const bool host = opt.workload == "host_roundtrip";
  void (*simRound)(Run&, Totals&) = nullptr;
  if (opt.workload == "coio_shared_64k") simRound = coioRound;
  else if (opt.workload == "independent_64k") simRound = independentRound;
  else if (!host) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  Run run{opt, {}, Spans(opt.mode == Mode::kTraced)};
  auto& samples = run.rep.samples;

  // Set-up: generate the payload, or build (and drop) the round's stacks,
  // several times so setup_s is a median. Only the time mode reports it.
  std::vector<hostio::HostRankData> payload;
  const int setupReps = opt.mode == Mode::kTime ? kSetupReps : 1;
  for (int i = 0; i < setupReps; ++i) {
    if (host) {
      const auto t0 = Clock::now();
      payload = makePayload(opt.seed);
      samples["setup_s"].push_back(since(t0));
      continue;
    }
    double seconds = 0;
    const int stacks = simRound == independentRound ? 2 : 1;
    for (int k = 0; k < stacks; ++k) {
      const auto t0 = Clock::now();
      iolib::SimStack stack(kSimRanks, stackOptions(opt.seed));
      seconds += since(t0);  // construction only, as in a round
    }
    samples["setup_s"].push_back(seconds);
  }

  const auto& arena = sim::FrameArena::instance().stats();
  const auto allocs0 = arena.allocs;
  const auto hits0 = arena.poolHits;
  const auto start = Clock::now();
  double lastRound = 0;
  do {
    const auto roundStart = Clock::now();
    run.roundSpan = run.spans.open("round", 0, run.round);
    Totals t;
    if (host) {
      hostRound(run, payload, t);
    } else {
      simRound(run, t);
      samples["setup_s"].push_back(t.setup);
    }
    run.spans.close(run.roundSpan);
    samples["ckpt_s"].push_back(t.ckpt);
    samples["restart_s"].push_back(t.restart);
    samples["verify_s"].push_back(t.verify);
    ++run.round;
    lastRound = since(roundStart);
    // Start another round only if it should end within the time budget.
  } while (opt.mode == Mode::kTime && since(start) + lastRound < opt.seconds);
  run.rep.rounds = run.round;

  if (opt.mode != Mode::kTime) {
    auto& L = run.rep.layers;
    auto& H = run.rep.hostLayers;
    const double allocs = static_cast<double>(arena.allocs - allocs0);
    L["simcore.arena_allocs"] = allocs;
    L["simcore.arena_pool_hit_ratio"] =
        allocs > 0 ? static_cast<double>(arena.poolHits - hits0) / allocs : 0;
    if (!host) {
      H["simcore.ns_per_event"] = H["simcore.call_s"] / L["simcore.events"] * 1e9;
      L["iolib.sim_bandwidth_gbs"] =
          L["iolib.logical_bytes"] / L["iolib.sim_makespan_s"] / 1e9;
      L["fssim.revocations_per_acquire"] =
          L["fssim.token_acquires"] > 0
              ? L["fssim.token_revocations"] / L["fssim.token_acquires"]
              : 0;
    } else {
      crcRate(run, payload);
    }
  }
  if (!opt.spansPath.empty() && !run.spans.write(opt.spansPath)) {
    std::fprintf(stderr, "cannot write spans to %s\n", opt.spansPath.c_str());
    return 1;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  printReport(run.rep, static_cast<double>(usage.ru_maxrss) / 1024.0);
  return run.rep.failed == 0 && run.rep.mismatches.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opt;
    if (!parse(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: bgckpt_perfbench --workload W [--seed N] "
                   "[--mode time|untraced|traced] [--seconds T] "
                   "[--scratch DIR] [--spans FILE]\n");
      return 2;
    }
    if (sanitizerBuild()) {
      std::fprintf(stderr, "refusing to report from a sanitizer build\n");
      return 2;
    }
    return runWorkload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgckpt_perfbench: %s\n", e.what());
    return 1;
  }
}
