// sweep: the campaign driver. Reads a declarative sweep spec, expands its
// axes into concrete bench invocations, runs them across worker processes
// with bounded parallelism, and files each run's --perf-json record in a
// content-addressed ledger (obs/runstore.hpp).
//
// Usage:  sweep <spec.json> --ledger DIR [--jobs N] [--git-rev REV]
//               [--bench-dir DIR]
//
// Spec (schema bgckpt-sweep-1):
//
//   {
//     "schema": "bgckpt-sweep-1",
//     "benches": [
//       { "bench": "eq7_measured_vs_model",
//         "args": ["--np", "{np}"],
//         "axes": { "np": [128, 256, 384, 512] },
//         "repetitions": 1 }
//     ]
//   }
//
// Every `{axis}` placeholder in `args` is substituted from the cartesian
// product of the axes (spec file order = loop order, outermost first).
// Each expanded config is one run, identified by the canonicalized
// {bench, args, rep} object; its ledger key adds the git revision and the
// artifact schema fingerprint, so re-running an unchanged sweep is all
// cache hits and a new revision (or a schema bump) re-runs everything.
// The revision is --git-rev, else `git rev-parse --short HEAD`, else
// "unknown". Child stdout/stderr and the raw perf file land in
// <ledger>/work/<key>.* for debugging; failed runs are NOT stored (the
// next sweep retries them) and make the driver exit 1.
//
// Feed the ledger to `trace_report --campaign` for the roll-up views.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/runstore.hpp"

namespace {

namespace fs = std::filesystem;
using bgckpt::obs::json::Value;
namespace json = bgckpt::obs::json;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <spec.json> --ledger DIR [--jobs N] "
               "[--git-rev REV] [--bench-dir DIR]\n",
               argv0);
  return 2;
}

/// One fully expanded bench invocation.
struct RunConfig {
  std::string bench;              // binary basename (config identity)
  std::string benchPath;          // resolved executable path
  std::vector<std::string> args;  // placeholder-substituted user args
  int rep = 1;
  Value config;            // canonical identity object {args, bench, rep}
  std::string configHash;  // cross-revision identity: hash of config alone
  std::string key;         // ledger address under (gitRev, schemas)
  std::string label;       // "bench args..." for log lines
};

Value makeString(const std::string& s) {
  Value v;
  v.type = Value::Type::kString;
  v.string = s;
  return v;
}

/// Render an axis value for argv substitution: strings verbatim, numbers
/// in the canonical integer/%.12g form (so the argv and the hashed config
/// can never disagree on formatting).
std::string axisText(const Value& v) {
  if (v.type == Value::Type::kString) return v.string;
  return bgckpt::obs::canonicalJson(v);
}

/// Replace every "{name}" in `arg`.
std::string substitute(const std::string& arg,
                       const std::vector<std::pair<std::string, Value>>& axes) {
  std::string out = arg;
  for (const auto& [name, value] : axes) {
    const std::string needle = "{" + name + "}";
    std::size_t pos = 0;
    while ((pos = out.find(needle, pos)) != std::string::npos) {
      const std::string text = axisText(value);
      out.replace(pos, needle.size(), text);
      pos += text.size();
    }
  }
  return out;
}

/// Expand one spec "benches" element into concrete configs (cartesian
/// product of its axes times repetitions, spec order preserved).
bool expandBench(const Value& bv, const std::string& benchDir,
                 std::vector<RunConfig>* out, std::string* err) {
  const std::string bench = bv.stringOr("bench", "");
  if (bench.empty()) {
    *err = "bench entry without \"bench\"";
    return false;
  }
  std::vector<std::string> argTemplates;
  if (const Value* args = bv.find("args"); args && args->isArray())
    for (const Value& a : *args->array)
      argTemplates.push_back(a.type == Value::Type::kString ? a.string
                                                            : axisText(a));
  std::vector<std::pair<std::string, std::vector<Value>>> axes;
  if (const Value* av = bv.find("axes"); av && av->isObject()) {
    for (const auto& [name, values] : *av->object) {
      if (!values.isArray() || values.array->empty()) {
        *err = "axis \"" + name + "\" is not a non-empty array";
        return false;
      }
      axes.emplace_back(name, *values.array);
    }
  }
  const int reps = std::max(1, static_cast<int>(bv.numberOr("repetitions", 1)));
  // Odometer over the axis value lists, outermost = first axis.
  std::vector<std::size_t> idx(axes.size(), 0);
  while (true) {
    std::vector<std::pair<std::string, Value>> binding;
    for (std::size_t a = 0; a < axes.size(); ++a)
      binding.emplace_back(axes[a].first, axes[a].second[idx[a]]);
    for (int rep = 1; rep <= reps; ++rep) {
      RunConfig rc;
      rc.bench = bench;
      rc.benchPath = bench.find('/') != std::string::npos
                         ? bench
                         : benchDir + "/" + bench;
      for (const std::string& t : argTemplates)
        rc.args.push_back(substitute(t, binding));
      rc.rep = rep;
      Value argsV;
      argsV.type = Value::Type::kArray;
      argsV.array = std::make_shared<json::Array>();
      for (const std::string& a : rc.args) argsV.array->push_back(makeString(a));
      Value cfg;
      cfg.type = Value::Type::kObject;
      cfg.object = std::make_shared<json::Object>();
      cfg.object->emplace_back("bench", makeString(bench));
      cfg.object->emplace_back("args", std::move(argsV));
      Value repV;
      repV.type = Value::Type::kNumber;
      repV.number = rep;
      cfg.object->emplace_back("rep", std::move(repV));
      rc.config = std::move(cfg);
      rc.label = bench;
      for (const std::string& a : rc.args) rc.label += " " + a;
      if (rep > 1) rc.label += " [rep " + std::to_string(rep) + "]";
      out->push_back(std::move(rc));
    }
    // Advance the odometer; done when the first axis wraps.
    std::size_t a = axes.size();
    while (a > 0) {
      --a;
      if (++idx[a] < axes[a].second.size()) break;
      idx[a] = 0;
      if (a == 0) return true;
    }
    if (axes.empty()) return true;
    if (a == 0 && idx[0] == 0) return true;
  }
}

std::string shellQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out.push_back(c);
  }
  out += "'";
  return out;
}

struct Counters {
  std::atomic<int> ran{0};
  std::atomic<int> cached{0};
  std::atomic<int> failed{0};
};

std::mutex gLogMu;

void logLine(const char* verb, const RunConfig& rc, const std::string& extra) {
  std::lock_guard<std::mutex> lock(gLogMu);
  std::printf("[sweep] %s %s %s%s\n", verb, rc.key.c_str(), rc.label.c_str(),
              extra.c_str());
  std::fflush(stdout);
}

/// Execute one config and file the result. Cache hits never spawn a child.
void executeConfig(const RunConfig& rc, const bgckpt::obs::RunStore& store,
                   const std::string& gitRev, const std::string& schemas,
                   Counters* counters) {
  if (store.contains(rc.key)) {
    logLine("hit", rc, " (cached)");
    ++counters->cached;
    return;
  }
  const std::string work = store.dir() + "/work";
  std::error_code ec;
  fs::create_directories(work, ec);
  const std::string perfPath = work + "/" + rc.key + ".perf.json";
  const std::string outPath = work + "/" + rc.key + ".stdout.txt";
  const std::string errPath = work + "/" + rc.key + ".stderr.txt";
  std::string cmd = shellQuote(rc.benchPath);
  for (const std::string& a : rc.args) {
    cmd += " ";
    cmd += shellQuote(a);
  }
  cmd += " --perf-json ";
  cmd += shellQuote(perfPath);
  cmd += " > ";
  cmd += shellQuote(outPath);
  cmd += " 2> ";
  cmd += shellQuote(errPath);
  const auto t0 = std::chrono::steady_clock::now();
  const int rawStatus = std::system(cmd.c_str());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const int exitCode =
      rawStatus < 0 ? rawStatus : (rawStatus & 0x7f) ? 128 : rawStatus >> 8;
  if (exitCode != 0) {
    std::lock_guard<std::mutex> lock(gLogMu);
    std::fprintf(stderr,
                 "[sweep] FAIL %s %s: exit %d (stdout/stderr kept in %s)\n",
                 rc.key.c_str(), rc.label.c_str(), exitCode, work.c_str());
    ++counters->failed;
    return;
  }
  Value perf;
  {
    std::ifstream in(perfPath);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string parseErr;
    const auto doc = json::parse(ss.str(), &parseErr);
    if (!in || !doc || !doc->isObject()) {
      std::lock_guard<std::mutex> lock(gLogMu);
      std::fprintf(stderr, "[sweep] FAIL %s %s: bad perf record %s (%s)\n",
                   rc.key.c_str(), rc.label.c_str(), perfPath.c_str(),
                   parseErr.c_str());
      ++counters->failed;
      return;
    }
    perf = *doc;
  }
  bgckpt::obs::LedgerEntry entry;
  entry.key = rc.key;
  entry.configHash = rc.configHash;
  entry.gitRev = gitRev;
  entry.schemas = schemas;
  entry.config = rc.config;
  entry.perf = std::move(perf);
  entry.exitCode = exitCode;
  entry.wallSeconds = wall;
  std::string err;
  if (!store.put(entry, &err)) {
    std::lock_guard<std::mutex> lock(gLogMu);
    std::fprintf(stderr, "[sweep] FAIL %s %s: %s\n", rc.key.c_str(),
                 rc.label.c_str(), err.c_str());
    ++counters->failed;
    return;
  }
  char timing[48];
  std::snprintf(timing, sizeof(timing), " (%.2fs)", wall);
  logLine("run", rc, timing);
  ++counters->ran;
}

std::string resolveGitRev(const char* flagValue) {
  if (flagValue != nullptr && *flagValue != '\0') return flagValue;
  std::FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (p != nullptr) {
    char buf[128];
    std::string rev;
    if (std::fgets(buf, sizeof(buf), p) != nullptr) rev = buf;
    ::pclose(p);
    while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
      rev.pop_back();
    if (!rev.empty()) return rev;
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  const char* specPath = nullptr;
  const char* ledgerDir = nullptr;
  const char* gitRevFlag = nullptr;
  std::string benchDir = ".";
  unsigned jobs = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ledger") == 0 && i + 1 < argc) {
      ledgerDir = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const long n = std::strtol(argv[++i], nullptr, 10);
      jobs = n > 0 ? static_cast<unsigned>(n) : 1;
    } else if (std::strcmp(argv[i], "--git-rev") == 0 && i + 1 < argc) {
      gitRevFlag = argv[++i];
    } else if (std::strcmp(argv[i], "--bench-dir") == 0 && i + 1 < argc) {
      benchDir = argv[++i];
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      specPath = argv[i];
    }
  }
  if (specPath == nullptr || ledgerDir == nullptr) return usage(argv[0]);

  std::ifstream in(specPath);
  if (!in) {
    std::fprintf(stderr, "sweep: cannot open %s\n", specPath);
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string parseErr;
  const auto spec = json::parse(ss.str(), &parseErr);
  if (!spec || !spec->isObject()) {
    std::fprintf(stderr, "sweep: %s: %s\n", specPath,
                 parseErr.empty() ? "not a JSON object" : parseErr.c_str());
    return 2;
  }
  const std::string schema = spec->stringOr("schema", "(none)");
  if (schema != bgckpt::obs::kSweepSchemaVersion) {
    std::fprintf(stderr,
                 "sweep: %s: spec schema \"%s\" not supported (this build "
                 "reads \"%s\")\n",
                 specPath, schema.c_str(), bgckpt::obs::kSweepSchemaVersion);
    return 2;
  }
  const Value* benches = spec->find("benches");
  if (benches == nullptr || !benches->isArray() || benches->array->empty()) {
    std::fprintf(stderr, "sweep: %s: no \"benches\" array\n", specPath);
    return 2;
  }

  std::vector<RunConfig> configs;
  for (const Value& bv : *benches->array) {
    if (!bv.isObject()) continue;
    std::string err;
    if (!expandBench(bv, benchDir, &configs, &err)) {
      std::fprintf(stderr, "sweep: %s: %s\n", specPath, err.c_str());
      return 2;
    }
  }
  if (configs.empty()) {
    std::fprintf(stderr, "sweep: %s: spec expands to zero configs\n",
                 specPath);
    return 2;
  }

  const std::string gitRev = resolveGitRev(gitRevFlag);
  const std::string schemas = bgckpt::obs::artifactSchemasFingerprint();
  for (RunConfig& rc : configs) {
    rc.configHash = bgckpt::obs::hex16(
        bgckpt::obs::fnv1a64(bgckpt::obs::canonicalJson(rc.config)));
    rc.key = bgckpt::obs::ledgerKey(rc.config, gitRev, schemas);
  }

  const bgckpt::obs::RunStore store(ledgerDir);
  std::printf("[sweep] %zu config(s) at rev %s -> %s (%u worker(s))\n",
              configs.size(), gitRev.c_str(), ledgerDir, jobs);
  Counters counters;
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= configs.size()) return;
      executeConfig(configs[i], store, gitRev, schemas, &counters);
    }
  };
  std::vector<std::thread> pool;
  const unsigned nWorkers =
      std::min<unsigned>(jobs, static_cast<unsigned>(configs.size()));
  for (unsigned w = 1; w < nWorkers; ++w) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();

  std::printf("[sweep] done: %zu config(s) (%d run, %d cached, %d failed)\n",
              configs.size(), counters.ran.load(), counters.cached.load(),
              counters.failed.load());
  return counters.failed.load() > 0 ? 1 : 0;
}
