// Byte-identity gate for the parallel figure path: the paper driver must
// produce the SAME bytes — stdout and every --attr export —
// whether its scenarios run serially or on 8 threads. This is the
// determinism contract of bench/common.cpp's simulate() (one fixed scenario
// order, pre-assigned artifact ordinals, perf records in scenario order)
// over sim::parallelFor. The --perf-json records hold wall times, so they
// are written outside the compared directories and checked for their
// schema, runs and parallel regions instead.
//
// The file also holds the driver's command-line contracts: a full disk
// fails every export flag, a valued flag rejects a flag or a malformed
// number as its value, an unknown figure exits 2, --simcheck reaches every
// stack, observability flags leave stdout unchanged, and --obs-dir writes
// one file per artifact and stack.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace {

namespace json = bgckpt::obs::json;

namespace fs = std::filesystem;

struct RunResult {
  int exitCode = -1;
  std::string output;
};

/// Runs a command and captures stdout only, unless `withStderr`.
/// stderr is discarded by default: the obs announce lines go there, and with
/// --threads > 1 their interleaving with worker progress is not
/// deterministic.
RunResult run(const std::string& cmd, bool withStderr = false) {
  RunResult r;
  FILE* pipe =
      popen((cmd + (withStderr ? " 2>&1" : " 2>/dev/null")).c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string readFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::string s((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  return s;
}

/// Filenames under dir, sorted.
std::vector<std::string> fileNames(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir))
    names.push_back(e.path().filename().string());
  std::sort(names.begin(), names.end());
  return names;
}

/// The labels of a perf record's "runs", or of one region's "jobs".
std::vector<std::string> labels(const json::Value& array) {
  std::vector<std::string> out;
  if (array.isArray())
    for (const json::Value& v : *array.array)
      out.push_back(v.stringOr("label", "?"));
  return out;
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/bgckpt_identity_XXXXXX";
    root_ = mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  fs::path path() const { return root_; }

 private:
  fs::path root_;
};

/// Parses a --perf-json record, requiring the bgckpt-perf-1 schema.
json::Value perfRecord(const fs::path& path) {
  std::string err;
  const auto doc = json::parse(readFile(path), &err);
  EXPECT_TRUE(doc && doc->isObject()) << path << ": " << err;
  if (!doc) return {};
  EXPECT_EQ(doc->stringOr("schema", ""), "bgckpt-perf-1") << path;
  return *doc;
}

/// The paper driver with `args`.
std::string paper(const std::string& args) {
  return std::string(BENCH_BIN_DIR) + "/paper " + args;
}

/// Runs `paper ARGS` twice (serial, then 8 worker threads) with attribution
/// exports into separate directories, then requires stdout and every
/// exported artifact to be byte-identical. Each directory must hold exactly
/// one attr JSON per simulated stack, and nothing else. Both runs also
/// write --perf-json outside the compared directories: both records hold
/// `runs` runs with the same labels; the 8-thread record of a selection
/// with scenarios (`regions` = 1) holds one parallel region whose jobs are
/// exactly its runs; a serial record, or one of a selection without
/// scenarios (`regions` = 0), holds none. Returns the serial stdout.
std::string expectByteIdentical(const std::string& args, int stacks,
                                std::size_t runs, int regions) {
  const TempDir tmp;
  EXPECT_FALSE(tmp.path().empty());
  const fs::path serialDir = tmp.path() / "serial";
  const fs::path threadedDir = tmp.path() / "threaded";
  fs::create_directories(serialDir);
  fs::create_directories(threadedDir);

  const auto perfPath = [&](const char* threads) {
    return tmp.path() / (std::string("perf.") + threads + ".json");
  };
  const auto cmd = [&](const fs::path& dir, const char* threads) {
    return paper(args) + " --threads=" + threads + " --attr " +
           (dir / "attr.json").string() + " --perf-json " +
           perfPath(threads).string();
  };

  const RunResult serial = run(cmd(serialDir, "1"));
  EXPECT_EQ(serial.exitCode, 0) << serial.output;
  const RunResult threaded = run(cmd(threadedDir, "8"));
  EXPECT_EQ(threaded.exitCode, 0) << threaded.output;
  if (serial.exitCode != 0 || threaded.exitCode != 0) return serial.output;

  EXPECT_EQ(serial.output, threaded.output)
      << args << ": stdout differs between --threads=1 and --threads=8";

  std::vector<std::string> expected;
  for (int n = 1; n <= stacks; ++n) {
    // Built with += rather than `"." + to_string(n)`: the rvalue-insert
    // overload trips GCC 12's -Wrestrict false positive at -O3 under -Werror.
    std::string tag;
    if (n > 1) {
      tag = ".";
      tag += std::to_string(n);
    }
    expected.push_back("attr" + tag + ".json");
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fileNames(serialDir), expected) << args;
  EXPECT_EQ(fileNames(threadedDir), expected) << args;
  for (const auto& name : expected) {
    EXPECT_EQ(readFile(serialDir / name), readFile(threadedDir / name))
        << args << ": artifact " << name << " differs between thread counts";
  }

  const json::Value serialPerf = perfRecord(perfPath("1"));
  EXPECT_EQ(serialPerf.find("parallel_regions"), nullptr)
      << args << ": a serial run records no parallel region";
  const json::Value threadedPerf = perfRecord(perfPath("8"));
  const json::Value* threadedRuns = threadedPerf.find("runs");
  const json::Value* serialRuns = serialPerf.find("runs");
  if (threadedRuns == nullptr || serialRuns == nullptr) {
    ADD_FAILURE() << args << ": a perf record holds no runs";
    return serial.output;
  }
  EXPECT_EQ(labels(*serialRuns).size(), runs) << args;
  EXPECT_EQ(labels(*threadedRuns), labels(*serialRuns)) << args;
  const json::Value* found = threadedPerf.find("parallel_regions");
  if (regions == 0) {
    EXPECT_EQ(found, nullptr) << args << ": no scenarios, no region";
    return serial.output;
  }
  if (found == nullptr || !found->isArray() ||
      found->array->size() != static_cast<std::size_t>(regions)) {
    ADD_FAILURE() << args << ": expected " << regions << " parallel region(s)";
    return serial.output;
  }
  const json::Value& region = found->array->front();
  const json::Value* jobs = region.find("jobs");
  EXPECT_NE(jobs, nullptr) << args;
  if (jobs != nullptr) {
    EXPECT_EQ(labels(*jobs), labels(*threadedRuns))
        << args << ": the region's jobs are the simulated scenarios";
  }
  EXPECT_GT(region.numberOr("wall_seconds", 0), 0.0) << args;
  return serial.output;
}

}  // namespace

// Two co-selected figures share scenarios but not output: the 16K fig5
// matrix is five stacks, and ablation_1pfpp_dirs reads three scenarios of
// which two (1PFPP in one shared directory, rbIO 64:1 nf=ng) are fig5's.
// The pair simulates 6 stacks where the figures read 8 results, and its
// stdout is each figure's solo stdout, in table order.
TEST(ShardedIdentity, Fig5StdoutAndExportsMatchSerial) {
  const std::string both = expectByteIdentical(
      "fig5_write_bandwidth ablation_1pfpp_dirs --max-np 16384", 6, 6, 1);
  const RunResult fig5 =
      run(paper("fig5_write_bandwidth --max-np 16384 --threads=8"));
  ASSERT_EQ(fig5.exitCode, 0) << fig5.output;
  const RunResult dirs = run(paper("ablation_1pfpp_dirs --threads=8"));
  ASSERT_EQ(dirs.exitCode, 0) << dirs.output;
  EXPECT_EQ(both, fig5.output + dirs.output);
}

// fig9 reads one scenario, fig5's 16K 1PFPP checkpoint: one job in one
// parallel region.
TEST(ShardedIdentity, Fig9StdoutAndExportsMatchSerial) {
  expectByteIdentical("fig9_dist_1pfpp", 1, 1, 1);
}

// eq7 keeps each run's attribution report: the sink the driver attaches for
// the figure must not change stdout or exports at --threads=8 either.
TEST(ShardedIdentity, Eq7StdoutAndExportsMatchSerial) {
  expectByteIdentical("eq7_measured_vs_model --np 256", 2, 2, 1);
}

// Every export writer must report a full disk: /dev/full accepts the open,
// and the buffered file only fails when its close flushes the tail. The
// exit code is chosen after fig9's stack has written its exports.
TEST(ShardedIdentity, PerfJsonOnFullDiskExitsNonzero) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  for (const char* flag :
       {"--perf-json", "--metrics", "--attr", "--trace", "--optrace"}) {
    const RunResult r =
        run(paper(std::string("fig9_dist_1pfpp ") + flag + " /dev/full"));
    EXPECT_EQ(r.exitCode, 1) << flag << "\n" << r.output;
  }
}

// A flag that takes a value must not swallow the next flag as its file
// name: the run exits 2 and writes nothing named after the swallowed flag.
// Numeric values parse whole: a trailing unit, a sign or a word is an
// error, not a prefix or a default. A missing value, one the simulated
// machine cannot run, or an unknown figure exits 2 with an error instead of
// running anything.
TEST(ShardedIdentity, ValuedFlagRejectsAFlagAsItsValue) {
  const TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  const RunResult r =
      run("cd " + tmp.path().string() + " && " +
          paper("eq7_measured_vs_model --np 256 --attr --optrace"));
  EXPECT_EQ(r.exitCode, 2) << r.output;
  for (const auto& e : fs::directory_iterator(tmp.path()))
    EXPECT_NE(e.path().filename().string().rfind("--optrace", 0), 0u)
        << "stray file " << e.path();
  for (const auto& [args, error] : {
           std::pair<std::string, std::string>{"eq7_measured_vs_model --np",
                                               "error: --np needs a value"},
           {"fig5_write_bandwidth --max-np", "error: --max-np needs a value"},
           {"eq7_measured_vs_model --np 192",
            "error: --np 192: unsupported Intrepid partition"},
           {"eq7_measured_vs_model --np 256x",
            "error: --np: not a positive integer: 256x"},
           {"eq7_measured_vs_model --np 256 --threads=abc",
            "error: --threads: not a positive integer: abc"},
           {"eq7_measured_vs_model --np 256 --threads=-4",
            "error: --threads: not a positive integer: -4"},
           {"eq7_measured_vs_model --np 256 --flightrec=abc",
            "error: unknown flag --flightrec=abc"},
           {"eq7_measured_vs_model --np 256 --optrace",
            "error: --optrace needs a value"},
           {"fig5_write_bandwidth --max-np 16k",
            "error: --max-np: not a positive integer: 16k"},
           {"fig5_write_bandwidth --max-np 100",
            "error: --max-np 100 leaves no scales to run"},
           {"eq7_measured_vs_model --np 256 --telemetry t.json",
            "error: unknown flag --telemetry"},
           {"eq7_measured_vs_model --np 256 --critpath c.json",
            "error: unknown flag --critpath"},
           {"eq7_measured_vs_model --np 256 --optrace=0 o.json",
            "error: --optrace: not a positive number: 0"},
           {"eq7_measured_vs_model --np 256 --optrace=abc",
            "error: --optrace: not a positive number: abc"},
           {"eq7_measured_vs_model --np 256 --simcheck=bogus",
            "error: --simcheck: unknown mode bogus"},
           {"fig99", "error: unknown figure fig99"}}) {
    const RunResult bad = run("cd " + tmp.path().string() + " && " +
                                  paper(args),
                              true);
    EXPECT_EQ(bad.exitCode, 2) << args << "\n" << bad.output;
    EXPECT_NE(bad.output.find(error), std::string::npos) << bad.output;
  }
  // The unknown-figure error lists the figures.
  EXPECT_NE(run(paper("fig99"), true).output.find("fig5_write_bandwidth"),
            std::string::npos);
}

// --simcheck attaches the invariant checker to every stack the driver
// builds, so each metrics export counts its violations. With SIM_CHECK
// unset, a build with NDEBUG runs no checker unless asked for one.
TEST(ShardedIdentity, SimcheckReachesEveryStack) {
  const TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  const fs::path metrics = tmp.path() / "m.json";
  const RunResult r = run("env -u SIM_CHECK " +
                          paper("mesh_read_time --simcheck --metrics " +
                                metrics.string()));
  ASSERT_EQ(r.exitCode, 0) << r.output;
  EXPECT_EQ(fileNames(tmp.path()),
            (std::vector<std::string>{"m.2.json", "m.json"}));
  for (const char* name : {"m.json", "m.2.json"})
    EXPECT_NE(readFile(tmp.path() / name).find("\"simcheck.violations\""),
              std::string::npos)
        << name;
}

// Every announce line goes to stderr, so --trace and --metrics leave figure
// stdout byte-identical; --metrics still fills the MPI pair matrix.
TEST(ShardedIdentity, TraceAndMetricsLeaveStdoutUnchanged) {
  const TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  const std::string bench = paper("eq7_measured_vs_model --np 256");
  const RunResult plain = run(bench);
  ASSERT_EQ(plain.exitCode, 0) << plain.output;
  const fs::path metrics = tmp.path() / "m.json";
  const RunResult observed =
      run(bench + " --trace " + (tmp.path() / "t.json").string() +
          " --metrics " + metrics.string());
  ASSERT_EQ(observed.exitCode, 0) << observed.output;
  EXPECT_EQ(plain.output, observed.output);
  // m.json is the first stack's export: coIO np:nf=64:1 at 256 ranks.
  EXPECT_NE(readFile(metrics).find("\"mpiPairsTotal\": 260,"),
            std::string::npos);
}

// --obs-dir writes each observation once: one JSON per artifact per stack.
// eq7 at 256 ranks runs two stacks.
TEST(ShardedIdentity, ObsDirWritesOneFilePerArtifactAndStack) {
  const TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  const fs::path dir = tmp.path() / "obs";
  const RunResult r =
      run(paper("eq7_measured_vs_model --np 256 --obs-dir " + dir.string()));
  ASSERT_EQ(r.exitCode, 0) << r.output;
  const std::vector<std::string> expected = {
      "attr.2.json",    "attr.json",    "metrics.2.json", "metrics.json",
      "optrace.2.json", "optrace.json", "trace.2.json",   "trace.json"};
  EXPECT_EQ(fileNames(dir), expected);
}
