// Byte-identity gate for the parallel figure path: the figure benches
// must produce the SAME bytes — stdout and every --telemetry/--attr export —
// whether the simulation points run serially or prefetched on 8 threads.
// This is the determinism contract of bench/common.cpp's prefetch cache
// (FIFO consumption in program order, pre-assigned artifact ordinals,
// replayed perf records) over sim::parallelFor. The --perf-json records
// hold wall times, so they are written outside the compared directories
// and checked for their schema and parallel regions instead.
//
// The file also holds the bench command-line contracts that need a built
// bench: a full disk fails every export flag, a valued flag rejects a flag
// as its value, observability flags leave stdout unchanged, and --obs-dir
// writes one file per artifact and stack.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

namespace json = bgckpt::obs::json;

namespace fs = std::filesystem;

struct RunResult {
  int exitCode = -1;
  std::string output;
};

/// Runs a bench binary and captures stdout only. stderr is discarded: the
/// obs announce lines go there, and with --threads > 1 their interleaving
/// with worker progress is not deterministic.
RunResult run(const std::string& cmd) {
  RunResult r;
  FILE* pipe = popen((cmd + " 2>/dev/null").c_str(), "r");
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

/// Runs `bench` twice (serial, then 8 worker threads) with telemetry and
/// attribution exports into separate directories, then requires stdout and
/// every exported artifact to be byte-identical. Each directory must hold
/// exactly one attr and one telemetry JSON per simulated stack, and
/// nothing else. Both runs also write --perf-json outside the compared
/// directories: the 8-thread record of a bench that prefetches (`regions`
/// = 1) holds one parallel region whose jobs are exactly its runs; a serial
/// record, or one of a bench that never prefetches, holds none.
void expectByteIdentical(const std::string& bench, const std::string& args,
                         int stacks, int regions) {
  const TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  const fs::path serialDir = tmp.path() / "serial";
  const fs::path threadedDir = tmp.path() / "threaded";
  fs::create_directories(serialDir);
  fs::create_directories(threadedDir);

  const std::string bin = std::string(BENCH_BIN_DIR) + "/" + bench;
  const auto perfPath = [&](const char* threads) {
    return tmp.path() / (std::string("perf.") + threads + ".json");
  };
  const auto cmd = [&](const fs::path& dir, const char* threads) {
    return bin + " " + args + " --threads=" + threads + " --telemetry " +
           (dir / "telemetry.json").string() + " --attr " +
           (dir / "attr.json").string() + " --perf-json " +
           perfPath(threads).string();
  };

  const RunResult serial = run(cmd(serialDir, "1"));
  ASSERT_EQ(serial.exitCode, 0) << serial.output;
  const RunResult threaded = run(cmd(threadedDir, "8"));
  ASSERT_EQ(threaded.exitCode, 0) << threaded.output;

  EXPECT_EQ(serial.output, threaded.output)
      << bench << ": stdout differs between --threads=1 and --threads=8";

  std::vector<std::string> expected;
  for (int n = 1; n <= stacks; ++n) {
    const std::string tag = n == 1 ? "" : "." + std::to_string(n);
    expected.push_back("attr" + tag + ".json");
    expected.push_back("telemetry" + tag + ".json");
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fileNames(serialDir), expected) << bench;
  ASSERT_EQ(fileNames(threadedDir), expected) << bench;
  for (const auto& name : expected) {
    EXPECT_EQ(readFile(serialDir / name), readFile(threadedDir / name))
        << bench << ": artifact " << name << " differs between thread counts";
  }

  const json::Value serialPerf = perfRecord(perfPath("1"));
  EXPECT_EQ(serialPerf.find("parallel_regions"), nullptr)
      << bench << ": a serial run records no parallel region";
  const json::Value threadedPerf = perfRecord(perfPath("8"));
  const json::Value* runs = threadedPerf.find("runs");
  const json::Value* serialRuns = serialPerf.find("runs");
  ASSERT_TRUE(runs != nullptr && serialRuns != nullptr) << bench;
  EXPECT_EQ(labels(*runs), labels(*serialRuns)) << bench;
  const json::Value* found = threadedPerf.find("parallel_regions");
  if (regions == 0) {
    EXPECT_EQ(found, nullptr) << bench << ": no prefetch, no region";
    return;
  }
  ASSERT_TRUE(found != nullptr && found->isArray()) << bench;
  ASSERT_EQ(found->array->size(), static_cast<std::size_t>(regions)) << bench;
  const json::Value& region = found->array->front();
  const json::Value* jobs = region.find("jobs");
  ASSERT_NE(jobs, nullptr) << bench;
  EXPECT_EQ(labels(*jobs), labels(*runs))
      << bench << ": the region's jobs are the prefetched points";
  EXPECT_GT(region.numberOr("wall_seconds", 0), 0.0) << bench;
}

}  // namespace

TEST(ShardedIdentity, Fig5StdoutAndExportsMatchSerial) {
  // Five approaches at 16K ranks: five stacks, all prefetched at once.
  expectByteIdentical("fig5_write_bandwidth", "--max-np 16384", 5, 1);
}

TEST(ShardedIdentity, Fig9StdoutAndExportsMatchSerial) {
  // One point on a stack fig9 builds itself: nothing to prefetch.
  expectByteIdentical("fig9_dist_1pfpp", "", 1, 0);
}

// Every export writer must report a full disk: /dev/full accepts the open,
// and the buffered file only fails when its close flushes the tail. fig9
// holds its stack past reportChecks, so its exports must be written before
// the exit code is chosen.
TEST(ShardedIdentity, PerfJsonOnFullDiskExitsNonzero) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  for (const char* flag : {"--perf-json", "--metrics", "--attr", "--critpath",
                           "--telemetry", "--optrace"}) {
    const RunResult r = run(std::string(BENCH_BIN_DIR) + "/fig9_dist_1pfpp " +
                            flag + " /dev/full");
    EXPECT_EQ(r.exitCode, 1) << flag << "\n" << r.output;
  }
}

// A flag that takes a value must not swallow the next flag as its file
// name: the run exits 2 and writes nothing named after the swallowed flag.
TEST(ShardedIdentity, ValuedFlagRejectsAFlagAsItsValue) {
  const TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  const RunResult r =
      run("cd " + tmp.path().string() + " && " + BENCH_BIN_DIR +
          "/eq7_measured_vs_model --np 256 --telemetry --optrace");
  EXPECT_EQ(r.exitCode, 2) << r.output;
  for (const auto& e : fs::directory_iterator(tmp.path()))
    EXPECT_NE(e.path().filename().string().rfind("--optrace", 0), 0u)
        << "stray file " << e.path();
}

// Every announce line goes to stderr, so --trace and --metrics leave figure
// stdout byte-identical; --metrics still fills the MPI pair matrix.
TEST(ShardedIdentity, TraceAndMetricsLeaveStdoutUnchanged) {
  const TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  const std::string bench =
      std::string(BENCH_BIN_DIR) + "/eq7_measured_vs_model --np 256";
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

// --obs-dir writes each observation once: one JSON per artifact per stack,
// plus the trace's JSONL event log. eq7 at 256 ranks runs two stacks.
TEST(ShardedIdentity, ObsDirWritesOneFilePerArtifactAndStack) {
  const TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  const fs::path dir = tmp.path() / "obs";
  const RunResult r = run(std::string(BENCH_BIN_DIR) +
                          "/eq7_measured_vs_model --np 256 --obs-dir " +
                          dir.string());
  ASSERT_EQ(r.exitCode, 0) << r.output;
  const std::vector<std::string> expected = {
      "attr.2.json",     "attr.json",      "critpath.2.json",
      "critpath.json",   "metrics.2.json", "metrics.json",
      "optrace.2.json",  "optrace.json",   "telemetry.2.json",
      "telemetry.json",  "trace.2.json",   "trace.2.jsonl",
      "trace.json",      "trace.jsonl"};
  EXPECT_EQ(fileNames(dir), expected);
}
