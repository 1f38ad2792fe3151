// Byte-identity gate for the parallel figure path: the figure benches
// must produce the SAME bytes — stdout and every --telemetry/--attr export —
// whether the simulation points run serially or prefetched on 8 threads.
// This is the determinism contract of bench/common.cpp's prefetch cache
// (FIFO consumption in program order, pre-assigned artifact ordinals,
// replayed perf records) over sim::parallelFor.
//
// Manifest sidecars (*.manifest.json) are excluded from the comparison:
// they record the exact argv of the run, which legitimately differs by the
// --threads flag itself.
//
// The file also holds the bench command-line contracts that need a built
// bench: a full disk fails --perf-json, a valued flag rejects a flag as its
// value, and observability flags leave stdout unchanged.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace {

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

bool isManifest(const fs::path& p) {
  return p.filename().string().find(".manifest.") != std::string::npos;
}

/// Comparable artifact filenames under dir, sorted.
std::vector<std::string> artifactNames(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && !isManifest(e.path()))
      names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
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

/// Runs `bench` twice (serial, then 8 worker threads) with telemetry and
/// attribution exports into separate directories, then requires stdout and
/// every exported artifact to be byte-identical. BOTH runs carry
/// --runtime-profile: the wall-clock profiler must not perturb stdout or
/// any simulated-time artifact. Its own JSON is wall-clock by nature, so
/// it is written OUTSIDE the compared directories (it is documented as
/// excluded from identity comparisons) — but it must exist and be
/// non-empty for both runs.
void expectByteIdentical(const std::string& bench, const std::string& args) {
  const TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  const fs::path serialDir = tmp.path() / "serial";
  const fs::path threadedDir = tmp.path() / "threaded";
  fs::create_directories(serialDir);
  fs::create_directories(threadedDir);

  const std::string bin = std::string(BENCH_BIN_DIR) + "/" + bench;
  const auto cmd = [&](const fs::path& dir, const char* threads) {
    return bin + " " + args + " --threads=" + threads + " --telemetry " +
           (dir / "telemetry.json").string() + " --attr " +
           (dir / "attr.json").string() + " --runtime-profile=" +
           (tmp.path() / (std::string("runtimeprof.") + threads + ".json"))
               .string();
  };

  const RunResult serial = run(cmd(serialDir, "1"));
  ASSERT_EQ(serial.exitCode, 0) << serial.output;
  const RunResult threaded = run(cmd(threadedDir, "8"));
  ASSERT_EQ(threaded.exitCode, 0) << threaded.output;

  EXPECT_EQ(serial.output, threaded.output)
      << bench << ": stdout differs between --threads=1 and --threads=8";

  const auto serialNames = artifactNames(serialDir);
  const auto threadedNames = artifactNames(threadedDir);
  ASSERT_EQ(serialNames, threadedNames)
      << bench << ": exported artifact sets differ";
  EXPECT_FALSE(serialNames.empty()) << bench << ": no artifacts exported";
  for (const auto& name : serialNames) {
    EXPECT_EQ(readFile(serialDir / name), readFile(threadedDir / name))
        << bench << ": artifact " << name << " differs between thread counts";
  }

  // The runtime profiles themselves were written (with manifests), just
  // not compared byte-for-byte: wall times differ run to run by design.
  for (const char* threads : {"1", "8"}) {
    const fs::path prof =
        tmp.path() / (std::string("runtimeprof.") + threads + ".json");
    EXPECT_FALSE(readFile(prof).empty())
        << bench << ": missing runtime profile for --threads=" << threads;
    EXPECT_FALSE(readFile(fs::path(prof.string() + ".manifest.json")).empty())
        << bench << ": missing runtime profile manifest";
  }
}

}  // namespace

TEST(ShardedIdentity, Fig5StdoutAndExportsMatchSerial) {
  expectByteIdentical("fig5_write_bandwidth", "--max-np 16384");
}

TEST(ShardedIdentity, Fig9StdoutAndExportsMatchSerial) {
  expectByteIdentical("fig9_dist_1pfpp", "");
}

// perfFlush's writers must report a full disk: the buffered report only
// reaches the device when fclose flushes it, so that is where it fails.
TEST(ShardedIdentity, PerfJsonOnFullDiskExitsNonzero) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const RunResult r = run(std::string(BENCH_BIN_DIR) +
                          "/fig9_dist_1pfpp --perf-json /dev/full");
  EXPECT_NE(r.exitCode, 0) << r.output;
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
