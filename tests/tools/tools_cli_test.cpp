// End-to-end coverage for the offline CLI (tools/trace_report) against
// small committed fixtures: exit codes and the key output lines each mode
// must produce. The binary and fixture directories come in as compile
// definitions from CMake.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#ifndef TOOLS_BIN_DIR
#error "TOOLS_BIN_DIR must be defined by the build"
#endif
#ifndef TOOLS_FIXTURE_DIR
#error "TOOLS_FIXTURE_DIR must be defined by the build"
#endif

namespace {

struct RunResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run(const std::string& cmd) {
  RunResult r;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string traceReport() {
  return std::string(TOOLS_BIN_DIR) + "/trace_report";
}
std::string fixture(const char* name) {
  return std::string(TOOLS_FIXTURE_DIR) + "/" + name;
}

// trace_coio.json is a two-rank coIO Chrome trace; attr_coio.json and
// attr_rbio.json are the --attr exports of the same coIO events and of a
// two-rank rbIO run.
TEST(TraceReportCli, SummaryModeReportsLayersAndBalance) {
  const auto r = run(traceReport() + " " + fixture("trace_coio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("span balance: OK"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("io"), std::string::npos);
  EXPECT_NE(r.output.find("mpi"), std::string::npos);
  EXPECT_NE(r.output.find("horizon 1.800 s"), std::string::npos) << r.output;
}

// A run aborted by a SimChecker violation leaves its trace without the
// closing "]"; the summary reads it all the same.
TEST(TraceReportCli, SummaryModeReadsATraceCutBeforeItsClosingBracket) {
  std::ifstream in(fixture("trace_coio.json"));
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto bracket = text.rfind("\n]");
  ASSERT_NE(bracket, std::string::npos);
  text.erase(bracket + 1);
  const std::string cut = ::testing::TempDir() + "trace_coio_cut.json";
  std::ofstream(cut) << text;
  const auto r = run(traceReport() + " " + cut);
  std::remove(cut.c_str());
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("13 events on 5 layers, horizon 1.800 s"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("span balance: OK"), std::string::npos) << r.output;
}

TEST(TraceReportCli, AttrModePartitionsPhases) {
  const auto r = run(traceReport() + " --attr " + fixture("attr_coio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("blocked-time attribution"), std::string::npos);
  // rank0 collective 0.6 minus the 0.1 token wait, plus rank1's 0.7.
  EXPECT_NE(r.output.find("barrier"), std::string::npos);
  EXPECT_NE(r.output.find("1.200"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("token_wait"), std::string::npos);
  EXPECT_NE(r.output.find("blocked"), std::string::npos);
}

// A checkpoint's makespan is its slowest rank's blocked time, so --attr
// names that rank and its phases, largest first. In the rbIO fixture the
// writer (rank 0) is blocked for the whole 1.560 s horizon, nearly all of
// it writing.
TEST(TraceReportCli, AttrModeNamesTheSlowestRank) {
  const auto r = run(traceReport() + " --attr " + fixture("attr_rbio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("slowest rank 0: blocked 1.560 s (write 1.500 s, "
                          "metadata 0.030 s,"),
            std::string::npos)
      << r.output;
}

TEST(TraceReportCli, AttrDiffComparesTwoRuns) {
  const auto r = run(traceReport() + " --attr " + fixture("attr_coio.json") +
                     " --diff " + fixture("attr_rbio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("diff against"), std::string::npos);
  EXPECT_NE(r.output.find("A-B"), std::string::npos);
  EXPECT_NE(r.output.find("blocked-time ratio A/B"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("handoff_send"), std::string::npos);
  // coIO's two ranks tie at 1.800 s blocked; the lower rank is named.
  EXPECT_NE(r.output.find("\nA slowest rank 0: blocked 1.800 s"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\nB slowest rank 0: blocked 1.560 s"),
            std::string::npos)
      << r.output;
}

// --attr takes the attribution export, gated on its schema like every other
// JSON artifact.
TEST(TraceReportCli, AttrRejectsWrongSchemaVersion) {
  const auto r =
      run(traceReport() + " --attr " + fixture("optrace_coio.json"));
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("attr schema \"bgckpt-optrace-1\" not "
                          "supported"),
            std::string::npos)
      << r.output;
}

TEST(TraceReportCli, ErrorsAreUsageExitCode) {
  EXPECT_EQ(run(traceReport()).exitCode, 2);
  EXPECT_EQ(run(traceReport() + " --attr /nonexistent.json").exitCode, 2);
  EXPECT_EQ(run(traceReport() + " --timeline " + fixture("attr_coio.json"))
                .exitCode,
            2);
  EXPECT_EQ(run(traceReport() + " --critpath f.json").exitCode, 2);
  // The summary of one trace has nothing to --diff against; every other
  // mode does.
  EXPECT_EQ(run(traceReport() + " " + fixture("trace_coio.json") +
                " --diff " + fixture("trace_coio.json"))
                .exitCode,
            2);
}

TEST(TraceReportCli, WaterfallModeRendersHopTableAndLineage) {
  const auto r =
      run(traceReport() + " --waterfall " + fixture("optrace_rbio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("op trace:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("66560 requests minted, 66560 completed "
                          "(0 unfinished)"),
            std::string::npos)
      << r.output;
  // fig11 at np=65536, nf=1024: every writer aggregates exactly 64 blocks.
  EXPECT_NE(r.output.find("fan-in min/p50/max = 64/64/64"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("server_queue"), std::string::npos);
  EXPECT_NE(r.output.find("ddn_commit"), std::string::npos);
  EXPECT_NE(r.output.find("tail waterfalls"), std::string::npos) << r.output;
}

// Acceptance: the hop table must localize >= 80% of the commit path's p99
// end-to-end latency to the handoff / fs-server hops the paper blames.
TEST(TraceReportCli, WaterfallLocalizesTailToPaperHops) {
  const auto r =
      run(traceReport() + " --waterfall " + fixture("optrace_rbio.json"));
  ASSERT_EQ(r.exitCode, 0) << r.output;
  const std::string key = "p99 localization (op commit): ";
  const auto at = r.output.find(key);
  ASSERT_NE(at, std::string::npos) << r.output;
  const auto eq = r.output.find(" = ", at);
  const auto pct = r.output.find("% of e2e p99", at);
  ASSERT_NE(eq, std::string::npos) << r.output;
  ASSERT_NE(pct, std::string::npos) << r.output;
  EXPECT_GE(std::stod(r.output.substr(eq + 3, pct - eq - 3)), 80.0)
      << r.output;
  // Every hop named in the localization must be one the paper blames.
  std::string hops = r.output.substr(at + key.size(), eq - at - key.size());
  std::size_t pos = 0;
  while (pos <= hops.size()) {
    const auto plus = hops.find(" + ", pos);
    const std::string hop = hops.substr(
        pos, plus == std::string::npos ? std::string::npos : plus - pos);
    EXPECT_TRUE(hop == "handoff_recv" || hop == "server_queue" ||
                hop == "server_service")
        << "unexpected hop in localization: " << hop;
    if (plus == std::string::npos) break;
    pos = plus + 3;
  }
}

TEST(TraceReportCli, WaterfallReqRendersChosenRequest) {
  const auto r = run(traceReport() + " --waterfall " +
                     fixture("optrace_rbio.json") + " --req 36864");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("request 36864: op=handoff"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("handoff_send"), std::string::npos);
  EXPECT_NE(r.output.find("net_inject"), std::string::npos);
}

TEST(TraceReportCli, WaterfallReqNotRetainedExitsOne) {
  const auto r = run(traceReport() + " --waterfall " +
                     fixture("optrace_rbio.json") + " --req 99999999");
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("request 99999999 not retained"), std::string::npos)
      << r.output;
}

TEST(TraceReportCli, WaterfallDiffComparesHopTables) {
  const auto r =
      run(traceReport() + " --waterfall " + fixture("optrace_rbio.json") +
          " --diff " + fixture("optrace_coio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("diff against"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("A p99"), std::string::npos);
  EXPECT_NE(r.output.find("(e2e)"), std::string::npos);
  EXPECT_NE(r.output.find("server_queue"), std::string::npos);
}

TEST(TraceReportCli, WaterfallRejectsWrongSchemaVersion) {
  const auto r =
      run(traceReport() + " --waterfall " + fixture("optrace_badschema.json"));
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("not supported"), std::string::npos) << r.output;
}

TEST(TraceReportCli, WaterfallReqUsageErrors) {
  // --req only makes sense with --waterfall, and not alongside --diff.
  EXPECT_EQ(run(traceReport() + " " + fixture("trace_coio.json") + " --req 3")
                .exitCode,
            2);
  EXPECT_EQ(run(traceReport() + " --waterfall " + fixture("optrace_rbio.json") +
                " --diff " + fixture("optrace_coio.json") + " --req 3")
                .exitCode,
            2);
  // Numbers parse whole: a word or a trailing unit is a usage error, not
  // request 0 or the numeric prefix.
  EXPECT_EQ(run(traceReport() + " --waterfall " + fixture("optrace_rbio.json") +
                " --req abc")
                .exitCode,
            2);
  EXPECT_EQ(run(traceReport() + " " + fixture("trace_coio.json") +
                " --bins 10x")
                .exitCode,
            2);
}

// perf_regions.json is a --threads=8 perf record: five fig5 points
// prefetched in one parallel region.
TEST(TraceReportCli, RuntimeModeDecomposesParallelRegion) {
  const auto r =
      run(traceReport() + " --runtime " + fixture("perf_regions.json"));
  ASSERT_EQ(r.exitCode, 0) << r.output;
  // The slowest point is named as the cap on the region.
  EXPECT_NE(r.output.find("critical point: np=65536 coIO nf=1 (3.500 s"),
            std::string::npos)
      << r.output;
  // speedup = 10s of work / 4s wall; ceiling = 10 / max(3.5, 10/8).
  EXPECT_NE(r.output.find("parallel efficiency: speedup 2.50x of 8 threads "
                          "(31.2%); serial fraction 0.35 -> Amdahl ceiling "
                          "2.86x"),
            std::string::npos)
      << r.output;
  // Jobs list slowest first (2.5 s before the 2.0 s job 0); the per-point
  // table follows the runs.
  EXPECT_LT(r.output.find("np=65536 coIO nf=256\n"),
            r.output.find("np=65536 1PFPP (nf=np)\n"))
      << r.output;
  EXPECT_NE(r.output.find("10406468"), std::string::npos) << r.output;
}

TEST(TraceReportCli, RuntimeDiffComparesPoints) {
  const auto r =
      run(traceReport() + " --runtime " + fixture("perf_regions.json") +
          " --diff " + fixture("perf_regions.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("diff against"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("np=65536 coIO nf=1"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1.00x"), std::string::npos) << r.output;
}

TEST(TraceReportCli, RuntimeRejectsWrongSchemaVersion) {
  const auto r =
      run(traceReport() + " --runtime " + fixture("perf_badschema.json"));
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("not supported"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// trace_report --runtime --diff as a gate (--tolerance F, --min-speedup X):
// identical runs and event counts, and an elapsed-wall bound.
// ---------------------------------------------------------------------------

std::string runtimeGate(const char* a, const char* b,
                        const std::string& bound) {
  return traceReport() + " --runtime " + fixture(a) + " --diff " + fixture(b) +
         " " + bound;
}

TEST(RuntimeGateCli, PassesWhenEventsMatch) {
  const auto r = run(runtimeGate("perf_base.json", "perf_same.json",
                                 "--tolerance 0.15"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("runtime gate [OK]: 2 runs, labels and event "
                          "counts identical"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("runtime gate [OK]: elapsed wall 0.300 s -> "
                          "0.300 s"),
            std::string::npos)
      << r.output;
}

TEST(RuntimeGateCli, FailsOnEventRegression) {
  const auto r = run(runtimeGate("perf_base.json", "perf_regressed.json",
                                 "--tolerance 0.15"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("runtime gate [FAIL]: run 0: \"np=256 coIO\" 10000 "
                          "events vs \"np=256 coIO\" 25000 events"),
            std::string::npos)
      << r.output;
}

// One event more in one run fails however loose the wall bound: the
// simulation is deterministic, so a tracer that schedules one event
// changed the work done.
TEST(RuntimeGateCli, OneEventOfDriftFailsUnderAnyTolerance) {
  const auto r = run(runtimeGate("perf_serial.json", "perf_one_event.json",
                                 "--tolerance 0.5"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("runtime gate [FAIL]: run 1: \"np=16384 coIO "
                          "nf=1\" 2601617 events vs \"np=16384 coIO nf=1\" "
                          "2601618 events"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("runtime gate [OK]: elapsed wall 6.000 s -> "
                          "6.000 s"),
            std::string::npos)
      << r.output;
}

// perf_prefetch.json is shaped like a real --threads=4 record: every run's
// wall is as long as or longer than its serial twin (the runs contend), and
// the one prefetch region took a third of the serial total. The speedup is
// the region's, 6 s / 2 s, not the ratio of summed per-run walls.
TEST(RuntimeGateCli, MinSpeedupTimesTheParallelRegion) {
  const auto r = run(runtimeGate("perf_serial.json", "perf_prefetch.json",
                                 "--min-speedup 2"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("runtime gate [OK]: 5 runs, labels and event "
                          "counts identical"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("runtime gate [OK]: elapsed wall 6.000 s -> "
                          "2.000 s, speedup 3.00x (required >= 2.00x)"),
            std::string::npos)
      << r.output;
}

TEST(RuntimeGateCli, MinSpeedupFailsWhenParallelIsNotFasterEnough) {
  const auto r = run(runtimeGate("perf_base.json", "perf_same.json",
                                 "--min-speedup 3"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("runtime gate [FAIL]: elapsed wall 0.300 s -> "
                          "0.300 s, speedup 1.00x"),
            std::string::npos)
      << r.output;
}

TEST(RuntimeGateCli, UsageAndMissingFilesExitTwo) {
  // A bound needs a record to compare against, and only --runtime has one.
  EXPECT_EQ(run(traceReport() + " --runtime " + fixture("perf_base.json") +
                " --min-speedup 2")
                .exitCode,
            2);
  EXPECT_EQ(run(traceReport() + " --runtime " + fixture("perf_base.json") +
                " --tolerance 0.5")
                .exitCode,
            2);
  EXPECT_EQ(run(traceReport() + " --attr " + fixture("attr_coio.json") +
                " --diff " + fixture("attr_rbio.json") + " --min-speedup 2")
                .exitCode,
            2);
  EXPECT_EQ(run(runtimeGate("perf_base.json", "perf_same.json",
                            "--min-speedup 0"))
                .exitCode,
            2);
  EXPECT_EQ(run(traceReport() + " --runtime " + fixture("perf_base.json") +
                " --diff /nonexistent.json --tolerance 0.5")
                .exitCode,
            2);
  // A bound parses whole: "abc" is not a 0% tolerance, "2x" not 2.
  EXPECT_EQ(run(runtimeGate("perf_serial.json", "perf_serial.json",
                            "--tolerance abc"))
                .exitCode,
            2);
  EXPECT_EQ(run(runtimeGate("perf_serial.json", "perf_serial.json",
                            "--min-speedup 2x"))
                .exitCode,
            2);
  // The first 400 bytes of perf_serial.json, cut mid-record. A record that
  // does not parse is an error, not a pass.
  EXPECT_EQ(run(runtimeGate("perf_serial.json", "perf_cut.json",
                            "--tolerance 0.5"))
                .exitCode,
            2);
}

}  // namespace
