// End-to-end coverage for the offline CLIs (tools/trace_report,
// tools/sweep) against small committed fixtures: exit codes and the key
// output lines each mode must produce. The binaries and fixture directory
// come in as compile definitions from CMake.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#ifndef TOOLS_BIN_DIR
#error "TOOLS_BIN_DIR must be defined by the build"
#endif
#ifndef TOOLS_FIXTURE_DIR
#error "TOOLS_FIXTURE_DIR must be defined by the build"
#endif
#ifndef BENCH_BIN_DIR
#error "BENCH_BIN_DIR must be defined by the build"
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
std::string sweepBin() { return std::string(TOOLS_BIN_DIR) + "/sweep"; }

/// Fresh scratch ledger directory per test, removed on destruction.
struct TempLedger {
  std::filesystem::path path;
  TempLedger() {
    path = std::filesystem::temp_directory_path() /
           ("tools_cli_ledger_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
  }
  ~TempLedger() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

TEST(TraceReportCli, SummaryModeReportsLayersAndBalance) {
  const auto r = run(traceReport() + " " + fixture("trace_coio.jsonl"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("span balance: OK"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("io"), std::string::npos);
  EXPECT_NE(r.output.find("mpi"), std::string::npos);
  EXPECT_NE(r.output.find("horizon 1.800 s"), std::string::npos) << r.output;
}

TEST(TraceReportCli, AttrModePartitionsPhases) {
  const auto r = run(traceReport() + " --attr " + fixture("trace_coio.jsonl"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("blocked-time attribution"), std::string::npos);
  // rank0 collective 0.6 minus the 0.1 token wait, plus rank1's 0.7.
  EXPECT_NE(r.output.find("barrier"), std::string::npos);
  EXPECT_NE(r.output.find("1.200"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("token_wait"), std::string::npos);
  EXPECT_NE(r.output.find("blocked"), std::string::npos);
}

TEST(TraceReportCli, AttrDiffComparesTwoRuns) {
  const auto r = run(traceReport() + " --attr " + fixture("trace_coio.jsonl") +
                     " --diff " + fixture("trace_rbio.jsonl"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("diff against"), std::string::npos);
  EXPECT_NE(r.output.find("A-B"), std::string::npos);
  EXPECT_NE(r.output.find("blocked-time ratio A/B"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("handoff_send"), std::string::npos);
}

TEST(TraceReportCli, CritPathModeRendersBuckets) {
  const auto r =
      run(traceReport() + " --critpath " + fixture("critpath_coio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("critical path"), std::string::npos);
  EXPECT_NE(r.output.find("path 1.800 s"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("delay"), std::string::npos);
  EXPECT_NE(r.output.find("fabric.cpp"), std::string::npos);
}

TEST(TraceReportCli, CritPathDiffComparesTwoRuns) {
  const auto r =
      run(traceReport() + " --critpath " + fixture("critpath_coio.json") +
          " --diff " + fixture("critpath_rbio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("A seconds"), std::string::npos);
  EXPECT_NE(r.output.find("fabric.cpp"), std::string::npos);
  EXPECT_NE(r.output.find("resource_grant"), std::string::npos) << r.output;
}

// critpath is gated on its schema like every other JSON artifact: another
// artifact handed to --critpath (here a telemetry export) is refused
// instead of rendering as an all-zero report.
TEST(TraceReportCli, CritPathRejectsWrongSchemaVersion) {
  const auto r =
      run(traceReport() + " --critpath " + fixture("telemetry_1pfpp.json"));
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("critpath schema \"bgckpt-telemetry-1\" not "
                          "supported"),
            std::string::npos)
      << r.output;
}

TEST(TraceReportCli, ErrorsAreUsageExitCode) {
  EXPECT_EQ(run(traceReport()).exitCode, 2);
  EXPECT_EQ(run(traceReport() + " --attr /nonexistent.jsonl").exitCode, 2);
  // --diff only makes sense with --attr/--critpath.
  EXPECT_EQ(run(traceReport() + " " + fixture("trace_coio.jsonl") +
                " --diff " + fixture("trace_rbio.jsonl"))
                .exitCode,
            2);
}

TEST(TraceReportCli, TimelineModeRendersHeatmapAndImbalance) {
  const auto r =
      run(traceReport() + " --timeline " + fixture("telemetry_1pfpp.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("telemetry timeline"), std::string::npos);
  EXPECT_NE(r.output.find("horizon 2.000 s, 4 buckets of 0.5 s, 2 series"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("stor.server.bytes (rate, 4 instances"),
            std::string::npos)
      << r.output;
  // Loads [6,2,1,1]: Jain = 100/168, skew = 6/2.5, share = 60%.
  EXPECT_NE(r.output.find("jain=0.595"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("max/mean=2.40"), std::string::npos);
  EXPECT_NE(r.output.find("max-share=60.0%"), std::string::npos);
  EXPECT_NE(r.output.find("busiest #0"), std::string::npos);
  // Instance 0's row saturates the shade scale somewhere.
  EXPECT_NE(r.output.find("@"), std::string::npos) << r.output;
}

TEST(TraceReportCli, TimelineDiffComparesImbalance) {
  const auto r =
      run(traceReport() + " --timeline " + fixture("telemetry_1pfpp.json") +
          " --diff " + fixture("telemetry_rbio.json"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("diff against"), std::string::npos);
  EXPECT_NE(r.output.find("A jain"), std::string::npos);
  EXPECT_NE(r.output.find("0.595"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0.962"), std::string::npos) << r.output;
}

TEST(TraceReportCli, TimelineRejectsWrongSchemaVersion) {
  const auto r =
      run(traceReport() + " --timeline " + fixture("telemetry_badschema.json"));
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("not supported"), std::string::npos) << r.output;
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
  EXPECT_EQ(run(traceReport() + " " + fixture("trace_coio.jsonl") + " --req 3")
                .exitCode,
            2);
  EXPECT_EQ(run(traceReport() + " --waterfall " + fixture("optrace_rbio.json") +
                " --diff " + fixture("optrace_coio.json") + " --req 3")
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
// tools/sweep + trace_report --campaign: the campaign ledger loop. The
// committed campaign_a / campaign_b fixtures are two-revision mini-ledgers
// produced by the real sweep tool (rev-a / rev-b) over the committed
// sweep_smoke.json spec.
// ---------------------------------------------------------------------------

TEST(SweepCli, SecondPassIsAllCacheHits) {
  TempLedger ledger;
  const std::string cmd = sweepBin() + " " + fixture("sweep_smoke.json") +
                          " --ledger " + ledger.str() + " --bench-dir " +
                          BENCH_BIN_DIR + " --git-rev test-rev --jobs 2";
  const auto first = run(cmd);
  EXPECT_EQ(first.exitCode, 0) << first.output;
  EXPECT_NE(first.output.find("(2 run, 0 cached, 0 failed)"),
            std::string::npos)
      << first.output;
  const auto second = run(cmd);
  EXPECT_EQ(second.exitCode, 0) << second.output;
  EXPECT_NE(second.output.find("(0 run, 2 cached, 0 failed)"),
            std::string::npos)
      << second.output;
  // A different revision derives different keys: everything re-runs.
  const auto newRev = run(sweepBin() + " " + fixture("sweep_smoke.json") +
                          " --ledger " + ledger.str() + " --bench-dir " +
                          BENCH_BIN_DIR + " --git-rev other-rev --jobs 2");
  EXPECT_EQ(newRev.exitCode, 0) << newRev.output;
  EXPECT_NE(newRev.output.find("(2 run, 0 cached, 0 failed)"),
            std::string::npos)
      << newRev.output;
}

TEST(SweepCli, LedgerFeedsCampaignRollup) {
  TempLedger ledger;
  const auto sweep = run(sweepBin() + " " + fixture("sweep_smoke.json") +
                         " --ledger " + ledger.str() + " --bench-dir " +
                         BENCH_BIN_DIR + " --git-rev test-rev --jobs 1");
  ASSERT_EQ(sweep.exitCode, 0) << sweep.output;
  const auto r = run(traceReport() + " --campaign " + ledger.str());
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("2 run(s), 2 distinct config(s)"),
            std::string::npos)
      << r.output;
  // The roll-up re-derives the bandwidth strings the bench printed,
  // byte-identically (the ledger stores the exact "%.2f GB/s" text).
  EXPECT_NE(r.output.find("0.26 GB/s"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0.15 GB/s"), std::string::npos) << r.output;
}

TEST(SweepCli, RejectsUnknownSpecSchema) {
  TempLedger ledger;
  const auto r = run(sweepBin() + " " + fixture("telemetry_badschema.json") +
                     " --ledger " + ledger.str());
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("not supported"), std::string::npos) << r.output;
}

TEST(CampaignCli, RendersBandwidthTableAndBestStrategyMatrix) {
  const auto r = run(traceReport() + " --campaign " + fixture("campaign_a"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("revision(s): rev-a"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("per-strategy bandwidth vs np"), std::string::npos)
      << r.output;
  // Byte-identical to the bench's own stdout at np=256: coIO nf=4 printed
  // "BW_coIO=0.26 GB/s", rbIO "BW_rbIO=0.15 GB/s".
  EXPECT_NE(r.output.find("0.26 GB/s"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0.15 GB/s"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("best strategy per (np, nf)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("coIO"), std::string::npos);
  EXPECT_NE(r.output.find("rbIO"), std::string::npos);
}

TEST(CampaignCli, DiffMatchesConfigsAcrossRevisions) {
  const auto r = run(traceReport() + " --campaign " + fixture("campaign_a") +
                     " --diff " + fixture("campaign_b"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("diff against"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("revision(s): rev-b"), std::string::npos)
      << r.output;
  // Same configs at both revisions pair up by config hash; the simulation
  // is deterministic, so event counts match exactly.
  EXPECT_NE(r.output.find("eq7_measured_vs_model --np 256"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("+0.00%"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("only in"), std::string::npos) << r.output;
}

TEST(CampaignCli, BaselineGatePassesOnIdenticalEventCounts) {
  const auto r = run(traceReport() + " --campaign " + fixture("campaign_b") +
                     " --baseline " + fixture("campaign_a"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("gating against"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("campaign gate [OK]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("2 gated: 2 ok, 0 failed, 0 skipped"),
            std::string::npos)
      << r.output;
}

TEST(CampaignCli, MissingLedgerAndUsageErrorsExitTwo) {
  EXPECT_EQ(run(traceReport() + " --campaign /nonexistent-ledger").exitCode,
            2);
  // --baseline only makes sense with --campaign, and not alongside --diff.
  EXPECT_EQ(run(traceReport() + " " + fixture("trace_coio.jsonl") +
                " --baseline " + fixture("campaign_a"))
                .exitCode,
            2);
  EXPECT_EQ(run(traceReport() + " --campaign " + fixture("campaign_a") +
                " --diff " + fixture("campaign_b") + " --baseline " +
                fixture("campaign_a"))
                .exitCode,
            2);
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
  EXPECT_EQ(run(traceReport() + " --critpath " +
                fixture("critpath_coio.json") + " --diff " +
                fixture("critpath_rbio.json") + " --min-speedup 2")
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
  // The first 400 bytes of perf_serial.json, cut mid-record. A record that
  // does not parse is an error, not a pass.
  EXPECT_EQ(run(runtimeGate("perf_serial.json", "perf_cut.json",
                            "--tolerance 0.5"))
                .exitCode,
            2);
}

}  // namespace
