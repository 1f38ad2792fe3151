// End-to-end coverage for tools/srclint against the committed fixture tree
// (tests/tools/fixtures/srclint): one positive and one negative fixture per
// rule family, the minimized PR 3 ternary-co_await repro, the SARIF 2.1.0
// shape, and the baseline add/expire round trip. The binary and fixture
// directory come in as compile definitions from CMake.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

#ifndef TOOLS_BIN_DIR
#error "TOOLS_BIN_DIR must be defined by the build"
#endif
#ifndef TOOLS_FIXTURE_DIR
#error "TOOLS_FIXTURE_DIR must be defined by the build"
#endif

namespace {

namespace json = bgckpt::obs::json;

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

std::string srclint() { return std::string(TOOLS_BIN_DIR) + "/srclint"; }
std::string fx(const char* rel) {
  return std::string(TOOLS_FIXTURE_DIR) + "/srclint/" + rel;
}
std::string tmpPath(const char* name) {
  const char* t = std::getenv("TMPDIR");
  return std::string(t != nullptr ? t : "/tmp") + "/" + name;
}

bool has(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

int countOf(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (std::size_t p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + needle.size()))
    ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Rule positives and negatives, per family.
// ---------------------------------------------------------------------------

TEST(SrclintRules, HygieneFamilyPositives) {
  const auto r = run(srclint() + " " + fx("bad/src/simcore/hygiene_bad.cpp"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_EQ(countOf(r.output, "[raw-new]"), 2) << r.output;
  EXPECT_TRUE(has(r.output, "[priority-queue]")) << r.output;
  EXPECT_EQ(countOf(r.output, "[static-mutable]"), 3) << r.output;
  EXPECT_TRUE(has(r.output, "[shard-global-read]")) << r.output;
}

TEST(SrclintRules, HygieneFamilyNegatives) {
  const auto r = run(srclint() + " " + fx("ok/src/simcore/hygiene_ok.cpp"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(SrclintRules, SinkAndClockPositives) {
  const auto r = run(srclint() + " " + fx("bad/src/fssim/sinks_bad.cpp"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_TRUE(has(r.output, "[wall-clock]")) << r.output;
  // One for the call, one for the <cassert> include.
  EXPECT_EQ(countOf(r.output, "[assert]"), 2) << r.output;
  EXPECT_TRUE(has(r.output, "[obs-emit]")) << r.output;
  EXPECT_TRUE(has(r.output, "[optrace-mint]")) << r.output;
}

TEST(SrclintRules, SinkAndClockNegatives) {
  const auto r = run(srclint() + " " + fx("ok/src/fssim/sinks_ok.cpp"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

// The wall-clock rule's scoped allowlist (bench/common.*): the sanctioned
// path is clean with host clocks and no srclint:allow markers, and the
// carve-out does not leak to src/ or the rest of bench/.
TEST(SrclintRules, WallClockAllowlistedPathsAreClean) {
  const auto r = run(srclint() + " " + fx("ok/bench/common.cpp"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_EQ(countOf(r.output, "[wall-clock]"), 0) << r.output;
}

TEST(SrclintRules, WallClockCarveOutDoesNotLeak) {
  // src/obs measures simulated time only: both clock identifiers flagged.
  const auto obs = run(srclint() + " " + fx("bad/src/obs/timing_bad.cpp"));
  EXPECT_EQ(obs.exitCode, 1) << obs.output;
  EXPECT_EQ(countOf(obs.output, "[wall-clock]"), 2) << obs.output;
  // bench/ outside bench/common.*: flagged too (the rule now covers bench).
  const auto bench = run(srclint() + " " + fx("bad/bench/harness_bad.cpp"));
  EXPECT_EQ(bench.exitCode, 1) << bench.output;
  EXPECT_EQ(countOf(bench.output, "[wall-clock]"), 1) << bench.output;
  // Running the allowlisted and non-allowlisted files together changes
  // nothing: the carve-out is per-path, not per-invocation.
  const auto both = run(srclint() + " " + fx("ok/bench/common.cpp") + " " +
                        fx("bad/src/obs/timing_bad.cpp"));
  EXPECT_EQ(both.exitCode, 1) << both.output;
  EXPECT_EQ(countOf(both.output, "[wall-clock]"), 2) << both.output;
  EXPECT_FALSE(has(both.output, "common.cpp")) << both.output;
}

TEST(SrclintRules, Pr3TernaryCoAwaitReproIsFlagged) {
  const auto r =
      run(srclint() + " " + fx("bad/src/fssim/pr3_ternary_bad.cpp"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  // Both branches of the conditional carry a co_await.
  EXPECT_EQ(countOf(r.output, "[ternary-co-await]"), 2) << r.output;
}

TEST(SrclintRules, Pr3TernaryCorrectedVersionPasses) {
  const auto r = run(srclint() + " " + fx("ok/src/fssim/pr3_ternary_ok.cpp"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(SrclintRules, CoroutineLifetimePositives) {
  const auto r = run(srclint() + " " + fx("bad/src/fssim/coro_bad.cpp"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_TRUE(has(r.output, "[ternary-co-await]")) << r.output;  // range-for
  EXPECT_TRUE(has(r.output, "[coro-lambda-capture]")) << r.output;
  EXPECT_TRUE(has(r.output, "[coro-spawn-dangling]")) << r.output;
}

TEST(SrclintRules, CoroutineLifetimeNegatives) {
  const auto r = run(srclint() + " " + fx("ok/src/fssim/coro_ok.cpp"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(SrclintRules, DeterminismPositives) {
  const auto r = run(srclint() + " " + fx("bad/src/obs/unordered_bad.cpp"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  // printf loop, float accumulation, and the begin()-drain.
  EXPECT_EQ(countOf(r.output, "[det-unordered-iteration]"), 3) << r.output;
}

TEST(SrclintRules, DeterminismNegatives) {
  const auto r = run(srclint() + " " + fx("ok/src/obs/unordered_ok.cpp"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(SrclintRules, ShardGlobalReadResolvesAcrossFiles) {
  const auto r = run(srclint() + " " + fx("bad/src/obs/globals_decl.cpp") +
                     " " + fx("bad/src/simcore/reader_bad.cpp"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_TRUE(has(r.output, "[shard-global-read]")) << r.output;
  EXPECT_TRUE(has(r.output, "globals_decl.cpp")) << r.output;  // decl site
}

TEST(SrclintRules, IncludeHygienePositivesAndNegatives) {
  const auto bad = run(srclint() + " " + fx("bad/src/fssim/header_bad.hpp"));
  EXPECT_EQ(bad.exitCode, 1) << bad.output;
  EXPECT_EQ(countOf(bad.output, "[include-hygiene]"), 3) << bad.output;
  const auto ok = run(srclint() + " " + fx("ok/src/fssim/header_ok.hpp"));
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
}

// ---------------------------------------------------------------------------
// Suppression semantics.
// ---------------------------------------------------------------------------

TEST(SrclintAllow, BareAllowAndUnknownRuleAreFindings) {
  const auto r = run(srclint() + " " + fx("bad/src/fssim/allow_bad.cpp"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_TRUE(has(r.output, "[allow-needs-justification]")) << r.output;
  EXPECT_TRUE(has(r.output, "[allow-unknown-rule]")) << r.output;
  // Neither malformed allow suppresses the underlying finding.
  EXPECT_EQ(countOf(r.output, "[wall-clock]"), 2) << r.output;
}

TEST(SrclintAllow, JustifiedKnownAllowSuppresses) {
  const auto r = run(srclint() + " " + fx("ok/src/fssim/allow_ok.cpp"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

// ---------------------------------------------------------------------------
// Whole-tree fixture sweeps: the ok tree is clean, the bad tree is not.
// ---------------------------------------------------------------------------

TEST(SrclintTree, OkTreeIsClean) {
  const auto r = run(srclint() + " " + fx("ok"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_TRUE(has(r.output, "clean")) << r.output;
}

TEST(SrclintTree, BadTreeFailsWithCounts) {
  const auto r = run(srclint() + " --counts " + fx("bad"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  // The markdown count table lists every rule and a non-zero total.
  EXPECT_TRUE(has(r.output, "| rule | family | findings |")) << r.output;
  EXPECT_TRUE(has(r.output, "| `ternary-co-await` | coroutine-lifetime |"))
      << r.output;
  EXPECT_TRUE(has(r.output, "| **total** |")) << r.output;
  EXPECT_FALSE(has(r.output, "| **total** | | **0** |")) << r.output;
}

// ---------------------------------------------------------------------------
// CLI surface: --list-rules, --explain, usage.
// ---------------------------------------------------------------------------

TEST(SrclintCli, ListRulesNamesEveryFamily) {
  const auto r = run(srclint() + " --list-rules");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  for (const char* rule :
       {"ternary-co-await", "coro-lambda-capture", "coro-spawn-dangling",
        "det-unordered-iteration", "shard-global-read", "static-mutable",
        "wall-clock", "allow-unknown-rule",
        "baseline-stale"})
    EXPECT_TRUE(has(r.output, rule)) << rule << "\n" << r.output;
}

TEST(SrclintCli, ExplainKnownAndUnknownRule) {
  const auto known = run(srclint() + " --explain ternary-co-await");
  EXPECT_EQ(known.exitCode, 0) << known.output;
  EXPECT_TRUE(has(known.output, "GCC")) << known.output;
  const auto unknown = run(srclint() + " --explain no-such-rule");
  EXPECT_EQ(unknown.exitCode, 2) << unknown.output;
  const auto noArgs = run(srclint());
  EXPECT_EQ(noArgs.exitCode, 2) << noArgs.output;
}

// ---------------------------------------------------------------------------
// SARIF 2.1.0 shape.
// ---------------------------------------------------------------------------

TEST(SrclintSarif, ReportHasSarif210Shape) {
  const std::string sarifPath = tmpPath("srclint_shape.sarif");
  const auto r = run(srclint() + " --sarif " + sarifPath + " --root " +
                     fx("bad") + " " + fx("bad"));
  EXPECT_EQ(r.exitCode, 1) << r.output;

  std::ifstream in(sarifPath);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string parseError;
  const auto doc = json::parse(ss.str(), &parseError);
  ASSERT_TRUE(doc.has_value()) << parseError;

  EXPECT_EQ(doc->stringOr("version", ""), "2.1.0");
  EXPECT_TRUE(has(doc->stringOr("$schema", ""), "sarif-schema-2.1.0"));
  const auto* runs = doc->find("runs");
  ASSERT_TRUE(runs != nullptr && runs->isArray() && runs->array->size() == 1);
  const auto& runObj = runs->array->front();
  const auto* tool = runObj.find("tool");
  ASSERT_TRUE(tool != nullptr);
  const auto* driver = tool->find("driver");
  ASSERT_TRUE(driver != nullptr);
  EXPECT_EQ(driver->stringOr("name", ""), "srclint");
  const auto* rules = driver->find("rules");
  ASSERT_TRUE(rules != nullptr && rules->isArray());
  EXPECT_GE(rules->array->size(), 15u);
  bool sawTernary = false;
  for (const auto& rule : *rules->array) {
    EXPECT_FALSE(rule.stringOr("id", "").empty());
    ASSERT_TRUE(rule.find("shortDescription") != nullptr);
    if (rule.stringOr("id", "") == "ternary-co-await") sawTernary = true;
  }
  EXPECT_TRUE(sawTernary);

  const auto* results = runObj.find("results");
  ASSERT_TRUE(results != nullptr && results->isArray());
  ASSERT_FALSE(results->array->empty());
  for (const auto& res : *results->array) {
    EXPECT_FALSE(res.stringOr("ruleId", "").empty());
    EXPECT_EQ(res.stringOr("level", ""), "error");
    const auto* msg = res.find("message");
    ASSERT_TRUE(msg != nullptr);
    EXPECT_FALSE(msg->stringOr("text", "").empty());
    const auto* locs = res.find("locations");
    ASSERT_TRUE(locs != nullptr && locs->isArray() && !locs->array->empty());
    const auto* phys = locs->array->front().find("physicalLocation");
    ASSERT_TRUE(phys != nullptr);
    const auto* art = phys->find("artifactLocation");
    ASSERT_TRUE(art != nullptr);
    // --root makes artifact URIs repo-relative (no absolute paths in CI).
    const std::string uri = art->stringOr("uri", "");
    EXPECT_FALSE(uri.empty());
    EXPECT_NE(uri.front(), '/') << uri;
    const auto* region = phys->find("region");
    ASSERT_TRUE(region != nullptr);
    EXPECT_GE(region->numberOr("startLine", 0), 1.0);
    const auto* fps = res.find("partialFingerprints");
    ASSERT_TRUE(fps != nullptr);
    EXPECT_FALSE(fps->stringOr("srclintFingerprint/v1", "").empty());
  }
  std::remove(sarifPath.c_str());
}

// ---------------------------------------------------------------------------
// Baseline add / expire round trip.
// ---------------------------------------------------------------------------

TEST(SrclintBaseline, AddThenExpireRoundTrip) {
  const std::string basePath = tmpPath("srclint_roundtrip_baseline.json");
  // Add: capture every finding in the bad tree as the baseline.
  const auto writeRun = run(srclint() + " --root " + fx("bad") +
                            " --write-baseline " + basePath + " " + fx("bad"));
  EXPECT_EQ(writeRun.exitCode, 1) << writeRun.output;

  // With the baseline applied, the same tree is clean (exit 0).
  const auto cleanRun = run(srclint() + " --root " + fx("bad") +
                            " --baseline " + basePath + " " + fx("bad"));
  EXPECT_EQ(cleanRun.exitCode, 0) << cleanRun.output;
  EXPECT_TRUE(has(cleanRun.output, "clean")) << cleanRun.output;

  // Expire: against the (clean) ok tree every entry is stale, and stale
  // entries fail the run so the baseline cannot rot.
  const auto staleRun = run(srclint() + " --root " + fx("ok") +
                            " --baseline " + basePath + " " + fx("ok"));
  EXPECT_EQ(staleRun.exitCode, 1) << staleRun.output;
  EXPECT_TRUE(has(staleRun.output, "[baseline-stale]")) << staleRun.output;

  // A malformed baseline is a hard error, not a silent no-op.
  std::ofstream(basePath) << "{\"version\": \"bogus\"}";
  const auto badRun = run(srclint() + " --baseline " + basePath + " " +
                          fx("ok"));
  EXPECT_EQ(badRun.exitCode, 2) << badRun.output;
  std::remove(basePath.c_str());
}

}  // namespace
