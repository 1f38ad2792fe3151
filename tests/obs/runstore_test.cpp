// Unit coverage for the content-addressed run ledger (obs/runstore):
// canonicalization and hash stability, the key derivation that drives
// sweep's cache hits, put/load round trips, and the integrity checks that
// make corrupt entries read as cache misses instead of poisoning
// `--campaign` roll-ups.
#include "obs/runstore.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace obs = bgckpt::obs;
namespace json = bgckpt::obs::json;
namespace fs = std::filesystem;

namespace {

json::Value parse(const std::string& text) {
  std::string err;
  const auto v = json::parse(text, &err);
  EXPECT_TRUE(v) << err << " in: " << text;
  return v ? *v : json::Value{};
}

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("runstore_test_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

obs::LedgerEntry makeEntry(const std::string& gitRev = "rev-a") {
  obs::LedgerEntry e;
  e.config = parse(R"({"bench":"eq7","args":["--np","256"],"rep":1})");
  e.configHash = obs::hex16(obs::fnv1a64(obs::canonicalJson(e.config)));
  e.gitRev = gitRev;
  e.schemas = obs::artifactSchemasFingerprint();
  e.key = obs::ledgerKey(e.config, e.gitRev, e.schemas);
  e.perf = parse(R"({"total":{"events":42,"wall_seconds":0.5}})");
  e.exitCode = 0;
  e.wallSeconds = 0.75;
  return e;
}

std::string readFile(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeFile(const fs::path& p, const std::string& text) {
  std::ofstream out(p);
  out << text;
}

// ---------------------------------------------------------------------------
// Canonicalization + hashing: the identity layer under the cache.
// ---------------------------------------------------------------------------

TEST(RunStoreHash, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64 vectors.
  EXPECT_EQ(obs::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(obs::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(obs::fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(obs::hex16(0xcbf29ce484222325ull), "cbf29ce484222325");
  EXPECT_EQ(obs::hex16(0x1ull), "0000000000000001");
}

TEST(RunStoreHash, CanonicalJsonSortsKeysRecursively) {
  const auto a = parse(R"({"b":1,"a":{"y":2,"x":3}})");
  const auto b = parse(R"({ "a" : { "x" : 3, "y" : 2 }, "b" : 1 })");
  EXPECT_EQ(obs::canonicalJson(a), R"({"a":{"x":3,"y":2},"b":1})");
  EXPECT_EQ(obs::canonicalJson(a), obs::canonicalJson(b));
}

TEST(RunStoreHash, CanonicalJsonNumbersIntegralVsReal) {
  const auto v = parse(R"({"i":256,"neg":-4,"r":0.25})");
  EXPECT_EQ(obs::canonicalJson(v), R"({"i":256,"neg":-4,"r":0.25})");
}

TEST(RunStoreHash, LedgerKeyStableAcrossKeyOrdering) {
  const auto a = parse(R"({"bench":"eq7","args":["--np","256"],"rep":1})");
  const auto b = parse(R"({"rep":1,"args":["--np","256"],"bench":"eq7"})");
  EXPECT_EQ(obs::ledgerKey(a, "rev", "s"), obs::ledgerKey(b, "rev", "s"));
}

TEST(RunStoreHash, LedgerKeyChangesWithRevAndSchemas) {
  const auto cfg = parse(R"({"bench":"eq7","rep":1})");
  const std::string base = obs::ledgerKey(cfg, "rev-a", "s1");
  EXPECT_NE(base, obs::ledgerKey(cfg, "rev-b", "s1"));
  EXPECT_NE(base, obs::ledgerKey(cfg, "rev-a", "s2"));
  EXPECT_EQ(base, obs::ledgerKey(cfg, "rev-a", "s1"));
}

TEST(RunStoreHash, FingerprintEmbedsEveryArtifactSchema) {
  const std::string fp = obs::artifactSchemasFingerprint();
  EXPECT_EQ(fp,
            "bgckpt-telemetry-1,bgckpt-optrace-1,bgckpt-perf-1,"
            "bgckpt-ledger-1");
}

// ---------------------------------------------------------------------------
// Store round trip + cache-hit probe.
// ---------------------------------------------------------------------------

TEST(RunStoreIo, PutLoadRoundTrip) {
  TempDir tmp;
  const obs::RunStore store(tmp.path.string());
  const auto e = makeEntry();
  std::string err;
  ASSERT_TRUE(store.put(e, &err)) << err;
  obs::LedgerEntry back;
  ASSERT_TRUE(store.load(e.key, &back, &err)) << err;
  EXPECT_EQ(back.key, e.key);
  EXPECT_EQ(back.configHash, e.configHash);
  EXPECT_EQ(back.gitRev, "rev-a");
  EXPECT_EQ(back.exitCode, 0);
  EXPECT_NEAR(back.wallSeconds, 0.75, 1e-9);
  EXPECT_EQ(obs::canonicalJson(back.config), obs::canonicalJson(e.config));
  EXPECT_EQ(obs::canonicalJson(back.perf), obs::canonicalJson(e.perf));
  EXPECT_EQ(back.derivedKey(), back.key);
}

TEST(RunStoreIo, ContainsIsTheCacheProbe) {
  TempDir tmp;
  const obs::RunStore store(tmp.path.string());
  const auto e = makeEntry();
  EXPECT_FALSE(store.contains(e.key));  // miss before put
  std::string err;
  ASSERT_TRUE(store.put(e, &err)) << err;
  EXPECT_TRUE(store.contains(e.key));  // hit after
  // A different revision derives a different key: natural invalidation.
  const auto e2 = makeEntry("rev-b");
  EXPECT_NE(e2.key, e.key);
  EXPECT_FALSE(store.contains(e2.key));
}

TEST(RunStoreIo, LoadAllSortsByKeyAndSkipsNonEntries) {
  TempDir tmp;
  const obs::RunStore store(tmp.path.string());
  std::string err;
  const auto a = makeEntry("rev-a");
  const auto b = makeEntry("rev-b");
  ASSERT_TRUE(store.put(a, &err)) << err;
  ASSERT_TRUE(store.put(b, &err)) << err;
  fs::create_directories(tmp.path / "work");  // sweep scratch: not an entry
  writeFile(tmp.path / "work" / "x.json", "{}");
  std::vector<std::string> errors;
  const auto all = store.loadAll(&errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(all.size(), 2u);
  EXPECT_LT(all[0].key, all[1].key);
}

// ---------------------------------------------------------------------------
// Integrity: tampered or truncated entries must read as cache misses.
// ---------------------------------------------------------------------------

TEST(RunStoreIntegrity, TamperedPerfIsRejected) {
  TempDir tmp;
  const obs::RunStore store(tmp.path.string());
  const auto e = makeEntry();
  std::string err;
  ASSERT_TRUE(store.put(e, &err)) << err;
  const fs::path file = store.entryPath(e.key);
  std::string text = readFile(file);
  const auto pos = text.find("\"events\":42");
  ASSERT_NE(pos, std::string::npos) << text;
  text.replace(pos, 11, "\"events\":43");
  writeFile(file, text);
  obs::LedgerEntry back;
  EXPECT_FALSE(store.load(e.key, &back, &err));
  EXPECT_NE(err.find("payload"), std::string::npos) << err;
  EXPECT_FALSE(store.contains(e.key));  // tamper = miss = re-run
}

TEST(RunStoreIntegrity, TamperedConfigIsRejected) {
  TempDir tmp;
  const obs::RunStore store(tmp.path.string());
  const auto e = makeEntry();
  std::string err;
  ASSERT_TRUE(store.put(e, &err)) << err;
  std::string text = readFile(store.entryPath(e.key));
  const auto pos = text.find("rev-a");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "rev-X");  // key no longer matches derivedKey()
  writeFile(store.entryPath(e.key), text);
  obs::LedgerEntry back;
  EXPECT_FALSE(store.load(e.key, &back, &err));
  EXPECT_FALSE(store.contains(e.key));
}

TEST(RunStoreIntegrity, TruncatedEntryIsRejectedAndReportedByLoadAll) {
  TempDir tmp;
  const obs::RunStore store(tmp.path.string());
  const auto e = makeEntry();
  std::string err;
  ASSERT_TRUE(store.put(e, &err)) << err;
  const std::string text = readFile(store.entryPath(e.key));
  writeFile(store.entryPath(e.key), text.substr(0, text.size() / 2));
  EXPECT_FALSE(store.contains(e.key));
  std::vector<std::string> errors;
  const auto all = store.loadAll(&errors);
  EXPECT_TRUE(all.empty());
  ASSERT_EQ(errors.size(), 1u);
}

TEST(RunStoreIntegrity, MissingKeyLoadFails) {
  TempDir tmp;
  const obs::RunStore store(tmp.path.string());
  obs::LedgerEntry back;
  std::string err;
  EXPECT_FALSE(store.load("0123456789abcdef", &back, &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
