// Content-addressed run ledger: the cross-run observability substrate.
//
// Every other obs layer (attr, telemetry, optrace) sees one run. The ledger sees campaigns: tools/sweep executes a declarative config
// sweep and files each run under a content-addressed key, and
// `trace_report --campaign` rolls the stored perf records up into
// strategy-comparison and regression views. The key is
//
//   key = fnv1a64( canonicalJson(config) "\n" git_rev "\n" schemas )
//
// where `config` is the run's identity (bench basename, user args,
// repetition ordinal), `git_rev` pins the code that produced it, and
// `schemas` is the fingerprint of every artifact schema version this build
// writes. Re-running an unchanged config is a cache hit; a new git rev or
// a schema bump changes the key and naturally invalidates. `config_hash`
// (the config-only fnv) is the cross-rev identity used by
// `--campaign --diff` to line the same config up across two ledgers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace bgckpt::obs {

/// Schema tag of a bench's `--perf-json` record: per-run wall and event
/// counts, totals, and the wall time of each --threads prefetch region.
/// The ledger stores these records verbatim.
inline constexpr const char* kPerfSchemaVersion = "bgckpt-perf-1";

/// Schema tag of one ledger entry file (RunStore::put output).
inline constexpr const char* kLedgerSchemaVersion = "bgckpt-ledger-1";

/// Schema tag of a tools/sweep spec document.
inline constexpr const char* kSweepSchemaVersion = "bgckpt-sweep-1";

/// FNV-1a, 64-bit: the repo-wide content hash (stable, dependency-free,
/// good enough for addressing a few thousand configs, not for security).
std::uint64_t fnv1a64(std::string_view data);

/// 16-digit lowercase hex of a 64-bit hash: the ledger key format.
std::string hex16(std::uint64_t value);

/// Serialize a parsed JSON value canonically: object keys sorted
/// recursively, no whitespace, integral numbers as integers and the rest
/// as %.12g. Two spec files that differ only in key order or formatting
/// canonicalize — and therefore hash — identically.
std::string canonicalJson(const json::Value& value);

/// Comma-joined schema versions of every artifact this build writes
/// (telemetry, optrace, perf, ledger). Part of the ledger key: bumping any
/// schema invalidates cached runs that embed it.
std::string artifactSchemasFingerprint();

/// One stored run: the unit tools/sweep writes and --campaign reads.
struct LedgerEntry {
  std::string key;         // hex16 content address (file is <key>.json)
  std::string configHash;  // hex16 over the canonical config alone
  std::string gitRev;      // revision that produced the run
  std::string schemas;     // artifactSchemasFingerprint() at store time
  json::Value config;      // {"bench": ..., "args": [...], "rep": N}
  json::Value perf;        // the bench's --perf-json document, verbatim
  int exitCode = 0;
  double wallSeconds = 0;  // driver-observed wall time of the child

  /// Recompute this entry's content address from its own stored fields.
  std::string derivedKey() const;
};

/// Derive the ledger key for a config about to run under this build.
std::string ledgerKey(const json::Value& config, const std::string& gitRev,
                      const std::string& schemas);

/// A directory of `<key>.json` ledger entries. No index file: the key IS
/// the filename, so concurrent writers never contend and a partial write
/// is rejected by the integrity check on load instead of corrupting a
/// shared structure.
class RunStore {
 public:
  explicit RunStore(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }
  std::string entryPath(const std::string& key) const;

  /// True when an intact entry for `key` exists (the cache-hit probe:
  /// corrupt or tampered entries read as missing so they are re-run).
  bool contains(const std::string& key) const;

  /// Write one entry (creating the directory on first use). Returns false
  /// with a message in `err` on I/O failure.
  bool put(const LedgerEntry& entry, std::string* err) const;

  /// Load one entry and verify it: ledger schema, key == derivedKey()
  /// (config/rev/schemas tamper check), and payload hash (perf tamper
  /// check). Returns false with a message in `err` on any mismatch.
  bool load(const std::string& key, LedgerEntry* out, std::string* err) const;

  /// Load every intact `*.json` entry in the directory, sorted by key.
  /// Unreadable or corrupt entries are reported into `errors` and skipped.
  std::vector<LedgerEntry> loadAll(std::vector<std::string>* errors) const;

 private:
  std::string dir_;
};

}  // namespace bgckpt::obs
