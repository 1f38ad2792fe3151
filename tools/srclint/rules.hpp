// srclint rule passes.
//
// Every rule encodes one of *this* project's invariants — things no generic
// linter knows to look for. The original token rules ride on the new lexer
// (so string literals and comments can never fool them again); the
// scope-aware families — coroutine lifetime, determinism, thread safety —
// need the ScopeModel and, for shard-global-read, the whole file set.
//
// Run `srclint --list-rules` for the catalog and `--explain <name>` for the
// full rationale of any rule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "scopes.hpp"

namespace srclint {

struct Finding {
  std::string file;  // as lexed (relativization is the report layer's job)
  std::uint32_t line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* name;
  const char* family;   // coroutine-lifetime / determinism / thread-safety /
                        // hygiene / meta
  const char* summary;  // one line, for --list-rules and SARIF
  const char* explain;  // full rationale, for --explain
};

const std::vector<RuleInfo>& ruleRegistry();
const RuleInfo* findRule(const std::string& name);

/// A lexed + scope-modeled file with its path-derived rule scopes.
struct AnalyzedFile {
  LexedFile lex;
  ScopeModel scopes;
  bool inSrc = false;
  bool inBench = false;
  /// Path is on the wall-clock rule's built-in allowlist (bench/common.*,
  /// the one sanctioned real-time site). A scoped rule option instead of
  /// scattering srclint:allow markers through a file whose purpose is
  /// wall-clock measurement.
  bool wallClockAllowed = false;
  bool inSimcore = false;
  bool inNetsim = false;
  bool inObs = false;
  bool inIolib = false;
  bool isHeader = false;
};

AnalyzedFile analyze(LexedFile lexed);

/// Run every rule over the file set. Suppressions (`srclint:allow`) are
/// applied here — a justified allow naming a known rule on the finding's
/// line (or on a comment-only line directly above) removes the finding;
/// unjustified or unknown-rule allows are findings themselves. Output is
/// sorted by (file, line, rule).
std::vector<Finding> runRules(const std::vector<AnalyzedFile>& files);

}  // namespace srclint
