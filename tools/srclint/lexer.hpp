// srclint lexer: a real (if deliberately small) C++ tokenizer.
//
// The line-regex srclint could not see past a single physical line, so every
// rule had to be expressible as "this token appears here". The scope-aware
// rules (coroutine lifetime, determinism, thread safety) need statements,
// balanced braces, and function extents, which in turn need honest handling
// of the three things that break naive scanners: comments (line and block,
// spanning lines), string literals (including raw strings, whose delimiters
// may contain quotes and parens), and preprocessor logical lines (with
// backslash continuations).
//
// The lexer produces:
//   * a token stream (identifiers, numbers, punctuation — multi-character
//     operators like `::`, `->`, `<<` are single tokens so rules never have
//     to re-disambiguate a range-for `:` from a scope `::`),
//   * the preprocessor lines, separately (they are line-oriented, not
//     token-oriented, and rules over them are too),
//   * per-line suppression sets parsed from comments — the allow escape
//     hatch: the marker, a parenthesized rule name, then `: <why>` — and
//   * the raw line text, for messages and baseline fingerprints.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace srclint {

enum class Tok : std::uint8_t {
  kIdent,    // identifiers and keywords (rules match on text)
  kNumber,   // numeric literals, including 0x/0b and digit separators
  kString,   // string literal (text is the *contents*, quotes stripped)
  kChar,     // character literal
  kPunct,    // operator / punctuator, possibly multi-character
};

struct Token {
  Tok kind = Tok::kPunct;
  std::string text;
  std::uint32_t line = 0;  // 1-based
  std::uint32_t col = 0;   // 0-based byte offset in the physical line
};

/// One preprocessor logical line (continuations folded, comments stripped).
struct PreprocLine {
  std::uint32_t line = 0;  // line of the introducing '#'
  std::string text;        // e.g. `#include "simcore/task.hpp"`
};

/// A suppression parsed from a comment: the rule name as written (validity
/// is the rule layer's business) and whether a justification followed.
struct Allow {
  std::string rule;
  bool justified = false;
};

struct LexedFile {
  std::string path;                    // as given to the lexer
  std::vector<std::string> rawLines;   // rawLines[i] is line i+1
  std::vector<Token> tokens;
  std::vector<PreprocLine> preproc;
  /// Comment-parsed suppressions keyed by the line the comment sits on.
  /// Association with code lines (same line, or comment-only line covering
  /// the next code line) is resolved by the rule engine, which knows which
  /// lines carry tokens.
  std::map<std::uint32_t, std::vector<Allow>> allows;
  bool ioError = false;
};

/// Lex a file from disk. Never throws; `ioError` reports open failures.
LexedFile lex(const std::string& path);

/// Lex from a string (unit tests and fixtures).
LexedFile lexString(const std::string& path, const std::string& contents);

bool isIdentStart(char c);
bool isIdentChar(char c);

}  // namespace srclint
