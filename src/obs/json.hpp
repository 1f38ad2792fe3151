// Minimal recursive-descent JSON parser.
//
// Just enough JSON for this repo's own emitters: tools/trace_report parses
// the Chrome trace one event per line and every JSON export whole, and the
// obs tests validate that ChromeTraceSink's output is well-formed. Supports objects, arrays,
// strings (with the standard escapes; \uXXXX decodes the BMP, and
// surrogate pairs decode to astral-plane code points), numbers, booleans,
// and null. Not a general-purpose validator: it accepts some malformed
// numbers that strtod tolerates, and lone surrogates pass through.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bgckpt::obs::json {

class Value;
using Object = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::shared_ptr<Array> array;    // shared: Value stays cheaply copyable
  std::shared_ptr<Object> object;

  bool isNull() const { return type == Type::kNull; }
  bool isObject() const { return type == Type::kObject; }
  bool isArray() const { return type == Type::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// Convenience accessors with defaults.
  double numberOr(std::string_view key, double fallback) const;
  std::string stringOr(std::string_view key, const std::string& fallback) const;
};

/// Parse a complete document. Returns nullopt on any syntax error or
/// trailing garbage; `error`, when given, receives a description.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

}  // namespace bgckpt::obs::json
