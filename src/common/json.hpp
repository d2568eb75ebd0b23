// The repository's one JSON reader: a strict parser into a small DOM,
// shared by the trace reader, the profile reader, the perf gate and the
// daemon's wire protocol.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gridvc {

/// Minimal JSON document node (subset: no duplicate-key handling; \u
/// escapes outside ASCII decode to '?').
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Object member by key; nullptr when absent or not an object.
  const Json* get(const std::string& key) const;
  /// Object member by key; throws ParseError when absent.
  const Json& at(const std::string& key) const;
  /// Member `key` as a number, a string, or an integer in [0, 2^64).
  /// Throws ParseError when it is absent or not of that kind.
  double number_at(const std::string& key) const;
  const std::string& string_at(const std::string& key) const;
  std::uint64_t uint64_at(const std::string& key) const;
};

/// Parse a complete JSON document. Throws ParseError on malformed input,
/// a number that does not fit a double, or trailing garbage.
Json parse_json(const std::string& text);

}  // namespace gridvc
