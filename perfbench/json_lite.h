// Minimal JSON reader and string escaper for the benchmark's own use.
//
// The benchmark decodes the server's responses with this parser rather
// than the program's serve/json_util, so a fault in the program's JSON
// layer cannot hide itself from the correctness checks.
#ifndef KPEF_PERFBENCH_JSON_LITE_H_
#define KPEF_PERFBENCH_JSON_LITE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  /// First member named `key` of an object, or nullptr.
  const Json* Get(std::string_view key) const;
  /// Number member `key`, or `fallback` when absent or not a number.
  double NumberOr(std::string_view key, double fallback) const;
};

/// Parses one JSON document (surrounding whitespace allowed). Returns
/// false on any syntax error or trailing bytes.
bool ParseJson(std::string_view text, Json* out);

/// Appends `s` as a quoted JSON string.
void AppendQuoted(std::string_view s, std::string* out);

}  // namespace perfbench

#endif  // KPEF_PERFBENCH_JSON_LITE_H_
