// Minimal JSON parser: enough of RFC 8259 for the report-aggregation
// tooling to read back the artifacts this library writes (run.report.json,
// Chrome traces). Promoted from tests/json_test_util.h so production
// tools and tests share one implementation.
//
// Not a general-purpose parser: \uXXXX escapes are kept opaque (replaced
// by '?'), numbers are doubles (out-of-range magnitudes saturate to
// +/-inf the way strtod does), duplicate object keys keep the first.
//
// Hardened against hostile input: nesting deeper than kMaxDepth is
// rejected (bounds the recursion, so no stack overflow), \uXXXX escapes
// must carry exactly four hex digits, and truncated documents fail
// cleanly with ok() == false.

#ifndef MEMSTREAM_OBS_JSON_PARSER_H_
#define MEMSTREAM_OBS_JSON_PARSER_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace memstream::obs {

/// One parsed JSON value; a tagged tree.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  /// object[key].number, or `fallback` when absent.
  double Num(const std::string& key, double fallback = -1) const {
    const JsonValue* v = Find(key);
    return v != nullptr ? v->number : fallback;
  }
  /// object[key].string, or "" when absent.
  std::string Str(const std::string& key) const {
    const JsonValue* v = Find(key);
    return v != nullptr ? v->string : "";
  }
};

/// Single-use recursive-descent parser over a borrowed string.
class JsonParser {
 public:
  /// Deepest accepted object/array nesting; deeper input is rejected
  /// (ok() == false) instead of recursing without bound.
  static constexpr std::size_t kMaxDepth = 200;

  /// `text` must outlive the parser.
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parses the whole document; ok() reports success and full consumption.
  JsonValue Parse();
  bool ok() const { return ok_; }
  /// Byte offset of the failure (== text size on success).
  std::size_t error_pos() const { return pos_; }

 private:
  void SkipSpace();
  bool Consume(char c);
  bool ConsumeLiteral(const std::string& lit);
  JsonValue ParseValue();
  JsonValue ParseObject();
  JsonValue ParseArray();
  JsonValue ParseString();
  JsonValue ParseNumber();

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  bool ok_ = true;
};

/// Parses `text`; sets `*ok` (when non-null) to whether it was valid JSON.
JsonValue ParseJson(const std::string& text, bool* ok = nullptr);

}  // namespace memstream::obs

#endif  // MEMSTREAM_OBS_JSON_PARSER_H_
