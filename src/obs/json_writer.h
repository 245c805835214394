// Minimal streaming JSON writer (no external dependencies): enough for
// the RunReport. Handles string escaping, comma placement, and
// non-finite doubles (emitted as null, which every JSON parser accepts).

#ifndef MEMSTREAM_OBS_JSON_WRITER_H_
#define MEMSTREAM_OBS_JSON_WRITER_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace memstream::obs {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes).
std::string JsonEscape(const std::string& s);

/// Builder for one JSON document. Usage:
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("name"); w.String("disk");
///   w.Key("events"); w.BeginArray(); ... w.EndArray();
///   w.EndObject();
///   std::string doc = w.str();
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(const std::string& key);
  void String(const std::string& value);
  void Number(double value);
  void Int(std::int64_t value);
  void Bool(bool value);

  std::string str() const { return out_.str(); }

 private:
  /// Emits the separating comma if the current scope already has a value.
  void BeforeValue();

  std::ostringstream out_;
  // One flag per open scope: has a value already been written there?
  std::vector<bool> scope_has_value_;
  bool pending_key_ = false;
};

}  // namespace memstream::obs

#endif  // MEMSTREAM_OBS_JSON_WRITER_H_
