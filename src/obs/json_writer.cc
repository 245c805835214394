#include "obs/json_writer.h"

#include <cmath>
#include <cstdio>

namespace memstream::obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already placed the comma
  }
  if (!scope_has_value_.empty()) {
    if (scope_has_value_.back()) out_ << ',';
    scope_has_value_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ << '{';
  scope_has_value_.push_back(false);
}

void JsonWriter::EndObject() {
  out_ << '}';
  scope_has_value_.pop_back();
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ << '[';
  scope_has_value_.push_back(false);
}

void JsonWriter::EndArray() {
  out_ << ']';
  scope_has_value_.pop_back();
}

void JsonWriter::Key(const std::string& key) {
  if (!scope_has_value_.empty()) {
    if (scope_has_value_.back()) out_ << ',';
    scope_has_value_.back() = true;
  }
  out_ << '"' << JsonEscape(key) << "\":";
  pending_key_ = true;
}

void JsonWriter::String(const std::string& value) {
  BeforeValue();
  out_ << '"' << JsonEscape(value) << '"';
}

void JsonWriter::Number(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ << buf;
}

void JsonWriter::Int(std::int64_t value) {
  BeforeValue();
  out_ << value;
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ << (value ? "true" : "false");
}

}  // namespace memstream::obs
