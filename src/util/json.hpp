// Minimal JSON writer (no external dependencies): enough to serialize
// result structs for machine consumption (CLI --json, CI pipelines).
// Write-only by design — the library never needs to parse JSON.

#pragma once

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

namespace qsimec::util {

/// Append `s` to `out` as the body of a JSON string literal, without the
/// quotes: the quote, the backslash, newline, tab and carriage return get
/// their short escapes, the other bytes below 0x20 a `\u00XX` escape, and
/// every other byte passes through. The one escaper behind JsonWriter,
/// journal lines and Chrome traces.
inline void appendJsonEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
    case '"':
      out += "\\\"";
      break;
    case '\\':
      out += "\\\\";
      break;
    case '\n':
      out += "\\n";
      break;
    case '\t':
      out += "\\t";
      break;
    case '\r':
      out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
        out += buffer;
      } else {
        out += c;
      }
    }
  }
}

class JsonWriter {
public:
  JsonWriter& beginObject() {
    separator();
    out_ << '{';
    first_ = true;
    return *this;
  }
  JsonWriter& endObject() {
    out_ << '}';
    first_ = false;
    return *this;
  }
  JsonWriter& beginArray(std::string_view key) {
    this->key(key);
    out_ << '[';
    first_ = true;
    return *this;
  }
  JsonWriter& endArray() {
    out_ << ']';
    first_ = false;
    return *this;
  }

  JsonWriter& field(std::string_view key, std::string_view value) {
    this->key(key);
    writeString(value);
    return *this;
  }
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonWriter& field(std::string_view key, bool value) {
    this->key(key);
    out_ << (value ? "true" : "false");
    return *this;
  }
  JsonWriter& field(std::string_view key, double value) {
    this->key(key);
    if (std::isfinite(value)) {
      out_ << value;
    } else {
      out_ << "null";
    }
    return *this;
  }
  template <class Int>
    requires std::is_integral_v<Int>
  JsonWriter& field(std::string_view key, Int value) {
    this->key(key);
    out_ << value;
    return *this;
  }

  /// Raw nested value (caller guarantees valid JSON).
  JsonWriter& rawField(std::string_view key, std::string_view json) {
    this->key(key);
    out_ << json;
    return *this;
  }

  /// Bare array element.
  template <class Int>
    requires std::is_integral_v<Int>
  JsonWriter& value(Int v) {
    separator();
    out_ << v;
    return *this;
  }
  JsonWriter& value(std::string_view v) {
    separator();
    writeString(v);
    return *this;
  }
  /// Bare raw array element (caller guarantees valid JSON).
  JsonWriter& rawValue(std::string_view json) {
    separator();
    out_ << json;
    return *this;
  }

  [[nodiscard]] std::string str() const { return out_.str(); }

private:
  void separator() {
    if (!first_) {
      out_ << ',';
    }
    first_ = false;
  }
  void key(std::string_view key) {
    separator();
    writeString(key);
    out_ << ':';
  }
  void writeString(std::string_view s) {
    std::string quoted(1, '"');
    appendJsonEscaped(quoted, s);
    quoted += '"';
    out_ << quoted;
  }

  std::ostringstream out_;
  bool first_{true};
};

} // namespace qsimec::util
