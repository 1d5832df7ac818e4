// Minimal JSON reader (recursive descent over the RFC 8259 grammar into a
// small DOM), the repository's one JSON parser. It is deliberately small:
// objects preserve member order (reports are written with deterministic key
// order, diffs should iterate the same way), numbers keep their lexeme so
// 64-bit integers read back exactly (asUint) while asNumber gives the
// double, and escapes are decoded for the basic cases the writers in
// util/json.hpp produce. The grammar is strict — no leading zeros, trailing
// commas, raw control characters, NaN or hex — so isValidJson doubles as
// the tests' well-formedness check.

#pragma once

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qsimec::util {

class JsonParseError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

namespace detail {
class JsonParser;
} // namespace detail

class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Object, Array };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;
  explicit JsonValue(Kind kind) : kind_(kind) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool isNull() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool isObject() const noexcept {
    return kind_ == Kind::Object;
  }
  [[nodiscard]] bool isArray() const noexcept { return kind_ == Kind::Array; }

  [[nodiscard]] bool asBool() const {
    expect(Kind::Bool, "bool");
    return boolean_;
  }
  [[nodiscard]] double asNumber() const {
    expect(Kind::Number, "number");
    return number_;
  }
  /// The exact integer; a negative, fractional, exponent-form or
  /// out-of-range number throws instead of being rounded.
  [[nodiscard]] std::uint64_t asUint() const {
    expect(Kind::Number, "number");
    std::uint64_t value = 0;
    const char* end = string_.data() + string_.size();
    const auto [ptr, ec] = std::from_chars(string_.data(), end, value);
    if (ec != std::errc{} || ptr != end) {
      throw JsonParseError("JSON number is not a 64-bit unsigned integer: " +
                           string_);
    }
    return value;
  }
  [[nodiscard]] const std::string& asString() const {
    expect(Kind::String, "string");
    return string_;
  }
  [[nodiscard]] const std::vector<Member>& members() const {
    expect(Kind::Object, "object");
    return members_;
  }
  [[nodiscard]] const std::vector<JsonValue>& elements() const {
    expect(Kind::Array, "array");
    return elements_;
  }

  /// First member named `key`, or nullptr.
  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    expect(Kind::Object, "object");
    for (const Member& m : members_) {
      if (m.first == key) {
        return &m.second;
      }
    }
    return nullptr;
  }
  /// Member access that throws with the key name on absence.
  [[nodiscard]] const JsonValue& at(std::string_view key) const {
    const JsonValue* v = find(key);
    if (v == nullptr) {
      throw JsonParseError("missing key: " + std::string(key));
    }
    return *v;
  }

private:
  friend class detail::JsonParser;

  void expect(Kind kind, const char* what) const {
    if (kind_ != kind) {
      throw JsonParseError(std::string("JSON value is not a ") + what);
    }
  }

  Kind kind_{Kind::Null};
  bool boolean_{false};
  double number_{0.0};
  std::string string_; // a Number's lexeme, a String's decoded text
  std::vector<Member> members_;
  std::vector<JsonValue> elements_;
};

namespace detail {

class JsonParser {
public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  [[nodiscard]] JsonValue parse() {
    skipWs();
    JsonValue v = value(0);
    skipWs();
    if (pos_ != text_.size()) {
      fail("trailing content after JSON value");
    }
    return v;
  }

private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError(what + " at offset " + std::to_string(pos_));
  }

  JsonValue value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    switch (text_[pos_]) {
    case '{':
      return object(depth);
    case '[':
      return array(depth);
    case '"': {
      JsonValue v(JsonValue::Kind::String);
      v.string_ = string();
      return v;
    }
    case 't':
      literal("true");
      return makeBool(true);
    case 'f':
      literal("false");
      return makeBool(false);
    case 'n':
      literal("null");
      return JsonValue{};
    default:
      return number();
    }
  }

  static JsonValue makeBool(bool b) {
    JsonValue v(JsonValue::Kind::Bool);
    v.boolean_ = b;
    return v;
  }

  JsonValue object(int depth) {
    JsonValue v(JsonValue::Kind::Object);
    ++pos_; // '{'
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWs();
      std::string key = string();
      skipWs();
      if (peek() != ':') {
        fail("expected ':' in object");
      }
      ++pos_;
      skipWs();
      v.members_.emplace_back(std::move(key), value(depth + 1));
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue array(int depth) {
    JsonValue v(JsonValue::Kind::Array);
    ++pos_; // '['
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWs();
      v.elements_.push_back(value(depth + 1));
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    if (peek() != '"') {
      fail("expected string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          fail("unterminated escape");
        }
        switch (text_[pos_]) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size()) {
              fail("unterminated \\u escape");
            }
            const char h = text_[pos_];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // Our writers only emit \u00XX for control characters; decode the
          // BMP code point as UTF-8 without surrogate-pair handling.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0U | (code >> 6U));
            out += static_cast<char>(0x80U | (code & 0x3FU));
          } else {
            out += static_cast<char>(0xE0U | (code >> 12U));
            out += static_cast<char>(0x80U | ((code >> 6U) & 0x3FU));
            out += static_cast<char>(0x80U | (code & 0x3FU));
          }
          break;
        }
        default:
          fail("unknown escape");
        }
        ++pos_;
        continue;
      }
      out += c;
      ++pos_;
    }
    fail("unterminated string");
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (!digit()) {
      fail("expected a JSON value");
    }
    if (text_[pos_] == '0') {
      ++pos_; // no leading zeros
    } else {
      digits();
    }
    if (peek() == '.') {
      ++pos_;
      if (!digit()) {
        fail("malformed number");
      }
      digits();
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') {
        ++pos_;
      }
      if (!digit()) {
        fail("malformed number");
      }
      digits();
    }
    JsonValue v(JsonValue::Kind::Number);
    v.string_ = std::string(text_.substr(start, pos_ - start));
    const char* end = v.string_.data() + v.string_.size();
    if (std::from_chars(v.string_.data(), end, v.number_).ec != std::errc{}) {
      fail("number out of range");
    }
    return v;
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("bad literal");
    }
    pos_ += word.size();
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  [[nodiscard]] bool digit() const { return peek() >= '0' && peek() <= '9'; }
  void digits() {
    while (digit()) {
      ++pos_;
    }
  }
  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_{0};
};

} // namespace detail

/// Parse one JSON document; throws JsonParseError on malformed input.
[[nodiscard]] inline JsonValue parseJson(std::string_view text) {
  return detail::JsonParser(text).parse();
}

/// True iff `text` is one syntactically valid JSON value (object, array,
/// string, number, or literal) with nothing but whitespace around it.
[[nodiscard]] inline bool isValidJson(std::string_view text) {
  try {
    (void)parseJson(text);
    return true;
  } catch (const JsonParseError&) {
    return false;
  }
}

} // namespace qsimec::util
