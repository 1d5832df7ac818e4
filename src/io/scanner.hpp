// What the three circuit parsers share, internal to src/io: one read of the
// file, a zero-copy scanner over its text (whitespace, comments, line
// counting, numbers), and the gate tail and epilogue each format would
// otherwise repeat.
//
// Tokens are std::string_views into the text, which must outlive the parse.
// Real numbers are read by std::strtod in place, so the text must be followed
// in memory by a character that cannot continue a number: a std::string's
// NUL, or the '}' that closes an OpenQASM gate body.

#pragma once

#include "io/parse.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qsimec::io::detail {

/// The C locale's isspace, isalpha and isalnum-or-'_', without its lookup.
constexpr bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool isAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool isIdentChar(char c) {
  return isAlpha(c) || (c >= '0' && c <= '9') || c == '_';
}

/// The whole file, read with one read of its exact size (a pipe, which has
/// none, is read to its end); std::runtime_error "cannot open PATH".
std::string readFile(const std::string& path);

/// `text` as an unsigned decimal integer: [0-9]+ that fits std::size_t.
inline std::optional<std::size_t> parseUnsigned(std::string_view text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc{} && ptr == end ? std::optional(value) : std::nullopt;
}

/// The next whitespace-delimited word of `rest`, as `>>` reads a
/// std::string (empty at the end); `rest` keeps what follows it.
inline std::string_view nextWord(std::string_view& rest) {
  constexpr std::string_view space = " \t\n\v\f\r";
  const std::size_t begin = std::min(rest.find_first_not_of(space), rest.size());
  const std::size_t end = std::min(rest.find_first_of(space, begin), rest.size());
  const std::string_view word = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return word;
}

/// A cursor over circuit text that fails with `Error(message, line)`. The
/// line-level call serves .real and .tfc, the token-level ones OpenQASM.
template <class Error> class Scanner {
public:
  /// `line` numbers the line the text starts on, or is 0 when nextLine
  /// counts the lines read.
  Scanner(std::string_view text, std::size_t line)
      : text_(text), line_(line) {}

  [[noreturn]] void fail(const std::string& message) const {
    throw Error(message, line_);
  }

  /// Fail unless `declared` more qubits on top of `already` stay within
  /// ir::Qubit's index range, so no index wraps; called where a width is
  /// declared, before anything is allocated for it.
  void checkWidth(std::size_t already, std::size_t declared) const {
    constexpr std::size_t kMaxQubits =
        std::size_t{std::numeric_limits<ir::Qubit>::max()} + 1;
    if (declared > kMaxQubits - already) {
      fail("circuit width exceeds " + std::to_string(kMaxQubits) + " qubits");
    }
  }

  /// The next line without its '\n', split as std::getline splits (the
  /// last line needs no '\n'); false at the end of the text.
  bool nextLine(std::string_view& line) {
    if (pos_ >= text_.size()) {
      return false;
    }
    const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
    line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    ++line_;
    return true;
  }

  /// Skip whitespace and `//` comments, counting newlines.
  void skipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (isSpace(c)) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        pos_ = std::min(text_.find('\n', pos_), text_.size());
      } else {
        break;
      }
    }
  }

  [[nodiscard]] bool atEnd() {
    skipSpace();
    return pos_ >= text_.size();
  }

  [[nodiscard]] char peek() {
    skipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  char get() {
    skipSpace();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_++];
  }

  void expect(char c) {
    const char got = get();
    if (got != c) {
      fail(std::string("expected '") + c + "', got '" + got + "'");
    }
  }

  bool consumeIf(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Identifier or keyword: [A-Za-z0-9_]+ (callers check the first char).
  std::string_view identifier() {
    skipSpace();
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && isIdentChar(text_[pos_])) {
      ++pos_;
    }
    if (pos_ == begin) {
      fail("expected identifier");
    }
    return text_.substr(begin, pos_ - begin);
  }

  /// A real number as std::stod reads it: by std::strtod, with ERANGE (an
  /// overflow or underflow) an error.
  double real() {
    skipSpace();
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const int savedErrno = errno;
    errno = 0;
    const double value = std::strtod(begin, &end);
    const bool outOfRange = errno == ERANGE;
    errno = savedErrno;
    if (end == begin || outOfRange) {
      fail("expected number");
    }
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  /// A register size or index: [0-9]+ that fits std::size_t, followed by
  /// no fraction, exponent or letter.
  std::size_t integer() {
    skipSpace();
    const char* begin = text_.data() + pos_;
    const char* last = text_.data() + text_.size();
    std::size_t value = 0;
    const auto [end, ec] = std::from_chars(begin, last, value);
    if (ec == std::errc::result_out_of_range) {
      fail("integer out of range");
    }
    if (ec != std::errc{} ||
        (end < last && (*end == '.' || isIdentChar(*end)))) {
      fail("expected unsigned integer");
    }
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  /// Skip a "..." string (newlines inside it are not counted).
  void skipQuoted() {
    expect('"');
    pos_ = std::min(text_.find('"', pos_), text_.size());
    expect('"');
  }

  /// The raw text of a { ... } block after its opening brace, up to the
  /// first '}' (consumed, not included); newlines in it are counted.
  std::string_view block() {
    const std::size_t end = std::min(text_.find('}', pos_), text_.size());
    const std::string_view body = text_.substr(pos_, end - pos_);
    line_ += static_cast<std::size_t>(std::ranges::count(body, '\n'));
    pos_ = end;
    expect('}');
    return body;
  }

private:
  std::string_view text_;
  std::size_t pos_{0};
  std::size_t line_;
};

/// Append an operation: checked, its IR invariant violations (control ==
/// target, duplicate control, SWAP on one wire) becoming parse errors with
/// the line; unchecked in lint mode, for the analyzer to report.
template <class Error>
void emplaceOp(const Scanner<Error>& in, const ParseOptions& options,
               std::vector<ir::StandardOperation>& ops, ir::OpType type,
               std::vector<ir::Qubit> targets,
               std::vector<ir::Control> controls,
               const std::array<double, 3>& params = {}) {
  if (!options.validate) {
    ops.push_back(ir::StandardOperation::makeUnchecked(
        type, std::move(targets), std::move(controls), params));
    return;
  }
  try {
    ops.emplace_back(type, std::move(targets), std::move(controls), params);
  } catch (const std::invalid_argument& e) {
    in.fail(e.what());
  }
}

/// The head of a .real or .tfc gate line: tN (multi-controlled Toffoli),
/// fN (Fredkin), vN or v+N (V or V†); N may be omitted.
struct GateHead {
  ir::OpType type{ir::OpType::X};
  std::size_t targets{1};           // two for Fredkin
  std::optional<std::size_t> arity; // absent: as many operands as listed
};

/// nullopt unless `head` names a supported gate with a well-formed arity;
/// `foldCase` also admits T, F and V.
inline std::optional<GateHead> parseGateHead(std::string_view head,
                                             bool foldCase) {
  char kind = head.front();
  if (foldCase && kind >= 'A' && kind <= 'Z') {
    kind = static_cast<char>(kind - 'A' + 'a');
  }
  const bool isVdg = kind == 'v' && head.size() > 1 && head[1] == '+';
  GateHead gate;
  if (kind == 'f') {
    gate.type = ir::OpType::SWAP;
    gate.targets = 2;
  } else if (kind == 'v') {
    gate.type = isVdg ? ir::OpType::Vdg : ir::OpType::V;
  } else if (kind != 't') {
    return std::nullopt;
  }
  if (const std::string_view digits = head.substr(isVdg ? 2 : 1);
      !digits.empty()) {
    gate.arity = parseUnsigned(digits);
    if (!gate.arity) {
      return std::nullopt;
    }
  }
  return gate;
}

/// The gate tail .real and .tfc share: of the resolved operands (a negative
/// control has positive == false), the last one (two for Fredkin) are the
/// targets and the others the controls.
template <class Error>
void emplaceGate(const Scanner<Error>& in, const ParseOptions& options,
                 std::vector<ir::StandardOperation>& ops,
                 std::string_view head, const GateHead& gate,
                 const std::vector<ir::Control>& operands) {
  if (operands.size() < gate.targets) {
    in.fail("gate " + std::string(head) + " needs at least " +
            std::to_string(gate.targets) + " targets");
  }
  const auto firstTarget =
      operands.end() - static_cast<std::ptrdiff_t>(gate.targets);
  std::vector<ir::Qubit> targets;
  for (auto it = firstTarget; it != operands.end(); ++it) {
    if (!it->positive) {
      in.fail("targets cannot be negated");
    }
    targets.push_back(it->qubit);
  }
  emplaceOp(in, options, ops, gate.type, std::move(targets),
            std::vector<ir::Control>(operands.begin(), firstTarget));
}

/// For the .real and .tfc writers: std::domain_error "FORMAT export
/// requires trivial layouts" unless both layouts of `qc` are the identity.
void requireTrivialLayouts(const ir::QuantumComputation& qc,
                           const std::string& format);

/// The head of `op`'s gate line (t3, f2, v+2, ...); std::domain_error unless
/// `op` is an X, SWAP, V or Vdg.
std::string writerGateHead(const ir::StandardOperation& op,
                           const std::string& format);

/// The circuit of `ops` on `qubits` wires; every parser has already
/// enforced what its options ask of them.
ir::QuantumComputation finishCircuit(std::size_t qubits, std::string name,
                                     std::vector<ir::StandardOperation> ops);

} // namespace qsimec::io::detail
