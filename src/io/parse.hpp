// What the three circuit file parsers (OpenQASM, RevLib .real, .tfc) share
// on their public side: the options, the base of their error types, and the
// reader that picks a parser by file extension.

#pragma once

#include "ir/quantum_computation.hpp"

#include <stdexcept>
#include <string>

namespace qsimec::io {

/// Controls what the parsers do beyond syntax.
struct ParseOptions {
  /// When true (the default), IR invariant violations surface as parse
  /// errors with line information, and the parsed circuit is run through
  /// error-level static analysis (analysis::CircuitAnalyzer); defects throw
  /// analysis::ValidationError. When false, the parser admits malformed
  /// circuits — out-of-range indices, overlapping controls, non-finite
  /// parameters — so that `qsimec lint` can report structured diagnostics
  /// instead of stopping at the first error.
  bool validate{true};
};

/// A syntax error at one line of a circuit file. Each format throws its own
/// subclass (QasmParseError, RealParseError, TfcParseError).
class ParseError : public std::runtime_error {
public:
  ParseError(const std::string& format, const std::string& message,
             std::size_t line)
      : std::runtime_error(format + " parse error (line " +
                           std::to_string(line) + "): " + message),
        line_(line) {}
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

private:
  std::size_t line_;
};

/// Parse a `.qasm`, `.real` or `.tfc` file, chosen by its extension; throws
/// std::runtime_error for any other extension.
[[nodiscard]] ir::QuantumComputation
parseCircuitFile(const std::string& path, ParseOptions options = {});

} // namespace qsimec::io
