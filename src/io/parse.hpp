// What the three circuit file parsers (OpenQASM, RevLib .real, .tfc) share
// on their public side: the options, the base of their error types, the
// file reader, and the one switch that picks a parser by file extension.

#pragma once

#include "ir/quantum_computation.hpp"

#include <stdexcept>
#include <string>

namespace qsimec::io {

/// Controls what the parsers do beyond syntax.
struct ParseOptions {
  /// When true (the default): strict grammar and IR invariants, with line
  /// numbers. Operands lie within the declared width, every operation
  /// passes the checked ir::StandardOperation constructor and the circuit
  /// has a qubit, or the parse throws a ParseError at the offending line;
  /// what it accepts is clean at the analyzer's error level. When false, the
  /// parser admits malformed circuits — out-of-range indices, overlapping
  /// controls, non-finite parameters, an OpenQASM file with no qreg — so
  /// that `qsimec lint` and the flow's preflight can report structured
  /// diagnostics instead of stopping at the first error.
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

/// The circuit file formats, each named by its extension.
enum class CircuitFormat { Qasm, Real, Tfc };

/// The format `path`'s extension names (`.qasm`, `.real` or `.tfc`); throws
/// std::runtime_error "unrecognized circuit format ..." for any other.
[[nodiscard]] CircuitFormat circuitFormat(const std::string& path);

/// The whole file, read with one read of its exact size (a pipe, which has
/// none, is read to its end). Throws std::runtime_error "cannot open PATH",
/// or "cannot read PATH: REASON" when a read fails (a directory, an I/O
/// error), so a failed read is never parsed as a truncated circuit.
[[nodiscard]] std::string readFile(const std::string& path);

/// Parse `text` as the contents of the file at `path`: in the format of its
/// extension (circuitFormat), with `path` as the circuit name. The result
/// and every error are those of parseCircuitFile on a file holding `text`.
[[nodiscard]] ir::QuantumComputation
parseCircuitText(const std::string& path, const std::string& text,
                 ParseOptions options = {});

/// Parse a `.qasm`, `.real` or `.tfc` file, chosen by its extension: the
/// extension is checked before the file is read, then parseCircuitText on
/// readFile(path).
[[nodiscard]] ir::QuantumComputation
parseCircuitFile(const std::string& path, ParseOptions options = {});

} // namespace qsimec::io
