// `.tfc` format reader and writer (Maslov's reversible benchmark format,
// the third input format next to `.qasm` and `.real`).
//
// Layout: `.v` declares the wires, optional `.i`/`.o`/`.ol` name the
// input/output subsets, optional `.c` lists constant input values, and the
// gate list sits between `BEGIN` and `END`. Operands are comma-separated;
// a trailing apostrophe marks a negative control (`t2 a',b`). Supported
// gates mirror the `.real` reader: tN (multi-controlled Toffoli; t1 = NOT,
// t2 = CNOT), fN (multi-controlled Fredkin; f2 = SWAP), vN / v+N
// (multi-controlled V / V†).
//
// Qubit convention: the FIRST variable listed in `.v` is the
// most-significant qubit (index numvars-1); the last variable is qubit 0.
// This matches the `.real` reader and keeps truth-table bit order
// consistent with synth::TruthTable.

#pragma once

#include "io/parse.hpp"
#include "ir/quantum_computation.hpp"

#include <iosfwd>
#include <string>

namespace qsimec::io {

class TfcParseError : public ParseError {
public:
  TfcParseError(const std::string& message, std::size_t line)
      : ParseError("TFC", message, line) {}
};

[[nodiscard]] ir::QuantumComputation
parseTfcString(const std::string& text, std::string name = "",
               ParseOptions options = {});
[[nodiscard]] ir::QuantumComputation
parseTfcFile(const std::string& path, ParseOptions options = {});

/// The circuit may only contain X, SWAP, V, and Vdg operations (with any
/// controls); throws std::domain_error otherwise.
void writeTfc(const ir::QuantumComputation& qc, std::ostream& os);
[[nodiscard]] std::string toTfcString(const ir::QuantumComputation& qc);

} // namespace qsimec::io
