// RevLib `.real` format reader and writer (reversible circuits, [27]).
//
// Supported gates: tN (multi-controlled Toffoli; t1 = NOT, t2 = CNOT),
// fN (multi-controlled Fredkin; f2 = SWAP), vN / v+N (multi-controlled
// V / V†). Negative controls are denoted by a '-' prefix on the variable
// name, as in RevLib 2.0.
//
// Qubit convention: the FIRST variable listed in `.variables` is the
// most-significant qubit (index numvars-1); the last variable is qubit 0.
// This matches the usual RevLib drawing with the first variable on the top
// wire and keeps truth-table bit order consistent with synth::TruthTable.

#pragma once

#include "io/parse.hpp"
#include "ir/quantum_computation.hpp"

#include <iosfwd>
#include <string>

namespace qsimec::io {

class RealParseError : public ParseError {
public:
  RealParseError(const std::string& message, std::size_t line)
      : ParseError("REAL", message, line) {}
};

[[nodiscard]] ir::QuantumComputation
parseRealString(const std::string& text, std::string name = "",
                ParseOptions options = {});
[[nodiscard]] ir::QuantumComputation
parseRealFile(const std::string& path, ParseOptions options = {});

/// The circuit may only contain X, SWAP, V, and Vdg operations (with any
/// controls); throws std::domain_error otherwise.
void writeReal(const ir::QuantumComputation& qc, std::ostream& os);
[[nodiscard]] std::string toRealString(const ir::QuantumComputation& qc);

} // namespace qsimec::io
