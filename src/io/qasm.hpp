// OpenQASM 2.0 subset reader and writer.
//
// Supported on input: OPENQASM header, include (ignored), qreg/creg,
// the qelib1 gate set (id, x, y, z, h, s, sdg, t, tdg, rx, ry, rz, u1, u2,
// u3, p, cx, cy, cz, ch, crz, cu1, cu3, ccx, swap, cswap), user `gate`
// definitions (parameterized, nested), whole-register broadcasting,
// parameter expressions with pi and + - * / ( ), and barrier / measure
// statements (ignored). Multiple quantum registers are concatenated in
// declaration order.
//
// The writer emits the same dialect. Gates without a qelib1 spelling
// (negative controls, three-plus controls, V/Vdg/SY/SYdg, GPhase) must be
// decomposed before writing; the writer throws std::domain_error otherwise —
// except V/Vdg/SY/SYdg, which are emitted as phase-equivalent rotations
// (sdg-h-sdg, s-h-s, ry(pi/2), ry(-pi/2)); round-trips through the writer
// therefore preserve functionality up to global phase.

#pragma once

#include "io/parse.hpp"
#include "ir/quantum_computation.hpp"

#include <iosfwd>
#include <string>

namespace qsimec::io {

class QasmParseError : public ParseError {
public:
  QasmParseError(const std::string& message, std::size_t line)
      : ParseError("QASM", message, line) {}
};

[[nodiscard]] ir::QuantumComputation
parseQasmString(const std::string& text, std::string name = "",
                ParseOptions options = {});
[[nodiscard]] ir::QuantumComputation
parseQasmFile(const std::string& path, ParseOptions options = {});

void writeQasm(const ir::QuantumComputation& qc, std::ostream& os);
[[nodiscard]] std::string toQasmString(const ir::QuantumComputation& qc);
void writeQasmFile(const ir::QuantumComputation& qc, const std::string& path);

} // namespace qsimec::io
