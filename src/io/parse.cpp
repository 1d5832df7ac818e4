#include "io/parse.hpp"

#include "io/qasm.hpp"
#include "io/real.hpp"
#include "io/scanner.hpp"
#include "io/tfc.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

namespace qsimec::io {

std::string readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("cannot open " + path);
  }
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string text(ec ? 0 : static_cast<std::size_t>(size), '\0');
  errno = 0;
  is.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(is.gcount()));
  // a pipe has no size, and a file may grow after file_size: read to the end
  char chunk[4096];
  while (!is.bad() && (is.read(chunk, sizeof chunk) || is.gcount() > 0)) {
    text.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  // a failed read is not the end of the file: what it returned so far is
  // no circuit
  if (is.bad()) {
    std::string message = "cannot read ";
    message += path;
    message += ": ";
    message += std::strerror(errno);
    throw std::runtime_error(message);
  }
  return text;
}

namespace detail {

void requireTrivialLayouts(const ir::QuantumComputation& qc,
                           const std::string& format) {
  if (!qc.initialLayout().isIdentity() ||
      !qc.outputPermutation().isIdentity()) {
    throw std::domain_error(format + " export requires trivial layouts");
  }
}

std::string writerGateHead(const ir::StandardOperation& op,
                           const std::string& format) {
  static constexpr std::pair<ir::OpType, const char*> kKinds[] = {
      {ir::OpType::X, "t"},
      {ir::OpType::SWAP, "f"},
      {ir::OpType::V, "v"},
      {ir::OpType::Vdg, "v+"}};
  for (const auto& [type, kind] : kKinds) {
    if (type == op.type()) {
      return kind + std::to_string(op.controls().size() + op.targets().size());
    }
  }
  throw std::domain_error(format +
                          " export supports only X/SWAP/V/Vdg operations");
}

ir::QuantumComputation finishCircuit(std::size_t qubits, std::string name,
                                     std::vector<ir::StandardOperation> ops) {
  ir::QuantumComputation qc(qubits, std::move(name));
  // every parser resolves operands within the declared width (lint mode
  // keeps out-of-range ones for the analyzer), so the ops move in whole
  qc.ops() = std::move(ops);
  return qc;
}

} // namespace detail

CircuitFormat circuitFormat(const std::string& path) {
  if (path.ends_with(".real")) {
    return CircuitFormat::Real;
  }
  if (path.ends_with(".qasm")) {
    return CircuitFormat::Qasm;
  }
  if (path.ends_with(".tfc")) {
    return CircuitFormat::Tfc;
  }
  throw std::runtime_error(
      "unrecognized circuit format (want .qasm/.real/.tfc): " + path);
}

ir::QuantumComputation parseCircuitText(const std::string& path,
                                        const std::string& text,
                                        ParseOptions options) {
  switch (circuitFormat(path)) {
  case CircuitFormat::Qasm:
    return parseQasmString(text, path, options);
  case CircuitFormat::Real:
    return parseRealString(text, path, options);
  case CircuitFormat::Tfc:
    break;
  }
  return parseTfcString(text, path, options);
}

ir::QuantumComputation parseCircuitFile(const std::string& path,
                                        ParseOptions options) {
  (void)circuitFormat(path); // an unknown extension fails before any read
  return parseCircuitText(path, readFile(path), options);
}

} // namespace qsimec::io
