#include "analysis/analyzer.hpp"

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

namespace qsimec::analysis {

namespace {

std::string opLabel(const ir::StandardOperation& op) {
  return std::string(ir::toString(op.type()));
}

void checkOperation(const ir::StandardOperation& op, std::size_t index,
                    std::size_t nqubits, std::vector<Diagnostic>& out) {
  const auto emit = [&](const char* rule, std::string message) {
    out.push_back(Diagnostic{rule, Severity::Error, index, 0,
                             std::move(message)});
  };

  // QA001: every target and control must address an existing wire.
  op.forEachQubit([&](ir::Qubit q) {
    if (q >= nqubits) {
      emit(rules::QubitOutOfRange,
           opLabel(op) + ": qubit index " + std::to_string(q) +
               " out of range for a " + std::to_string(nqubits) +
               "-qubit circuit");
    }
  });

  // QA009: targets must be distinct (a SWAP on one wire is meaningless).
  const auto& targets = op.targets();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (std::size_t j = i + 1; j < targets.size(); ++j) {
      if (targets[i] == targets[j]) {
        emit(rules::DuplicateTarget,
             opLabel(op) + ": duplicate target qubit " +
                 std::to_string(targets[i]));
      }
    }
  }

  // QA002 / QA003: controls must be distinct and disjoint from the targets.
  const auto& controls = op.controls();
  for (std::size_t i = 0; i < controls.size(); ++i) {
    for (const ir::Qubit t : targets) {
      if (controls[i].qubit == t) {
        emit(rules::ControlIsTarget,
             opLabel(op) + ": control qubit " +
                 std::to_string(controls[i].qubit) +
                 " coincides with a target");
      }
    }
    for (std::size_t j = i + 1; j < controls.size(); ++j) {
      if (controls[i].qubit == controls[j].qubit) {
        emit(rules::DuplicateControl,
             opLabel(op) + ": duplicate control qubit " +
                 std::to_string(controls[i].qubit));
      }
    }
  }

  // QA004: angle parameters must be finite numbers.
  for (std::size_t p = 0; p < ir::numParams(op.type()); ++p) {
    if (!std::isfinite(op.params()[p])) {
      emit(rules::NonFiniteParameter,
           opLabel(op) + ": parameter " + std::to_string(p) +
               " is not finite");
    }
  }
}

/// A layout is valid iff it is a bijection {0..n-1} -> {0..n-1} for the
/// circuit's qubit count n.
bool isValidLayout(const ir::Permutation& p, std::size_t nqubits) {
  if (p.size() != nqubits) {
    return false;
  }
  std::vector<bool> seen(p.size(), false);
  for (std::size_t i = 0; i < p.size(); ++i) {
    const std::uint16_t wire = p[i];
    if (wire >= p.size() || seen[wire]) {
      return false;
    }
    seen[wire] = true;
  }
  return true;
}

void checkLayouts(const ir::QuantumComputation& qc,
                  std::vector<Diagnostic>& out) {
  if (!isValidLayout(qc.initialLayout(), qc.qubits())) {
    out.push_back(Diagnostic{
        rules::InvalidInitialLayout, Severity::Error, std::nullopt, 0,
        "initial layout is not a bijection on " +
            std::to_string(qc.qubits()) + " qubits (size " +
            std::to_string(qc.initialLayout().size()) + ")"});
  }
  if (!isValidLayout(qc.outputPermutation(), qc.qubits())) {
    out.push_back(Diagnostic{
        rules::InvalidOutputPermutation, Severity::Error, std::nullopt, 0,
        "output permutation is not a bijection on " +
            std::to_string(qc.qubits()) + " qubits (size " +
            std::to_string(qc.outputPermutation().size()) + ")"});
  }
}

void lintAdjacentInverses(const ir::QuantumComputation& qc,
                          std::vector<Diagnostic>& out) {
  for (std::size_t i = 1; i < qc.size(); ++i) {
    if (qc.at(i).isInverseOf(qc.at(i - 1))) {
      out.push_back(Diagnostic{
          rules::AdjacentInversePair, Severity::Warning, i, 0,
          opLabel(qc.at(i)) + " cancels the preceding " +
              opLabel(qc.at(i - 1)) + " (gate #" + std::to_string(i - 1) +
              "); the pair is redundant"});
    }
  }
}

void lintUnusedQubits(const ir::QuantumComputation& qc,
                      std::vector<Diagnostic>& out) {
  std::vector<bool> used(qc.qubits(), false);
  for (const ir::StandardOperation& op : qc) {
    op.forEachQubit([&used](ir::Qubit q) {
      if (q < used.size()) {
        used[q] = true;
      }
    });
  }
  for (std::size_t q = 0; q < used.size(); ++q) {
    if (!used[q]) {
      out.push_back(Diagnostic{rules::UnusedQubit, Severity::Note,
                               std::nullopt, 0,
                               "qubit " + std::to_string(q) +
                                   " is never used by any operation"});
    }
  }
}

} // namespace

AnalysisReport CircuitAnalyzer::analyze(const ir::QuantumComputation& qc) const {
  AnalysisReport report;
  auto& out = report.diagnostics;

  if (qc.qubits() == 0) {
    out.push_back(Diagnostic{rules::ZeroQubitCircuit, Severity::Error,
                             std::nullopt, 0,
                             "circuit declares zero qubits"});
    // Every per-gate check would also fire; report the root cause only.
    return report;
  }
  if (qc.empty()) {
    out.push_back(Diagnostic{rules::EmptyCircuit, Severity::Warning,
                             std::nullopt, 0,
                             "circuit contains no operations (identity)"});
  }

  for (std::size_t i = 0; i < qc.size(); ++i) {
    checkOperation(qc.at(i), i, qc.qubits(), out);
  }
  checkLayouts(qc, out);

  if (options_.lint) {
    lintAdjacentInverses(qc, out);
    lintUnusedQubits(qc, out);
  }
  return report;
}

AnalysisReport
CircuitAnalyzer::analyzePair(const ir::QuantumComputation& qc1,
                             const ir::QuantumComputation& qc2) const {
  AnalysisReport report;
  report.absorb(analyze(qc1), 0);
  report.absorb(analyze(qc2), 1);

  if (qc1.qubits() != qc2.qubits()) {
    report.diagnostics.push_back(Diagnostic{
        rules::WidthMismatch, Severity::Error, std::nullopt, 0,
        "qubit counts differ (" + std::to_string(qc1.qubits()) + " vs " +
            std::to_string(qc2.qubits()) +
            "); pad the narrower circuit before checking",
        /*pair=*/true});
  }
  if (qc1.outputPermutation().size() != qc2.outputPermutation().size()) {
    report.diagnostics.push_back(Diagnostic{
        rules::OutputPermutationMismatch, Severity::Error, std::nullopt, 0,
        "output permutations act on different domains (" +
            std::to_string(qc1.outputPermutation().size()) + " vs " +
            std::to_string(qc2.outputPermutation().size()) +
            " wires); the outputs cannot be compared qubit by qubit",
        /*pair=*/true});
  }
  return report;
}

} // namespace qsimec::analysis
