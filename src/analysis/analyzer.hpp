// Static analysis over the circuit IR — the preflight stage of the DAC'20
// flow. The analyzer walks a QuantumComputation (or a circuit pair) and
// emits structured Diagnostics without building a single DD or running any
// simulation, so malformed inputs are rejected in O(gates) before the
// expensive machinery starts. QCEC-style tools validate and canonicalize
// circuits before picking a checking strategy; this module is that layer.
//
// Rule catalog (details and examples in docs/static-analysis.md):
//
//   QA001  error    qubit index out of range
//   QA002  error    control coincides with a target
//   QA003  error    duplicate control qubit
//   QA004  error    non-finite (NaN/Inf) gate parameter (the checked
//                   ir::StandardOperation constructor enforces it too)
//   QA005  error    invalid initial layout (wrong size / not a bijection)
//   QA006  error    invalid output permutation (wrong size / not a bijection)
//   QA007  error    zero-qubit circuit
//   QA008  warning  circuit contains no operations
//   QA009  error    duplicate target qubit (SWAP on one wire)
//   QL001  warning  adjacent self-inverse gate pair (lint)
//   QL002  note     qubit is never used by any operation (lint)
//   QP001  error    qubit-count mismatch between the pair
//   QP002  error    incompatible output permutations (different domains)
//   QS001  note     matching prefix stripped across the pair (prescreen)
//   QS002  note     matching suffix stripped across the pair (prescreen)
//   QS003  note     adjacent rotations merged / identities dropped (prescreen)
//   QS004  note     pair statically identical (prescreen verdict)
//   QS005  warning  pair statically distinct (prescreen verdict)
//   QS006  note     pair identical up to global phase (prescreen verdict)

#pragma once

#include "analysis/diagnostic.hpp"
#include "ir/quantum_computation.hpp"

namespace qsimec::analysis {

namespace rules {
inline constexpr const char* QubitOutOfRange = "QA001";
inline constexpr const char* ControlIsTarget = "QA002";
inline constexpr const char* DuplicateControl = "QA003";
inline constexpr const char* NonFiniteParameter = "QA004";
inline constexpr const char* InvalidInitialLayout = "QA005";
inline constexpr const char* InvalidOutputPermutation = "QA006";
inline constexpr const char* ZeroQubitCircuit = "QA007";
inline constexpr const char* EmptyCircuit = "QA008";
inline constexpr const char* DuplicateTarget = "QA009";
inline constexpr const char* AdjacentInversePair = "QL001";
inline constexpr const char* UnusedQubit = "QL002";
inline constexpr const char* WidthMismatch = "QP001";
inline constexpr const char* OutputPermutationMismatch = "QP002";
inline constexpr const char* PrefixStripped = "QS001";
inline constexpr const char* SuffixStripped = "QS002";
inline constexpr const char* RotationsMerged = "QS003";
inline constexpr const char* StaticallyIdentical = "QS004";
inline constexpr const char* StaticallyDistinct = "QS005";
inline constexpr const char* StaticallyEqualUpToPhase = "QS006";
} // namespace rules

struct AnalyzerOptions {
  /// Include the lint rules (QL...). Error- and warning-level structural
  /// rules always run; preflight consumers (ec::flow, `qsimec profile`)
  /// switch lint off, the `qsimec lint` CLI keeps it on.
  bool lint{true};
};

class CircuitAnalyzer {
public:
  explicit CircuitAnalyzer(AnalyzerOptions options = {}) : options_(options) {}

  /// Analyze a single circuit; diagnostics carry circuit index 0.
  [[nodiscard]] AnalysisReport analyze(const ir::QuantumComputation& qc) const;

  /// Analyze an equivalence-checking pair: both circuits individually
  /// (diagnostics tagged with circuit 0/1) plus the pair-level QP rules.
  [[nodiscard]] AnalysisReport
  analyzePair(const ir::QuantumComputation& qc1,
              const ir::QuantumComputation& qc2) const;

private:
  AnalyzerOptions options_;
};

} // namespace qsimec::analysis
