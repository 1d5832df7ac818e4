// Static equivalence prescreen over a circuit pair — the O(gates) pass the
// tier router consults before any DD is built (docs/static-analysis.md).
//
// The prescreen canonicalizes both circuits (materializes layouts, drops
// identity operations, folds uncontrolled GPhase gates into one accumulated
// phase per circuit, merges adjacent same-axis rotations on the 1e-9
// quantization grid the structural fingerprints use), then strips the
// matching prefix and suffix across the pair. Stripping is sound for the
// *verdict*: with G = P·A·S and G' = P·B·S,
//
//   U_G = lambda * U_G'  <=>  U_A = lambda * U_B   (same lambda),
//
// so Equivalent / EquivalentUpToGlobalPhase / NotEquivalent all transfer
// between the stripped and the original pair. Counterexample *stimuli* do
// NOT transfer (a distinguishing input of the residual pair maps through
// the stripped prefix), which is why ec::flow feeds residuals only to the
// complete checker — the simulation stage keeps the original circuits.
//
// Two immediate verdicts can fall out without touching any simulator:
//
//   * both residuals empty          -> the pair is identical on the grid
//     (up to the accumulated global phases, which decide Identical vs
//     IdenticalUpToGlobalPhase);
//   * one residual empty, the other's operations acting on pairwise
//     disjoint qubit sets with at least one operation provably not
//     proportional to the identity -> Distinct. (A tensor product is
//     proportional to the identity iff every factor is, so one
//     non-identity factor disproves U_residual = lambda * I.)
//
// Findings are reported as QS rules in the shared catalog (QS001..QS006).

#pragma once

#include "analysis/diagnostic.hpp"
#include "analysis/profile.hpp"
#include "ir/quantum_computation.hpp"

#include <cmath>
#include <cstddef>
#include <string_view>
#include <vector>

namespace qsimec::analysis {

/// Outcome of the static prescreen. The analysis layer sits below ec, so
/// this is deliberately not ec::Equivalence; ec::flow maps it over.
enum class StaticVerdict : std::uint8_t {
  /// The prescreen could not decide the pair; run a checking strategy on
  /// the residuals.
  Undecided,
  /// The canonicalized circuits are identical on the quantization grid,
  /// including their accumulated global phases.
  Identical,
  /// Identical except for the accumulated global phases.
  IdenticalUpToGlobalPhase,
  /// The pair is provably not equivalent (not even up to global phase).
  Distinct,
};

[[nodiscard]] constexpr std::string_view toString(StaticVerdict v) noexcept {
  switch (v) {
  case StaticVerdict::Undecided:
    return "undecided";
  case StaticVerdict::Identical:
    return "identical";
  case StaticVerdict::IdenticalUpToGlobalPhase:
    return "identical up to global phase";
  case StaticVerdict::Distinct:
    return "distinct";
  }
  return "?";
}

/// Quantization grid for gate parameters, read by the prescreen's angle
/// comparison and rotation merging and by svc's structural fingerprints, so
/// two circuits the prescreen identifies share a fingerprint (and vice
/// versa for single-step differences).
inline constexpr double kParamEpsilon = 1e-9;

/// A parameter snapped to the kParamEpsilon grid: llround bucketing, ties
/// away from zero, +0.0 and -0.0 share bucket 0.
[[nodiscard]] inline long long quantizeParam(double value) noexcept {
  return std::llround(value / kParamEpsilon);
}

struct PrescreenResult {
  /// Canonicalized, stripped residuals with trivial layouts. Feeding these
  /// to a complete checker yields the same verdict as the original pair
  /// (see the soundness argument in the file comment).
  ir::QuantumComputation residualG;
  ir::QuantumComputation residualGPrime;
  /// Matching operations removed from the front / back of both circuits.
  std::size_t strippedPrefix{0};
  std::size_t strippedSuffix{0};
  /// Adjacent rotation pairs folded (across both circuits).
  std::size_t mergedRotations{0};
  /// Identity-like operations removed during canonicalization (I gates,
  /// zero-angle rotations, uncontrolled GPhase folds) across both circuits.
  std::size_t droppedIdentities{0};
  /// Net uncontrolled-GPhase angle folded out of each circuit (radians).
  double phaseG{0.0};
  double phaseGPrime{0.0};
  StaticVerdict verdict{StaticVerdict::Undecided};
  /// QS-rule findings (stripping statistics, static verdicts).
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] bool stripped() const noexcept {
    return strippedPrefix + strippedSuffix > 0;
  }
};

/// Run the prescreen. The pair must be structurally valid (no error-level
/// QA/QP findings): run CircuitAnalyzer first, as ec::flow's preflight
/// does. Deterministic: depends only on the two operation streams.
[[nodiscard]] PrescreenResult
prescreenPair(const ir::QuantumComputation& qc1,
              const ir::QuantumComputation& qc2);

/// The checking tier a pair routes to (docs/static-analysis.md carries the
/// decision table). Consumed by ec::flow and `qsimec profile`.
enum class TierHint : std::uint8_t {
  /// The prescreen verdict stands; no simulation or DD work at all.
  Static,
  /// Both circuits are Clifford-only: the polynomial tableau-based tier.
  Stabilizer,
  /// Everything else: the DAC'20 simulation + DD flow (with a strategy
  /// hint from the profile).
  General,
};

[[nodiscard]] constexpr std::string_view toString(TierHint t) noexcept {
  switch (t) {
  case TierHint::Static:
    return "static";
  case TierHint::Stabilizer:
    return "stabilizer";
  case TierHint::General:
    return "general";
  }
  return "?";
}

/// The routing decision: Static when the prescreen decided the pair,
/// Stabilizer when both circuits are Clifford-only, else General. Pure and
/// deterministic — byte-stable across thread counts by construction.
[[nodiscard]] TierHint routeTier(const PairProfile& profile,
                                 const PrescreenResult& prescreen) noexcept;

} // namespace qsimec::analysis
