#include "analysis/prescreen.hpp"

#include "analysis/analyzer.hpp"

#include <cmath>
#include <numbers>
#include <optional>
#include <set>
#include <string>
#include <utility>

namespace qsimec::analysis {

namespace {

/// True iff `angle` is an integer multiple of 2*pi on the grid.
bool isFullTurn(double angle) noexcept {
  return quantizeParam(std::remainder(angle, 2 * std::numbers::pi)) == 0;
}

bool isMergeableRotation(const ir::StandardOperation& op) noexcept {
  switch (op.type()) {
  case ir::OpType::RX:
  case ir::OpType::RY:
  case ir::OpType::RZ:
  case ir::OpType::Phase:
  case ir::OpType::GPhase:
    return true;
  default:
    return false;
  }
}

/// The canonicalized operation stream of one circuit.
struct Canonical {
  std::vector<ir::StandardOperation> ops;
  double phase{0.0};
  std::size_t merged{0};
  std::size_t dropped{0};
};

Canonical canonicalize(const ir::QuantumComputation& qc) {
  std::optional<ir::QuantumComputation> storage;
  const ir::QuantumComputation& flat = ir::withIdentityLayouts(qc, storage);

  Canonical c;
  c.ops.reserve(flat.size());
  for (const ir::StandardOperation& op : flat) {
    // identity operations carry no functionality (controlled identity
    // included); uncontrolled GPhase folds into the accumulated phase
    if (op.type() == ir::OpType::I) {
      ++c.dropped;
      continue;
    }
    if (op.type() == ir::OpType::GPhase && op.controls().empty()) {
      c.phase += op.param(0);
      ++c.dropped;
      continue;
    }
    // zero-angle rotations are exactly the identity (RX/RY/RZ/Phase alike)
    if (isMergeableRotation(op) && quantizeParam(op.param(0)) == 0) {
      ++c.dropped;
      continue;
    }
    if (isMergeableRotation(op) && !c.ops.empty()) {
      const ir::StandardOperation& prev = c.ops.back();
      if (prev.type() == op.type() && prev.targets() == op.targets() &&
          prev.controls() == op.controls()) {
        // same-axis rotations are additive: R(a) R(b) = R(a + b)
        const double sum = prev.param(0) + op.param(0);
        ++c.merged;
        c.ops.pop_back();
        if (quantizeParam(sum) != 0) {
          c.ops.push_back(ir::StandardOperation::makeUnchecked(
              op.type(), op.targets(), op.controls(), {sum, 0, 0}));
        } else {
          ++c.dropped;
        }
        continue;
      }
    }
    c.ops.push_back(op);
  }
  return c;
}

/// Epsilon-tolerant structural equality: same type, targets, controls, and
/// every parameter in the same quantization bucket.
bool sameOperation(const ir::StandardOperation& a,
                   const ir::StandardOperation& b) noexcept {
  if (a.type() != b.type() || a.targets() != b.targets() ||
      a.controls() != b.controls()) {
    return false;
  }
  for (std::size_t p = 0; p < ir::numParams(a.type()); ++p) {
    if (quantizeParam(a.params()[p]) != quantizeParam(b.params()[p])) {
      return false;
    }
  }
  return true;
}

/// True iff the single operation is provably NOT proportional to the
/// identity. Conservative: false means "unknown", never "is identity".
bool provablyNotIdentity(const ir::StandardOperation& op) {
  const auto rotationNontrivial = [&](double angle) {
    // R(theta) ~ I iff theta = 0 mod 2*pi (theta = 2*pi gives -I, which IS
    // proportional to the identity), same for the Phase gate's diag form
    return !isFullTurn(angle);
  };
  switch (op.type()) {
  case ir::OpType::I:
    return false;
  case ir::OpType::GPhase:
    // uncontrolled GPhase IS proportional to the identity; a controlled
    // GPhase(theta != 0 mod 2pi) is a relative phase and is not
    return !op.controls().empty() && rotationNontrivial(op.param(0));
  case ir::OpType::H:
  case ir::OpType::X:
  case ir::OpType::Y:
  case ir::OpType::Z:
  case ir::OpType::S:
  case ir::OpType::Sdg:
  case ir::OpType::T:
  case ir::OpType::Tdg:
  case ir::OpType::V:
  case ir::OpType::Vdg:
  case ir::OpType::SY:
  case ir::OpType::SYdg:
  case ir::OpType::SWAP:
  case ir::OpType::U2: // off-diagonals are 1/sqrt(2) for every angle pair
    return true;
  case ir::OpType::RX:
  case ir::OpType::RY:
  case ir::OpType::RZ:
  case ir::OpType::Phase:
    return rotationNontrivial(op.param(0));
  case ir::OpType::U3:
    // U3(0, phi, lambda) ~ diag(1, e^{i(phi+lambda)})
    return rotationNontrivial(op.param(0)) ||
           rotationNontrivial(op.param(1) + op.param(2));
  }
  return false;
}

/// True iff the operations touch pairwise disjoint qubit sets (so their
/// product factorizes as a tensor product of the individual gates).
bool disjointSupports(const std::vector<ir::StandardOperation>& ops) {
  std::set<ir::Qubit> seen;
  for (const ir::StandardOperation& op : ops) {
    for (const ir::Qubit q : op.usedQubits()) {
      if (!seen.insert(q).second) {
        return false;
      }
    }
  }
  return true;
}

ir::QuantumComputation buildResidual(const ir::QuantumComputation& source,
                                     const std::vector<ir::StandardOperation>& ops,
                                     std::size_t lo, std::size_t hi) {
  ir::QuantumComputation out(source.qubits(), source.name());
  for (std::size_t i = lo; i < hi; ++i) {
    out.emplace(ops[i]);
  }
  return out;
}

Diagnostic pairNote(const char* rule, Severity severity, std::string message) {
  return Diagnostic{rule, severity, std::nullopt, 0, std::move(message),
                    /*pair=*/true};
}

} // namespace

PrescreenResult prescreenPair(const ir::QuantumComputation& qc1,
                              const ir::QuantumComputation& qc2) {
  PrescreenResult result;
  const Canonical a = canonicalize(qc1);
  const Canonical b = canonicalize(qc2);
  result.mergedRotations = a.merged + b.merged;
  result.droppedIdentities = a.dropped + b.dropped;
  result.phaseG = a.phase;
  result.phaseGPrime = b.phase;

  for (const auto& [canonical, circuit] :
       {std::pair{&a, std::size_t{0}}, std::pair{&b, std::size_t{1}}}) {
    if (canonical->merged + canonical->dropped > 0) {
      result.diagnostics.push_back(Diagnostic{
          rules::RotationsMerged, Severity::Note, std::nullopt, circuit,
          "canonicalization merged " + std::to_string(canonical->merged) +
              " adjacent rotation(s) and dropped " +
              std::to_string(canonical->dropped) +
              " identity-like operation(s)"});
    }
  }

  // strip the matching prefix, then the matching suffix of what remains
  std::size_t lo = 0;
  const std::size_t minSize = std::min(a.ops.size(), b.ops.size());
  while (lo < minSize && sameOperation(a.ops[lo], b.ops[lo])) {
    ++lo;
  }
  std::size_t hiA = a.ops.size();
  std::size_t hiB = b.ops.size();
  while (hiA > lo && hiB > lo &&
         sameOperation(a.ops[hiA - 1], b.ops[hiB - 1])) {
    --hiA;
    --hiB;
  }
  result.strippedPrefix = lo;
  result.strippedSuffix = a.ops.size() - hiA;
  result.residualG = buildResidual(qc1, a.ops, lo, hiA);
  result.residualGPrime = buildResidual(qc2, b.ops, lo, hiB);

  if (result.strippedPrefix > 0) {
    result.diagnostics.push_back(pairNote(
        rules::PrefixStripped, Severity::Note,
        "stripped " + std::to_string(result.strippedPrefix) +
            " matching prefix operation(s) shared by both circuits"));
  }
  if (result.strippedSuffix > 0) {
    result.diagnostics.push_back(pairNote(
        rules::SuffixStripped, Severity::Note,
        "stripped " + std::to_string(result.strippedSuffix) +
            " matching suffix operation(s) shared by both circuits"));
  }

  const std::size_t sizeA = hiA - lo;
  const std::size_t sizeB = hiB - lo;
  if (sizeA == 0 && sizeB == 0) {
    if (isFullTurn(a.phase - b.phase)) {
      result.verdict = StaticVerdict::Identical;
      result.diagnostics.push_back(pairNote(
          rules::StaticallyIdentical, Severity::Note,
          "the circuits are identical after canonicalization; the pair is "
          "equivalent without any simulation"));
    } else {
      result.verdict = StaticVerdict::IdenticalUpToGlobalPhase;
      result.diagnostics.push_back(pairNote(
          rules::StaticallyEqualUpToPhase, Severity::Note,
          "the circuits are identical after canonicalization up to a global "
          "phase of " + std::to_string(a.phase - b.phase) + " rad"));
    }
    return result;
  }

  if (sizeA == 0 || sizeB == 0) {
    // one side reduced to the identity: if the other side's residual is a
    // tensor product of gates with at least one factor provably not ~ I,
    // the product cannot be ~ I either — an exact static disproof
    const std::vector<ir::StandardOperation>& residual =
        sizeA == 0 ? b.ops : a.ops;
    const std::size_t rLo = lo;
    const std::size_t rHi = sizeA == 0 ? hiB : hiA;
    std::vector<ir::StandardOperation> window(residual.begin() +
                                                  static_cast<std::ptrdiff_t>(rLo),
                                              residual.begin() +
                                                  static_cast<std::ptrdiff_t>(rHi));
    if (disjointSupports(window)) {
      for (std::size_t i = 0; i < window.size(); ++i) {
        if (provablyNotIdentity(window[i])) {
          result.verdict = StaticVerdict::Distinct;
          result.diagnostics.push_back(pairNote(
              rules::StaticallyDistinct, Severity::Warning,
              "one circuit reduces to the identity while the other retains " +
                  std::string(ir::toString(window[i].type())) +
                  " (a gate not proportional to the identity) on a disjoint "
                  "support; the pair is not equivalent"));
          return result;
        }
      }
    }
  }

  return result;
}

TierHint routeTier(const PairProfile& profile,
                   const PrescreenResult& prescreen) noexcept {
  if (prescreen.verdict != StaticVerdict::Undecided) {
    return TierHint::Static;
  }
  if (profile.combined() == GateSetClass::CliffordOnly) {
    return TierHint::Stabilizer;
  }
  return TierHint::General;
}

} // namespace qsimec::analysis
