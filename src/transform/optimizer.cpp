#include "transform/optimizer.hpp"

#include "sim/dd_simulator.hpp" // operationMatrix
#include "transform/decomposition.hpp" // zyzDecompose

#include <cmath>
#include <numbers>
#include <optional>
#include <vector>

namespace qsimec::tf {

namespace {

using ir::OpType;
using ir::Qubit;
using ir::StandardOperation;

constexpr double EPS = 1e-12;

bool isRotationLike(OpType t) {
  return t == OpType::RX || t == OpType::RY || t == OpType::RZ ||
         t == OpType::Phase || t == OpType::GPhase;
}

/// Angle equivalent to zero for the given rotation kind?
bool angleIsZero(OpType t, double theta) {
  const double period =
      (t == OpType::Phase || t == OpType::GPhase) ? 2 * std::numbers::pi
                                                  : 4 * std::numbers::pi;
  const double reduced = std::remainder(theta, period);
  return std::abs(reduced) < EPS;
}

bool isIdentityOp(const StandardOperation& op) {
  if (op.type() == OpType::I) {
    return true;
  }
  if (isRotationLike(op.type())) {
    return angleIsZero(op.type(), op.param(0));
  }
  return false;
}

class Worklist {
public:
  explicit Worklist(const ir::QuantumComputation& qc) {
    ops_.reserve(qc.size());
    for (const StandardOperation& op : qc) {
      ops_.emplace_back(op);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] bool active(std::size_t i) const { return ops_[i].has_value(); }
  [[nodiscard]] const StandardOperation& get(std::size_t i) const {
    return *ops_[i];
  }
  void set(std::size_t i, StandardOperation op) { ops_[i] = std::move(op); }
  void remove(std::size_t i) { ops_[i].reset(); }

  /// Index of the closest previous active operation sharing a qubit with
  /// `op`, or npos. Operations on disjoint qubits commute and are skipped.
  [[nodiscard]] std::size_t previousIntersecting(std::size_t i,
                                                 const StandardOperation& op) const {
    for (std::size_t j = i; j-- > 0;) {
      if (!ops_[j].has_value()) {
        continue;
      }
      for (const Qubit q : ops_[j]->usedQubits()) {
        if (op.actsOn(q)) {
          return j;
        }
      }
    }
    return npos;
  }

  [[nodiscard]] std::vector<StandardOperation> collect() && {
    std::vector<StandardOperation> result;
    for (auto& op : ops_) {
      if (op.has_value()) {
        result.push_back(std::move(*op));
      }
    }
    return result;
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

private:
  std::vector<std::optional<StandardOperation>> ops_;
};

bool sameQubitFootprint(const StandardOperation& a, const StandardOperation& b) {
  return a.targets() == b.targets() && a.controls() == b.controls();
}

/// Per-qubit commutation class: gates sharing only qubits on which both act
/// "diagonally" (Z-axis, incl. controls) or both act "X-axis-like" commute.
enum class AxisClass { Diagonal, XAxis, Other };

AxisClass axisClassAt(const StandardOperation& op, Qubit q) {
  for (const ir::Control& c : op.controls()) {
    if (c.qubit == q) {
      // a negative control is diag(1,0)/projector-like in the 0-subspace —
      // still diagonal in the computational basis
      return AxisClass::Diagonal;
    }
  }
  if (isDiagonal(op.type())) {
    return AxisClass::Diagonal;
  }
  switch (op.type()) {
  case OpType::X:
  case OpType::RX:
  case OpType::V:
  case OpType::Vdg:
    return AxisClass::XAxis;
  default:
    return AxisClass::Other;
  }
}

/// Sound (not complete) commutation check: every shared qubit must carry
/// the same non-Other axis class in both operations.
bool operationsCommute(const StandardOperation& a, const StandardOperation& b) {
  // an uncontrolled global phase is a scalar: commutes with everything
  // (its nominal target qubit is a representation artifact)
  if ((a.type() == OpType::GPhase && a.controls().empty()) ||
      (b.type() == OpType::GPhase && b.controls().empty())) {
    return true;
  }
  for (const Qubit q : a.usedQubits()) {
    if (!b.actsOn(q)) {
      continue;
    }
    const AxisClass ca = axisClassAt(a, q);
    const AxisClass cb = axisClassAt(b, q);
    if (ca != cb || ca == AxisClass::Other) {
      return false;
    }
  }
  return true;
}

std::size_t cancelPass(Worklist& work, bool commutationAware) {
  std::size_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (!work.active(i)) {
        continue;
      }
      const StandardOperation& op = work.get(i);
      // scan backwards, sliding over commuting gates
      for (std::size_t j = i; j-- > 0;) {
        if (!work.active(j)) {
          continue;
        }
        const StandardOperation& prev = work.get(j);
        bool shares = false;
        for (const Qubit q : prev.usedQubits()) {
          shares = shares || op.actsOn(q);
        }
        if (!shares) {
          continue;
        }
        if (sameQubitFootprint(op, prev) && op.isInverseOf(prev)) {
          work.remove(i);
          work.remove(j);
          removed += 2;
          changed = true;
          break;
        }
        if (!commutationAware || !operationsCommute(op, prev)) {
          break; // blocked
        }
        // commutes: keep scanning past it
      }
    }
  }
  return removed;
}

std::size_t mergePass(Worklist& work, bool commutationAware) {
  std::size_t merged = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (!work.active(i)) {
        continue;
      }
      const StandardOperation& op = work.get(i);
      if (!isRotationLike(op.type())) {
        continue;
      }
      for (std::size_t j = i; j-- > 0;) {
        if (!work.active(j)) {
          continue;
        }
        const StandardOperation& prev = work.get(j);
        bool shares = false;
        for (const Qubit q : prev.usedQubits()) {
          shares = shares || op.actsOn(q);
        }
        if (!shares) {
          continue;
        }
        if (prev.type() == op.type() && sameQubitFootprint(op, prev)) {
          const double sum = op.param(0) + prev.param(0);
          if (!std::isfinite(sum)) {
            break; // two huge angles overflow a double: keep both gates
          }
          work.remove(j);
          ++merged;
          if (angleIsZero(op.type(), sum)) {
            work.remove(i);
          } else {
            work.set(i, StandardOperation(op.type(), op.targets(),
                                          op.controls(), {sum, 0, 0}));
          }
          changed = true;
          break;
        }
        if (!commutationAware || !operationsCommute(op, prev)) {
          break;
        }
      }
    }
  }
  return merged;
}

/// 2x2 complex matrix product a·b on GateMatrix values.
dd::GateMatrix matMul(const dd::GateMatrix& a, const dd::GateMatrix& b) {
  return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
          a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

std::size_t fusePass(Worklist& work, std::size_t nqubits,
                     std::vector<StandardOperation>& extraPhases) {
  std::size_t fused = 0;
  // pending run of uncontrolled single-qubit gate indices per qubit
  std::vector<std::vector<std::size_t>> runs(nqubits);
  double globalPhase = 0.0;

  const auto flush = [&](Qubit q) {
    auto& run = runs[q];
    if (run.size() >= 2) {
      dd::GateMatrix m = dd::Imat;
      for (const std::size_t idx : run) {
        m = matMul(sim::operationMatrix(work.get(idx)), m);
      }
      const ZYZAngles z = zyzDecompose(m);
      for (const std::size_t idx : run) {
        work.remove(idx);
      }
      // U = e^{i(alpha - (beta+delta)/2)} · u3(gamma, beta, delta)
      work.set(run.back(),
               StandardOperation(OpType::U3, {q}, {},
                                 {z.gamma, z.beta, z.delta}));
      globalPhase += z.alpha - (z.beta + z.delta) / 2;
      fused += run.size() - 1;
    }
    run.clear();
  };

  for (std::size_t i = 0; i < work.size(); ++i) {
    if (!work.active(i)) {
      continue;
    }
    const StandardOperation& op = work.get(i);
    const std::vector<Qubit> used = op.usedQubits();
    const bool fusible = used.size() == 1 && op.controls().empty() &&
                         op.type() != OpType::GPhase &&
                         op.type() != OpType::SWAP;
    if (fusible) {
      runs[used[0]].push_back(i);
    } else if (op.type() == OpType::GPhase && op.controls().empty()) {
      globalPhase += op.param(0);
      work.remove(i);
    } else {
      for (const Qubit q : used) {
        flush(q);
      }
    }
  }
  for (Qubit q = 0; q < nqubits; ++q) {
    flush(q);
  }
  if (!angleIsZero(OpType::GPhase, globalPhase)) {
    extraPhases.emplace_back(OpType::GPhase, std::vector<Qubit>{0},
                             std::vector<ir::Control>{},
                             std::array<double, 3>{globalPhase, 0, 0});
  }
  return fused;
}

} // namespace

ir::QuantumComputation optimize(const ir::QuantumComputation& qc,
                                const OptimizerOptions& options,
                                OptimizationStats* stats) {
  Worklist work(qc);
  OptimizationStats local;

  if (options.removeIdentities) {
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (work.active(i) && isIdentityOp(work.get(i))) {
        work.remove(i);
        ++local.removedGates;
      }
    }
  }
  if (options.cancelInversePairs) {
    local.removedGates += cancelPass(work, options.commutationAware);
  }
  if (options.mergeRotations) {
    local.mergedRotations += mergePass(work, options.commutationAware);
    if (options.cancelInversePairs) {
      // merging may expose new pairs
      local.removedGates += cancelPass(work, options.commutationAware);
    }
  }
  std::vector<ir::StandardOperation> extraPhases;
  if (options.fuseSingleQubitGates) {
    local.fusedGates += fusePass(work, qc.qubits(), extraPhases);
  }

  ir::QuantumComputation out(qc.qubits(),
                             qc.name().empty() ? "" : qc.name() + "_opt");
  for (auto& op : std::move(work).collect()) {
    out.emplace(std::move(op));
  }
  for (auto& op : extraPhases) {
    out.emplace(std::move(op));
  }
  out.setInitialLayout(qc.initialLayout());
  out.setOutputPermutation(qc.outputPermutation());

  if (stats != nullptr) {
    *stats = local;
  }
  return out;
}

} // namespace qsimec::tf
