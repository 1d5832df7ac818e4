// A single quantum operation: an OpType with targets, optional controls, and
// angle parameters. Value type; circuits are vectors of these.

#pragma once

#include "ir/op_type.hpp"

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

namespace qsimec::ir {

using Qubit = std::uint16_t;

struct Control {
  Qubit qubit{};
  bool positive{true};

  [[nodiscard]] bool operator==(const Control&) const = default;
  [[nodiscard]] auto operator<=>(const Control& o) const {
    return qubit <=> o.qubit;
  }
};

class StandardOperation {
public:
  StandardOperation() = default;
  /// std::invalid_argument unless the class invariants hold: numTargets(type)
  /// distinct targets, controls disjoint from the targets and from each
  /// other, and finite values in the first numParams(type) parameter slots
  /// (the others are never read).
  StandardOperation(OpType type, std::vector<Qubit> targets,
                    std::vector<Control> controls = {},
                    std::array<double, 3> params = {});

  /// Build an operation WITHOUT enforcing the class invariants. For
  /// deserializers and the lint front end, which admit malformed input and
  /// hand it to analysis::CircuitAnalyzer instead of throwing; everything
  /// else should use the checked constructor.
  [[nodiscard]] static StandardOperation
  makeUnchecked(OpType type, std::vector<Qubit> targets,
                std::vector<Control> controls = {},
                std::array<double, 3> params = {});

  [[nodiscard]] OpType type() const noexcept { return type_; }
  [[nodiscard]] const std::vector<Qubit>& targets() const noexcept {
    return targets_;
  }
  [[nodiscard]] const std::vector<Control>& controls() const noexcept {
    return controls_;
  }
  [[nodiscard]] const std::array<double, 3>& params() const noexcept {
    return params_;
  }
  [[nodiscard]] double param(std::size_t i) const { return params_.at(i); }

  [[nodiscard]] Qubit target() const { return targets_.front(); }

  [[nodiscard]] bool isControlled() const noexcept {
    return !controls_.empty();
  }
  [[nodiscard]] bool actsOn(Qubit q) const noexcept;
  /// All qubits touched by the operation (targets then controls).
  [[nodiscard]] std::vector<Qubit> usedQubits() const;
  /// Highest qubit index used.
  [[nodiscard]] Qubit maxQubit() const;

  /// The inverse operation (same targets/controls, adjoint functionality).
  [[nodiscard]] StandardOperation inverse() const;

  /// True if this operation is the exact inverse of `other` on the same
  /// qubits (used by the cancellation optimizer).
  [[nodiscard]] bool isInverseOf(const StandardOperation& other) const;

  [[nodiscard]] bool operator==(const StandardOperation&) const = default;

  friend std::ostream& operator<<(std::ostream& os,
                                  const StandardOperation& op);

private:
  OpType type_{OpType::I};
  std::vector<Qubit> targets_;
  std::vector<Control> controls_; // kept sorted by qubit
  std::array<double, 3> params_{};
};

} // namespace qsimec::ir
