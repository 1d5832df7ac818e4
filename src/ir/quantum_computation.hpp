// A quantum computation: an ordered list of operations on n qubits, plus the
// layout information produced by mapping (initial layout and output
// permutation). This is the representation every stage of the design flow —
// generation, decomposition, mapping, optimization, error injection,
// simulation, and equivalence checking — exchanges.

#pragma once

#include "ir/operation.hpp"
#include "ir/permutation.hpp"

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace qsimec::ir {

class QuantumComputation {
public:
  QuantumComputation() = default;
  explicit QuantumComputation(std::size_t nqubits, std::string name = "")
      : nqubits_(nqubits), name_(std::move(name)),
        initialLayout_(nqubits), outputPermutation_(nqubits) {}

  // --- metadata ---------------------------------------------------------
  [[nodiscard]] std::size_t qubits() const noexcept { return nqubits_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void setName(std::string name) { name_ = std::move(name); }

  [[nodiscard]] const Permutation& initialLayout() const noexcept {
    return initialLayout_;
  }
  [[nodiscard]] const Permutation& outputPermutation() const noexcept {
    return outputPermutation_;
  }
  void setInitialLayout(Permutation p);
  void setOutputPermutation(Permutation p);

  /// Size-unchecked layout setters, pairing with Permutation::makeUnchecked:
  /// admit malformed layouts for analysis::CircuitAnalyzer to diagnose.
  void setInitialLayoutUnchecked(Permutation p) {
    initialLayout_ = std::move(p);
  }
  void setOutputPermutationUnchecked(Permutation p) {
    outputPermutation_ = std::move(p);
  }

  // --- operation access ---------------------------------------------------
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  [[nodiscard]] const StandardOperation& at(std::size_t i) const {
    return ops_.at(i);
  }
  [[nodiscard]] const std::vector<StandardOperation>& ops() const noexcept {
    return ops_;
  }
  [[nodiscard]] std::vector<StandardOperation>& ops() noexcept { return ops_; }

  [[nodiscard]] auto begin() const noexcept { return ops_.begin(); }
  [[nodiscard]] auto end() const noexcept { return ops_.end(); }

  void emplace(StandardOperation op);
  void clearOps() { ops_.clear(); }

  // --- builder helpers ----------------------------------------------------
  void gate(OpType t, Qubit target, std::vector<Control> controls = {},
            std::array<double, 3> params = {});

  void i(Qubit q) { gate(OpType::I, q); }
  void h(Qubit q, std::vector<Control> c = {}) { gate(OpType::H, q, std::move(c)); }
  void x(Qubit q, std::vector<Control> c = {}) { gate(OpType::X, q, std::move(c)); }
  void y(Qubit q, std::vector<Control> c = {}) { gate(OpType::Y, q, std::move(c)); }
  void z(Qubit q, std::vector<Control> c = {}) { gate(OpType::Z, q, std::move(c)); }
  void s(Qubit q, std::vector<Control> c = {}) { gate(OpType::S, q, std::move(c)); }
  void sdg(Qubit q, std::vector<Control> c = {}) { gate(OpType::Sdg, q, std::move(c)); }
  void t(Qubit q, std::vector<Control> c = {}) { gate(OpType::T, q, std::move(c)); }
  void tdg(Qubit q, std::vector<Control> c = {}) { gate(OpType::Tdg, q, std::move(c)); }
  void v(Qubit q, std::vector<Control> c = {}) { gate(OpType::V, q, std::move(c)); }
  void vdg(Qubit q, std::vector<Control> c = {}) { gate(OpType::Vdg, q, std::move(c)); }
  void sy(Qubit q, std::vector<Control> c = {}) { gate(OpType::SY, q, std::move(c)); }
  void sydg(Qubit q, std::vector<Control> c = {}) { gate(OpType::SYdg, q, std::move(c)); }
  void rx(double theta, Qubit q, std::vector<Control> c = {}) {
    gate(OpType::RX, q, std::move(c), {theta, 0, 0});
  }
  void ry(double theta, Qubit q, std::vector<Control> c = {}) {
    gate(OpType::RY, q, std::move(c), {theta, 0, 0});
  }
  void rz(double theta, Qubit q, std::vector<Control> c = {}) {
    gate(OpType::RZ, q, std::move(c), {theta, 0, 0});
  }
  void phase(double lambda, Qubit q, std::vector<Control> c = {}) {
    gate(OpType::Phase, q, std::move(c), {lambda, 0, 0});
  }
  void u2(double phi, double lambda, Qubit q, std::vector<Control> c = {}) {
    gate(OpType::U2, q, std::move(c), {phi, lambda, 0});
  }
  void u3(double theta, double phi, double lambda, Qubit q,
          std::vector<Control> c = {}) {
    gate(OpType::U3, q, std::move(c), {theta, phi, lambda});
  }
  void cx(Qubit control, Qubit target) { x(target, {Control{control, true}}); }
  void cz(Qubit control, Qubit target) { z(target, {Control{control, true}}); }
  void ccx(Qubit c0, Qubit c1, Qubit target) {
    x(target, {Control{c0, true}, Control{c1, true}});
  }
  void mcx(const std::vector<Qubit>& controls, Qubit target);
  void mcz(const std::vector<Qubit>& controls, Qubit target);
  void swap(Qubit q0, Qubit q1, std::vector<Control> c = {});

  // --- whole-circuit transforms ----------------------------------------
  /// The inverse computation: reversed gate order, each gate inverted, and
  /// input/output layouts exchanged.
  [[nodiscard]] QuantumComputation inverse() const;

  /// The same functionality with trivial layouts: the initial layout and the
  /// output permutation are turned into explicit SWAP gates at the circuit
  /// boundaries. Needed by exporters and rewriting passes that operate on
  /// the plain gate list.
  [[nodiscard]] QuantumComputation withMaterializedLayouts() const;

  /// Append all operations of `other` (qubit counts must match; `other`'s
  /// layouts must be trivial).
  void append(const QuantumComputation& other);

  // --- statistics -----------------------------------------------------
  [[nodiscard]] std::size_t countType(OpType t) const;
  [[nodiscard]] std::size_t twoQubitGateCount() const;
  /// Circuit depth (longest chain of operations sharing qubits).
  [[nodiscard]] std::size_t depth() const;

  friend std::ostream& operator<<(std::ostream& os,
                                  const QuantumComputation& qc);

private:
  void checkQubit(Qubit q) const;

  std::size_t nqubits_{0};
  std::string name_;
  std::vector<StandardOperation> ops_;
  Permutation initialLayout_;
  Permutation outputPermutation_;
};

/// The gate stream of `qc` with identity layouts: `qc` itself when both of
/// its layouts are trivial, else qc.withMaterializedLayouts() held in
/// `storage`. Copies the circuit only when the layouts require it.
[[nodiscard]] const QuantumComputation&
withIdentityLayouts(const QuantumComputation& qc,
                    std::optional<QuantumComputation>& storage);

} // namespace qsimec::ir
