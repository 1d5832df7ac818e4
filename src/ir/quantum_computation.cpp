#include "ir/quantum_computation.hpp"

#include <algorithm>
#include <stdexcept>

namespace qsimec::ir {

void QuantumComputation::setInitialLayout(Permutation p) {
  if (p.size() != nqubits_) {
    throw std::invalid_argument("initial layout size mismatch");
  }
  initialLayout_ = std::move(p);
}

void QuantumComputation::setOutputPermutation(Permutation p) {
  if (p.size() != nqubits_) {
    throw std::invalid_argument("output permutation size mismatch");
  }
  outputPermutation_ = std::move(p);
}

void QuantumComputation::checkQubit(Qubit q) const {
  if (q >= nqubits_) {
    throw std::out_of_range("qubit index out of range");
  }
}

void QuantumComputation::emplace(StandardOperation op) {
  op.forEachQubit([this](Qubit q) { checkQubit(q); });
  ops_.push_back(std::move(op));
}

void QuantumComputation::gate(OpType t, Qubit target,
                              std::vector<Control> controls,
                              std::array<double, 3> params) {
  emplace(StandardOperation(t, {target}, std::move(controls), params));
}

void QuantumComputation::mcx(const std::vector<Qubit>& controls, Qubit target) {
  std::vector<Control> cs;
  cs.reserve(controls.size());
  for (const Qubit q : controls) {
    cs.push_back(Control{q, true});
  }
  x(target, std::move(cs));
}

void QuantumComputation::mcz(const std::vector<Qubit>& controls, Qubit target) {
  std::vector<Control> cs;
  cs.reserve(controls.size());
  for (const Qubit q : controls) {
    cs.push_back(Control{q, true});
  }
  z(target, std::move(cs));
}

void QuantumComputation::swap(Qubit q0, Qubit q1, std::vector<Control> c) {
  emplace(StandardOperation(OpType::SWAP, {q0, q1}, std::move(c)));
}

QuantumComputation QuantumComputation::inverse() const {
  QuantumComputation inv(nqubits_, name_.empty() ? "" : name_ + "_inv");
  inv.ops_.reserve(ops_.size());
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    inv.ops_.push_back(it->inverse());
  }
  inv.initialLayout_ = outputPermutation_;
  inv.outputPermutation_ = initialLayout_;
  return inv;
}

QuantumComputation QuantumComputation::withMaterializedLayouts() const {
  QuantumComputation out(nqubits_, name_);
  // initial layout P(in) = s_k ... s_1 applied before the gates: emit s_1
  // first
  for (const auto& [a, b] : initialLayout_.toSwaps()) {
    out.swap(a, b);
  }
  for (const StandardOperation& op : ops_) {
    out.emplace(op);
  }
  // output permutation: P(out)^-1 = s'_1 ... s'_k applied after the gates:
  // emit s'_k first
  const auto outSwaps = outputPermutation_.toSwaps();
  for (auto it = outSwaps.rbegin(); it != outSwaps.rend(); ++it) {
    out.swap(it->first, it->second);
  }
  return out;
}

const QuantumComputation&
withIdentityLayouts(const QuantumComputation& qc,
                    std::optional<QuantumComputation>& storage) {
  if (qc.initialLayout().isIdentity() && qc.outputPermutation().isIdentity()) {
    return qc;
  }
  return storage.emplace(qc.withMaterializedLayouts());
}

void QuantumComputation::append(const QuantumComputation& other) {
  if (other.qubits() != nqubits_) {
    throw std::invalid_argument("append: qubit count mismatch");
  }
  if (!other.initialLayout().isIdentity() ||
      !other.outputPermutation().isIdentity()) {
    throw std::invalid_argument("append: other circuit must have trivial layout");
  }
  ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
}

std::size_t QuantumComputation::countType(OpType t) const {
  return static_cast<std::size_t>(
      std::count_if(ops_.begin(), ops_.end(),
                    [t](const StandardOperation& op) { return op.type() == t; }));
}

std::size_t QuantumComputation::twoQubitGateCount() const {
  return static_cast<std::size_t>(std::count_if(
      ops_.begin(), ops_.end(), [](const StandardOperation& op) {
        return op.targets().size() + op.controls().size() == 2;
      }));
}

std::size_t QuantumComputation::depth() const {
  if (nqubits_ == 0) {
    return 0;
  }
  std::vector<std::size_t> level(nqubits_, 0);
  for (const StandardOperation& op : ops_) {
    std::size_t maxLevel = 0;
    op.forEachQubit([&](Qubit q) { maxLevel = std::max(maxLevel, level[q]); });
    op.forEachQubit([&](Qubit q) { level[q] = maxLevel + 1; });
  }
  return *std::max_element(level.begin(), level.end());
}

std::ostream& operator<<(std::ostream& os, const QuantumComputation& qc) {
  os << "// " << (qc.name_.empty() ? "circuit" : qc.name_) << ": "
     << qc.nqubits_ << " qubits, " << qc.ops_.size() << " gates\n";
  for (const StandardOperation& op : qc.ops_) {
    os << op << "\n";
  }
  return os;
}

} // namespace qsimec::ir
