#include "ir/operation.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace qsimec::ir {

StandardOperation::StandardOperation(OpType type, std::vector<Qubit> targets,
                                     std::vector<Control> controls,
                                     std::array<double, 3> params)
    : type_(type), targets_(std::move(targets)),
      controls_(std::move(controls)), params_(params) {
  if (targets_.size() != numTargets(type)) {
    throw std::invalid_argument("StandardOperation: wrong number of targets");
  }
  if (type == OpType::SWAP && targets_[0] == targets_[1]) {
    throw std::invalid_argument("StandardOperation: SWAP targets must differ");
  }
  for (std::size_t i = 0; i < numParams(type); ++i) {
    if (!std::isfinite(params_[i])) {
      throw std::invalid_argument("StandardOperation: non-finite parameter");
    }
  }
  std::sort(controls_.begin(), controls_.end());
  for (std::size_t i = 0; i < controls_.size(); ++i) {
    if (i > 0 && controls_[i - 1].qubit == controls_[i].qubit) {
      throw std::invalid_argument("StandardOperation: duplicate control");
    }
    for (const Qubit t : targets_) {
      if (controls_[i].qubit == t) {
        throw std::invalid_argument(
            "StandardOperation: control coincides with target");
      }
    }
  }
}

StandardOperation StandardOperation::makeUnchecked(
    OpType type, std::vector<Qubit> targets, std::vector<Control> controls,
    std::array<double, 3> params) {
  StandardOperation op;
  op.type_ = type;
  op.targets_ = std::move(targets);
  std::sort(controls.begin(), controls.end());
  op.controls_ = std::move(controls);
  op.params_ = params;
  return op;
}

bool StandardOperation::actsOn(Qubit q) const noexcept {
  if (std::find(targets_.begin(), targets_.end(), q) != targets_.end()) {
    return true;
  }
  return std::any_of(controls_.begin(), controls_.end(),
                     [q](const Control& c) { return c.qubit == q; });
}

std::vector<Qubit> StandardOperation::usedQubits() const {
  std::vector<Qubit> qubits = targets_;
  for (const Control& c : controls_) {
    qubits.push_back(c.qubit);
  }
  return qubits;
}

Qubit StandardOperation::maxQubit() const {
  Qubit m = 0;
  forEachQubit([&m](Qubit q) { m = std::max(m, q); });
  return m;
}

StandardOperation StandardOperation::inverse() const {
  constexpr double PI = std::numbers::pi;
  OpType t = type_;
  std::array<double, 3> p = params_;
  switch (type_) {
  case OpType::I:
  case OpType::H:
  case OpType::X:
  case OpType::Y:
  case OpType::Z:
  case OpType::SWAP:
    break; // self-inverse
  case OpType::S:
    t = OpType::Sdg;
    break;
  case OpType::Sdg:
    t = OpType::S;
    break;
  case OpType::T:
    t = OpType::Tdg;
    break;
  case OpType::Tdg:
    t = OpType::T;
    break;
  case OpType::V:
    t = OpType::Vdg;
    break;
  case OpType::Vdg:
    t = OpType::V;
    break;
  case OpType::SY:
    t = OpType::SYdg;
    break;
  case OpType::SYdg:
    t = OpType::SY;
    break;
  case OpType::RX:
  case OpType::RY:
  case OpType::RZ:
  case OpType::Phase:
  case OpType::GPhase:
    p[0] = -p[0];
    break;
  case OpType::U2:
    // U2(phi, lambda)† = U3(-pi/2, -lambda, -phi)
    t = OpType::U3;
    p = {-PI / 2, -params_[1], -params_[0]};
    break;
  case OpType::U3:
    p = {-params_[0], -params_[2], -params_[1]};
    break;
  }
  // unchecked: a valid operation's inverse is valid, and a malformed one
  // (admitted by a lint-mode parse) still gets an inverse for
  // isInverseOf to compare against
  return makeUnchecked(t, targets_, controls_, p);
}

bool StandardOperation::isInverseOf(const StandardOperation& other) const {
  if (targets_ != other.targets_ || controls_ != other.controls_) {
    return false;
  }
  const StandardOperation inv = other.inverse();
  if (type_ != inv.type_) {
    return false;
  }
  for (std::size_t i = 0; i < numParams(type_); ++i) {
    if (std::abs(params_[i] - inv.params_[i]) > 1e-12) {
      return false;
    }
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const StandardOperation& op) {
  for (const Control& c : op.controls_) {
    os << (c.positive ? "c" : "n");
  }
  os << toString(op.type_);
  if (numParams(op.type_) > 0) {
    os << "(";
    for (std::size_t i = 0; i < numParams(op.type_); ++i) {
      if (i > 0) {
        os << ",";
      }
      os << op.params_[i];
    }
    os << ")";
  }
  os << " ";
  bool first = true;
  for (const Control& c : op.controls_) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "q" << c.qubit;
  }
  for (const Qubit t : op.targets_) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "q" << t;
  }
  return os;
}

} // namespace qsimec::ir
