#include "analysis/profile.hpp"

#include "util/json.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace qsimec::analysis {

namespace {

/// True iff `angle` is an integer multiple of `grid` within the same 1e-9
/// turn tolerance sim::StabilizerSimulator::quarterTurns uses.
bool onAngleGrid(double angle, double grid) noexcept {
  if (!std::isfinite(angle)) {
    return false;
  }
  const double turns = angle / grid;
  return std::abs(turns - std::round(turns)) <= 1e-9;
}

bool isCliffordLike(const ir::StandardOperation& op, double phaseGrid) {
  using ir::OpType;
  const auto& controls = op.controls();
  if (controls.size() > 1) {
    return false;
  }
  if (controls.size() == 1) {
    // the tableau simulator wraps a negative control with X gates, so
    // polarity does not matter — only the controlled operation does
    switch (op.type()) {
    case OpType::X:
    case OpType::Y:
    case OpType::Z:
      return true;
    default:
      return false;
    }
  }
  switch (op.type()) {
  case OpType::I:
  case OpType::GPhase:
  case OpType::H:
  case OpType::X:
  case OpType::Y:
  case OpType::Z:
  case OpType::S:
  case OpType::Sdg:
  case OpType::V:
  case OpType::Vdg:
  case OpType::SY:
  case OpType::SYdg:
  case OpType::SWAP:
    return true;
  case OpType::Phase:
  case OpType::RZ:
    return onAngleGrid(op.param(0), phaseGrid);
  default:
    return false;
  }
}

} // namespace

bool isCliffordOperation(const ir::StandardOperation& op) {
  return isCliffordLike(op, std::numbers::pi / 2);
}

bool isCliffordTOperation(const ir::StandardOperation& op) {
  if (isCliffordLike(op, std::numbers::pi / 4)) {
    return true;
  }
  // T/Tdg are the only extra named gates of the pi/4 layer
  return op.controls().empty() &&
         (op.type() == ir::OpType::T || op.type() == ir::OpType::Tdg);
}

CircuitProfile profileCircuit(const ir::QuantumComputation& qc) {
  CircuitProfile profile;
  profile.qubits = qc.qubits();
  profile.gates = qc.size();
  profile.depth = qc.depth();
  profile.twoQubitGates = qc.twoQubitGateCount();
  profile.layoutsTrivial =
      qc.initialLayout().isIdentity() && qc.outputPermutation().isIdentity();

  std::vector<bool> used(qc.qubits(), false);
  for (std::size_t i = 0; i < qc.size(); ++i) {
    const ir::StandardOperation& op = qc.at(i);
    const std::size_t arity = op.controls().size();
    if (arity >= profile.controlArity.size()) {
      profile.controlArity.resize(arity + 1, 0);
    }
    ++profile.controlArity[arity];
    op.forEachQubit([&used](ir::Qubit q) {
      if (q < used.size()) {
        used[q] = true;
      }
    });
    if (!isCliffordOperation(op)) {
      ++profile.cliffordBreakerCount;
      if (profile.cliffordBreakers.size() < kMaxReportedBreakers) {
        profile.cliffordBreakers.push_back(i);
      }
      if (isCliffordTOperation(op)) {
        ++profile.tGates;
      } else {
        ++profile.generalGates;
        ++profile.cliffordTBreakerCount;
        if (profile.cliffordTBreakers.size() < kMaxReportedBreakers) {
          profile.cliffordTBreakers.push_back(i);
        }
      }
    }
  }
  for (std::size_t q = 0; q < used.size(); ++q) {
    if (used[q]) {
      profile.support.push_back(static_cast<ir::Qubit>(q));
    }
  }

  if (profile.cliffordBreakerCount == 0) {
    profile.gateSet = GateSetClass::CliffordOnly;
  } else if (profile.cliffordTBreakerCount == 0) {
    profile.gateSet = GateSetClass::CliffordT;
  } else {
    profile.gateSet = GateSetClass::General;
  }
  return profile;
}

PairProfile profilePair(const ir::QuantumComputation& qc1,
                        const ir::QuantumComputation& qc2) {
  return PairProfile{profileCircuit(qc1), profileCircuit(qc2)};
}

StrategyHint strategyHint(const PairProfile& profile) noexcept {
  const std::size_t a = profile.g.gates;
  const std::size_t b = profile.gPrime.gates;
  if (a == b) {
    return StrategyHint::Naive;
  }
  const std::size_t large = std::max(a, b);
  const std::size_t small = std::min<std::size_t>(std::min(a, b), large);
  if (small == 0 || large / small >= 4) {
    return StrategyHint::Lookahead;
  }
  return StrategyHint::Proportional;
}

namespace {

std::string indexArrayJson(const std::vector<std::size_t>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(xs[i]);
  }
  out += ']';
  return out;
}

} // namespace

std::string toJson(const CircuitProfile& profile) {
  util::JsonWriter json;
  json.beginObject()
      .field("gate_set", toString(profile.gateSet))
      .field("qubits", static_cast<std::uint64_t>(profile.qubits))
      .field("gates", static_cast<std::uint64_t>(profile.gates))
      .field("depth", static_cast<std::uint64_t>(profile.depth))
      .field("two_qubit_gates",
             static_cast<std::uint64_t>(profile.twoQubitGates))
      .field("t_gates", static_cast<std::uint64_t>(profile.tGates))
      .field("general_gates",
             static_cast<std::uint64_t>(profile.generalGates))
      .field("max_controls", static_cast<std::uint64_t>(profile.maxControls()))
      .rawField("control_arity", indexArrayJson(profile.controlArity))
      .field("clifford_breakers",
             static_cast<std::uint64_t>(profile.cliffordBreakerCount))
      .rawField("clifford_breaker_gates",
                indexArrayJson(profile.cliffordBreakers))
      .field("clifford_t_breakers",
             static_cast<std::uint64_t>(profile.cliffordTBreakerCount))
      .rawField("clifford_t_breaker_gates",
                indexArrayJson(profile.cliffordTBreakers))
      .field("support", static_cast<std::uint64_t>(profile.support.size()))
      .field("layouts_trivial", profile.layoutsTrivial)
      .endObject();
  return json.str();
}

std::string toJson(const PairProfile& profile) {
  util::JsonWriter json;
  json.beginObject()
      .field("gate_set", toString(profile.combined()))
      .field("strategy_hint", toString(strategyHint(profile)))
      .rawField("g", toJson(profile.g))
      .rawField("g_prime", toJson(profile.gPrime))
      .endObject();
  return json.str();
}

} // namespace qsimec::analysis
