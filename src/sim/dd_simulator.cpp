#include "sim/dd_simulator.hpp"

#include <stdexcept>

namespace qsimec::sim {

dd::GateMatrix operationMatrix(const ir::StandardOperation& op) {
  using ir::OpType;
  switch (op.type()) {
  case OpType::I:
    return dd::Imat;
  case OpType::H:
    return dd::Hmat;
  case OpType::X:
    return dd::Xmat;
  case OpType::Y:
    return dd::Ymat;
  case OpType::Z:
    return dd::Zmat;
  case OpType::S:
    return dd::Smat;
  case OpType::Sdg:
    return dd::Sdgmat;
  case OpType::T:
    return dd::Tmat;
  case OpType::Tdg:
    return dd::Tdgmat;
  case OpType::V:
    return dd::Vmat;
  case OpType::Vdg:
    return dd::Vdgmat;
  case OpType::SY:
    return dd::SYmat;
  case OpType::SYdg:
    return dd::SYdgmat;
  case OpType::RX:
    return dd::rxMat(op.param(0));
  case OpType::RY:
    return dd::ryMat(op.param(0));
  case OpType::RZ:
    return dd::rzMat(op.param(0));
  case OpType::Phase:
    return dd::phaseMat(op.param(0));
  case OpType::U2:
    return dd::u2Mat(op.param(0), op.param(1));
  case OpType::U3:
    return dd::u3Mat(op.param(0), op.param(1), op.param(2));
  case OpType::GPhase: {
    const dd::ComplexValue ph = dd::ComplexValue::fromPolar(1, op.param(0));
    return dd::GateMatrix{ph, dd::ComplexValue{0, 0}, dd::ComplexValue{0, 0},
                          ph};
  }
  case OpType::SWAP:
    break;
  }
  throw std::logic_error("operationMatrix: not an elementary operation");
}

namespace {

std::vector<dd::Control> convertControls(const ir::StandardOperation& op) {
  std::vector<dd::Control> controls;
  controls.reserve(op.controls().size());
  for (const ir::Control& c : op.controls()) {
    controls.push_back(dd::Control{static_cast<dd::Var>(c.qubit), c.positive});
  }
  return controls;
}

/// Call `emit(matrix, target, controls)` for each elementary gate of `op` in
/// application order. A non-SWAP op is emitted straight from the op with its
/// controls copied into `buffer`, so a caller that reuses one buffer across
/// ops allocates nothing per op.
template <class Emit>
void forEachElementaryGate(const ir::StandardOperation& op,
                           std::vector<dd::Control>& buffer, const Emit& emit) {
  if (op.type() == ir::OpType::SWAP) {
    for (const ElementaryGate& g : toElementaryGates(op)) {
      emit(g.matrix, g.target, g.controls);
    }
    return;
  }
  buffer.clear();
  for (const ir::Control& c : op.controls()) {
    buffer.push_back(dd::Control{static_cast<dd::Var>(c.qubit), c.positive});
  }
  emit(operationMatrix(op), static_cast<dd::Var>(op.target()), buffer);
}

} // namespace

std::vector<ElementaryGate> toElementaryGates(const ir::StandardOperation& op) {
  if (op.type() != ir::OpType::SWAP) {
    return {ElementaryGate{operationMatrix(op),
                           static_cast<dd::Var>(op.target()),
                           convertControls(op)}};
  }
  // (controlled) SWAP(a, b) = CX(b,a) · C(controls ∪ {a})X(b) · CX(b,a):
  // only the middle CNOT needs the extra controls.
  const auto a = static_cast<dd::Var>(op.targets()[0]);
  const auto b = static_cast<dd::Var>(op.targets()[1]);
  std::vector<dd::Control> middleControls = convertControls(op);
  middleControls.push_back(dd::Control{a, true});
  return {
      ElementaryGate{dd::Xmat, a, {dd::Control{b, true}}},
      ElementaryGate{dd::Xmat, b, std::move(middleControls)},
      ElementaryGate{dd::Xmat, a, {dd::Control{b, true}}},
  };
}

dd::mEdge buildOperationDD(const ir::StandardOperation& op, dd::Package& pkg) {
  dd::mEdge result = pkg.makeIdent();
  std::vector<dd::Control> controls;
  forEachElementaryGate(
      op, controls,
      [&](const dd::GateMatrix& matrix, dd::Var target,
          const std::vector<dd::Control>& gateControls) {
        result =
            pkg.multiply(pkg.makeGateDD(matrix, target, gateControls), result);
      });
  return result;
}

std::vector<ElementaryGate> flattenToElementary(const ir::QuantumComputation& qc) {
  std::vector<ElementaryGate> gates;
  const auto emitSwap = [&gates](dd::Var a, dd::Var b) {
    gates.push_back(ElementaryGate{dd::Xmat, a, {dd::Control{b, true}}});
    gates.push_back(ElementaryGate{dd::Xmat, b, {dd::Control{a, true}}});
    gates.push_back(ElementaryGate{dd::Xmat, a, {dd::Control{b, true}}});
  };

  // initial layout: P(in) = s_k ··· s_1, emitted s_1 first
  for (const auto& [a, b] : qc.initialLayout().toSwaps()) {
    emitSwap(static_cast<dd::Var>(a), static_cast<dd::Var>(b));
  }
  for (const ir::StandardOperation& op : qc) {
    for (ElementaryGate& g : toElementaryGates(op)) {
      gates.push_back(std::move(g));
    }
  }
  // output permutation: P(out)† = s'_1 ··· s'_k, emitted s'_k first
  const auto outSwaps = qc.outputPermutation().toSwaps();
  for (auto it = outSwaps.rbegin(); it != outSwaps.rend(); ++it) {
    emitSwap(static_cast<dd::Var>(it->first), static_cast<dd::Var>(it->second));
  }
  return gates;
}

dd::mEdge buildPermutationDD(const ir::Permutation& perm, dd::Package& pkg) {
  dd::mEdge result = pkg.makeIdent();
  for (const auto& [a, b] : perm.toSwaps()) {
    result = pkg.multiply(
        pkg.makeSwapDD(static_cast<dd::Var>(a), static_cast<dd::Var>(b)),
        result);
  }
  return result;
}

dd::vEdge simulate(const ir::QuantumComputation& qc, const dd::vEdge& input,
                   dd::Package& pkg, const util::Deadline* deadline,
                   dd::AttributionCollector* attr, dd::AttrSide attrSide) {
  if (qc.qubits() != pkg.qubits()) {
    throw std::invalid_argument("simulate: package size mismatch");
  }
  dd::vEdge state = input;
  pkg.incRef(state);

  std::uint32_t gateIndex = 0;
  // The gate DD is built inside the sample window (the argument is a thunk,
  // not an edge): attribution charges construction, multiply, and the GC it
  // triggers to the gate, so per-gate node deltas telescope exactly into
  // the live-node trajectory.
  const auto applyGate = [&](const auto& makeGateDD) {
    if (attr != nullptr) {
      attr->beginGate();
    }
    const dd::vEdge next = pkg.multiply(makeGateDD(), state);
    pkg.incRef(next);
    pkg.decRef(state);
    state = next;
    pkg.garbageCollect();
    if (attr != nullptr) {
      attr->endGate(attrSide, gateIndex);
    }
    ++gateIndex;
  };

  if (!qc.initialLayout().isIdentity()) {
    applyGate([&] { return buildPermutationDD(qc.initialLayout(), pkg); });
  }
  std::vector<dd::Control> controls;
  for (const ir::StandardOperation& op : qc) {
    if (deadline != nullptr) {
      deadline->check();
    }
    forEachElementaryGate(
        op, controls,
        [&](const dd::GateMatrix& matrix, dd::Var target,
            const std::vector<dd::Control>& gateControls) {
          applyGate(
              [&] { return pkg.makeGateDD(matrix, target, gateControls); });
        });
  }
  if (!qc.outputPermutation().isIdentity()) {
    applyGate([&] {
      return pkg.conjugateTranspose(
          buildPermutationDD(qc.outputPermutation(), pkg));
    });
  }

  pkg.decRef(state);
  return state;
}

dd::vEdge simulateBasisState(const ir::QuantumComputation& qc, std::uint64_t i,
                             dd::Package& pkg, const util::Deadline* deadline) {
  return simulate(qc, pkg.makeBasisState(i), pkg, deadline);
}

dd::mEdge buildFunctionality(const ir::QuantumComputation& qc,
                             dd::Package& pkg, const util::Deadline* deadline) {
  if (qc.qubits() != pkg.qubits()) {
    throw std::invalid_argument("buildFunctionality: package size mismatch");
  }
  dd::mEdge func = qc.initialLayout().isIdentity()
                       ? pkg.makeIdent()
                       : buildPermutationDD(qc.initialLayout(), pkg);
  pkg.incRef(func);

  const auto applyGate = [&](const dd::mEdge& gateDD) {
    const dd::mEdge next = pkg.multiply(gateDD, func);
    pkg.incRef(next);
    pkg.decRef(func);
    func = next;
    pkg.garbageCollect();
  };

  std::vector<dd::Control> controls;
  for (const ir::StandardOperation& op : qc) {
    if (deadline != nullptr) {
      deadline->check();
    }
    forEachElementaryGate(
        op, controls,
        [&](const dd::GateMatrix& matrix, dd::Var target,
            const std::vector<dd::Control>& gateControls) {
          applyGate(pkg.makeGateDD(matrix, target, gateControls));
        });
  }
  if (!qc.outputPermutation().isIdentity()) {
    applyGate(
        pkg.conjugateTranspose(buildPermutationDD(qc.outputPermutation(), pkg)));
  }

  pkg.decRef(func);
  return func;
}

} // namespace qsimec::sim
