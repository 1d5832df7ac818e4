#include "sim/dense_simulator.hpp"

#include "dd/gate_matrices.hpp"
#include "sim/dd_simulator.hpp" // operationMatrix, toElementaryGates

#include <stdexcept>
#include <utility>

namespace qsimec::sim {

namespace {

/// The bits a control list reads (mask) and the values they must have.
template <class Controls>
std::pair<std::uint64_t, std::uint64_t> controlBits(const Controls& controls) {
  std::uint64_t mask = 0;
  std::uint64_t value = 0;
  for (const auto& c : controls) {
    mask |= 1ULL << c.qubit;
    value |= c.positive ? 1ULL << c.qubit : 0;
  }
  return {mask, value};
}

/// Apply the 2x2 matrix `m` on qubit `target` to every amplitude pair
/// whose control bits (`controlMask`) read `controlValue`.
void applyElementary(const dd::GateMatrix& m, std::size_t target,
                     std::uint64_t controlMask, std::uint64_t controlValue,
                     std::vector<Amplitude>& state) {
  const std::uint64_t bit = 1ULL << target;
  const std::uint64_t low = bit - 1;
  const Amplitude m00{m[0].re, m[0].im};
  const Amplitude m01{m[1].re, m[1].im};
  const Amplitude m10{m[2].re, m[2].im};
  const Amplitude m11{m[3].re, m[3].im};
  // k enumerates the indices with the target bit clear: a zero is inserted
  // at the target position, so idx ascends as k does
  const std::uint64_t pairs = state.size() / 2;
  for (std::uint64_t k = 0; k < pairs; ++k) {
    const std::uint64_t idx = ((k & ~low) << 1) | (k & low);
    if ((idx & controlMask) != controlValue) {
      continue;
    }
    const Amplitude a0 = state[idx];
    const Amplitude a1 = state[idx | bit];
    state[idx] = m00 * a0 + m01 * a1;
    state[idx | bit] = m10 * a0 + m11 * a1;
  }
}

/// Map a logical basis index to the wire index under layout `perm`
/// (bit perm[k] of the result = bit k of `logical`).
std::uint64_t logicalToWires(std::uint64_t logical, const ir::Permutation& perm) {
  std::uint64_t wires = 0;
  for (std::size_t k = 0; k < perm.size(); ++k) {
    if ((logical >> k) & 1U) {
      wires |= 1ULL << perm[k];
    }
  }
  return wires;
}

} // namespace

void DenseSimulator::applyOperation(const ir::StandardOperation& op,
                                    std::vector<Amplitude>& state) {
  if (op.type() == ir::OpType::SWAP) {
    for (const ElementaryGate& g : toElementaryGates(op)) {
      const auto [mask, value] = controlBits(g.controls);
      applyElementary(g.matrix, g.target, mask, value, state);
    }
    return;
  }
  const auto [mask, value] = controlBits(op.controls());
  applyElementary(operationMatrix(op), op.target(), mask, value, state);
}

std::vector<Amplitude>
DenseSimulator::simulate(const ir::QuantumComputation& qc,
                         std::uint64_t basisState) {
  if (qc.qubits() > 24) {
    throw std::invalid_argument("DenseSimulator: limited to 24 qubits");
  }
  const std::uint64_t dim = 1ULL << qc.qubits();
  if (basisState >= dim) {
    throw std::invalid_argument("DenseSimulator: basis state out of range");
  }
  std::vector<Amplitude> state(dim, Amplitude{0, 0});
  state[basisState] = Amplitude{1, 0};
  return simulate(qc, std::move(state));
}

std::vector<Amplitude>
DenseSimulator::simulate(const ir::QuantumComputation& qc,
                         std::vector<Amplitude> logical) {
  const std::uint64_t dim = 1ULL << qc.qubits();
  if (logical.size() != dim) {
    throw std::invalid_argument("DenseSimulator: state dimension mismatch");
  }

  // place logical qubits on wires
  std::vector<Amplitude> state(dim, Amplitude{0, 0});
  if (qc.initialLayout().isIdentity()) {
    state = std::move(logical);
  } else {
    for (std::uint64_t i = 0; i < dim; ++i) {
      state[logicalToWires(i, qc.initialLayout())] = logical[i];
    }
  }

  for (const ir::StandardOperation& op : qc) {
    applyOperation(op, state);
  }

  // read logical qubits off their output wires
  if (qc.outputPermutation().isIdentity()) {
    return state;
  }
  std::vector<Amplitude> out(dim, Amplitude{0, 0});
  for (std::uint64_t i = 0; i < dim; ++i) {
    out[i] = state[logicalToWires(i, qc.outputPermutation())];
  }
  return out;
}

std::vector<std::vector<Amplitude>>
DenseSimulator::buildMatrix(const ir::QuantumComputation& qc) {
  const std::uint64_t dim = 1ULL << qc.qubits();
  std::vector<std::vector<Amplitude>> matrix(dim, std::vector<Amplitude>(dim));
  for (std::uint64_t c = 0; c < dim; ++c) {
    const std::vector<Amplitude> column = simulate(qc, c);
    for (std::uint64_t r = 0; r < dim; ++r) {
      matrix[r][c] = column[r];
    }
  }
  return matrix;
}

} // namespace qsimec::sim
