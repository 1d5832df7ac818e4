// Simulator tests: the DD-based engine is validated against the independent
// dense state-vector simulator on hand-built and random circuits, including
// circuits with non-trivial layouts.

#include "sim/dd_simulator.hpp"
#include "sim/dense_simulator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>

using namespace qsimec;

namespace {

/// Random circuit over the full IR gate set.
ir::QuantumComputation randomCircuit(std::size_t nqubits, std::size_t ngates,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> qubit(0, nqubits - 1);
  std::uniform_real_distribution<double> angle(-3.14, 3.14);
  std::uniform_int_distribution<int> kind(0, 11);

  ir::QuantumComputation qc(nqubits, "random");
  for (std::size_t g = 0; g < ngates; ++g) {
    const auto q = static_cast<ir::Qubit>(qubit(rng));
    switch (kind(rng)) {
    case 0:
      qc.h(q);
      break;
    case 1:
      qc.x(q);
      break;
    case 2:
      qc.t(q);
      break;
    case 3:
      qc.s(q);
      break;
    case 4:
      qc.rx(angle(rng), q);
      break;
    case 5:
      qc.ry(angle(rng), q);
      break;
    case 6:
      qc.rz(angle(rng), q);
      break;
    case 7:
      qc.u3(angle(rng), angle(rng), angle(rng), q);
      break;
    case 8: { // CX
      auto c = static_cast<ir::Qubit>(qubit(rng));
      if (c == q) {
        c = static_cast<ir::Qubit>((c + 1) % nqubits);
      }
      qc.cx(c, q);
      break;
    }
    case 9: { // negative-control phase
      auto c = static_cast<ir::Qubit>(qubit(rng));
      if (c == q) {
        c = static_cast<ir::Qubit>((c + 1) % nqubits);
      }
      qc.phase(angle(rng), q, {ir::Control{c, false}});
      break;
    }
    case 10: { // SWAP
      auto b = static_cast<ir::Qubit>(qubit(rng));
      if (b == q) {
        b = static_cast<ir::Qubit>((b + 1) % nqubits);
      }
      qc.swap(q, b);
      break;
    }
    default: { // Toffoli (needs 3 qubits)
      if (nqubits < 3) {
        qc.h(q);
        break;
      }
      auto c0 = static_cast<ir::Qubit>(qubit(rng));
      auto c1 = static_cast<ir::Qubit>(qubit(rng));
      if (c0 == q) {
        c0 = static_cast<ir::Qubit>((q + 1) % nqubits);
      }
      if (c1 == q || c1 == c0) {
        c1 = static_cast<ir::Qubit>(
            (std::max(q, c0) + 1) % nqubits == q ||
                    (std::max(q, c0) + 1) % nqubits == c0
                ? (std::max(q, c0) + 2) % nqubits
                : (std::max(q, c0) + 1) % nqubits);
      }
      if (c1 == q || c1 == c0) {
        qc.h(q);
        break;
      }
      qc.ccx(c0, c1, q);
      break;
    }
    }
  }
  return qc;
}

void expectStatesMatch(dd::Package& pkg, const dd::vEdge& ddState,
                       const std::vector<sim::Amplitude>& dense,
                       double eps = 1e-9) {
  for (std::uint64_t i = 0; i < dense.size(); ++i) {
    const dd::ComplexValue amp = pkg.getAmplitude(ddState, i);
    EXPECT_NEAR(amp.re, dense[i].real(), eps) << "index " << i;
    EXPECT_NEAR(amp.im, dense[i].imag(), eps) << "index " << i;
  }
}

} // namespace

TEST(DDSimulator, GHZState) {
  ir::QuantumComputation qc(3);
  qc.h(2);
  qc.cx(2, 1);
  qc.cx(1, 0);
  dd::Package pkg(3);
  const auto out = sim::simulate(qc, pkg.makeZeroState(), pkg);
  EXPECT_NEAR(pkg.getAmplitude(out, 0b000).re, dd::SQRT1_2, 1e-12);
  EXPECT_NEAR(pkg.getAmplitude(out, 0b111).re, dd::SQRT1_2, 1e-12);
  EXPECT_NEAR(pkg.fidelity(out, out), 1.0, 1e-12);
}

TEST(DDSimulator, SwapOperation) {
  ir::QuantumComputation qc(2);
  qc.x(0);
  qc.swap(0, 1);
  dd::Package pkg(2);
  const auto out = sim::simulate(qc, pkg.makeZeroState(), pkg);
  EXPECT_NEAR(pkg.fidelity(out, pkg.makeBasisState(0b10)), 1.0, 1e-12);
}

TEST(DDSimulator, ControlledSwapFredkin) {
  ir::QuantumComputation qc(3);
  qc.swap(0, 1, {ir::Control{2, true}});
  dd::Package pkg(3);
  // control off: nothing happens
  auto out = sim::simulate(qc, pkg.makeBasisState(0b001), pkg);
  EXPECT_NEAR(pkg.fidelity(out, pkg.makeBasisState(0b001)), 1.0, 1e-12);
  // control on: qubits 0 and 1 exchange
  out = sim::simulate(qc, pkg.makeBasisState(0b101), pkg);
  EXPECT_NEAR(pkg.fidelity(out, pkg.makeBasisState(0b110)), 1.0, 1e-12);
}

TEST(DDSimulator, RejectsMismatchedPackage) {
  ir::QuantumComputation qc(3);
  dd::Package pkg(2);
  EXPECT_THROW((void)sim::simulate(qc, pkg.makeZeroState(), pkg),
               std::invalid_argument);
}

TEST(DDSimulator, MatchesDenseOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto qc = randomCircuit(5, 60, seed);
    dd::Package pkg(5);
    for (const std::uint64_t input : {0ULL, 7ULL, 31ULL}) {
      const auto ddOut = sim::simulate(qc, pkg.makeBasisState(input), pkg);
      const auto dense = sim::DenseSimulator::simulate(qc, input);
      expectStatesMatch(pkg, ddOut, dense);
    }
  }
}

TEST(DDSimulator, BuildFunctionalityMatchesDense) {
  for (std::uint64_t seed = 10; seed <= 13; ++seed) {
    const auto qc = randomCircuit(4, 40, seed);
    dd::Package pkg(4);
    const auto u = sim::buildFunctionality(qc, pkg);
    const auto dense = sim::DenseSimulator::buildMatrix(qc);
    for (std::uint64_t r = 0; r < 16; ++r) {
      for (std::uint64_t c = 0; c < 16; ++c) {
        const auto e = pkg.getEntry(u, r, c);
        EXPECT_NEAR(e.re, dense[r][c].real(), 1e-9) << r << "," << c;
        EXPECT_NEAR(e.im, dense[r][c].imag(), 1e-9) << r << "," << c;
      }
    }
  }
}

TEST(DDSimulator, FunctionalityEqualsColumnwiseSimulation) {
  // the core identity behind the paper: column i of U = U |i>
  const auto qc = randomCircuit(4, 30, 99);
  dd::Package pkg(4);
  const auto u = sim::buildFunctionality(qc, pkg);
  for (std::uint64_t i = 0; i < 16; ++i) {
    const auto col = sim::simulate(qc, pkg.makeBasisState(i), pkg);
    for (std::uint64_t r = 0; r < 16; ++r) {
      const auto fromU = pkg.getEntry(u, r, i);
      const auto fromSim = pkg.getAmplitude(col, r);
      EXPECT_NEAR(fromU.re, fromSim.re, 1e-9);
      EXPECT_NEAR(fromU.im, fromSim.im, 1e-9);
    }
  }
}

TEST(DDSimulator, InitialLayoutIsHonoured) {
  // layout: logical 0 -> wire 1, logical 1 -> wire 0. X on wire 1 then acts
  // on logical qubit 0.
  ir::QuantumComputation qc(2);
  qc.setInitialLayout(ir::Permutation({1, 0}));
  qc.setOutputPermutation(ir::Permutation({1, 0}));
  qc.x(1);
  dd::Package pkg(2);
  const auto out = sim::simulate(qc, pkg.makeZeroState(), pkg);
  EXPECT_NEAR(pkg.fidelity(out, pkg.makeBasisState(0b01)), 1.0, 1e-12);
  // dense oracle agrees
  const auto dense = sim::DenseSimulator::simulate(qc, 0);
  expectStatesMatch(pkg, out, dense);
}

TEST(DDSimulator, OutputPermutationIsHonoured) {
  // circuit ends with its qubits swapped on the wires; declaring the output
  // permutation restores logical identity.
  ir::QuantumComputation qc(2);
  qc.x(0);
  qc.swap(0, 1);
  qc.setOutputPermutation(ir::Permutation({1, 0}));
  dd::Package pkg(2);
  const auto out = sim::simulate(qc, pkg.makeZeroState(), pkg);
  // logical result: X applied to logical qubit 0
  EXPECT_NEAR(pkg.fidelity(out, pkg.makeBasisState(0b01)), 1.0, 1e-12);
  const auto dense = sim::DenseSimulator::simulate(qc, 0);
  expectStatesMatch(pkg, out, dense);
}

TEST(DDSimulator, LayoutsMatchDenseOnRandomCircuits) {
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 4; ++trial) {
    auto qc = randomCircuit(4, 25, 1000 + static_cast<std::uint64_t>(trial));
    std::vector<std::uint16_t> in{0, 1, 2, 3};
    std::vector<std::uint16_t> out{0, 1, 2, 3};
    std::shuffle(in.begin(), in.end(), rng);
    std::shuffle(out.begin(), out.end(), rng);
    qc.setInitialLayout(ir::Permutation(in));
    qc.setOutputPermutation(ir::Permutation(out));
    dd::Package pkg(4);
    for (const std::uint64_t input : {3ULL, 9ULL}) {
      const auto ddOut = sim::simulate(qc, pkg.makeBasisState(input), pkg);
      const auto dense = sim::DenseSimulator::simulate(qc, input);
      expectStatesMatch(pkg, ddOut, dense);
    }
    // and the functionality construction agrees with the dense matrix
    const auto u = sim::buildFunctionality(qc, pkg);
    const auto denseU = sim::DenseSimulator::buildMatrix(qc);
    for (std::uint64_t r = 0; r < 16; ++r) {
      for (std::uint64_t c = 0; c < 16; ++c) {
        const auto e = pkg.getEntry(u, r, c);
        EXPECT_NEAR(e.re, denseU[r][c].real(), 1e-9);
        EXPECT_NEAR(e.im, denseU[r][c].imag(), 1e-9);
      }
    }
  }
}

TEST(DDSimulator, MaterializedLayoutsPreserveFunctionality) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    auto qc = randomCircuit(4, 20, 600 + static_cast<std::uint64_t>(trial));
    std::vector<std::uint16_t> in{0, 1, 2, 3};
    std::vector<std::uint16_t> out{0, 1, 2, 3};
    std::shuffle(in.begin(), in.end(), rng);
    std::shuffle(out.begin(), out.end(), rng);
    qc.setInitialLayout(ir::Permutation(in));
    qc.setOutputPermutation(ir::Permutation(out));

    const auto flat = qc.withMaterializedLayouts();
    dd::Package pkg(4);
    const auto u1 = sim::buildFunctionality(qc, pkg);
    pkg.incRef(u1);
    const auto u2 = sim::buildFunctionality(flat, pkg);
    EXPECT_EQ(u1, u2) << "trial " << trial;
    pkg.decRef(u1);
  }
}

TEST(DDSimulator, DeadlineAborts) {
  const auto qc = randomCircuit(6, 5000, 5);
  dd::Package pkg(6);
  const auto deadline = util::Deadline::after(std::chrono::duration<double>(0));
  EXPECT_THROW((void)sim::simulate(qc, pkg.makeZeroState(), pkg, &deadline),
               util::TimeoutError);
}

TEST(DenseSimulator, RejectsTooManyQubits) {
  ir::QuantumComputation qc(30);
  EXPECT_THROW((void)sim::DenseSimulator::simulate(qc, 0),
               std::invalid_argument);
}

namespace {

/// The plain dense kernel: expand the op into elementary gates, visit every
/// index and read each control bit in turn, with the same arithmetic per
/// amplitude pair as DenseSimulator::applyOperation.
void referenceApply(const ir::StandardOperation& op,
                    std::vector<sim::Amplitude>& state) {
  for (const sim::ElementaryGate& g : sim::toElementaryGates(op)) {
    const std::uint64_t bit = 1ULL << g.target;
    const sim::Amplitude m00{g.matrix[0].re, g.matrix[0].im};
    const sim::Amplitude m01{g.matrix[1].re, g.matrix[1].im};
    const sim::Amplitude m10{g.matrix[2].re, g.matrix[2].im};
    const sim::Amplitude m11{g.matrix[3].re, g.matrix[3].im};
    for (std::uint64_t idx = 0; idx < state.size(); ++idx) {
      bool fires = (idx & bit) == 0U;
      for (const dd::Control& c : g.controls) {
        fires = fires && (((idx >> c.qubit) & 1U) != 0U) == c.positive;
      }
      if (!fires) {
        continue;
      }
      const sim::Amplitude a0 = state[idx];
      const sim::Amplitude a1 = state[idx | bit];
      state[idx] = m00 * a0 + m01 * a1;
      state[idx | bit] = m10 * a0 + m11 * a1;
    }
  }
}

} // namespace

TEST(DenseSimulator, KernelMatchesPlainLoopBitForBit) {
  const std::size_t n = 7;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ir::QuantumComputation qc = randomCircuit(n, 80, seed);
    // multi-controlled ops of both polarities, a controlled SWAP included
    qc.x(3, {ir::Control{0, false}, ir::Control{6, true}});
    qc.swap(1, 5, {ir::Control{2, false}});
    qc.u3(0.3, -1.1, 2.0, 0, {ir::Control{4, true}, ir::Control{5, false}});

    std::mt19937_64 rng(seed);
    std::normal_distribution<double> gauss;
    std::vector<sim::Amplitude> fast(1ULL << n);
    for (sim::Amplitude& a : fast) {
      a = {gauss(rng), gauss(rng)};
    }
    std::vector<sim::Amplitude> plain = fast;
    for (const ir::StandardOperation& op : qc) {
      sim::DenseSimulator::applyOperation(op, fast);
      referenceApply(op, plain);
    }
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(fast[i].real()),
                std::bit_cast<std::uint64_t>(plain[i].real()))
          << "seed " << seed << " index " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(fast[i].imag()),
                std::bit_cast<std::uint64_t>(plain[i].imag()))
          << "seed " << seed << " index " << i;
    }
  }
}
