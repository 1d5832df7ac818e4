// Stabilizer (CHP) simulator tests, including cross-validation against the
// DD simulator on random Clifford circuits beyond dense-oracle sizes, and
// the stabilizer-tier checker's outcomes on the batch benchmark's recipes.

#include "ec/stabilizer_checker.hpp"
#include "gen/random_circuits.hpp"
#include "sim/dd_simulator.hpp"
#include "sim/stabilizer_simulator.hpp"
#include "transform/error_injector.hpp"
#include "transform/mapper.hpp"

#include <gtest/gtest.h>

#include <numbers>
#include <optional>
#include <random>

using namespace qsimec;
using sim::StabilizerSimulator;

TEST(Stabilizer, InitialStateIsAllZeros) {
  StabilizerSimulator chp(4);
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_EQ(chp.probabilityOfOne(q), 0.0);
  }
}

TEST(Stabilizer, PauliXFlipsDeterministically) {
  StabilizerSimulator chp(3);
  chp.x(1);
  EXPECT_EQ(chp.probabilityOfOne(0), 0.0);
  EXPECT_EQ(chp.probabilityOfOne(1), 1.0);
  chp.x(1);
  EXPECT_EQ(chp.probabilityOfOne(1), 0.0);
}

TEST(Stabilizer, HadamardGivesCoinFlip) {
  StabilizerSimulator chp(2);
  chp.h(0);
  EXPECT_EQ(chp.probabilityOfOne(0), 0.5);
  chp.h(0);
  EXPECT_EQ(chp.probabilityOfOne(0), 0.0);
}

TEST(Stabilizer, BellPairCorrelations) {
  StabilizerSimulator chp(2);
  chp.h(0);
  chp.cx(0, 1);
  EXPECT_EQ(chp.probabilityOfOne(0), 0.5);
  EXPECT_EQ(chp.probabilityOfOne(1), 0.5);
  std::mt19937_64 rng(7);
  const bool first = chp.measure(0, rng);
  // after measuring one half, the other is determined
  EXPECT_EQ(chp.probabilityOfOne(1), first ? 1.0 : 0.0);
  EXPECT_EQ(chp.measure(1, rng), first);
}

TEST(Stabilizer, GhzMeasurementsAgree) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    StabilizerSimulator chp(5);
    chp.h(0);
    for (std::size_t q = 0; q + 1 < 5; ++q) {
      chp.cx(q, q + 1);
    }
    std::mt19937_64 rng(seed);
    const bool first = chp.measure(0, rng);
    for (std::size_t q = 1; q < 5; ++q) {
      EXPECT_EQ(chp.measure(q, rng), first);
    }
  }
}

TEST(Stabilizer, SGateTurnsPlusIntoPlusI) {
  // S|+> = |+i>: measuring in Z stays 0.5, applying Sdg+H recovers |0>
  StabilizerSimulator chp(1);
  chp.h(0);
  chp.s(0);
  EXPECT_EQ(chp.probabilityOfOne(0), 0.5);
  chp.sdg(0);
  chp.h(0);
  EXPECT_EQ(chp.probabilityOfOne(0), 0.0);
}

TEST(Stabilizer, VAndSyMatchTheirDefinitions) {
  // V = H S H: V^2 = X
  StabilizerSimulator chp(1);
  ir::StandardOperation v(ir::OpType::V, {0});
  chp.apply(v);
  chp.apply(v);
  EXPECT_EQ(chp.probabilityOfOne(0), 1.0); // X|0> = |1>

  StabilizerSimulator chp2(1);
  ir::StandardOperation sy(ir::OpType::SY, {0});
  chp2.apply(sy);
  chp2.apply(sy);
  // SY^2 ∝ Y: |0> -> i|1>
  EXPECT_EQ(chp2.probabilityOfOne(0), 1.0);
}

TEST(Stabilizer, PhaseGateQuarterTurns) {
  StabilizerSimulator chp(1);
  chp.h(0);
  ir::StandardOperation p4(ir::OpType::Phase, {0}, {},
                           {std::numbers::pi, 0, 0});
  chp.apply(p4); // Z on |+> -> |-> ; H|-> = |1>
  chp.h(0);
  EXPECT_EQ(chp.probabilityOfOne(0), 1.0);

  ir::StandardOperation t(ir::OpType::Phase, {0}, {},
                          {std::numbers::pi / 4, 0, 0});
  EXPECT_THROW(chp.apply(t), std::domain_error);
}

TEST(Stabilizer, IsCliffordClassifier) {
  ir::QuantumComputation clifford(3);
  clifford.h(0);
  clifford.cx(0, 1);
  clifford.s(2);
  clifford.swap(1, 2);
  clifford.cz(0, 2);
  EXPECT_TRUE(StabilizerSimulator::isClifford(clifford));

  ir::QuantumComputation nonClifford(2);
  nonClifford.t(0);
  EXPECT_FALSE(StabilizerSimulator::isClifford(nonClifford));

  ir::QuantumComputation toffoli(3);
  toffoli.ccx(0, 1, 2);
  EXPECT_FALSE(StabilizerSimulator::isClifford(toffoli));
}

TEST(Stabilizer, NegativeControlHandled) {
  StabilizerSimulator chp(2);
  ir::StandardOperation op(ir::OpType::X, {0}, {ir::Control{1, false}});
  chp.apply(op);
  EXPECT_EQ(chp.probabilityOfOne(0), 1.0); // control qubit is |0> -> fires
}

class CliffordCrossValidation : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CliffordCrossValidation, MarginalsMatchDDSimulator) {
  // 14 qubits: beyond what the dense oracle covers comfortably, easy for
  // both CHP and DDs
  const std::size_t n = 14;
  const auto qc = gen::randomCliffordT(n, 120, GetParam());
  // strip non-Clifford gates (T/Tdg) to get a Clifford circuit
  ir::QuantumComputation clifford(n);
  for (const auto& op : qc) {
    if (op.type() != ir::OpType::T && op.type() != ir::OpType::Tdg) {
      clifford.emplace(op);
    }
  }

  StabilizerSimulator chp(n);
  chp.run(clifford);

  dd::Package pkg(n);
  const auto state = sim::simulate(clifford, pkg.makeZeroState(), pkg);

  for (std::size_t q = 0; q < n; ++q) {
    EXPECT_NEAR(pkg.probabilityOfOne(state, static_cast<dd::Var>(q)),
                chp.probabilityOfOne(q), 1e-9)
        << "qubit " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CliffordCrossValidation,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Stabilizer, MeasurementStatisticsMatchProbability) {
  StabilizerSimulator reference(3);
  reference.h(0);
  reference.cx(0, 1);
  std::mt19937_64 rng(99);
  int ones = 0;
  const int shots = 400;
  for (int shot = 0; shot < shots; ++shot) {
    StabilizerSimulator chp(3);
    chp.h(0);
    chp.cx(0, 1);
    if (chp.measure(0, rng)) {
      ++ones;
    }
  }
  EXPECT_NEAR(static_cast<double>(ones) / shots, 0.5, 0.1);
}

namespace {

/// A random Clifford circuit over every operation the tableau supports,
/// negative controls and quarter-turn phases included.
ir::QuantumComputation richClifford(std::size_t n, std::size_t ngates,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> qubit(0, n - 1);
  std::uniform_int_distribution<int> kind(0, 16);
  std::uniform_int_distribution<int> quarter(-3, 3);
  ir::QuantumComputation qc(n);
  for (std::size_t g = 0; g < ngates; ++g) {
    const auto t = static_cast<ir::Qubit>(qubit(rng));
    auto c = static_cast<ir::Qubit>(qubit(rng));
    if (c == t) {
      c = static_cast<ir::Qubit>((c + 1) % n);
    }
    const double angle = quarter(rng) * std::numbers::pi / 2;
    switch (kind(rng)) {
    case 0:
      qc.h(t);
      break;
    case 1:
      qc.s(t);
      break;
    case 2:
      qc.sdg(t);
      break;
    case 3:
      qc.v(t);
      break;
    case 4:
      qc.vdg(t);
      break;
    case 5:
      qc.sy(t);
      break;
    case 6:
      qc.sydg(t);
      break;
    case 7:
      qc.x(t);
      break;
    case 8:
      qc.y(t);
      break;
    case 9:
      qc.z(t);
      break;
    case 10:
      qc.phase(angle, t);
      break;
    case 11:
      qc.rz(angle, t);
      break;
    case 12:
      qc.cx(c, t);
      break;
    case 13:
      qc.y(t, {ir::Control{c, true}});
      break;
    case 14:
      qc.cz(c, t);
      break;
    case 15:
      qc.x(t, {ir::Control{c, false}});
      break;
    default:
      qc.swap(c, t);
      break;
    }
  }
  return qc;
}

} // namespace

TEST(Stabilizer, InverseConjugatesToIdentityAtWordBoundaries) {
  // 2n rows straddle one, two and five 64-bit words
  for (const std::size_t n : {31, 32, 33, 63, 64, 65, 130}) {
    const ir::QuantumComputation c = richClifford(n, 6 * n, n);
    const auto conjugate = [&](bool extraX, bool buildInverse) {
      StabilizerSimulator chp(n);
      chp.run(c);
      if (extraX) {
        chp.x(n - 1);
      }
      for (auto it = c.ops().rbegin(); it != c.ops().rend(); ++it) {
        if (buildInverse) {
          chp.apply(it->inverse());
        } else {
          chp.applyInverse(*it);
        }
      }
      return chp.isIdentityConjugation();
    };
    EXPECT_TRUE(conjugate(false, false)) << n << " qubits";
    EXPECT_TRUE(conjugate(false, true)) << n << " qubits";
    EXPECT_FALSE(conjugate(true, false)) << n << " qubits";
    EXPECT_FALSE(conjugate(true, true)) << n << " qubits";
  }
}

TEST(Stabilizer, SeventyQubitGhzMarginalsMatchDDSimulator) {
  // 140 tableau rows span three words; qubits 36..69 are uncomputed again
  // so deterministic and random outcomes sit on both sides of the boundary
  const std::size_t n = 70;
  ir::QuantumComputation qc(n);
  qc.h(0);
  for (std::size_t q = 0; q + 1 < n; ++q) {
    qc.cx(static_cast<ir::Qubit>(q), static_cast<ir::Qubit>(q + 1));
  }
  for (std::size_t q = n - 1; q >= 36; --q) {
    qc.cx(static_cast<ir::Qubit>(q - 1), static_cast<ir::Qubit>(q));
  }
  qc.x(40);
  qc.x(65);
  qc.x(69);
  qc.h(36);
  qc.s(36);

  StabilizerSimulator chp(n);
  chp.run(qc);
  dd::Package pkg(n);
  const auto state = sim::simulate(qc, pkg.makeZeroState(), pkg);
  for (std::size_t q = 0; q < n; ++q) {
    EXPECT_NEAR(pkg.probabilityOfOne(state, static_cast<dd::Var>(q)),
                chp.probabilityOfOne(q), 1e-9)
        << "qubit " << q;
  }

  // outcome 1 on qubit 35 fixes every other qubit of the GHZ part to 1
  EXPECT_TRUE(chp.measureWithCoin(35, [] { return 0.9; }));
  for (std::size_t q = 0; q < 36; ++q) {
    EXPECT_EQ(chp.probabilityOfOne(q), 1.0) << "qubit " << q;
  }
  EXPECT_EQ(chp.probabilityOfOne(36), 0.5);
  EXPECT_EQ(chp.probabilityOfOne(40), 1.0);
  EXPECT_EQ(chp.probabilityOfOne(41), 0.0);
}

TEST(StabilizerChecker, BatchCliffordRecipesMatchRecordedOutcomes) {
  // gen::randomClifford(n, 8n) against its linear-mapped copy, a copy with
  // one CNOT flipped and a copy with one gate removed; the expected
  // outcomes were recorded with the byte-per-bit tableau this one replaced
  struct Expected {
    std::size_t n;
    int variant; // 0 mapped, 1 flipped CNOT, 2 removed gate
    ec::Equivalence verdict;
    std::optional<std::uint64_t> witness;
    std::size_t simulations;
    double fidelity;
  };
  using ec::Equivalence;
  const Expected expected[] = {
      {6, 0, Equivalence::Equivalent, std::nullopt, 8, 0},
      {6, 1, Equivalence::NotEquivalent, 13647215125184110592ULL, 1, 0.0625},
      {6, 2, Equivalence::NotEquivalent, 13647215125184110592ULL, 1, 0},
      {10, 0, Equivalence::Equivalent, std::nullopt, 8, 0},
      {10, 1, Equivalence::NotEquivalent, 614480483733483466ULL, 1, 0.125},
      {10, 2, Equivalence::NotEquivalent, 614480483733483466ULL, 1, 0.25},
      {12, 0, Equivalence::Equivalent, std::nullopt, 8, 0},
      {12, 1, Equivalence::NotEquivalent, 10682531704454680323ULL, 1, 0.25},
      {12, 2, Equivalence::NotEquivalent, 10682531704454680323ULL, 1, 0.5},
      {16, 0, Equivalence::EquivalentUpToGlobalPhase, std::nullopt, 8, 0},
      {16, 1, Equivalence::NotEquivalent, 6764836397866521095ULL, 1, 0.25},
      {16, 2, Equivalence::NotEquivalent, 6764836397866521095ULL, 1, 0.5},
      {32, 0, Equivalence::EquivalentUpToGlobalPhase, std::nullopt, 8, 0},
      {32, 1, Equivalence::NotEquivalent, 16927763432924390401ULL, 1, 0.0625},
      {32, 2, Equivalence::NotEquivalent, 10957987238844971492ULL, 2, 0.25},
      {48, 0, Equivalence::EquivalentUpToGlobalPhase, std::nullopt, 8, 0},
      {48, 1, Equivalence::NotEquivalent, 291080821224767267ULL, 1, 0.0625},
      {48, 2, Equivalence::NotEquivalent, 291080821224767267ULL, 1, 0.25},
  };
  for (const Expected& want : expected) {
    const std::size_t n = want.n;
    const auto g = gen::randomClifford(n, 8 * n, 1000 + n);
    ir::QuantumComputation gPrime(n);
    switch (want.variant) {
    case 0:
      gPrime = tf::mapCircuit(g, tf::CouplingMap::linear(n)).circuit;
      break;
    case 1:
      gPrime = tf::ErrorInjector(n)
                   .inject(g, tf::ErrorKind::FlipControlTargetCX)
                   .circuit;
      break;
    default:
      gPrime = tf::ErrorInjector(n).inject(g, tf::ErrorKind::RemoveGate).circuit;
      break;
    }
    ec::StabilizerConfiguration config;
    config.seed = n;
    const ec::CheckResult result = ec::StabilizerChecker(config).run(g, gPrime);
    SCOPED_TRACE(testing::Message() << n << " qubits, variant " << want.variant);
    EXPECT_EQ(result.equivalence, want.verdict);
    EXPECT_EQ(result.simulations, want.simulations);
    ASSERT_EQ(result.counterexample.has_value(), want.witness.has_value());
    if (want.witness) {
      EXPECT_EQ(result.counterexample->input, *want.witness);
      EXPECT_EQ(result.counterexample->fidelity, want.fidelity);
    }
  }
}
