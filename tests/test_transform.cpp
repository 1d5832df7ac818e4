// Transformation tests: decomposition (ZYZ, matrix sqrt, controlled-U,
// Toffoli ladder, recursion), mapping (coupling maps, routing, layout
// correctness), optimization passes, and error injection. Correctness is
// checked with the construction equivalence checker throughout — these are
// exactly the G -> G' steps whose verification the paper targets.

#include "ec/construction_checker.hpp"
#include "ec/simulation_checker.hpp"
#include "gen/random_circuits.hpp"
#include "transform/decomposition.hpp"
#include "transform/error_injector.hpp"
#include "transform/mapper.hpp"
#include "transform/optimizer.hpp"

#include <gtest/gtest.h>

#include <numbers>
#include <random>

using namespace qsimec;

namespace {

void expectEquivalent(const ir::QuantumComputation& a,
                      const ir::QuantumComputation& b,
                      bool allowGlobalPhase = false) {
  const ec::ConstructionChecker checker;
  const auto result = checker.run(a, b);
  if (allowGlobalPhase) {
    EXPECT_TRUE(ec::provedEquivalent(result.equivalence))
        << toString(result.equivalence);
  } else {
    EXPECT_EQ(result.equivalence, ec::Equivalence::Equivalent);
  }
}

} // namespace

// --- ZYZ / matrix sqrt -------------------------------------------------------

TEST(ZYZ, ReconstructsArbitraryUnitaries) {
  const std::vector<dd::GateMatrix> gates = {
      dd::Xmat,        dd::Ymat,          dd::Zmat,
      dd::Hmat,        dd::Smat,          dd::Tmat,
      dd::Vmat,        dd::SYmat,         dd::rxMat(0.7),
      dd::ryMat(-1.3), dd::rzMat(2.9),    dd::phaseMat(0.4),
      dd::u3Mat(0.3, 1.9, -2.2),          dd::u2Mat(0.5, -0.5)};
  for (const auto& u : gates) {
    const tf::ZYZAngles z = tf::zyzDecompose(u);
    // rebuild e^{ia} Rz(b) Ry(g) Rz(d) and compare entrywise
    auto rebuilt = dd::rzMat(z.delta);
    const auto ry = dd::ryMat(z.gamma);
    const auto rz2 = dd::rzMat(z.beta);
    const auto mul = [](const dd::GateMatrix& a, const dd::GateMatrix& b) {
      return dd::GateMatrix{a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
    };
    rebuilt = mul(rz2, mul(ry, rebuilt));
    const auto phase = dd::ComplexValue::fromPolar(1, z.alpha);
    for (std::size_t i = 0; i < 4; ++i) {
      const auto v = phase * rebuilt[i];
      EXPECT_NEAR(v.re, u[i].re, 1e-9);
      EXPECT_NEAR(v.im, u[i].im, 1e-9);
    }
  }
}

TEST(MatrixSqrt, SquaresBack) {
  const std::vector<dd::GateMatrix> gates = {
      dd::Xmat, dd::Ymat, dd::Zmat, dd::Hmat,        dd::Smat,
      dd::Tmat, dd::Vmat, dd::SYmat, dd::u3Mat(1.1, 0.3, -0.8),
      dd::rzMat(std::numbers::pi)};
  for (const auto& u : gates) {
    const dd::GateMatrix v = tf::matrixSqrt(u);
    const dd::GateMatrix vv = {
        v[0] * v[0] + v[1] * v[2], v[0] * v[1] + v[1] * v[3],
        v[2] * v[0] + v[3] * v[2], v[2] * v[1] + v[3] * v[3]};
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(vv[i].re, u[i].re, 1e-9);
      EXPECT_NEAR(vv[i].im, u[i].im, 1e-9);
    }
  }
}

// --- decomposition -----------------------------------------------------------

TEST(Decompose, ToffoliToCliffordT) {
  ir::QuantumComputation qc(3);
  qc.ccx(2, 1, 0);
  const auto dec = tf::decompose(qc);
  EXPECT_EQ(dec.qubits(), 3U);
  for (const auto& op : dec) {
    EXPECT_LE(op.controls().size(), 1U);
  }
  expectEquivalent(qc, dec);
}

TEST(Decompose, ControlledSingleQubitGates) {
  for (const ir::OpType t :
       {ir::OpType::H, ir::OpType::S, ir::OpType::T, ir::OpType::RX,
        ir::OpType::Phase, ir::OpType::U3}) {
    ir::QuantumComputation qc(2);
    qc.gate(t, 0, {ir::Control{1, true}}, {0.37, 0.11, -0.2});
    const auto dec = tf::decompose(qc);
    expectEquivalent(qc, dec);
  }
}

TEST(Decompose, NegativeControls) {
  ir::QuantumComputation qc(3);
  qc.x(0, {ir::Control{1, false}, ir::Control{2, true}});
  qc.phase(0.8, 2, {ir::Control{0, false}});
  const auto dec = tf::decompose(qc);
  for (const auto& op : dec) {
    for (const auto& c : op.controls()) {
      EXPECT_TRUE(c.positive);
    }
  }
  expectEquivalent(qc, dec);
}

class LadderTest : public ::testing::TestWithParam<int> {};

TEST_P(LadderTest, MctLadderIsExactOnFullRegister) {
  const int k = GetParam();
  ir::QuantumComputation qc(static_cast<std::size_t>(k + 1));
  std::vector<ir::Qubit> controls;
  for (int c = 1; c <= k; ++c) {
    controls.push_back(static_cast<ir::Qubit>(c));
  }
  qc.mcx(controls, 0);

  tf::DecompositionOptions options;
  options.scheme = tf::DecompositionScheme::VChainAncilla;
  const auto dec = tf::decompose(qc, options);
  EXPECT_EQ(dec.qubits(), static_cast<std::size_t>(k + 1) +
                              (k >= 3 ? static_cast<std::size_t>(k - 2) : 0U));
  // compare against the original padded to the decomposed width: the ladder
  // must be exact for EVERY ancilla value (borrowed, not clean, ancillas)
  expectEquivalent(tf::padQubits(qc, dec.qubits()), dec);
}

TEST_P(LadderTest, MctRecursionIsExact) {
  const int k = GetParam();
  if (k > 6) {
    GTEST_SKIP() << "recursion blows up beyond a handful of controls";
  }
  ir::QuantumComputation qc(static_cast<std::size_t>(k + 1));
  std::vector<ir::Qubit> controls;
  for (int c = 1; c <= k; ++c) {
    controls.push_back(static_cast<ir::Qubit>(c));
  }
  qc.mcx(controls, 0);

  tf::DecompositionOptions options;
  options.scheme = tf::DecompositionScheme::Recursion;
  const auto dec = tf::decompose(qc, options);
  EXPECT_EQ(dec.qubits(), qc.qubits()); // no ancillas
  expectEquivalent(qc, dec);
}

INSTANTIATE_TEST_SUITE_P(ControlCounts, LadderTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(Decompose, MultiControlledZAndPhase) {
  ir::QuantumComputation qc(5);
  qc.mcz({1, 2, 3, 4}, 0);
  qc.phase(0.6, 0, {ir::Control{1, true}, ir::Control{2, true},
                    ir::Control{3, true}});
  const auto dec = tf::decompose(qc);
  expectEquivalent(tf::padQubits(qc, dec.qubits()), dec);
}

TEST(Decompose, ControlledSwap) {
  ir::QuantumComputation qc(4);
  qc.swap(0, 1, {ir::Control{2, true}, ir::Control{3, true}});
  const auto dec = tf::decompose(qc);
  expectEquivalent(tf::padQubits(qc, dec.qubits()), dec);
}

TEST(Decompose, OnlyElementaryGatesRemain) {
  ir::QuantumComputation qc(6);
  qc.mcx({1, 2, 3, 4, 5}, 0);
  qc.mcz({0, 1, 2}, 3);
  qc.swap(2, 4, {ir::Control{0, true}});
  const auto dec = tf::decompose(qc);
  for (const auto& op : dec) {
    EXPECT_LE(op.usedQubits().size(), 2U) << op;
    if (op.controls().size() == 1) {
      EXPECT_EQ(op.type(), ir::OpType::X) << op;
    }
  }
}

TEST(Decompose, GateCountGrowsAsInTable1) {
  // the RevLib pattern: |G'| >> |G| after decomposition
  ir::QuantumComputation qc(8);
  for (int rep = 0; rep < 4; ++rep) {
    qc.mcx({1, 2, 3, 4, 5, 6, 7}, 0);
  }
  const auto dec = tf::decompose(qc);
  EXPECT_GT(dec.size(), 50 * qc.size());
}

// --- mapping ------------------------------------------------------------------

TEST(CouplingMapTest, Factories) {
  const auto linear = tf::CouplingMap::linear(4);
  EXPECT_TRUE(linear.connected(0, 1));
  EXPECT_FALSE(linear.connected(0, 2));
  const auto ring = tf::CouplingMap::ring(4);
  EXPECT_TRUE(ring.connected(3, 0));
  const auto grid = tf::CouplingMap::grid(2, 3);
  EXPECT_TRUE(grid.connected(0, 3)); // (0,0)-(1,0)
  EXPECT_FALSE(grid.connected(2, 3));
  const auto star = tf::CouplingMap::star(5);
  EXPECT_TRUE(star.connected(0, 4));
  EXPECT_FALSE(star.connected(1, 2));
}

TEST(CouplingMapTest, ShortestPath) {
  const auto linear = tf::CouplingMap::linear(5);
  const auto path = linear.shortestPath(0, 4);
  EXPECT_EQ(path.size(), 5U);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 4);
}

class MapperArchTest
    : public ::testing::TestWithParam<std::pair<std::string, int>> {};

TEST_P(MapperArchTest, MappedCircuitIsEquivalent) {
  const auto [arch, nq] = GetParam();
  const auto coupling = [&]() -> tf::CouplingMap {
    if (arch == "linear") {
      return tf::CouplingMap::linear(static_cast<std::size_t>(nq));
    }
    if (arch == "ring") {
      return tf::CouplingMap::ring(static_cast<std::size_t>(nq));
    }
    if (arch == "grid") {
      return tf::CouplingMap::grid(2, static_cast<std::size_t>(nq) / 2);
    }
    return tf::CouplingMap::star(static_cast<std::size_t>(nq));
  }();

  gen::RandomCircuitOptions options;
  options.toffoli = false; // mapper wants <= 2-qubit gates
  const auto qc =
      gen::randomCircuit(static_cast<std::size_t>(nq), 40,
                         17 + static_cast<std::uint64_t>(nq), options);
  const auto mapped = tf::mapCircuit(qc, coupling);
  // every two-qubit gate respects the coupling map
  for (const auto& op : mapped.circuit) {
    const auto used = op.usedQubits();
    if (used.size() == 2) {
      EXPECT_TRUE(coupling.connected(used[0], used[1])) << op;
    }
  }
  expectEquivalent(tf::padQubits(qc, mapped.circuit.qubits()), mapped.circuit);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, MapperArchTest,
    ::testing::Values(std::make_pair(std::string("linear"), 5),
                      std::make_pair(std::string("ring"), 6),
                      std::make_pair(std::string("grid"), 6),
                      std::make_pair(std::string("star"), 5)),
    [](const auto& info) {
      return info.param.first + std::to_string(info.param.second);
    });

TEST(CouplingMapTest, DirectedMapsTrackDirections) {
  const auto qx4 = tf::CouplingMap::ibmQX4();
  EXPECT_TRUE(qx4.directed());
  EXPECT_TRUE(qx4.allowsDirection(1, 0));
  EXPECT_FALSE(qx4.allowsDirection(0, 1));
  EXPECT_TRUE(qx4.connected(0, 1)); // routing treats it as undirected
  const auto linear = tf::CouplingMap::linear(3);
  EXPECT_TRUE(linear.allowsDirection(0, 1));
  EXPECT_TRUE(linear.allowsDirection(1, 0));
}

class DirectedMapperTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DirectedMapperTest, Qx4MappingRespectsDirectionsAndEquivalence) {
  // CX/CZ/phase + single-qubit circuit
  std::mt19937_64 rng(GetParam());
  ir::QuantumComputation qc(5);
  std::uniform_int_distribution<std::size_t> qubit(0, 4);
  std::uniform_int_distribution<int> kind(0, 4);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  for (int g = 0; g < 30; ++g) {
    const auto a = static_cast<ir::Qubit>(qubit(rng));
    auto b = static_cast<ir::Qubit>(qubit(rng));
    if (b == a) {
      b = static_cast<ir::Qubit>((b + 1) % 5);
    }
    switch (kind(rng)) {
    case 0:
      qc.h(a);
      break;
    case 1:
      qc.t(a);
      break;
    case 2:
      qc.cx(a, b);
      break;
    case 3:
      qc.cz(a, b);
      break;
    default:
      qc.phase(angle(rng), b, {ir::Control{a, true}});
      break;
    }
  }

  const auto qx4 = tf::CouplingMap::ibmQX4();
  const auto mapped = tf::mapCircuit(qc, qx4);
  for (const auto& op : mapped.circuit) {
    if (op.controls().size() == 1) {
      if (op.type() == ir::OpType::X) {
        EXPECT_TRUE(
            qx4.allowsDirection(op.controls()[0].qubit, op.target()))
            << op;
      } else {
        EXPECT_TRUE(qx4.connected(op.controls()[0].qubit, op.target())) << op;
      }
    }
  }
  expectEquivalent(qc, mapped.circuit);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectedMapperTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Mapper, Qx5MappingIsEquivalent) {
  gen::RandomCircuitOptions options;
  options.toffoli = false;
  options.rotations = false;
  const auto qc = gen::randomCircuit(8, 30, 99, options);
  // strip SWAPs and negative-control phases the directed mapper rejects;
  // keep it to CX/CZ/1q
  ir::QuantumComputation cleaned(8);
  for (const auto& op : qc) {
    const bool negative =
        !op.controls().empty() && !op.controls().front().positive;
    if (op.type() == ir::OpType::SWAP || negative) {
      continue;
    }
    cleaned.emplace(op);
  }
  const auto qx5 = tf::CouplingMap::ibmQX5();
  const auto mapped = tf::mapCircuit(cleaned, qx5);
  expectEquivalent(tf::padQubits(cleaned, 16), mapped.circuit);
}

TEST(Mapper, DirectedRejectsUndirectableGates) {
  ir::QuantumComputation qc(2);
  qc.rz(0.4, 1, {ir::Control{0, true}}); // CRZ is not symmetric
  // force the disallowed direction: qx4 allows only 1 -> 0
  tf::MapperOptions options;
  EXPECT_THROW((void)tf::mapCircuit(qc, tf::CouplingMap::ibmQX4(), options),
               std::domain_error);
}

TEST(Mapper, CustomInitialLayout) {
  gen::RandomCircuitOptions options;
  options.toffoli = false;
  const auto qc = gen::randomCircuit(4, 25, 23, options);
  tf::MapperOptions mapperOptions;
  mapperOptions.initialLayout = ir::Permutation({2, 0, 3, 1});
  const auto mapped =
      tf::mapCircuit(qc, tf::CouplingMap::linear(4), mapperOptions);
  expectEquivalent(qc, mapped.circuit);
}

class RoutingHeuristicTest
    : public ::testing::TestWithParam<tf::RoutingHeuristic> {};

TEST_P(RoutingHeuristicTest, EquivalentOnAllArchitectures) {
  gen::RandomCircuitOptions circuitOptions;
  circuitOptions.toffoli = false;
  const auto qc = gen::randomCircuit(6, 50, 77, circuitOptions);
  tf::MapperOptions options;
  options.routing = GetParam();
  for (const auto& coupling :
       {tf::CouplingMap::linear(6), tf::CouplingMap::ring(6),
        tf::CouplingMap::grid(2, 3), tf::CouplingMap::star(6)}) {
    const auto mapped = tf::mapCircuit(qc, coupling, options);
    for (const auto& op : mapped.circuit) {
      const auto used = op.usedQubits();
      if (used.size() == 2) {
        EXPECT_TRUE(coupling.connected(used[0], used[1])) << op;
      }
    }
    expectEquivalent(qc, mapped.circuit);
  }
}

TEST_P(RoutingHeuristicTest, GreedyPlacementStaysEquivalent) {
  gen::RandomCircuitOptions circuitOptions;
  circuitOptions.toffoli = false;
  const auto qc = gen::randomCircuit(5, 40, 41, circuitOptions);
  tf::MapperOptions options;
  options.routing = GetParam();
  options.placement = tf::PlacementStrategy::Greedy;
  const auto mapped = tf::mapCircuit(qc, tf::CouplingMap::grid(2, 3), options);
  expectEquivalent(tf::padQubits(qc, 6), mapped.circuit);
}

INSTANTIATE_TEST_SUITE_P(Heuristics, RoutingHeuristicTest,
                         ::testing::Values(tf::RoutingHeuristic::BfsChain,
                                           tf::RoutingHeuristic::Lookahead),
                         [](const auto& info) {
                           return info.param == tf::RoutingHeuristic::BfsChain
                                      ? std::string("bfs")
                                      : std::string("lookahead");
                         });

TEST(Mapper, CouplingDistance) {
  const auto linear = tf::CouplingMap::linear(6);
  EXPECT_EQ(linear.distance(0, 0), 0U);
  EXPECT_EQ(linear.distance(0, 5), 5U);
  EXPECT_EQ(linear.distance(5, 0), 5U);
  const auto grid = tf::CouplingMap::grid(3, 3);
  EXPECT_EQ(grid.distance(0, 8), 4U);
}

TEST(Mapper, GreedyPlacementPutsHotPairsTogether) {
  // qubits 0 and 1 interact constantly, the others never
  ir::QuantumComputation qc(5);
  for (int rep = 0; rep < 20; ++rep) {
    qc.cx(0, 1);
  }
  const auto coupling = tf::CouplingMap::linear(5);
  const auto layout = tf::greedyPlacement(qc, coupling);
  EXPECT_EQ(coupling.distance(layout[0], layout[1]), 1U);
}

TEST(Mapper, LookaheadBeatsBfsOnSpreadWorkload) {
  // interactions between far ends of a line: the lookahead router should
  // need no more (and typically fewer) SWAPs than the naive chain
  gen::RandomCircuitOptions circuitOptions;
  circuitOptions.toffoli = false;
  circuitOptions.rotations = false;
  const auto qc = gen::randomCircuit(8, 60, 5, circuitOptions);
  const auto coupling = tf::CouplingMap::linear(8);

  tf::MapperOptions bfs;
  bfs.routing = tf::RoutingHeuristic::BfsChain;
  tf::MapperOptions lookahead;
  lookahead.routing = tf::RoutingHeuristic::Lookahead;
  lookahead.placement = tf::PlacementStrategy::Greedy;

  const auto a = tf::mapCircuit(qc, coupling, bfs);
  const auto b = tf::mapCircuit(qc, coupling, lookahead);
  EXPECT_LE(b.addedSwaps, a.addedSwaps);
  expectEquivalent(qc, a.circuit);
  expectEquivalent(qc, b.circuit);
}

TEST(Mapper, NoSwapsOnCompleteGraph) {
  gen::RandomCircuitOptions options;
  options.toffoli = false;
  const auto qc = gen::randomCircuit(5, 30, 31, options);
  const auto mapped = tf::mapCircuit(qc, tf::CouplingMap::complete(5));
  EXPECT_EQ(mapped.addedSwaps, 0U);
}

TEST(Mapper, RejectsWideGates) {
  ir::QuantumComputation qc(4);
  qc.ccx(0, 1, 2);
  EXPECT_THROW((void)tf::mapCircuit(qc, tf::CouplingMap::linear(4)),
               std::invalid_argument);
}

// --- optimization --------------------------------------------------------------

TEST(Optimizer, CancelsInversePairs) {
  ir::QuantumComputation qc(2);
  qc.h(0);
  qc.h(0);
  qc.cx(0, 1);
  qc.cx(0, 1);
  qc.t(1);
  qc.tdg(1);
  const auto opt = tf::optimize(qc);
  EXPECT_EQ(opt.size(), 0U);
}

TEST(Optimizer, CancelsThroughDisjointGates) {
  ir::QuantumComputation qc(3);
  qc.s(0);
  qc.h(2); // disjoint — must not block the S/Sdg pair
  qc.sdg(0);
  const auto opt = tf::optimize(qc);
  EXPECT_EQ(opt.size(), 1U);
  EXPECT_EQ(opt.at(0).type(), ir::OpType::H);
}

TEST(Optimizer, DoesNotCancelThroughBlockingGates) {
  ir::QuantumComputation qc(2);
  qc.s(0);
  qc.h(0); // same qubit — blocks
  qc.sdg(0);
  const auto opt = tf::optimize(qc);
  EXPECT_EQ(opt.size(), 3U);
}

TEST(Optimizer, MergesRotations) {
  ir::QuantumComputation qc(1);
  qc.rz(0.25, 0);
  qc.rz(0.5, 0);
  qc.rx(1.0, 0);
  qc.rx(-1.0, 0); // cancels entirely
  tf::OptimizationStats stats;
  const auto opt = tf::optimize(qc, {}, &stats);
  ASSERT_EQ(opt.size(), 1U);
  EXPECT_EQ(opt.at(0).type(), ir::OpType::RZ);
  EXPECT_NEAR(opt.at(0).param(0), 0.75, 1e-12);
  expectEquivalent(qc, opt);
}

// Two finite angles can sum past the largest double: the pass keeps both
// gates rather than build a rotation the IR rejects.
TEST(Optimizer, KeepsRotationsWhoseSumOverflows) {
  ir::QuantumComputation qc(1);
  qc.rx(1e308, 0);
  qc.rx(1e308, 0);
  const auto opt = tf::optimize(qc);
  ASSERT_EQ(opt.size(), 2U);
  EXPECT_EQ(opt.at(0).param(0), 1e308);
  EXPECT_EQ(opt.at(1).param(0), 1e308);
}

TEST(Optimizer, CancelsAcrossCommutingGates) {
  // CX(0->1) · T(0) · RZ(0.4, 1)? no — RZ on the CX *target* does not
  // commute; use diagonal-on-control and X-on-target interposers:
  ir::QuantumComputation qc(3);
  qc.cx(0, 1);
  qc.t(0);     // diagonal on the control — slides
  qc.x(1);     // X on the target — slides
  qc.cx(0, 1); // cancels with the first CX
  const auto opt = tf::optimize(qc);
  EXPECT_EQ(opt.size(), 2U);
  expectEquivalent(qc, opt);
}

TEST(Optimizer, DoesNotCancelAcrossNonCommutingGates) {
  ir::QuantumComputation qc(2);
  qc.cx(0, 1);
  qc.rz(0.4, 1); // diagonal on the *target*: blocks
  qc.cx(0, 1);
  const auto opt = tf::optimize(qc);
  EXPECT_EQ(opt.size(), 3U);

  ir::QuantumComputation qc2(2);
  qc2.cx(0, 1);
  qc2.x(0); // X on the *control*: blocks
  qc2.cx(0, 1);
  const auto opt2 = tf::optimize(qc2);
  EXPECT_EQ(opt2.size(), 3U);
}

TEST(Optimizer, MergesRotationsAcrossCommutingGates) {
  ir::QuantumComputation qc(2);
  qc.rz(0.25, 0);
  qc.cz(0, 1); // diagonal everywhere — slides
  qc.rz(0.5, 0);
  tf::OptimizationStats stats;
  const auto opt = tf::optimize(qc, {}, &stats);
  EXPECT_EQ(stats.mergedRotations, 1U);
  expectEquivalent(qc, opt);
}

TEST(Optimizer, CommutationCanBeDisabled) {
  ir::QuantumComputation qc(2);
  qc.cx(0, 1);
  qc.t(0);
  qc.cx(0, 1);
  tf::OptimizerOptions options;
  options.commutationAware = false;
  EXPECT_EQ(tf::optimize(qc, options).size(), 3U);
  EXPECT_EQ(tf::optimize(qc).size(), 1U);
}

TEST(Optimizer, RemovesIdentities) {
  ir::QuantumComputation qc(1);
  qc.i(0);
  qc.rz(0.0, 0);
  qc.h(0);
  const auto opt = tf::optimize(qc);
  EXPECT_EQ(opt.size(), 1U);
}

TEST(Optimizer, FusesSingleQubitRuns) {
  ir::QuantumComputation qc(2);
  qc.h(0);
  qc.t(0);
  qc.rz(0.3, 0);
  qc.h(0);
  qc.cx(0, 1);
  qc.s(1);
  qc.rx(0.2, 1);
  tf::OptimizerOptions options;
  options.fuseSingleQubitGates = true;
  const auto opt = tf::optimize(qc, options);
  EXPECT_LT(opt.size(), qc.size());
  expectEquivalent(qc, opt); // exact, including global phase (via GPhase)
}

TEST(Optimizer, RandomCircuitsStayEquivalent) {
  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    const auto qc = gen::randomCircuit(4, 60, seed);
    tf::OptimizerOptions options;
    options.fuseSingleQubitGates = true;
    const auto opt = tf::optimize(qc, options);
    expectEquivalent(qc, opt);
  }
}

// --- error injection ------------------------------------------------------------

class InjectorKindTest : public ::testing::TestWithParam<tf::ErrorKind> {};

TEST_P(InjectorKindTest, InjectedErrorIsDetectable) {
  const auto qc = gen::randomCircuit(4, 40, 77);
  tf::ErrorInjector injector(123);
  const auto injected = injector.inject(qc, GetParam());
  EXPECT_FALSE(injected.error.description.empty());

  const ec::ConstructionChecker checker;
  const auto result = checker.run(qc, injected.circuit);
  EXPECT_EQ(result.equivalence, ec::Equivalence::NotEquivalent)
      << injected.error.description;

  // and the paper's point: simulation finds it too, fast
  ec::SimulationConfiguration simConfig;
  simConfig.seed = 99;
  const ec::SimulationChecker sim(simConfig);
  EXPECT_EQ(sim.run(qc, injected.circuit).equivalence,
            ec::Equivalence::NotEquivalent);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, InjectorKindTest,
    ::testing::Values(tf::ErrorKind::RemoveGate, tf::ErrorKind::InsertGate,
                      tf::ErrorKind::WrongTargetCX,
                      tf::ErrorKind::FlipControlTargetCX,
                      tf::ErrorKind::AngleOffset, tf::ErrorKind::ReplaceGate),
    [](const auto& info) {
      std::string name(toString(info.param));
      std::erase(name, '-');
      return name;
    });

TEST(Injector, DeterministicUnderSeed) {
  const auto qc = gen::randomCircuit(4, 30, 7);
  tf::ErrorInjector a(42);
  tf::ErrorInjector b(42);
  const auto ra = a.injectRandom(qc);
  const auto rb = b.injectRandom(qc);
  EXPECT_EQ(ra.error.description, rb.error.description);
  EXPECT_EQ(ra.circuit.size(), rb.circuit.size());
}

TEST(Injector, FallsBackWhenKindImpossible) {
  ir::QuantumComputation qc(2);
  qc.h(0); // no rotation gate anywhere
  tf::ErrorInjector injector(5);
  const auto injected = injector.inject(qc, tf::ErrorKind::AngleOffset);
  EXPECT_NE(injected.error.description.find("fell back"), std::string::npos);
}
