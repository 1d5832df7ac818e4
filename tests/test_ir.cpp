// Circuit IR tests: construction, validation, inversion, permutations,
// statistics, and printing.

#include "ir/quantum_computation.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include <sstream>

using namespace qsimec::ir;

TEST(Operation, ValidatesTargets) {
  EXPECT_THROW(StandardOperation(OpType::H, {}), std::invalid_argument);
  EXPECT_THROW(StandardOperation(OpType::SWAP, {1}), std::invalid_argument);
  EXPECT_THROW(StandardOperation(OpType::SWAP, {1, 1}), std::invalid_argument);
  EXPECT_NO_THROW(StandardOperation(OpType::SWAP, {0, 1}));
}

TEST(Operation, ValidatesControls) {
  EXPECT_THROW(StandardOperation(OpType::X, {0}, {Control{0, true}}),
               std::invalid_argument);
  EXPECT_THROW(
      StandardOperation(OpType::X, {0}, {Control{1, true}, Control{1, false}}),
      std::invalid_argument);
}

// Only the first numParams(type) slots are read, so only they must be finite.
TEST(Operation, ValidatesUsedParameterSlots) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(StandardOperation(OpType::RX, {0}, {}, {nan, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(StandardOperation(OpType::U3, {0}, {}, {0, 0, -inf}),
               std::invalid_argument);
  EXPECT_NO_THROW(StandardOperation(OpType::RX, {0}, {}, {0.5, nan, inf}));
  EXPECT_NO_THROW(StandardOperation(OpType::H, {0}, {}, {nan, nan, nan}));
  EXPECT_NO_THROW(StandardOperation::makeUnchecked(OpType::RX, {0}, {},
                                                   {nan, 0, 0}));
}

TEST(Operation, ControlsAreSorted) {
  const StandardOperation op(OpType::X, {0},
                             {Control{3, true}, Control{1, false}});
  ASSERT_EQ(op.controls().size(), 2U);
  EXPECT_EQ(op.controls()[0].qubit, 1);
  EXPECT_EQ(op.controls()[1].qubit, 3);
}

TEST(Operation, ActsOnAndUsedQubits) {
  const StandardOperation op(OpType::X, {0}, {Control{2, true}});
  EXPECT_TRUE(op.actsOn(0));
  EXPECT_TRUE(op.actsOn(2));
  EXPECT_FALSE(op.actsOn(1));
  EXPECT_EQ(op.maxQubit(), 2);
}

TEST(Operation, SelfInverseGates) {
  for (const OpType t : {OpType::H, OpType::X, OpType::Y, OpType::Z}) {
    const StandardOperation op(t, {0});
    EXPECT_EQ(op.inverse(), op);
    EXPECT_TRUE(op.isInverseOf(op));
  }
}

TEST(Operation, PairedInverses) {
  const StandardOperation s(OpType::S, {1});
  EXPECT_EQ(s.inverse().type(), OpType::Sdg);
  EXPECT_TRUE(s.isInverseOf(StandardOperation(OpType::Sdg, {1})));
  EXPECT_FALSE(s.isInverseOf(StandardOperation(OpType::Sdg, {0})));

  const StandardOperation rx(OpType::RX, {0}, {}, {0.5, 0, 0});
  EXPECT_DOUBLE_EQ(rx.inverse().param(0), -0.5);
  EXPECT_TRUE(rx.isInverseOf(StandardOperation(OpType::RX, {0}, {}, {-0.5, 0, 0})));
  EXPECT_FALSE(rx.isInverseOf(StandardOperation(OpType::RX, {0}, {}, {0.5, 0, 0})));
}

TEST(Operation, U3Inverse) {
  const StandardOperation u(OpType::U3, {0}, {}, {0.3, 0.6, 0.9});
  const StandardOperation inv = u.inverse();
  EXPECT_DOUBLE_EQ(inv.param(0), -0.3);
  EXPECT_DOUBLE_EQ(inv.param(1), -0.9);
  EXPECT_DOUBLE_EQ(inv.param(2), -0.6);
}

TEST(Computation, BuilderAndCounts) {
  QuantumComputation qc(3, "demo");
  qc.h(0);
  qc.cx(0, 1);
  qc.ccx(0, 1, 2);
  qc.rz(0.25, 2);
  qc.swap(0, 2);
  EXPECT_EQ(qc.size(), 5U);
  EXPECT_EQ(qc.countType(OpType::X), 2U);
  EXPECT_EQ(qc.countType(OpType::RZ), 1U);
  EXPECT_EQ(qc.twoQubitGateCount(), 2U); // cx and swap
}

TEST(Computation, RejectsOutOfRangeQubits) {
  QuantumComputation qc(2);
  EXPECT_THROW(qc.h(2), std::out_of_range);
  EXPECT_THROW(qc.cx(0, 3), std::out_of_range);
}

TEST(Computation, DepthCountsCriticalPath) {
  QuantumComputation qc(3);
  qc.h(0);
  qc.h(1); // parallel with the first
  qc.cx(0, 1);
  qc.h(2); // parallel with everything above
  EXPECT_EQ(qc.depth(), 2U);
}

TEST(Computation, InverseReversesAndInverts) {
  QuantumComputation qc(2);
  qc.h(0);
  qc.s(1);
  qc.cx(0, 1);
  const QuantumComputation inv = qc.inverse();
  ASSERT_EQ(inv.size(), 3U);
  EXPECT_EQ(inv.at(0).type(), OpType::X); // the CX first
  EXPECT_EQ(inv.at(1).type(), OpType::Sdg);
  EXPECT_EQ(inv.at(2).type(), OpType::H);
}

TEST(Computation, AppendChecksCompatibility) {
  QuantumComputation a(2);
  QuantumComputation b(3);
  EXPECT_THROW(a.append(b), std::invalid_argument);
  QuantumComputation c(2);
  c.x(0);
  a.append(c);
  EXPECT_EQ(a.size(), 1U);
}

TEST(Computation, PrintsReadably) {
  QuantumComputation qc(2, "printer");
  qc.h(0);
  qc.cx(1, 0);
  std::ostringstream ss;
  ss << qc;
  const std::string s = ss.str();
  EXPECT_NE(s.find("printer"), std::string::npos);
  EXPECT_NE(s.find("h q0"), std::string::npos);
  EXPECT_NE(s.find("cx q1,q0"), std::string::npos);
}

TEST(Computation, MaterializedLayoutsAreTrivial) {
  QuantumComputation qc(3);
  qc.h(0);
  qc.cx(0, 1);
  qc.setInitialLayout(Permutation({1, 0, 2}));
  qc.setOutputPermutation(Permutation({2, 1, 0}));
  const auto flat = qc.withMaterializedLayouts();
  EXPECT_TRUE(flat.initialLayout().isIdentity());
  EXPECT_TRUE(flat.outputPermutation().isIdentity());
  EXPECT_GT(flat.size(), qc.size()); // boundary swaps were added
}

TEST(PermutationTest, IdentityByDefault) {
  const Permutation p(4);
  EXPECT_TRUE(p.isIdentity());
  EXPECT_TRUE(p.toSwaps().empty());
}

TEST(PermutationTest, RejectsNonBijection) {
  EXPECT_THROW(Permutation({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(Permutation({0, 5, 1}), std::invalid_argument);
}

TEST(PermutationTest, InverseComposesToIdentity) {
  const Permutation p({2, 0, 1, 3});
  const Permutation inv = p.inverse();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(inv[p[i]], i);
  }
}

TEST(PermutationTest, ToSwapsRealizesPermutation) {
  const Permutation p({2, 0, 1, 3});
  // replay the swaps on an explicit wire assignment
  std::vector<std::uint16_t> wireOf(4);
  std::iota(wireOf.begin(), wireOf.end(), 0);
  std::vector<std::uint16_t> logicalOn(4);
  std::iota(logicalOn.begin(), logicalOn.end(), 0);
  for (const auto& [a, b] : p.toSwaps()) {
    const auto la = logicalOn[a];
    const auto lb = logicalOn[b];
    std::swap(logicalOn[a], logicalOn[b]);
    wireOf[la] = b;
    wireOf[lb] = a;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(wireOf[i], p[i]) << "logical " << i;
  }
}
