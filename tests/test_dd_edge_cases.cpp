// Edge-case coverage of the DD package: degenerate inputs, zero handling,
// identity caching, export robustness, stats, and the package limits.

#include "dd/export.hpp"
#include "dd/package.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

namespace dd = qsimec::dd;

TEST(DDEdgeCases, SingleQubitPackage) {
  dd::Package pkg(1);
  const auto x = pkg.makeGateDD(dd::Xmat, 0);
  const auto one = pkg.multiply(x, pkg.makeZeroState());
  EXPECT_NEAR(pkg.getAmplitude(one, 1).re, 1.0, 1e-12);
  EXPECT_EQ(pkg.makeIdent(), pkg.multiply(x, x));
}

TEST(DDEdgeCases, PackageSizeValidation) {
  EXPECT_THROW(dd::Package(0), std::invalid_argument);
  EXPECT_THROW(dd::Package(200), std::invalid_argument);
  EXPECT_NO_THROW(dd::Package(128));
}

TEST(DDEdgeCases, ZeroEdgePropagation) {
  dd::Package pkg(3);
  const auto h = pkg.makeGateDD(dd::Hmat, 1);
  // multiplying anything by a zero edge is zero
  EXPECT_TRUE(pkg.multiply(h, pkg.vZero()).isZeroTerminal());
  EXPECT_TRUE(pkg.multiply(pkg.mZero(), pkg.makeZeroState()).isZeroTerminal());
  EXPECT_TRUE(pkg.multiply(pkg.mZero(), h).isZeroTerminal());
  EXPECT_TRUE(pkg.kronecker(pkg.mZero(), h).isZeroTerminal());
  EXPECT_TRUE(pkg.conjugateTranspose(pkg.mZero()).isZeroTerminal());
  // inner products with the zero vector vanish
  const auto s = pkg.makeZeroState();
  const auto ip = pkg.innerProduct(pkg.vZero(), s);
  EXPECT_EQ(ip.re, 0.0);
  EXPECT_EQ(ip.im, 0.0);
}

TEST(DDEdgeCases, IdentityCacheSurvivesGc) {
  dd::Package pkg(5);
  const auto id1 = pkg.makeIdent();
  pkg.garbageCollect(true);
  const auto id2 = pkg.makeIdent();
  EXPECT_EQ(id1, id2);
  EXPECT_THROW((void)pkg.makeIdent(6), std::invalid_argument);
  // partial identities are prefixes of the cached chain
  const auto id3 = pkg.makeIdent(3);
  EXPECT_EQ(id3.p->v, 2);
}

TEST(DDEdgeCases, ControlsAboveAndBelowTarget) {
  dd::Package pkg(4);
  // same functionality built with the control above vs. below the target
  const auto cxUp = pkg.makeGateDD(dd::Xmat, 0, {dd::Control{3, true}});
  const auto cxDown = pkg.makeGateDD(dd::Xmat, 3, {dd::Control{0, true}});
  for (std::uint64_t i = 0; i < 16; ++i) {
    const std::uint64_t upExpected = ((i >> 3) & 1U) ? (i ^ 1U) : i;
    const std::uint64_t downExpected = (i & 1U) ? (i ^ 8U) : i;
    EXPECT_NEAR(pkg.fidelity(pkg.multiply(cxUp, pkg.makeBasisState(i)),
                             pkg.makeBasisState(upExpected)),
                1.0, 1e-12);
    EXPECT_NEAR(pkg.fidelity(pkg.multiply(cxDown, pkg.makeBasisState(i)),
                             pkg.makeBasisState(downExpected)),
                1.0, 1e-12);
  }
}

TEST(DDEdgeCases, MixedPolarityControls) {
  dd::Package pkg(4);
  const auto gate = pkg.makeGateDD(
      dd::Xmat, 1, {dd::Control{0, true}, dd::Control{2, false},
                    dd::Control{3, true}});
  for (std::uint64_t i = 0; i < 16; ++i) {
    const bool fires = ((i & 1U) != 0U) && ((i & 4U) == 0U) && ((i & 8U) != 0U);
    const std::uint64_t expected = fires ? (i ^ 2U) : i;
    EXPECT_NEAR(pkg.fidelity(pkg.multiply(gate, pkg.makeBasisState(i)),
                             pkg.makeBasisState(expected)),
                1.0, 1e-12)
        << i;
  }
}

TEST(DDEdgeCases, GetEntryOnMaskedPaths) {
  dd::Package pkg(2);
  const auto cx = pkg.makeGateDD(dd::Xmat, 0, {dd::Control{1, true}});
  // zero entries read back as exactly zero
  const auto zero = pkg.getEntry(cx, 0, 1);
  EXPECT_EQ(zero.re, 0.0);
  EXPECT_EQ(zero.im, 0.0);
}

TEST(DDEdgeCases, MatrixExportGuards) {
  dd::Package pkg(16);
  EXPECT_THROW((void)pkg.getMatrix(pkg.makeIdent()), std::invalid_argument);
}

TEST(DDEdgeCases, DotExportOfMatrices) {
  dd::Package pkg(2);
  std::ostringstream ss;
  dd::exportDot(pkg.makeGateDD(dd::Hmat, 0), ss);
  const std::string dot = ss.str();
  EXPECT_NE(dot.find("digraph matrixDD"), std::string::npos);
  EXPECT_NE(dot.find("q0"), std::string::npos);
}

TEST(DDEdgeCases, StatsReflectActivity) {
  dd::Package pkg(4);
  const auto before = pkg.stats();
  auto s = pkg.makeZeroState();
  for (int k = 0; k < 8; ++k) {
    s = pkg.multiply(pkg.makeGateDD(dd::rxMat(0.1 * (k + 1)),
                                    static_cast<dd::Var>(k % 4)),
                     s);
  }
  const auto after = pkg.stats();
  EXPECT_GT(after.vNodesLive, before.vNodesLive);
  EXPECT_GT(after.realsLive, before.realsLive);
  pkg.garbageCollect(true);
  EXPECT_GE(after.vNodesLive, pkg.stats().vNodesLive);
  EXPECT_EQ(pkg.stats().gcRuns, 1U);
}

TEST(DDEdgeCases, ProductStateValidation) {
  dd::Package pkg(2);
  EXPECT_THROW((void)pkg.makeProductState({{dd::ComplexValue{1, 0},
                                            dd::ComplexValue{0, 0}}}),
               std::invalid_argument); // wrong arity
  EXPECT_THROW(
      (void)pkg.makeProductState({{dd::ComplexValue{0, 0},
                                   dd::ComplexValue{0, 0}},
                                  {dd::ComplexValue{1, 0},
                                   dd::ComplexValue{0, 0}}}),
      std::invalid_argument); // zero qubit state
}

TEST(DDEdgeCases, TinyLoneWeightIsNotDropped) {
  // every non-zero weight of these nodes is within TOLERANCE of zero in
  // |w|^2, so the tolerant tie test alone would also admit the zero child
  // as the normalizer (a division by zero, and the entry lost)
  dd::Package pkg(1);
  const auto state = pkg.makeProductState(
      {{dd::ComplexValue{0, 0}, dd::ComplexValue{1e-8, 0}}});
  EXPECT_FALSE(state.w.exactlyZero());
  EXPECT_NEAR(pkg.getAmplitude(state, 1).re, 1e-8, 1e-12);
  EXPECT_EQ(pkg.getAmplitude(state, 0).re, 0.0);

  dd::Package two(2);
  // cu3(1e-7, 0, 0) controlled from the qubit below its target: the
  // off-diagonal entries are -+5e-8
  const auto gate =
      two.makeGateDD(dd::u3Mat(1e-7, 0, 0), 1, {dd::Control{0, true}});
  EXPECT_NE(gate, two.makeIdent());
  EXPECT_NEAR(two.getEntry(gate, 3, 1).re, std::sin(0.5e-7), 1e-12);
  EXPECT_NEAR(two.getEntry(gate, 1, 3).re, -std::sin(0.5e-7), 1e-12);
  EXPECT_NEAR(two.getEntry(gate, 3, 3).re, std::cos(0.5e-7), 1e-12);
}

TEST(DDEdgeCases, InterruptHookFires) {
  dd::Package pkg(12);
  std::size_t calls = 0;
  pkg.setInterruptHook([&calls] { ++calls; });
  // enough node construction to trip the polling interval several times
  auto s = pkg.makeZeroState();
  for (dd::Var q = 0; q < 12; ++q) {
    s = pkg.multiply(pkg.makeGateDD(dd::Hmat, q), s);
  }
  for (int k = 0; k < 12; ++k) {
    s = pkg.multiply(pkg.makeGateDD(dd::rxMat(0.1 + k),
                                    static_cast<dd::Var>(k % 12)),
                     s);
    s = pkg.multiply(
        pkg.makeGateDD(dd::Xmat, static_cast<dd::Var>((k + 1) % 12),
                       {dd::Control{static_cast<dd::Var>(k % 12), true}}),
        s);
  }
  EXPECT_GT(calls, 0U);
}
