// Basic decision-diagram package checks: canonical numbers, basis states,
// gate DDs vs. their dense definitions, and the algebraic operations.

#include "dd/export.hpp"
#include "dd/package.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <unordered_set>
#include <vector>

namespace dd = qsimec::dd;
using dd::ComplexValue;

namespace qsimec::dd {
/// Test-only view of a compute table's epoch and storage (the class
/// befriends this name; the library never defines it).
struct ComputeTableTestAccess {
  template <class Table>
  static void setEpoch(Table& table, std::uint32_t epoch) {
    table.epoch_ = epoch;
  }
  template <class Table> static bool allocated(const Table& table) {
    return !table.slots_.empty();
  }
  template <class Table> static std::size_t entryCount(const Table& table) {
    return table.entries_.size();
  }
};
} // namespace qsimec::dd

namespace {
void expectNear(const ComplexValue& a, const ComplexValue& b,
                double eps = 1e-9) {
  EXPECT_NEAR(a.re, b.re, eps);
  EXPECT_NEAR(a.im, b.im, eps);
}
} // namespace

TEST(RealTable, CanonicalizesWithinTolerance) {
  dd::RealTable table;
  auto* a = table.lookup(0.5);
  auto* b = table.lookup(0.5 + 1e-14);
  EXPECT_EQ(a, b);
  auto* c = table.lookup(0.5 + 1e-6);
  EXPECT_NE(a, c);
}

TEST(RealTable, ZeroAndOneAreSpecial) {
  dd::RealTable table;
  EXPECT_EQ(table.lookup(0.0), table.zero());
  EXPECT_EQ(table.lookup(1e-15), table.zero());
  EXPECT_EQ(table.lookup(1.0), table.one());
  EXPECT_EQ(table.lookup(-0.0), table.zero());
}

TEST(RealTable, NegativeValuesDistinct) {
  dd::RealTable table;
  EXPECT_NE(table.lookup(0.25), table.lookup(-0.25));
}

TEST(RealTable, GarbageCollectKeepsReferenced) {
  dd::RealTable table;
  auto* a = table.lookup(0.123456);
  dd::RealTable::incRef(a);
  table.lookup(0.777);
  const std::size_t before = table.size();
  const std::size_t collected = table.garbageCollect();
  EXPECT_GE(collected, 1U);
  EXPECT_EQ(table.size(), before - collected);
  EXPECT_EQ(table.lookup(0.123456), a);
}

TEST(PackageVectors, ZeroStateAmplitudes) {
  dd::Package pkg(3);
  const auto zero = pkg.makeZeroState();
  expectNear(pkg.getAmplitude(zero, 0), {1, 0});
  for (std::uint64_t i = 1; i < 8; ++i) {
    expectNear(pkg.getAmplitude(zero, i), {0, 0});
  }
}

TEST(PackageVectors, BasisStatesAreOrthonormal) {
  dd::Package pkg(4);
  for (std::uint64_t i = 0; i < 16; ++i) {
    const auto si = pkg.makeBasisState(i);
    for (std::uint64_t j = 0; j < 16; ++j) {
      const auto sj = pkg.makeBasisState(j);
      const double expected = (i == j) ? 1.0 : 0.0;
      EXPECT_NEAR(pkg.fidelity(si, sj), expected, 1e-12)
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(PackageVectors, BasisStatesShareStructure) {
  dd::Package pkg(6);
  const auto a = pkg.makeBasisState(5);
  const auto b = pkg.makeBasisState(5);
  EXPECT_EQ(a, b); // canonical: same pointer, same weight
}

TEST(PackageVectors, OutOfRangeBasisStateThrows) {
  dd::Package pkg(3);
  EXPECT_THROW((void)pkg.makeBasisState(8), std::invalid_argument);
}

TEST(PackageGates, HadamardOnZero) {
  dd::Package pkg(1);
  const auto h = pkg.makeGateDD(dd::Hmat, 0);
  const auto state = pkg.multiply(h, pkg.makeZeroState());
  expectNear(pkg.getAmplitude(state, 0), {dd::SQRT1_2, 0});
  expectNear(pkg.getAmplitude(state, 1), {dd::SQRT1_2, 0});
}

TEST(PackageGates, GateMatrixRoundTrip) {
  // every single-qubit gate DD must reproduce its defining dense matrix
  const std::vector<std::pair<const char*, dd::GateMatrix>> gates = {
      {"X", dd::Xmat},          {"Y", dd::Ymat},
      {"Z", dd::Zmat},          {"H", dd::Hmat},
      {"S", dd::Smat},          {"T", dd::Tmat},
      {"V", dd::Vmat},          {"Vdg", dd::Vdgmat},
      {"RX(0.3)", dd::rxMat(0.3)}, {"RY(1.2)", dd::ryMat(1.2)},
      {"RZ(2.1)", dd::rzMat(2.1)}, {"P(0.7)", dd::phaseMat(0.7)},
      {"U3", dd::u3Mat(0.4, 1.1, -0.6)}};
  dd::Package pkg(1);
  for (const auto& [name, mat] : gates) {
    const auto e = pkg.makeGateDD(mat, 0);
    for (std::uint64_t r = 0; r < 2; ++r) {
      for (std::uint64_t c = 0; c < 2; ++c) {
        expectNear(pkg.getEntry(e, r, c), mat[2 * r + c]);
      }
    }
  }
}

TEST(PackageGates, CnotMatchesDefinition) {
  dd::Package pkg(2);
  // control = qubit 1 (MSB), target = qubit 0: |10> -> |11>, |11> -> |10>
  const auto cx = pkg.makeGateDD(dd::Xmat, 0, {dd::Control{1, true}});
  const auto m = pkg.getMatrix(cx);
  const double expected[4][4] = {{1, 0, 0, 0},
                                 {0, 1, 0, 0},
                                 {0, 0, 0, 1},
                                 {0, 0, 1, 0}};
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(m[r][c].re, expected[r][c], 1e-12) << r << "," << c;
      EXPECT_NEAR(m[r][c].im, 0.0, 1e-12);
    }
  }
}

TEST(PackageGates, NegativeControl) {
  dd::Package pkg(2);
  // X on qubit 0 applied when qubit 1 is |0>
  const auto cx = pkg.makeGateDD(dd::Xmat, 0, {dd::Control{1, false}});
  const auto s = pkg.multiply(cx, pkg.makeBasisState(0b00));
  EXPECT_NEAR(pkg.fidelity(s, pkg.makeBasisState(0b01)), 1.0, 1e-12);
  const auto s2 = pkg.multiply(cx, pkg.makeBasisState(0b10));
  EXPECT_NEAR(pkg.fidelity(s2, pkg.makeBasisState(0b10)), 1.0, 1e-12);
}

TEST(PackageGates, ToffoliTruthTable) {
  dd::Package pkg(3);
  const auto ccx = pkg.makeGateDD(
      dd::Xmat, 0, {dd::Control{1, true}, dd::Control{2, true}});
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t expected = ((i >> 1) & 1U) && ((i >> 2) & 1U) ? i ^ 1U : i;
    const auto out = pkg.multiply(ccx, pkg.makeBasisState(i));
    EXPECT_NEAR(pkg.fidelity(out, pkg.makeBasisState(expected)), 1.0, 1e-12)
        << "input " << i;
  }
}

namespace {

/// makeGateDD as built before its one-node-per-level fast path: four
/// generic makeMNode calls per level below the target, one per level above,
/// every top weight interned again, identities cached (and referenced) on
/// first use like Package::makeIdent. The reference the production
/// construction must match id for id.
class ReferenceGateBuilder {
public:
  explicit ReferenceGateBuilder(dd::Package& pkg) : pkg_(pkg) {}

  dd::mEdge gate(const dd::GateMatrix& mat, dd::Var target,
                 std::vector<dd::Control> controls) {
    std::sort(controls.begin(), controls.end());
    std::array<dd::mEdge, 4> em;
    for (std::size_t i = 0; i < 4; ++i) {
      const dd::Complex w = pkg_.complexTable().lookup(mat[i]);
      em[i] = w.exactlyZero() ? pkg_.mZero()
                              : dd::mEdge{dd::mNode::terminal(), w};
    }
    auto ctrl = controls.begin();
    for (dd::Var z = 0; z < target; ++z) {
      if (ctrl != controls.end() && ctrl->qubit == z) {
        const dd::mEdge identBelow = ident(static_cast<std::size_t>(z));
        for (std::size_t i = 0; i < 4; ++i) {
          const bool diag = (i == 0 || i == 3);
          const dd::mEdge failCase = diag ? identBelow : pkg_.mZero();
          em[i] = ctrl->positive ? node(z, failCase, em[i])
                                 : node(z, em[i], failCase);
        }
        ++ctrl;
      } else {
        for (std::size_t i = 0; i < 4; ++i) {
          em[i] = node(z, em[i], em[i]);
        }
      }
    }
    dd::mEdge e = makeMNode(target, em);
    for (auto z = static_cast<dd::Var>(target + 1);
         z < static_cast<dd::Var>(pkg_.qubits()); ++z) {
      if (ctrl != controls.end() && ctrl->qubit == z) {
        const dd::mEdge identBelow = ident(static_cast<std::size_t>(z));
        e = ctrl->positive ? node(z, identBelow, e) : node(z, e, identBelow);
        ++ctrl;
      } else {
        e = node(z, e, e);
      }
    }
    return e;
  }

  dd::mEdge swap(dd::Var q0, dd::Var q1) {
    const dd::mEdge cx01 = gate(dd::Xmat, q1, {dd::Control{q0, true}});
    const dd::mEdge cx10 = gate(dd::Xmat, q0, {dd::Control{q1, true}});
    return pkg_.multiply(cx01, pkg_.multiply(cx10, cx01));
  }

private:
  /// makeMNode with its top weight interned again, as it used to be.
  dd::mEdge makeMNode(dd::Var z, const std::array<dd::mEdge, 4>& children) {
    const dd::mEdge e = pkg_.makeMNode(z, children);
    return {e.p, pkg_.complexTable().lookup(e.w.value())};
  }

  /// The block-diagonal node {d0, 0, 0, d1} at level z.
  dd::mEdge node(dd::Var z, const dd::mEdge& d0, const dd::mEdge& d1) {
    return makeMNode(z, {d0, pkg_.mZero(), pkg_.mZero(), d1});
  }

  dd::mEdge ident(std::size_t nq) {
    if (ids_.empty()) {
      ids_.push_back(pkg_.mTerminalOne());
    }
    while (ids_.size() <= nq) {
      const dd::mEdge below = ids_.back();
      const dd::mEdge e =
          node(static_cast<dd::Var>(ids_.size() - 1), below, below);
      pkg_.incRef(e);
      ids_.push_back(e);
    }
    return ids_[nq];
  }

  dd::Package& pkg_;
  std::vector<dd::mEdge> ids_;
};

/// Both DDs have the same shape, node ids and weights (ids and values).
void expectSameDD(const dd::mEdge& a, const dd::mEdge& b) {
  const auto sameWeight = [](const dd::Complex& x, const dd::Complex& y) {
    return x.r->id == y.r->id && x.i->id == y.i->id && x.value() == y.value();
  };
  ASSERT_TRUE(sameWeight(a.w, b.w));
  std::vector<std::pair<const dd::mNode*, const dd::mNode*>> stack{{a.p, b.p}};
  std::unordered_set<const dd::mNode*> seen;
  while (!stack.empty()) {
    const auto [x, y] = stack.back();
    stack.pop_back();
    ASSERT_EQ(x->id, y->id);
    ASSERT_EQ(x->v, y->v);
    if (x->isTerminal() || !seen.insert(x).second) {
      continue;
    }
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(sameWeight(x->e[i].w, y->e[i].w)) << "child " << i;
      stack.emplace_back(x->e[i].p, y->e[i].p);
    }
  }
}

void expectSameNodeCounts(const dd::Package& a, const dd::Package& b) {
  const dd::PackageStats sa = a.stats();
  const dd::PackageStats sb = b.stats();
  EXPECT_EQ(sa.mNodesLive, sb.mNodesLive);
  EXPECT_EQ(sa.mNodesAllocated, sb.mNodesAllocated);
  EXPECT_EQ(sa.mNodesPeakLive, sb.mNodesPeakLive);
  EXPECT_EQ(sa.realsLive, sb.realsLive);
}

} // namespace

// The fast construction (shared per-level nodes, the identity-tensor step,
// no re-interning of the top weight) is exact: on a second package, the
// level-by-level reference replays every gate to the same node ids, weights
// and node-pool counts.
TEST(PackageGates, MatchesLevelByLevelReference) {
  constexpr std::size_t nq = 4;
  const dd::ComplexValue phase = dd::ComplexValue::fromPolar(1, 0.6);
  const std::vector<dd::GateMatrix> matrices = {
      dd::Imat, dd::Hmat, dd::Xmat, dd::Ymat, dd::Zmat, dd::Smat, dd::Sdgmat,
      dd::Tmat, dd::Tdgmat, dd::Vmat, dd::Vdgmat, dd::SYmat, dd::SYdgmat,
      dd::rxMat(0.3), dd::ryMat(1.1), dd::rzMat(-0.7), dd::phaseMat(2.5),
      dd::u2Mat(0.4, -1.3), dd::u3Mat(0.9, 0.2, -2.1),
      dd::adjoint(dd::u3Mat(0.9, 0.2, -2.1)),
      dd::GateMatrix{phase, ComplexValue{0, 0}, ComplexValue{0, 0}, phase}};
  dd::Package fast(nq);
  dd::Package slow(nq);
  ReferenceGateBuilder reference(slow);
  std::size_t built = 0;
  const auto collectSometimes = [&] {
    // exercise the pool's free list too, not only its high-water growth
    if (++built % 37 == 0) {
      fast.garbageCollect(true);
      slow.garbageCollect(true);
    }
  };

  for (const dd::GateMatrix& mat : matrices) {
    for (dd::Var target = 0; target < static_cast<dd::Var>(nq); ++target) {
      // every subset of the other qubits as controls, in every polarity
      for (unsigned subset = 0; subset < (1U << nq); ++subset) {
        if ((subset >> target) & 1U) {
          continue;
        }
        const int k = std::popcount(subset);
        for (unsigned polarity = 0; polarity < (1U << k); ++polarity) {
          std::vector<dd::Control> controls;
          for (dd::Var q = 0, bit = 0; q < static_cast<dd::Var>(nq); ++q) {
            if ((subset >> q) & 1U) {
              controls.push_back(dd::Control{q, ((polarity >> bit++) & 1U) != 0});
            }
          }
          if (polarity % 2 == 1) { // an unsorted list is sorted, not trusted
            std::reverse(controls.begin(), controls.end());
          }
          const dd::mEdge a = fast.makeGateDD(mat, target, controls);
          const dd::mEdge b = reference.gate(mat, target, controls);
          SCOPED_TRACE(::testing::Message()
                       << "matrix " << (&mat - matrices.data()) << " target "
                       << target << " subset " << subset << " polarity "
                       << polarity);
          expectSameDD(a, b);
          expectSameNodeCounts(fast, slow);
          collectSometimes();
        }
      }
    }
  }
  for (dd::Var q0 = 0; q0 < static_cast<dd::Var>(nq); ++q0) {
    for (dd::Var q1 = 0; q1 < static_cast<dd::Var>(nq); ++q1) {
      if (q0 == q1) {
        continue;
      }
      expectSameDD(fast.makeSwapDD(q0, q1), reference.swap(q0, q1));
      expectSameNodeCounts(fast, slow);
      collectSometimes();
    }
  }
}

TEST(PackageGates, InvalidArgumentsThrow) {
  dd::Package pkg(2);
  EXPECT_THROW((void)pkg.makeGateDD(dd::Xmat, 5), std::invalid_argument);
  EXPECT_THROW((void)pkg.makeGateDD(dd::Xmat, 0, {dd::Control{0, true}}),
               std::invalid_argument);
  EXPECT_THROW((void)pkg.makeGateDD(dd::Xmat, 0,
                                    {dd::Control{1, true}, dd::Control{1, false}}),
               std::invalid_argument);
}

TEST(PackageMatrices, IdentityIsCanonical) {
  dd::Package pkg(4);
  const auto id1 = pkg.makeIdent();
  const auto id2 = pkg.makeIdent();
  EXPECT_EQ(id1, id2);
  for (std::uint64_t r = 0; r < 16; ++r) {
    for (std::uint64_t c = 0; c < 16; ++c) {
      expectNear(pkg.getEntry(id1, r, c),
                 (r == c) ? ComplexValue{1, 0} : ComplexValue{0, 0});
    }
  }
}

TEST(PackageMatrices, HadamardSelfInverse) {
  dd::Package pkg(3);
  const auto h = pkg.makeGateDD(dd::Hmat, 1);
  const auto hh = pkg.multiply(h, h);
  EXPECT_EQ(hh, pkg.makeIdent());
}

TEST(PackageMatrices, MultiplicationOrderMatters) {
  dd::Package pkg(1);
  const auto h = pkg.makeGateDD(dd::Hmat, 0);
  const auto t = pkg.makeGateDD(dd::Tmat, 0);
  EXPECT_NE(pkg.multiply(h, t), pkg.multiply(t, h));
}

TEST(PackageMatrices, ConjugateTransposeInvertsUnitary) {
  dd::Package pkg(2);
  const auto u = pkg.multiply(
      pkg.makeGateDD(dd::Hmat, 1),
      pkg.multiply(pkg.makeGateDD(dd::Xmat, 0, {dd::Control{1, true}}),
                   pkg.makeGateDD(dd::rzMat(0.37), 0)));
  const auto udg = pkg.conjugateTranspose(u);
  EXPECT_EQ(pkg.multiply(udg, u), pkg.makeIdent());
  EXPECT_EQ(pkg.multiply(u, udg), pkg.makeIdent());
}

TEST(PackageMatrices, KroneckerBuildsTensorProduct) {
  dd::Package pkg(2);
  // kron(X-on-one-qubit, H-on-one-qubit) must equal (X on q1)·(H on q0).
  // Single-level operands are built directly from terminal edges.
  const auto mkSingle = [&pkg](const dd::GateMatrix& m) {
    std::array<dd::mEdge, 4> children;
    for (std::size_t i = 0; i < 4; ++i) {
      const auto w = pkg.complexTable().lookup(m[i]);
      children[i] =
          w.exactlyZero() ? pkg.mZero() : dd::mEdge{dd::mNode::terminal(), w};
    }
    return pkg.makeMNode(0, children);
  };
  const auto kron = pkg.kronecker(mkSingle(dd::Xmat), mkSingle(dd::Hmat));
  const auto direct = pkg.multiply(pkg.makeGateDD(dd::Xmat, 1),
                                   pkg.makeGateDD(dd::Hmat, 0));
  EXPECT_EQ(kron, direct);
}

TEST(PackageMatrices, SwapExchangesQubits) {
  dd::Package pkg(3);
  const auto swap = pkg.makeSwapDD(0, 2);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t b0 = i & 1U;
    const std::uint64_t b2 = (i >> 2) & 1U;
    const std::uint64_t expected = (i & 0b010U) | (b0 << 2) | b2;
    const auto out = pkg.multiply(swap, pkg.makeBasisState(i));
    EXPECT_NEAR(pkg.fidelity(out, pkg.makeBasisState(expected)), 1.0, 1e-12);
  }
}

TEST(PackageMatrices, AddZeroIsNeutral) {
  dd::Package pkg(2);
  const auto h = pkg.makeGateDD(dd::Hmat, 0);
  EXPECT_EQ(pkg.add(h, pkg.mZero()), h);
  EXPECT_EQ(pkg.add(pkg.mZero(), h), h);
}

TEST(PackageMatrices, AdditionCancelsToZero) {
  dd::Package pkg(2);
  const auto h = pkg.makeGateDD(dd::Hmat, 0);
  const dd::mEdge negH{
      h.p, pkg.complexTable().lookup(-h.w.value().re, -h.w.value().im)};
  const auto sum = pkg.add(h, negH);
  EXPECT_TRUE(sum.isZeroTerminal());
}

TEST(PackageVectors, BellStateViaGates) {
  dd::Package pkg(2);
  auto state = pkg.makeZeroState();
  state = pkg.multiply(pkg.makeGateDD(dd::Hmat, 1), state);
  state = pkg.multiply(pkg.makeGateDD(dd::Xmat, 0, {dd::Control{1, true}}),
                       state);
  expectNear(pkg.getAmplitude(state, 0b00), {dd::SQRT1_2, 0});
  expectNear(pkg.getAmplitude(state, 0b11), {dd::SQRT1_2, 0});
  expectNear(pkg.getAmplitude(state, 0b01), {0, 0});
  expectNear(pkg.getAmplitude(state, 0b10), {0, 0});
  // root (q1) plus two distinct q0 children |0> and |1>
  EXPECT_EQ(dd::Package::size(state), 3U);
}

TEST(PackageVectors, InnerProductConjugatesLeft) {
  dd::Package pkg(1);
  // |+i> = S H |0>, <+i|+i> = 1, <+i|-i> = 0
  auto plusI = pkg.multiply(pkg.makeGateDD(dd::Smat, 0),
                            pkg.multiply(pkg.makeGateDD(dd::Hmat, 0),
                                         pkg.makeZeroState()));
  auto minusI = pkg.multiply(pkg.makeGateDD(dd::Sdgmat, 0),
                             pkg.multiply(pkg.makeGateDD(dd::Hmat, 0),
                                          pkg.makeZeroState()));
  expectNear(pkg.innerProduct(plusI, plusI), {1, 0});
  expectNear(pkg.innerProduct(plusI, minusI), {0, 0});
}

TEST(PackageGC, ReferencedDDsSurviveCollection) {
  dd::Package pkg(4);
  auto state = pkg.makeZeroState();
  const auto h = pkg.makeGateDD(dd::Hmat, 0);
  state = pkg.multiply(h, state);
  pkg.incRef(state);
  pkg.garbageCollect(true);
  // state must still be intact
  expectNear(pkg.getAmplitude(state, 0), {dd::SQRT1_2, 0});
  expectNear(pkg.getAmplitude(state, 1), {dd::SQRT1_2, 0});
  pkg.decRef(state);
}

TEST(PackageGC, UnreferencedNodesAreCollected) {
  dd::Package pkg(4);
  for (int k = 0; k < 10; ++k) {
    auto s = pkg.makeBasisState(static_cast<std::uint64_t>(k));
    (void)pkg.multiply(pkg.makeGateDD(dd::rxMat(0.1 * k), 2), s);
  }
  const auto before = pkg.stats().vNodesLive;
  pkg.garbageCollect(true);
  const auto after = pkg.stats().vNodesLive;
  EXPECT_LT(after, before);
}

TEST(PackageLimits, NodeBudgetThrows) {
  dd::Package pkg(10);
  pkg.setMatrixNodeLimit(16);
  EXPECT_THROW(
      {
        for (int q = 0; q < 10; ++q) {
          (void)pkg.makeGateDD(dd::rzMat(0.1 + q), static_cast<dd::Var>(q));
        }
      },
      dd::ResourceLimitExceeded);
}

TEST(Export, DotContainsNodes) {
  dd::Package pkg(2);
  auto state = pkg.multiply(pkg.makeGateDD(dd::Hmat, 1), pkg.makeZeroState());
  std::ostringstream ss;
  dd::exportDot(state, ss);
  const std::string dot = ss.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("q1"), std::string::npos);
}

TEST(Export, BasisLabelIsMsbFirst) {
  EXPECT_EQ(dd::basisLabel(0b110, 3), "110");
  EXPECT_EQ(dd::basisLabel(1, 4), "0001");
}

// --- table storage: epoch-stamped compute tables, demand-sized hashing ------

TEST(ComputeTable, StaleEntryMissesAfterClear) {
  dd::ComputeTable<dd::NodeKey, double> table;
  const dd::NodeKey key{42};
  table.insert(key, 1.5);
  const double* hit = table.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1.5);
  table.clear();
  EXPECT_EQ(table.lookup(key), nullptr);
  table.insert(key, 2.5);
  hit = table.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 2.5);
  EXPECT_EQ(table.lookups(), 3U);
  EXPECT_EQ(table.hits(), 2U);
}

TEST(ComputeTable, NeverAllocatedTableMissesAndCounts) {
  dd::ComputeTable<dd::NodePairKey, double> table;
  table.clear();
  EXPECT_EQ(table.lookup(dd::NodePairKey{1, 2}), nullptr);
  EXPECT_EQ(table.lookup(dd::NodePairKey{0, 0}), nullptr);
  EXPECT_EQ(table.lookups(), 2U);
  EXPECT_EQ(table.hits(), 0U);
  EXPECT_FALSE(dd::ComputeTableTestAccess::allocated(table));
  table.insert(dd::NodePairKey{1, 2}, 0.5);
  EXPECT_TRUE(dd::ComputeTableTestAccess::allocated(table));
}

TEST(ComputeTable, EpochWrapWipesEveryEntry) {
  dd::ComputeTable<dd::NodeKey, double> table;
  const dd::NodeKey early{7};
  const dd::NodeKey late{8};
  table.insert(early, 1.0); // stamped with the first epoch, 1
  dd::ComputeTableTestAccess::setEpoch(
      table, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(table.lookup(early), nullptr);
  table.insert(late, 2.0);
  ASSERT_NE(table.lookup(late), nullptr);
  // the counter wraps back to epoch 1: without a wipe, `early` would match
  table.clear();
  EXPECT_EQ(table.lookup(early), nullptr);
  EXPECT_EQ(table.lookup(late), nullptr);
  table.insert(early, 3.0);
  const double* hit = table.lookup(early);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 3.0);
}

namespace {
/// Reference model of a compute table: a plain 2^16-slot direct-mapped
/// array of epoch-stamped entries, with the same clear and wrap rules.
struct DirectMappedModel {
  struct Slot {
    dd::NodeKey key{};
    double value{0};
    std::uint32_t epoch{0};
  };
  static constexpr std::size_t SIZE = std::size_t{1} << 16U;
  std::vector<Slot> slots = std::vector<Slot>(SIZE);
  std::uint32_t epoch{1};
  std::size_t lookups{0};
  std::size_t hits{0};

  void insert(const dd::NodeKey& key, double value) {
    slots[key.hash() & (SIZE - 1)] = Slot{key, value, epoch};
  }
  const double* lookup(const dd::NodeKey& key) {
    ++lookups;
    const Slot& s = slots[key.hash() & (SIZE - 1)];
    if (s.epoch == epoch && s.key == key) {
      ++hits;
      return &s.value;
    }
    return nullptr;
  }
  void clear() {
    if (++epoch == 0) {
      for (Slot& s : slots) {
        s.epoch = 0;
      }
      epoch = 1;
    }
  }
};
} // namespace

// The sparse storage must be indistinguishable from a full direct-mapped
// array: same hits and misses, same values, same counters, through slot
// collisions, clears and an epoch wrap.
TEST(ComputeTable, MatchesADirectMappedReferenceModel) {
  dd::ComputeTable<dd::NodeKey, double> table;
  DirectMappedModel model;
  std::mt19937_64 rng(20260418);
  // NodeKey slots depend only on the low 16 bits of the id, so ids that
  // differ above bit 16 collide; a narrow pool makes hits and evictions
  // common, a wide one spreads entries over many slots
  const auto drawKey = [&rng] {
    const std::uint64_t high = rng() % 4;
    const std::uint64_t low = rng() % 8 == 0 ? rng() % 65536 : rng() % 64;
    return dd::NodeKey{(high << 16U) | low};
  };
  constexpr int kOps = 200000;
  std::size_t hitsSeen = 0;
  for (int op = 0; op < kOps; ++op) {
    if (op == kOps / 2) {
      // a few clears before the 32-bit epoch counter wraps
      const std::uint32_t nearWrap =
          std::numeric_limits<std::uint32_t>::max() - 3;
      dd::ComputeTableTestAccess::setEpoch(table, nearWrap);
      model.epoch = nearWrap;
    }
    const std::uint64_t dice = rng() % 1000;
    const dd::NodeKey key = drawKey();
    if (dice < 2) {
      table.clear();
      model.clear();
    } else if (dice < 500) {
      const auto value = static_cast<double>(op);
      table.insert(key, value);
      model.insert(key, value);
    } else {
      const double* got = table.lookup(key);
      const double* want = model.lookup(key);
      ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
      if (want != nullptr) {
        ASSERT_EQ(*got, *want) << "op " << op;
        ++hitsSeen;
      }
    }
  }
  EXPECT_EQ(table.lookups(), model.lookups);
  EXPECT_EQ(table.hits(), model.hits);
  EXPECT_EQ(table.hits(), hitsSeen);
  EXPECT_GT(hitsSeen, 1000U);
  EXPECT_LT(hitsSeen, table.lookups());
}

TEST(ComputeTable, StoresOneEntryPerWrittenSlot) {
  dd::ComputeTable<dd::NodeKey, double> table;
  // ids below 2^16 land in distinct slots (the slot is the low 16 bits of
  // the id times an odd constant)
  constexpr std::uint64_t kInserts = 1000;
  for (std::uint64_t id = 0; id < kInserts; ++id) {
    table.insert(dd::NodeKey{id}, 1.0);
  }
  EXPECT_EQ(dd::ComputeTableTestAccess::entryCount(table), kInserts);
  // overwrites, evictions by a colliding key and writes after a clear all
  // reuse the slot's entry
  table.insert(dd::NodeKey{0}, 2.0);
  table.insert(dd::NodeKey{std::uint64_t{1} << 16U}, 3.0);
  table.clear();
  table.insert(dd::NodeKey{1}, 4.0);
  EXPECT_EQ(dd::ComputeTableTestAccess::entryCount(table), kInserts);
  EXPECT_EQ(table.lookup(dd::NodeKey{0}), nullptr);
  const double* hit = table.lookup(dd::NodeKey{1});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 4.0);
}

TEST(RealTable, NearbyEntriesStayNewestFirstAcrossGrowth) {
  dd::RealTable table;
  const double tol = dd::TOLERANCE;
  dd::RealEntry* older = table.lookup(0.3);
  dd::RealEntry* newer = table.lookup(0.3 + 1.5 * tol);
  ASSERT_NE(older, newer);
  ASSERT_EQ(older->bucket, newer->bucket);
  const double query = 0.3 + 0.75 * tol; // within tolerance of both
  ASSERT_EQ(table.lookup(query), newer);
  // enough distinct values for several doublings of the slot array
  for (int i = 0; i < 20000; ++i) {
    (void)table.lookup(0.4 + 1e-5 * i);
  }
  ASSERT_GT(table.size(), 16384U);
  EXPECT_EQ(table.lookup(query), newer);
  EXPECT_EQ(table.lookup(0.3), older);
}

namespace {
// Rotation layers with pseudo-random angles and a CNOT ladder on 12 qubits:
// the state fills out to thousands of nodes and distinct reals, so the
// unique and real tables double several times.
dd::vEdge scramble(dd::Package& pkg, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> angle(0.1, 3.0);
  dd::vEdge state = pkg.makeZeroState();
  pkg.incRef(state);
  const auto apply = [&](const dd::mEdge& gate) {
    const dd::vEdge next = pkg.multiply(gate, state);
    pkg.incRef(next);
    pkg.decRef(state);
    state = next;
    pkg.garbageCollect();
  };
  const auto nq = static_cast<dd::Var>(pkg.qubits());
  for (int layer = 0; layer < 2; ++layer) {
    for (dd::Var q = 0; q < nq; ++q) {
      apply(pkg.makeGateDD(dd::ryMat(angle(rng)), q));
      apply(pkg.makeGateDD(dd::rzMat(angle(rng)), q));
    }
    for (dd::Var q = 0; q + 1 < nq; ++q) {
      apply(pkg.makeGateDD(dd::Xmat, static_cast<dd::Var>(q + 1),
                           {dd::Control{q}}));
    }
  }
  return state;
}

// Node ids, levels and weight ids of every node under `root`, in DFS order.
std::vector<std::uint64_t> structure(const dd::vEdge& root) {
  std::vector<std::uint64_t> out{root.w.r->id, root.w.i->id};
  std::unordered_set<const dd::vNode*> seen;
  std::vector<const dd::vNode*> stack{root.p};
  while (!stack.empty()) {
    const dd::vNode* p = stack.back();
    stack.pop_back();
    if (p->isTerminal() || !seen.insert(p).second) {
      continue;
    }
    out.push_back(p->id);
    out.push_back(static_cast<std::uint64_t>(p->v));
    for (const auto& child : p->e) {
      out.push_back(child.p->id);
      out.push_back(child.w.r->id);
      out.push_back(child.w.i->id);
      stack.push_back(child.p);
    }
  }
  return out;
}

// Traffic counters only: allocations differ by design (a used package
// recycles nodes from its free list), and peaks are lifetime figures.
std::vector<std::size_t> counterDelta(const dd::PackageStats& before,
                                      const dd::PackageStats& after) {
  std::vector<std::size_t> out{after.gcRuns - before.gcRuns};
  const auto tables = [](const dd::PackageStats& s) {
    return std::vector<dd::TableStats>{s.vUnique, s.mUnique, s.addV,
                                       s.addM,    s.multMV,  s.multMM,
                                       s.kron,    s.conj,    s.inner};
  };
  const auto b = tables(before);
  const auto a = tables(after);
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(a[i].lookups - b[i].lookups);
    out.push_back(a[i].hits - b[i].hits);
  }
  return out;
}
} // namespace

TEST(PackageTables, GrownTablesReplayAfterResetLikeAFreshPackage) {
  constexpr std::size_t nq = 12;
  dd::Package fresh(nq);
  const dd::PackageStats freshBefore = fresh.stats();
  const dd::vEdge expected = scramble(fresh, 5);
  const dd::PackageStats freshAfter = fresh.stats();
  // at least three doublings of both tables (2^10 -> 2^13)
  ASSERT_GT(freshAfter.vNodesPeakLive, 4096U);
  ASSERT_GT(freshAfter.realsLive, 4096U);

  dd::Package used(nq);
  const dd::vEdge first = scramble(used, 11);
  ASSERT_GT(used.stats().realsLive, 4096U);
  used.decRef(first);
  used.resetComputationState();
  const dd::PackageStats usedBefore = used.stats();
  const dd::vEdge replay = scramble(used, 5);
  const dd::PackageStats usedAfter = used.stats();

  EXPECT_EQ(structure(replay), structure(expected));
  const std::vector<ComplexValue> a = fresh.getVector(expected);
  const std::vector<ComplexValue> b = used.getVector(replay);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].re, b[i].re) << i;
    ASSERT_EQ(a[i].im, b[i].im) << i;
  }
  EXPECT_EQ(counterDelta(usedBefore, usedAfter),
            counterDelta(freshBefore, freshAfter));
}
