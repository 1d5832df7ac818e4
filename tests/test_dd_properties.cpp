// Property-based tests of the decision-diagram package: algebraic laws
// (unitarity, associativity, adjoint involution), canonicity (equal-by-math
// constructions are pointer-equal), and consistency of the accessors —
// swept over random seeds with parameterized gtest.

#include "dd/package.hpp"
#include "gen/random_circuits.hpp"
#include "sim/dd_simulator.hpp"

#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <unordered_set>
#include <vector>

using namespace qsimec;

namespace {

dd::mEdge randomUnitary(dd::Package& pkg, std::size_t nqubits,
                        std::uint64_t seed) {
  const auto qc = gen::randomCircuit(nqubits, 25, seed);
  return sim::buildFunctionality(qc, pkg);
}

dd::vEdge randomState(dd::Package& pkg, std::size_t nqubits,
                      std::uint64_t seed) {
  const auto qc = gen::randomCircuit(nqubits, 25, seed);
  return sim::simulate(qc, pkg.makeZeroState(), pkg);
}

} // namespace

class DDPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
protected:
  static constexpr std::size_t N = 4;
};

TEST_P(DDPropertyTest, UnitaryTimesAdjointIsIdentity) {
  dd::Package pkg(N);
  const auto u = randomUnitary(pkg, N, GetParam());
  pkg.incRef(u);
  const auto udg = pkg.conjugateTranspose(u);
  EXPECT_EQ(pkg.multiply(u, udg), pkg.makeIdent());
  EXPECT_EQ(pkg.multiply(udg, u), pkg.makeIdent());
  pkg.decRef(u);
}

TEST_P(DDPropertyTest, AdjointIsInvolution) {
  dd::Package pkg(N);
  const auto u = randomUnitary(pkg, N, GetParam());
  pkg.incRef(u);
  EXPECT_EQ(pkg.conjugateTranspose(pkg.conjugateTranspose(u)), u);
  pkg.decRef(u);
}

TEST_P(DDPropertyTest, MultiplicationIsAssociative) {
  dd::Package pkg(N);
  const auto a = randomUnitary(pkg, N, GetParam() * 3 + 0);
  pkg.incRef(a);
  const auto b = randomUnitary(pkg, N, GetParam() * 3 + 1);
  pkg.incRef(b);
  const auto c = randomUnitary(pkg, N, GetParam() * 3 + 2);
  pkg.incRef(c);
  EXPECT_EQ(pkg.multiply(pkg.multiply(a, b), c),
            pkg.multiply(a, pkg.multiply(b, c)));
  pkg.decRef(a);
  pkg.decRef(b);
  pkg.decRef(c);
}

TEST_P(DDPropertyTest, AdditionCommutesAndAssociates) {
  dd::Package pkg(N);
  const auto x = randomState(pkg, N, GetParam() * 5 + 0);
  pkg.incRef(x);
  const auto y = randomState(pkg, N, GetParam() * 5 + 1);
  pkg.incRef(y);
  const auto z = randomState(pkg, N, GetParam() * 5 + 2);
  pkg.incRef(z);
  EXPECT_EQ(pkg.add(x, y), pkg.add(y, x));
  EXPECT_EQ(pkg.add(pkg.add(x, y), z), pkg.add(x, pkg.add(y, z)));
  pkg.decRef(x);
  pkg.decRef(y);
  pkg.decRef(z);
}

TEST_P(DDPropertyTest, MatrixVectorDistributesOverAddition) {
  dd::Package pkg(N);
  const auto u = randomUnitary(pkg, N, GetParam() * 7 + 0);
  pkg.incRef(u);
  const auto x = randomState(pkg, N, GetParam() * 7 + 1);
  pkg.incRef(x);
  const auto y = randomState(pkg, N, GetParam() * 7 + 2);
  pkg.incRef(y);
  const auto lhs = pkg.multiply(u, pkg.add(x, y));
  const auto rhs = pkg.add(pkg.multiply(u, x), pkg.multiply(u, y));
  // numerically equal; allow structural comparison via fidelity of the
  // normalized difference (pointer equality can be broken by rounding on
  // different evaluation orders)
  pkg.incRef(lhs);
  const auto overlap = pkg.innerProduct(lhs, rhs);
  const double n1 = pkg.innerProduct(lhs, lhs).re;
  const double n2 = pkg.innerProduct(rhs, rhs).re;
  EXPECT_NEAR(overlap.mag2() / (n1 * n2), 1.0, 1e-9);
  EXPECT_NEAR(n1, n2, 1e-9);
  pkg.decRef(lhs);
  pkg.decRef(u);
  pkg.decRef(x);
  pkg.decRef(y);
}

TEST_P(DDPropertyTest, UnitariesPreserveNorm) {
  dd::Package pkg(N);
  const auto u = randomUnitary(pkg, N, GetParam() * 11 + 0);
  pkg.incRef(u);
  const auto x = randomState(pkg, N, GetParam() * 11 + 1);
  pkg.incRef(x);
  const auto ux = pkg.multiply(u, x);
  EXPECT_NEAR(pkg.norm2(ux), pkg.norm2(x), 1e-9);
  pkg.decRef(u);
  pkg.decRef(x);
}

TEST_P(DDPropertyTest, InnerProductIsConjugateSymmetric) {
  dd::Package pkg(N);
  const auto x = randomState(pkg, N, GetParam() * 13 + 0);
  pkg.incRef(x);
  const auto y = randomState(pkg, N, GetParam() * 13 + 1);
  const auto xy = pkg.innerProduct(x, y);
  const auto yx = pkg.innerProduct(y, x);
  EXPECT_NEAR(xy.re, yx.re, 1e-10);
  EXPECT_NEAR(xy.im, -yx.im, 1e-10);
  pkg.decRef(x);
}

TEST_P(DDPropertyTest, CommutingGateOrdersAreCanonical) {
  // diagonal gates commute: applying them in any order must produce the
  // SAME canonical DD (pointer equality)
  dd::Package pkg(N);
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  std::vector<dd::mEdge> gates;
  for (std::size_t q = 0; q < N; ++q) {
    gates.push_back(pkg.makeGateDD(dd::phaseMat(angle(rng)),
                                   static_cast<dd::Var>(q)));
    pkg.incRef(gates.back());
  }
  dd::vEdge base = randomState(pkg, N, GetParam() + 100);
  pkg.incRef(base);

  dd::vEdge forward = base;
  for (const auto& g : gates) {
    forward = pkg.multiply(g, forward);
  }
  dd::vEdge backward = base;
  for (auto it = gates.rbegin(); it != gates.rend(); ++it) {
    backward = pkg.multiply(*it, backward);
  }
  EXPECT_EQ(forward, backward);
  pkg.decRef(base);
  for (const auto& g : gates) {
    pkg.decRef(g);
  }
}

TEST_P(DDPropertyTest, GetVectorMatchesGetAmplitude) {
  dd::Package pkg(N);
  const auto x = randomState(pkg, N, GetParam() * 17);
  const auto vec = pkg.getVector(x);
  for (std::uint64_t i = 0; i < vec.size(); ++i) {
    const auto amp = pkg.getAmplitude(x, i);
    EXPECT_DOUBLE_EQ(vec[i].re, amp.re);
    EXPECT_DOUBLE_EQ(vec[i].im, amp.im);
  }
}

TEST_P(DDPropertyTest, ProductStateAmplitudesFactorize) {
  dd::Package pkg(N);
  std::mt19937_64 rng(GetParam() * 19);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<std::pair<dd::ComplexValue, dd::ComplexValue>> amps;
  for (std::size_t q = 0; q < N; ++q) {
    dd::ComplexValue a0{u(rng), u(rng)};
    dd::ComplexValue a1{u(rng), u(rng)};
    if (a0.approximatelyZero() && a1.approximatelyZero()) {
      a0 = {1, 0};
    }
    amps.emplace_back(a0, a1);
  }
  const auto state = pkg.makeProductState(amps);
  for (std::uint64_t i = 0; i < (1ULL << N); ++i) {
    dd::ComplexValue expected{1, 0};
    for (std::size_t q = 0; q < N; ++q) {
      expected = expected * (((i >> q) & 1U) ? amps[q].second : amps[q].first);
    }
    const auto actual = pkg.getAmplitude(state, i);
    EXPECT_NEAR(actual.re, expected.re, 1e-9);
    EXPECT_NEAR(actual.im, expected.im, 1e-9);
  }
}

TEST_P(DDPropertyTest, GarbageCollectionPreservesResults) {
  dd::Package pkg(N);
  const auto qc = gen::randomCircuit(N, 30, GetParam() * 23);
  dd::vEdge expected = sim::simulate(qc, pkg.makeZeroState(), pkg);
  pkg.incRef(expected);
  // force aggressive collection, then recompute: canonical result identical
  pkg.garbageCollect(true);
  const dd::vEdge again = sim::simulate(qc, pkg.makeZeroState(), pkg);
  EXPECT_EQ(again, expected);
  pkg.decRef(expected);
}

// Package::makeVNode/makeMNode return a child's weight as the top weight
// without interning it again; that is exact only because every canonical
// weight interns to itself.
TEST_P(DDPropertyTest, CanonicalWeightsInternToThemselves) {
  dd::Package pkg(N);
  const dd::vEdge state = randomState(pkg, N, GetParam());
  std::vector<dd::Complex> weights{state.w};
  std::vector<const dd::vNode*> stack{state.p};
  std::unordered_set<const dd::vNode*> seen;
  while (!stack.empty()) {
    const dd::vNode* p = stack.back();
    stack.pop_back();
    if (p->isTerminal() || !seen.insert(p).second) {
      continue;
    }
    for (const dd::vEdge& child : p->e) {
      weights.push_back(child.w);
      stack.push_back(child.p);
    }
  }
  ASSERT_GT(seen.size(), N);
  for (const dd::Complex& w : weights) {
    EXPECT_EQ(pkg.complexTable().lookup(w.value()), w) << w.value();
  }
}

// Package::mulWeights returns a factor unlooked-up when the other is exactly
// one; it must name the entry the full lookup of the product would.
TEST_P(DDPropertyTest, MulWeightsMatchesTheLookupOfTheProduct) {
  dd::Package pkg(N);
  const dd::vEdge state = randomState(pkg, N, GetParam());
  const dd::mEdge unitary = randomUnitary(pkg, N, GetParam() + 100);
  std::vector<dd::Complex> weights{state.w, unitary.w,
                                   pkg.complexTable().one()};
  std::vector<const dd::vNode*> vStack{state.p};
  std::vector<const dd::mNode*> mStack{unitary.p};
  std::unordered_set<const void*> seen;
  while (!vStack.empty()) {
    const dd::vNode* p = vStack.back();
    vStack.pop_back();
    if (p->isTerminal() || !seen.insert(p).second) {
      continue;
    }
    for (const dd::vEdge& child : p->e) {
      weights.push_back(child.w);
      vStack.push_back(child.p);
    }
  }
  while (!mStack.empty()) {
    const dd::mNode* p = mStack.back();
    mStack.pop_back();
    if (p->isTerminal() || !seen.insert(p).second) {
      continue;
    }
    for (const dd::mEdge& child : p->e) {
      weights.push_back(child.w);
      mStack.push_back(child.p);
    }
  }
  ASSERT_GT(seen.size(), 2 * N);
  dd::ComplexTable& table = pkg.complexTable();
  const dd::Complex one = table.one();
  for (const dd::Complex& a : weights) {
    for (const dd::Complex& b : {one, a, weights[weights.size() / 2]}) {
      EXPECT_EQ(pkg.mulWeights(a, b), table.lookup(a.value() * b.value()))
          << a.value() << " * " << b.value();
      EXPECT_EQ(pkg.mulWeights(b, a), table.lookup(b.value() * a.value()))
          << b.value() << " * " << a.value();
      for (const auto& [x, y, z] : {std::tuple{one, a, b}, std::tuple{a, one, b},
                                    std::tuple{a, b, one}}) {
        EXPECT_EQ(pkg.mulWeights(x, y, z),
                  table.lookup(x.value() * y.value() * z.value()))
            << x.value() << " * " << y.value() << " * " << z.value();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DDPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 11));
