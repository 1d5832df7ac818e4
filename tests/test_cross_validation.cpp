// Cross-validation sweep: for every circuit family the library generates,
// the DD-built functionality must match the dense simulator's matrix
// entry-for-entry at small sizes. This is the broadest single correctness
// net in the suite — any systematic error in gate semantics, layout
// handling, or DD algebra shows up here.

#include "gen/algorithms.hpp"
#include "gen/chemistry.hpp"
#include "gen/grover.hpp"
#include "gen/qft.hpp"
#include "gen/random_circuits.hpp"
#include "gen/revlib_like.hpp"
#include "gen/supremacy.hpp"
#include "sim/dd_simulator.hpp"
#include "sim/dense_simulator.hpp"
#include "transform/decomposition.hpp"
#include "transform/mapper.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <ostream>

using namespace qsimec;

namespace {

struct Family {
  const char* name;
  std::function<ir::QuantumComputation()> make;
};

// gtest's default printer dumps the struct's bytes (pointers included) into
// the ctest name; the family name keeps names stable across builds
void PrintTo(const Family& family, std::ostream* os) { *os << family.name; }

void expectMatchesDense(const ir::QuantumComputation& qc, double eps = 1e-9) {
  ASSERT_LE(qc.qubits(), 10U) << "keep cross-validation cases small";
  dd::Package pkg(qc.qubits());
  const auto u = sim::buildFunctionality(qc, pkg);
  const auto dense = sim::DenseSimulator::buildMatrix(qc);
  const std::uint64_t dim = 1ULL << qc.qubits();
  for (std::uint64_t r = 0; r < dim; ++r) {
    for (std::uint64_t c = 0; c < dim; ++c) {
      const auto e = pkg.getEntry(u, r, c);
      ASSERT_NEAR(e.re, dense[r][c].real(), eps)
          << qc.name() << " entry (" << r << "," << c << ")";
      ASSERT_NEAR(e.im, dense[r][c].imag(), eps)
          << qc.name() << " entry (" << r << "," << c << ")";
    }
  }
}

} // namespace

class CrossValidation : public ::testing::TestWithParam<Family> {};

TEST_P(CrossValidation, FunctionalityMatchesDenseOracle) {
  expectMatchesDense(GetParam().make());
}

TEST_P(CrossValidation, MappedVariantMatchesDenseOracle) {
  const auto qc = GetParam().make();
  bool mappable = true;
  for (const auto& op : qc) {
    mappable = mappable && op.usedQubits().size() <= 2;
  }
  if (!mappable || qc.qubits() < 2) {
    GTEST_SKIP() << "multi-qubit gates: decompose before mapping";
  }
  const auto mapped =
      tf::mapCircuit(qc, tf::CouplingMap::linear(qc.qubits()));
  expectMatchesDense(mapped.circuit);
}

INSTANTIATE_TEST_SUITE_P(
    Families, CrossValidation,
    ::testing::Values(
        Family{"qft5", [] { return gen::qft(5); }},
        Family{"qft5_noswap", [] { return gen::qft(5, false); }},
        Family{"qft_alt5", [] { return gen::qftAlternative(5); }},
        Family{"grover4", [] { return gen::grover(4, 9); }},
        Family{"grover4_decomposed",
               [] { return tf::decompose(gen::grover(4, 9)); }},
        Family{"supremacy2x3",
               [] { return gen::supremacy(2, 3, 6, 11); }},
        Family{"chemistry1x2", [] { return gen::hubbardTrotter(1, 2); }},
        Family{"hwb4", [] { return gen::hwbCircuit(4); }},
        Family{"hwb4_decomposed",
               [] { return tf::decompose(gen::hwbCircuit(4)); }},
        Family{"urf4", [] { return gen::urfCircuit(4, 3); }},
        Family{"adder6", [] { return gen::adderCircuit(6); }},
        Family{"inc5", [] { return gen::incrementCircuit(5); }},
        Family{"bv4", [] { return gen::bernsteinVazirani(4, 0b1010); }},
        Family{"dj4", [] { return gen::deutschJozsa(4, true, 5); }},
        Family{"qpe4", [] { return gen::qpe(4, 0.3125); }},
        Family{"ghz6", [] { return gen::ghzState(6); }},
        Family{"w6", [] { return gen::wState(6); }},
        Family{"clifford_t6",
               [] { return gen::randomCliffordT(6, 60, 13); }},
        Family{"random6", [] { return gen::randomCircuit(6, 50, 21); }}),
    [](const auto& info) { return std::string(info.param.name); });
