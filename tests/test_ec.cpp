// Equivalence checker tests: all three checkers (construction, alternating
// with every strategy, simulation) plus the combined Fig. 3 flow, on known
// equivalent and non-equivalent circuit pairs.

#include "ec/construction_checker.hpp"
#include "ec/diff_analysis.hpp"
#include "ec/error_localization.hpp"
#include "ec/rewriting_checker.hpp"
#include "ec/simulation_checker.hpp"
#include "gen/random_circuits.hpp"
#include "util/deadline.hpp"
#include "ec/flow.hpp"
#include "gen/qft.hpp"
#include "transform/mapper.hpp"

#include <gtest/gtest.h>

#include <numbers>

using namespace qsimec;
using ec::Equivalence;

namespace {

/// G: the 3-qubit example circuit from Fig. 1b of the paper.
ir::QuantumComputation paperCircuitG() {
  ir::QuantumComputation qc(3, "fig1b");
  qc.h(1);
  qc.cx(1, 0); // CNOT with control q1, target q0
  qc.h(2);
  qc.h(1);
  qc.cx(2, 1);
  qc.h(2);
  qc.cx(2, 1);
  qc.cx(1, 0);
  return qc;
}

/// A mapped variant: same functionality with extra SWAP pairs inserted.
ir::QuantumComputation paperCircuitGPrime() {
  ir::QuantumComputation qc(3, "fig2");
  qc.h(1);
  qc.cx(1, 0);
  qc.h(2);
  qc.h(1);
  qc.swap(1, 2);
  qc.cx(1, 2); // acts like cx(2,1) before the swap
  qc.swap(1, 2);
  qc.h(2);
  qc.cx(2, 1);
  qc.cx(1, 0);
  return qc;
}

} // namespace

TEST(ConstructionChecker, EquivalentPair) {
  const ec::ConstructionChecker checker;
  const auto result = checker.run(paperCircuitG(), paperCircuitGPrime());
  EXPECT_EQ(result.equivalence, Equivalence::Equivalent);
}

TEST(ConstructionChecker, DetectsMissingGate) {
  auto g = paperCircuitG();
  auto bad = paperCircuitG();
  bad.ops().pop_back();
  const ec::ConstructionChecker checker;
  EXPECT_EQ(checker.run(g, bad).equivalence, Equivalence::NotEquivalent);
}

TEST(ConstructionChecker, GlobalPhaseIsRecognized) {
  ir::QuantumComputation a(1);
  a.rz(0.5, 0);
  ir::QuantumComputation b(1);
  b.phase(0.5, 0); // P(l) = e^{il/2} RZ(l)
  const ec::ConstructionChecker checker;
  EXPECT_EQ(checker.run(a, b).equivalence,
            Equivalence::EquivalentUpToGlobalPhase);
}

TEST(ConstructionChecker, RejectsMismatchedQubitCounts) {
  const ec::ConstructionChecker checker;
  EXPECT_THROW((void)checker.run(ir::QuantumComputation(2),
                                 ir::QuantumComputation(3)),
               std::invalid_argument);
}

TEST(ConstructionChecker, TimeoutYieldsNoInformation) {
  ir::QuantumComputation big(14);
  for (int rep = 0; rep < 200; ++rep) {
    for (ir::Qubit q = 0; q < 14; ++q) {
      big.u3(0.1 + q + rep, 0.2, 0.3, q);
      big.cx(q, static_cast<ir::Qubit>((q + 1) % 14));
    }
  }
  ec::ConstructionConfiguration config;
  config.timeoutSeconds = 0.05;
  const ec::ConstructionChecker checker(config);
  const auto result = checker.run(big, big);
  EXPECT_EQ(result.equivalence, Equivalence::NoInformation);
  EXPECT_TRUE(result.timedOut);
}

class AlternatingStrategyTest : public ::testing::TestWithParam<ec::Strategy> {};

TEST_P(AlternatingStrategyTest, EquivalentPair) {
  ec::AlternatingConfiguration config;
  config.strategy = GetParam();
  const ec::AlternatingChecker checker(config);
  const auto result = checker.run(paperCircuitG(), paperCircuitGPrime());
  EXPECT_TRUE(ec::provedEquivalent(result.equivalence));
}

TEST_P(AlternatingStrategyTest, DetectsWrongSwapBug) {
  // Example 6: the last SWAP applied to the wrong qubit pair
  auto bad = paperCircuitGPrime();
  ec::AlternatingConfiguration config;
  config.strategy = GetParam();
  // replace the second swap(1,2) with swap(0,1)
  int seen = 0;
  for (auto& op : bad.ops()) {
    if (op.type() == ir::OpType::SWAP && ++seen == 2) {
      op = ir::StandardOperation(ir::OpType::SWAP, {0, 1});
    }
  }
  ASSERT_EQ(seen, 2);
  const ec::AlternatingChecker checker(config);
  EXPECT_EQ(checker.run(paperCircuitG(), bad).equivalence,
            Equivalence::NotEquivalent);
}

TEST_P(AlternatingStrategyTest, DifferentGateCountsStillWork) {
  ir::QuantumComputation a(2);
  a.h(0);
  ir::QuantumComputation b(2);
  b.h(0);
  b.x(1);
  b.x(1); // cancels
  ec::AlternatingConfiguration config;
  config.strategy = GetParam();
  const ec::AlternatingChecker checker(config);
  EXPECT_TRUE(ec::provedEquivalent(checker.run(a, b).equivalence));
}

TEST_P(AlternatingStrategyTest, EmptyCircuitsAreEquivalent) {
  ec::AlternatingConfiguration config;
  config.strategy = GetParam();
  const ec::AlternatingChecker checker(config);
  EXPECT_EQ(checker.run(ir::QuantumComputation(2), ir::QuantumComputation(2))
                .equivalence,
            Equivalence::Equivalent);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, AlternatingStrategyTest,
                         ::testing::Values(ec::Strategy::Naive,
                                           ec::Strategy::Proportional,
                                           ec::Strategy::Lookahead),
                         [](const auto& info) {
                           return std::string(ec::toString(info.param));
                         });

TEST(ConstructionChecker, TimeoutInterruptsSingleHugeMultiply) {
  // QFT functionality construction explodes: a single matrix multiply
  // would run for minutes. The in-operation interrupt hook must stop it
  // near the budget, not at the next gate boundary.
  const auto g = gen::qft(26);
  ec::ConstructionConfiguration config;
  config.timeoutSeconds = 0.25;
  const ec::ConstructionChecker checker(config);
  const util::Stopwatch watch;
  const auto result = checker.run(g, gen::qftAlternative(26));
  EXPECT_TRUE(result.timedOut);
  EXPECT_LT(watch.seconds(), 5.0); // near the budget, not minutes
}

TEST(SimulationChecker, FindsSingleQubitError) {
  auto good = paperCircuitG();
  auto bad = paperCircuitG();
  bad.ops()[3] = ir::StandardOperation(ir::OpType::RX, {1}, {},
                                       {std::numbers::pi / 2 + 0.1, 0, 0});
  ec::SimulationConfiguration config;
  config.seed = 7;
  const ec::SimulationChecker checker(config);
  const auto result = checker.run(good, bad);
  EXPECT_EQ(result.equivalence, Equivalence::NotEquivalent);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_LT(result.counterexample->fidelity, 1.0 - 1e-8);
  // single-qubit errors affect all columns: one simulation must suffice
  EXPECT_EQ(result.simulations, 1U);
}

TEST(SimulationChecker, PassesEquivalentPair) {
  ec::SimulationConfiguration config;
  config.seed = 3;
  const ec::SimulationChecker checker(config);
  const auto result = checker.run(paperCircuitG(), paperCircuitGPrime());
  EXPECT_EQ(result.equivalence, Equivalence::ProbablyEquivalent);
  EXPECT_EQ(result.simulations, 10U);
}

TEST(SimulationChecker, GlobalPhaseIsIgnoredByDefault) {
  ir::QuantumComputation a(1);
  a.rz(0.5, 0);
  ir::QuantumComputation b(1);
  b.phase(0.5, 0);
  ec::SimulationConfiguration config;
  const ec::SimulationChecker checker(config);
  EXPECT_EQ(checker.run(a, b).equivalence, Equivalence::ProbablyEquivalent);

  config.ignoreGlobalPhase = false;
  const ec::SimulationChecker strict(config);
  EXPECT_EQ(strict.run(a, b).equivalence, Equivalence::NotEquivalent);
}

TEST(SimulationChecker, DeterministicUnderSeed) {
  auto bad = paperCircuitGPrime();
  bad.ops().pop_back();
  ec::SimulationConfiguration config;
  config.seed = 11;
  const ec::SimulationChecker checker(config);
  const auto r1 = checker.run(paperCircuitG(), bad);
  const auto r2 = checker.run(paperCircuitG(), bad);
  ASSERT_TRUE(r1.counterexample.has_value());
  ASSERT_TRUE(r2.counterexample.has_value());
  EXPECT_EQ(r1.counterexample->input, r2.counterexample->input);
  EXPECT_EQ(r1.simulations, r2.simulations);
}

TEST(DiffAnalysis, SingleQubitErrorAffectsAllColumns) {
  // Example 7 of the paper: an uncontrolled difference touches every column
  auto g = paperCircuitG();
  auto bad = paperCircuitG();
  bad.h(0); // extra H at the end
  const auto analysis = ec::analyzeDifference(g, bad);
  EXPECT_EQ(analysis.totalColumns, 8U);
  EXPECT_EQ(analysis.differingColumns, 8U);
  EXPECT_DOUBLE_EQ(analysis.fraction(), 1.0);
  EXPECT_FALSE(analysis.witnesses.empty());
}

TEST(DiffAnalysis, FullyControlledErrorAffectsTwoColumns) {
  // Example 8: a difference controlled on all other qubits touches exactly
  // 2^(n-c) = 2 columns. (The base circuit must not map the affected basis
  // states onto X eigenstates, so use a diagonal circuit.)
  ir::QuantumComputation g(3);
  g.t(0);
  auto bad = g;
  bad.x(0, {ir::Control{1, true}, ir::Control{2, true}});
  const auto analysis = ec::analyzeDifference(g, bad);
  EXPECT_EQ(analysis.differingColumns, 2U);
  for (const auto w : analysis.witnesses) {
    EXPECT_EQ(w & 0b110U, 0b110U); // both controls set
  }
}

TEST(DiffAnalysis, EquivalentCircuitsHaveNoDifference) {
  const auto analysis =
      ec::analyzeDifference(paperCircuitG(), paperCircuitGPrime());
  EXPECT_EQ(analysis.differingColumns, 0U);
  EXPECT_TRUE(analysis.witnesses.empty());
}

TEST(DiffAnalysis, Validation) {
  EXPECT_THROW((void)ec::analyzeDifference(ir::QuantumComputation(2),
                                           ir::QuantumComputation(3)),
               std::invalid_argument);
  EXPECT_THROW((void)ec::analyzeDifference(ir::QuantumComputation(22),
                                           ir::QuantumComputation(22)),
               std::invalid_argument);
}

TEST(Localization, PinpointsModifiedGate) {
  const auto g = gen::randomCircuit(5, 60, 4);
  for (const std::size_t position : {7UL, 31UL, 59UL}) {
    auto bad = g;
    // flip a gate in place: replace with an H (guaranteed different here
    // because randomCircuit never emits H at these particular positions? —
    // verify divergence instead of assuming)
    bad.ops()[position] = ir::StandardOperation(ir::OpType::Y, {0});
    ec::SimulationConfiguration config;
    config.seed = 5;
    const auto verdict = ec::SimulationChecker(config).run(g, bad);
    if (verdict.equivalence != Equivalence::NotEquivalent) {
      continue; // replacement happened to be equivalent on all stimuli
    }
    const auto loc =
        ec::localizeError(g, bad, verdict.counterexample->input);
    ASSERT_TRUE(loc.has_value());
    // the localized gate can only be at or before the modification if an
    // earlier aligned gate already differs semantically — with one in-place
    // edit it must be exact
    EXPECT_EQ(loc->gateIndex, position);
    EXPECT_LT(loc->fidelity, 1.0 - 1e-8);
  }
}

TEST(Localization, PinpointsRemovedGate) {
  const auto g = gen::randomCircuit(5, 50, 9);
  auto bad = g;
  bad.ops().erase(bad.ops().begin() + 23);
  const auto loc = ec::localizeError(g, bad, 13);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->gateIndex, 23U);
}

TEST(Localization, NoDivergenceReturnsNullopt) {
  const auto g = paperCircuitG();
  EXPECT_FALSE(ec::localizeError(g, g, 5).has_value());
}

TEST(Localization, Validation) {
  EXPECT_THROW((void)ec::localizeError(ir::QuantumComputation(2),
                                       ir::QuantumComputation(3), 0),
               std::invalid_argument);
}

TEST(RewritingChecker, ProvesSyntacticEquivalence) {
  // G' = G with redundant gates: cancellation proves equivalence without
  // any functional construction
  ir::QuantumComputation g(3);
  g.h(0);
  g.cx(0, 1);
  g.t(2);
  ir::QuantumComputation gPrime(3);
  gPrime.h(0);
  gPrime.x(2);
  gPrime.x(2);
  gPrime.cx(0, 1);
  gPrime.s(1);
  gPrime.sdg(1);
  gPrime.t(2);
  const ec::RewritingChecker checker;
  EXPECT_EQ(checker.run(g, gPrime).equivalence, Equivalence::Equivalent);
  EXPECT_TRUE(checker.remainder(g, gPrime).empty());
}

TEST(RewritingChecker, DetectsGlobalPhaseRemainder) {
  ir::QuantumComputation a(1);
  a.h(0);
  ir::QuantumComputation b(1);
  b.h(0);
  b.gate(ir::OpType::GPhase, 0, {}, {0.7, 0, 0});
  const ec::RewritingChecker checker;
  EXPECT_EQ(checker.run(a, b).equivalence,
            Equivalence::EquivalentUpToGlobalPhase);
}

TEST(RewritingChecker, InconclusiveOnStructurallyDifferentPairs) {
  // equivalent but not syntactically reducible: H Z H = X
  ir::QuantumComputation a(1);
  a.h(0);
  a.z(0);
  a.h(0);
  ir::QuantumComputation b(1);
  b.x(0);
  const ec::RewritingChecker checker;
  EXPECT_EQ(checker.run(a, b).equivalence, Equivalence::NoInformation);
}

TEST(RewritingChecker, HandlesMappedLayouts) {
  // a mapped circuit against itself: materialized layouts + cancellation
  const auto g = gen::qft(5);
  const auto mapped = tf::mapCircuit(g, tf::CouplingMap::linear(5));
  const ec::RewritingChecker checker;
  EXPECT_TRUE(ec::provedEquivalent(
      checker.run(mapped.circuit, mapped.circuit).equivalence));
}

TEST(Flow, RewritingStageShortCircuits) {
  ir::QuantumComputation g(2);
  g.h(0);
  g.cx(0, 1);
  ir::QuantumComputation gPrime(2);
  gPrime.h(0);
  gPrime.t(1);
  gPrime.tdg(1);
  gPrime.cx(0, 1);
  // rewriting runs before either strategy in both modes
  for (const ec::FlowMode mode : {ec::FlowMode::Staged, ec::FlowMode::Race}) {
    SCOPED_TRACE(toString(mode));
    ec::FlowConfiguration config;
    config.mode = mode;
    config.simulation.seed = 2;
    config.tryRewriting = true;
    const ec::EquivalenceCheckingFlow flow(config);
    const auto result = flow.run(g, gPrime);
    EXPECT_TRUE(ec::provedEquivalent(result.equivalence));
    EXPECT_TRUE(result.provedByRewriting);
    EXPECT_EQ(result.simulations, 0U);
    EXPECT_EQ(result.completeSeconds, 0.0);
  }
}

TEST(Flow, NonEquivalentDetectedBySimulation) {
  auto bad = paperCircuitGPrime();
  bad.ops().pop_back(); // drop the last CNOT
  ec::FlowConfiguration config;
  config.simulation.seed = 1;
  // this test pins the general simulation stage; the paper circuits are
  // Clifford-only and would otherwise route to the stabilizer tier
  config.prescreen.enabled = false;
  const ec::EquivalenceCheckingFlow flow(config);
  const auto result = flow.run(paperCircuitG(), bad);
  EXPECT_EQ(result.equivalence, Equivalence::NotEquivalent);
  EXPECT_TRUE(result.counterexample.has_value());
  EXPECT_EQ(result.completeSeconds, 0.0); // complete check never ran
}

TEST(Flow, EquivalentProvedByCompleteCheck) {
  ec::FlowConfiguration config;
  config.simulation.seed = 1;
  config.prescreen.enabled = false; // exercise the general DD path
  const ec::EquivalenceCheckingFlow flow(config);
  const auto result = flow.run(paperCircuitG(), paperCircuitGPrime());
  EXPECT_TRUE(ec::provedEquivalent(result.equivalence));
  EXPECT_EQ(result.simulations, 10U);
  EXPECT_GT(result.completeSeconds, 0.0);
}

TEST(Flow, TimeoutYieldsProbablyEquivalent) {
  // Note: identical circuits would NOT time out — the alternating scheme
  // cancels gate pairs and stays at the identity (the point of [22]). Two
  // structurally different but equivalent circuits whose interleaving
  // cannot stay aligned are needed: QFT vs its SWAP-routed variant, whose
  // intermediate products grow far beyond a tiny time budget.
  const auto g = gen::qft(14);
  const auto mapped = tf::mapCircuit(g, tf::CouplingMap::linear(14));
  ec::FlowConfiguration config;
  config.simulation.maxSimulations = 2;
  config.simulation.seed = 5;
  config.complete.timeoutSeconds = 0.02;
  const ec::EquivalenceCheckingFlow flow(config);
  const auto result = flow.run(g, mapped.circuit);
  EXPECT_EQ(result.equivalence, Equivalence::ProbablyEquivalent);
  EXPECT_TRUE(result.completeTimedOut);
}

TEST(Flow, SkipSimulationRunsCompleteOnly) {
  ec::FlowConfiguration config;
  config.simulation.maxSimulations = 0;
  config.prescreen.enabled = false; // exercise the general DD path
  const ec::EquivalenceCheckingFlow flow(config);
  const auto result = flow.run(paperCircuitG(), paperCircuitGPrime());
  EXPECT_TRUE(ec::provedEquivalent(result.equivalence));
  EXPECT_EQ(result.simulations, 0U);
}

TEST(Flow, SkipSimulationAlsoSuppressesStabilizerStimuli) {
  // With the prescreen on, a Clifford-only pair routes to the stabilizer
  // tier — whose randomized runs also honour a zero stimulus budget; the
  // exact conjugation check alone decides the pair.
  ec::FlowConfiguration config;
  config.simulation.maxSimulations = 0;
  const ec::EquivalenceCheckingFlow flow(config);
  const auto result = flow.run(paperCircuitG(), paperCircuitGPrime());
  EXPECT_TRUE(ec::provedEquivalent(result.equivalence));
  EXPECT_EQ(result.tier, analysis::TierHint::Stabilizer);
  EXPECT_EQ(result.simulations, 0U);
}

TEST(Flow, SkipCompleteGivesProbablyEquivalent) {
  ec::FlowConfiguration config;
  config.skipComplete = true;
  config.simulation.seed = 2;
  const ec::EquivalenceCheckingFlow flow(config);
  const auto result = flow.run(paperCircuitG(), paperCircuitGPrime());
  EXPECT_EQ(result.equivalence, Equivalence::ProbablyEquivalent);
}
