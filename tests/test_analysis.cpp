// Static-analysis tests: one positive and one negative case per rule of the
// CircuitAnalyzer catalog, plus the integration seams (what a validating
// parse rejects at its line and a lint-mode parse admits, ec::flow preflight,
// FlowResult JSON).

#include "analysis/analyzer.hpp"
#include "ec/flow.hpp"
#include "ec/serialize.hpp"
#include "io/qasm.hpp"
#include "io/real.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

using namespace qsimec;
using analysis::CircuitAnalyzer;
using analysis::Severity;

namespace {

/// Count the diagnostics carrying `rule`.
std::size_t countRule(const analysis::AnalysisReport& report,
                      const char* rule) {
  return static_cast<std::size_t>(
      std::count_if(report.diagnostics.begin(), report.diagnostics.end(),
                    [&](const analysis::Diagnostic& d) {
                      return d.rule == rule;
                    }));
}

const analysis::Diagnostic* findRule(const analysis::AnalysisReport& report,
                                     const char* rule) {
  for (const auto& d : report.diagnostics) {
    if (d.rule == rule) {
      return &d;
    }
  }
  return nullptr;
}

} // namespace

// --- clean circuits ---------------------------------------------------------

TEST(Analyzer, WellFormedCircuitIsClean) {
  ir::QuantumComputation qc(3, "ok");
  qc.h(0);
  qc.cx(0, 1);
  qc.ccx(0, 1, 2);
  qc.rx(0.5, 2);
  const auto report = CircuitAnalyzer().analyze(qc);
  EXPECT_TRUE(report.empty());
  EXPECT_FALSE(report.hasErrors());
}

TEST(Analyzer, WellFormedPairIsClean) {
  ir::QuantumComputation a(2);
  a.h(0);
  a.cx(0, 1);
  ir::QuantumComputation b(2);
  b.h(0);
  b.cx(0, 1);
  EXPECT_TRUE(CircuitAnalyzer().analyzePair(a, b).empty());
}

// --- QA001 qubit out of range ----------------------------------------------

TEST(Analyzer, QA001_QubitOutOfRange) {
  ir::QuantumComputation qc(2);
  qc.ops().push_back(
      ir::StandardOperation::makeUnchecked(ir::OpType::H, {ir::Qubit{5}}));
  const auto report = CircuitAnalyzer({.lint = false}).analyze(qc);
  ASSERT_EQ(countRule(report, analysis::rules::QubitOutOfRange), 1U);
  const auto* d = findRule(report, analysis::rules::QubitOutOfRange);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->gate, std::size_t{0});
}

TEST(Analyzer, QA001_BoundaryQubitIsFine) {
  ir::QuantumComputation qc(2);
  qc.h(1); // highest valid index
  const auto report = CircuitAnalyzer({.lint = false}).analyze(qc);
  EXPECT_EQ(countRule(report, analysis::rules::QubitOutOfRange), 0U);
}

// --- QA002 control == target -------------------------------------------------

TEST(Analyzer, QA002_ControlCoincidesWithTarget) {
  ir::QuantumComputation qc(2);
  qc.ops().push_back(ir::StandardOperation::makeUnchecked(
      ir::OpType::X, {ir::Qubit{0}}, {ir::Control{0, true}}));
  const auto report = CircuitAnalyzer({.lint = false}).analyze(qc);
  EXPECT_EQ(countRule(report, analysis::rules::ControlIsTarget), 1U);
}

TEST(Analyzer, QA002_DisjointControlIsFine) {
  ir::QuantumComputation qc(2);
  qc.cx(0, 1);
  EXPECT_EQ(countRule(CircuitAnalyzer({.lint = false}).analyze(qc),
                      analysis::rules::ControlIsTarget),
            0U);
}

// --- QA003 duplicate control -------------------------------------------------

TEST(Analyzer, QA003_DuplicateControl) {
  ir::QuantumComputation qc(3);
  qc.ops().push_back(ir::StandardOperation::makeUnchecked(
      ir::OpType::X, {ir::Qubit{2}},
      {ir::Control{0, true}, ir::Control{0, false}}));
  const auto report = CircuitAnalyzer({.lint = false}).analyze(qc);
  EXPECT_EQ(countRule(report, analysis::rules::DuplicateControl), 1U);
}

TEST(Analyzer, QA003_DistinctControlsAreFine) {
  ir::QuantumComputation qc(3);
  qc.ccx(0, 1, 2);
  EXPECT_EQ(countRule(CircuitAnalyzer({.lint = false}).analyze(qc),
                      analysis::rules::DuplicateControl),
            0U);
}

// --- QA004 non-finite parameter ---------------------------------------------

TEST(Analyzer, QA004_NonFiniteParameter) {
  ir::QuantumComputation qc(1);
  qc.ops().push_back(ir::StandardOperation::makeUnchecked(
      ir::OpType::RX, {ir::Qubit{0}}, {},
      {std::numeric_limits<double>::quiet_NaN(), 0, 0}));
  qc.ops().push_back(ir::StandardOperation::makeUnchecked(
      ir::OpType::RZ, {ir::Qubit{0}}, {},
      {std::numeric_limits<double>::infinity(), 0, 0}));
  const auto report = CircuitAnalyzer({.lint = false}).analyze(qc);
  EXPECT_EQ(countRule(report, analysis::rules::NonFiniteParameter), 2U);
}

TEST(Analyzer, QA004_UnusedParamSlotsIgnored) {
  // Only the first numParams(type) slots are checked; an RX never looks at
  // params[1] and params[2].
  ir::QuantumComputation qc(1);
  qc.ops().push_back(ir::StandardOperation::makeUnchecked(
      ir::OpType::RX, {ir::Qubit{0}}, {},
      {0.5, std::numeric_limits<double>::quiet_NaN(), 0}));
  EXPECT_EQ(countRule(CircuitAnalyzer({.lint = false}).analyze(qc),
                      analysis::rules::NonFiniteParameter),
            0U);
}

// --- QA005 / QA006 invalid layouts ------------------------------------------

TEST(Analyzer, QA005_NonBijectiveInitialLayout) {
  ir::QuantumComputation qc(2);
  qc.setInitialLayoutUnchecked(ir::Permutation::makeUnchecked({0, 0}));
  const auto report = CircuitAnalyzer({.lint = false}).analyze(qc);
  EXPECT_EQ(countRule(report, analysis::rules::InvalidInitialLayout), 1U);
  EXPECT_EQ(countRule(report, analysis::rules::InvalidOutputPermutation), 0U);
}

TEST(Analyzer, QA006_WrongSizeOutputPermutation) {
  ir::QuantumComputation qc(3);
  qc.setOutputPermutationUnchecked(ir::Permutation::makeUnchecked({1, 0}));
  const auto report = CircuitAnalyzer({.lint = false}).analyze(qc);
  EXPECT_EQ(countRule(report, analysis::rules::InvalidOutputPermutation), 1U);
  EXPECT_EQ(countRule(report, analysis::rules::InvalidInitialLayout), 0U);
}

TEST(Analyzer, QA005_QA006_IdentityAndProperPermutationsAreFine) {
  ir::QuantumComputation qc(3);
  qc.setOutputPermutation(ir::Permutation({2, 0, 1}));
  const auto report = CircuitAnalyzer({.lint = false}).analyze(qc);
  EXPECT_EQ(countRule(report, analysis::rules::InvalidInitialLayout), 0U);
  EXPECT_EQ(countRule(report, analysis::rules::InvalidOutputPermutation), 0U);
}

// --- QA007 zero-qubit circuit ------------------------------------------------

TEST(Analyzer, QA007_ZeroQubitCircuitIsRootCauseOnly) {
  const ir::QuantumComputation qc(0);
  const auto report = CircuitAnalyzer().analyze(qc);
  ASSERT_EQ(report.diagnostics.size(), 1U);
  EXPECT_EQ(report.diagnostics[0].rule, analysis::rules::ZeroQubitCircuit);
  EXPECT_EQ(report.diagnostics[0].severity, Severity::Error);
}

// --- QA008 empty circuit -----------------------------------------------------

TEST(Analyzer, QA008_EmptyCircuitIsWarningNotError) {
  const ir::QuantumComputation qc(2);
  const auto report = CircuitAnalyzer({.lint = false}).analyze(qc);
  ASSERT_EQ(countRule(report, analysis::rules::EmptyCircuit), 1U);
  EXPECT_FALSE(report.hasErrors());
  EXPECT_EQ(report.count(Severity::Warning), 1U);
}

// --- QA009 duplicate target --------------------------------------------------

TEST(Analyzer, QA009_DuplicateTarget) {
  ir::QuantumComputation qc(2);
  qc.ops().push_back(ir::StandardOperation::makeUnchecked(
      ir::OpType::SWAP, {ir::Qubit{1}, ir::Qubit{1}}));
  const auto report = CircuitAnalyzer({.lint = false}).analyze(qc);
  EXPECT_EQ(countRule(report, analysis::rules::DuplicateTarget), 1U);
}

TEST(Analyzer, QA009_ProperSwapIsFine) {
  ir::QuantumComputation qc(2);
  qc.swap(0, 1);
  EXPECT_EQ(countRule(CircuitAnalyzer({.lint = false}).analyze(qc),
                      analysis::rules::DuplicateTarget),
            0U);
}

// --- QL001 adjacent self-inverse pair (lint) --------------------------------

TEST(Analyzer, QL001_AdjacentInversePairIsWarning) {
  ir::QuantumComputation qc(1);
  qc.h(0);
  qc.h(0);
  const auto report = CircuitAnalyzer({.lint = true}).analyze(qc);
  ASSERT_EQ(countRule(report, analysis::rules::AdjacentInversePair), 1U);
  const auto* d = findRule(report, analysis::rules::AdjacentInversePair);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->gate, std::size_t{1});
  EXPECT_FALSE(report.hasErrors());
}

TEST(Analyzer, QL001_SuppressedWithoutLintAndOnDifferentQubits) {
  ir::QuantumComputation qc(2);
  qc.h(0);
  qc.h(0);
  EXPECT_EQ(countRule(CircuitAnalyzer({.lint = false}).analyze(qc),
                      analysis::rules::AdjacentInversePair),
            0U);
  ir::QuantumComputation qc2(2);
  qc2.h(0);
  qc2.h(1); // same gate, different wire — not a cancelling pair
  EXPECT_EQ(countRule(CircuitAnalyzer({.lint = true}).analyze(qc2),
                      analysis::rules::AdjacentInversePair),
            0U);
}

TEST(Analyzer, QL001_InverseRotationPair) {
  ir::QuantumComputation qc(1);
  qc.rz(0.25, 0);
  qc.rz(-0.25, 0);
  EXPECT_EQ(countRule(CircuitAnalyzer({.lint = true}).analyze(qc),
                      analysis::rules::AdjacentInversePair),
            1U);
}

// The lint pass compares each gate with its predecessor's inverse, which a
// lint-mode parse may have admitted malformed: it reports, never throws.
TEST(Analyzer, QL001_MalformedAdjacentGatesAreReportedNotThrown) {
  ir::QuantumComputation qc(2);
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 2; ++i) {
    qc.ops().push_back(ir::StandardOperation::makeUnchecked(
        ir::OpType::X, {ir::Qubit{0}}, {ir::Control{0, true}}));
  }
  for (int i = 0; i < 2; ++i) {
    qc.ops().push_back(ir::StandardOperation::makeUnchecked(
        ir::OpType::RX, {ir::Qubit{1}}, {}, {nan, 0, 0}));
  }
  const auto report = CircuitAnalyzer({.lint = true}).analyze(qc);
  EXPECT_EQ(countRule(report, analysis::rules::ControlIsTarget), 2U);
  EXPECT_EQ(countRule(report, analysis::rules::NonFiniteParameter), 2U);
}

// --- QL002 unused qubit (lint) ----------------------------------------------

TEST(Analyzer, QL002_UnusedQubitIsNote) {
  ir::QuantumComputation qc(3);
  qc.cx(0, 1); // qubit 2 untouched
  const auto report = CircuitAnalyzer({.lint = true}).analyze(qc);
  ASSERT_EQ(countRule(report, analysis::rules::UnusedQubit), 1U);
  EXPECT_EQ(findRule(report, analysis::rules::UnusedQubit)->severity,
            Severity::Note);
  EXPECT_FALSE(report.hasErrors());
}

TEST(Analyzer, QL002_AllQubitsUsedIsClean) {
  ir::QuantumComputation qc(2);
  qc.cx(0, 1);
  EXPECT_EQ(countRule(CircuitAnalyzer({.lint = true}).analyze(qc),
                      analysis::rules::UnusedQubit),
            0U);
}

// --- QP001 / QP002 pair rules ------------------------------------------------

TEST(Analyzer, QP001_WidthMismatch) {
  ir::QuantumComputation a(2);
  a.h(0);
  a.h(1);
  ir::QuantumComputation b(3);
  b.h(0);
  b.h(1);
  b.h(2);
  const auto report = CircuitAnalyzer({.lint = false}).analyzePair(a, b);
  EXPECT_EQ(countRule(report, analysis::rules::WidthMismatch), 1U);
  EXPECT_EQ(countRule(report, analysis::rules::OutputPermutationMismatch), 1U);
  EXPECT_TRUE(report.hasErrors());
}

TEST(Analyzer, QP002_IndependentOfWidthWhenLayoutsDiffer) {
  // Same qubit count, but one side carries a malformed (short) output
  // permutation: QP002 fires without QP001.
  ir::QuantumComputation a(2);
  a.h(0);
  a.h(1);
  ir::QuantumComputation b(2);
  b.h(0);
  b.h(1);
  b.setOutputPermutationUnchecked(ir::Permutation::makeUnchecked({0}));
  const auto report = CircuitAnalyzer({.lint = false}).analyzePair(a, b);
  EXPECT_EQ(countRule(report, analysis::rules::WidthMismatch), 0U);
  EXPECT_EQ(countRule(report, analysis::rules::OutputPermutationMismatch), 1U);
}

TEST(Analyzer, PairDiagnosticsCarryCircuitIndex) {
  ir::QuantumComputation a(2);
  a.h(0);
  a.h(1);
  ir::QuantumComputation b(2);
  b.ops().push_back(
      ir::StandardOperation::makeUnchecked(ir::OpType::H, {ir::Qubit{7}}));
  b.h(0);
  b.h(1);
  const auto report = CircuitAnalyzer({.lint = false}).analyzePair(a, b);
  const auto* d = findRule(report, analysis::rules::QubitOutOfRange);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->circuit, 1U);
}

// --- diagnostic formatting ---------------------------------------------------

TEST(Diagnostic, ToStringFormat) {
  const analysis::Diagnostic d{"QA001", Severity::Error, 3, 0,
                               "qubit index 5 out of range"};
  EXPECT_EQ(analysis::toString(d),
            "error[QA001] gate #3: qubit index 5 out of range");
  const analysis::Diagnostic noGate{"QA007", Severity::Error, std::nullopt, 0,
                                    "circuit declares zero qubits"};
  EXPECT_EQ(analysis::toString(noGate),
            "error[QA007]: circuit declares zero qubits");
}

TEST(Diagnostic, JsonRendering) {
  const analysis::Diagnostic d{"QL001", Severity::Warning, 1, 0, "redundant"};
  const std::string json = analysis::toJson(d);
  EXPECT_NE(json.find("\"rule\":\"QL001\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"warning\""), std::string::npos);
  EXPECT_NE(json.find("\"gate\":1"), std::string::npos);
  EXPECT_EQ(analysis::toJson(std::vector<analysis::Diagnostic>{}), "[]");
}

// --- parser integration ------------------------------------------------------

TEST(AnalysisIntegration, QasmValidateModeRejectsNonFiniteParam) {
  // the checked ir::StandardOperation constructor enforces QA004, so a
  // validating parse fails at the gate's line; lint mode admits the gate for
  // the analyzer to report
  const std::string src = "OPENQASM 2.0;\n"
                          "qreg q[1];\n"
                          "rx(1/0) q[0];\n";
  try {
    (void)io::parseQasmString(src);
    FAIL() << "expected QasmParseError";
  } catch (const io::QasmParseError& e) {
    EXPECT_EQ(e.line(), 3U) << e.what();
  }
  const auto qc = io::parseQasmString(src, "", {.validate = false});
  const auto report = CircuitAnalyzer({.lint = false}).analyze(qc);
  EXPECT_EQ(countRule(report, analysis::rules::NonFiniteParameter), 1U);
}

TEST(AnalysisIntegration, QasmLintModeAdmitsMalformedGates) {
  const std::string src = "OPENQASM 2.0;\n"
                          "qreg q[2];\n"
                          "cx q[0],q[0];\n"
                          "rx(1/0) q[1];\n";
  const auto qc = io::parseQasmString(src, "", {.validate = false});
  ASSERT_EQ(qc.size(), 2U);
  const auto report = CircuitAnalyzer({.lint = false}).analyze(qc);
  EXPECT_EQ(countRule(report, analysis::rules::ControlIsTarget), 1U);
  EXPECT_EQ(countRule(report, analysis::rules::NonFiniteParameter), 1U);
}

TEST(AnalysisIntegration, QasmValidateModeStillThrowsParseErrorOnOverlap) {
  // Overlapping control/target is caught in validate mode at gate-emission
  // time, with the offending source line attached.
  const std::string src = "OPENQASM 2.0;\n"
                          "qreg q[2];\n"
                          "cx q[0],q[0];\n";
  try {
    (void)io::parseQasmString(src);
    FAIL() << "expected QasmParseError";
  } catch (const io::QasmParseError& e) {
    EXPECT_EQ(e.line(), 3U);
  }
}

TEST(AnalysisIntegration, RealLintModeAdmitsMalformedGates) {
  const std::string src = ".numvars 2\n"
                          ".variables a b\n"
                          ".begin\n"
                          "t2 a a\n"
                          ".end\n";
  EXPECT_THROW((void)io::parseRealString(src), io::RealParseError);
  const auto qc = io::parseRealString(src, "", {.validate = false});
  ASSERT_EQ(qc.size(), 1U);
  EXPECT_EQ(countRule(CircuitAnalyzer({.lint = false}).analyze(qc),
                      analysis::rules::ControlIsTarget),
            1U);
}

// --- ec::flow preflight ------------------------------------------------------

TEST(AnalysisIntegration, FlowRejectsMalformedPairAsInvalidInput) {
  ir::QuantumComputation a(2);
  a.h(0);
  a.h(1);
  ir::QuantumComputation b(2);
  b.ops().push_back(
      ir::StandardOperation::makeUnchecked(ir::OpType::H, {ir::Qubit{9}}));
  b.h(0);
  b.h(1);
  const auto result = ec::EquivalenceCheckingFlow().run(a, b);
  EXPECT_EQ(result.equivalence, ec::Equivalence::InvalidInput);
  ASSERT_FALSE(result.diagnostics.empty());
  EXPECT_EQ(result.diagnostics[0].rule, analysis::rules::QubitOutOfRange);
  EXPECT_EQ(result.simulations, 0U);
}

TEST(AnalysisIntegration, FlowAcceptsCleanPairAndKeepsWarnings) {
  // Warning-level findings must not abort the check; QA008 (empty circuit)
  // is recorded in the result while the verdict comes from the checkers.
  const ir::QuantumComputation a(1);
  const ir::QuantumComputation b(1);
  const auto result = ec::EquivalenceCheckingFlow().run(a, b);
  EXPECT_EQ(result.equivalence, ec::Equivalence::Equivalent);
  // one QA008 per circuit, plus the prescreen's QS004 verdict note
  EXPECT_EQ(result.diagnostics.size(), 3U);
}

TEST(AnalysisIntegration, FlowResultJsonCarriesDiagnostics) {
  ir::QuantumComputation a(1);
  a.h(0);
  ir::QuantumComputation b(1);
  b.ops().push_back(ir::StandardOperation::makeUnchecked(
      ir::OpType::RX, {ir::Qubit{0}}, {},
      {std::numeric_limits<double>::quiet_NaN(), 0, 0}));
  const auto result = ec::EquivalenceCheckingFlow().run(a, b);
  EXPECT_EQ(result.equivalence, ec::Equivalence::InvalidInput);
  const std::string json = ec::toJson(result);
  EXPECT_NE(json.find("invalid input"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostics\":["), std::string::npos);
  EXPECT_NE(json.find("QA004"), std::string::npos);
}
