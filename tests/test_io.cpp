// I/O tests: OpenQASM 2.0 and RevLib .real parsing/writing, round trips,
// and error reporting.

#include "ec/construction_checker.hpp"
#include "io/qasm.hpp"
#include "io/real.hpp"
#include "io/tfc.hpp"

#include <gtest/gtest.h>

#include <numbers>

using namespace qsimec;

TEST(QasmParser, MinimalCircuit) {
  const auto qc = io::parseQasmString(R"(
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[2];
    creg c[2];
    h q[0];
    cx q[0],q[1];
    measure q -> c;
  )");
  EXPECT_EQ(qc.qubits(), 2U);
  ASSERT_EQ(qc.size(), 2U);
  EXPECT_EQ(qc.at(0).type(), ir::OpType::H);
  EXPECT_EQ(qc.at(1).type(), ir::OpType::X);
  ASSERT_EQ(qc.at(1).controls().size(), 1U);
  EXPECT_EQ(qc.at(1).controls()[0].qubit, 0);
}

TEST(QasmParser, ParameterExpressions) {
  const auto qc = io::parseQasmString(R"(
    OPENQASM 2.0;
    qreg q[1];
    rz(pi/2) q[0];
    rx(-pi) q[0];
    u3(pi/4, 2*pi, 0.5 - 1/4) q[0];
    u1((pi)) q[0];
  )");
  ASSERT_EQ(qc.size(), 4U);
  EXPECT_DOUBLE_EQ(qc.at(0).param(0), std::numbers::pi / 2);
  EXPECT_DOUBLE_EQ(qc.at(1).param(0), -std::numbers::pi);
  EXPECT_DOUBLE_EQ(qc.at(2).param(0), std::numbers::pi / 4);
  EXPECT_DOUBLE_EQ(qc.at(2).param(1), 2 * std::numbers::pi);
  EXPECT_DOUBLE_EQ(qc.at(2).param(2), 0.25);
  EXPECT_DOUBLE_EQ(qc.at(3).param(0), std::numbers::pi);
}

TEST(QasmParser, RegisterBroadcast) {
  const auto qc = io::parseQasmString(R"(
    OPENQASM 2.0;
    qreg q[3];
    h q;
    cx q[0],q[1];
  )");
  EXPECT_EQ(qc.size(), 4U);
  EXPECT_EQ(qc.at(0).type(), ir::OpType::H);
  EXPECT_EQ(qc.at(2).target(), 2);
}

TEST(QasmParser, MultipleRegistersConcatenate) {
  const auto qc = io::parseQasmString(R"(
    OPENQASM 2.0;
    qreg a[2];
    qreg b[2];
    x b[1];
  )");
  EXPECT_EQ(qc.qubits(), 4U);
  EXPECT_EQ(qc.at(0).target(), 3); // b[1] = offset 2 + 1
}

TEST(QasmParser, ControlledGateFamily) {
  const auto qc = io::parseQasmString(R"(
    OPENQASM 2.0;
    qreg q[3];
    ccx q[0],q[1],q[2];
    cswap q[0],q[1],q[2];
    crz(0.5) q[0],q[1];
    cu1(0.25) q[1],q[2];
  )");
  ASSERT_EQ(qc.size(), 4U);
  EXPECT_EQ(qc.at(0).controls().size(), 2U);
  EXPECT_EQ(qc.at(1).type(), ir::OpType::SWAP);
  EXPECT_EQ(qc.at(1).controls().size(), 1U);
  EXPECT_EQ(qc.at(2).type(), ir::OpType::RZ);
  EXPECT_EQ(qc.at(3).type(), ir::OpType::Phase);
}

TEST(QasmParser, GateDefinitions) {
  const auto qc = io::parseQasmString(R"(
    OPENQASM 2.0;
    qreg q[3];
    gate mygate(theta) a, b {
      h a;
      cx a, b;
      rz(theta/2) b;
      cx a, b;
    }
    mygate(pi) q[0], q[2];
  )");
  ASSERT_EQ(qc.size(), 4U);
  EXPECT_EQ(qc.at(0).type(), ir::OpType::H);
  EXPECT_EQ(qc.at(0).target(), 0);
  EXPECT_EQ(qc.at(1).controls()[0].qubit, 0);
  EXPECT_EQ(qc.at(1).target(), 2);
  EXPECT_DOUBLE_EQ(qc.at(2).param(0), std::numbers::pi / 2);
}

TEST(QasmParser, NestedGateDefinitions) {
  const auto qc = io::parseQasmString(R"(
    OPENQASM 2.0;
    qreg q[2];
    gate inner a { h a; t a; }
    gate outer a, b { inner a; cx a, b; inner b; }
    outer q[0], q[1];
  )");
  ASSERT_EQ(qc.size(), 5U);
  EXPECT_EQ(qc.at(2).type(), ir::OpType::X);
  EXPECT_EQ(qc.at(4).type(), ir::OpType::T);
}

TEST(QasmParser, GateDefinitionErrors) {
  // redefinition
  EXPECT_THROW((void)io::parseQasmString(R"(
    OPENQASM 2.0;
    qreg q[1];
    gate h a { x a; }
  )"),
               io::QasmParseError);
  // unknown qubit inside the body
  EXPECT_THROW((void)io::parseQasmString(R"(
    OPENQASM 2.0;
    qreg q[1];
    gate g a { x b; }
    g q[0];
  )"),
               io::QasmParseError);
  // wrong arity at application
  EXPECT_THROW((void)io::parseQasmString(R"(
    OPENQASM 2.0;
    qreg q[2];
    gate g a { x a; }
    g q[0], q[1];
  )"),
               io::QasmParseError);
}

TEST(QasmParser, GateDefinitionBroadcast) {
  const auto qc = io::parseQasmString(R"(
    OPENQASM 2.0;
    qreg q[3];
    gate g a { h a; s a; }
    g q;
  )");
  EXPECT_EQ(qc.size(), 6U);
}

TEST(QasmParser, ErrorsCarryLineNumbers) {
  try {
    (void)io::parseQasmString("OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\n");
    FAIL() << "expected QasmParseError";
  } catch (const io::QasmParseError& e) {
    EXPECT_EQ(e.line(), 3U);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(QasmParser, RejectsBadInput) {
  EXPECT_THROW((void)io::parseQasmString("qreg q[2];"), io::QasmParseError);
  EXPECT_THROW((void)io::parseQasmString("OPENQASM 2.0; qreg q[0];"),
               io::QasmParseError);
  EXPECT_THROW(
      (void)io::parseQasmString("OPENQASM 2.0; qreg q[2]; h q[5];"),
      io::QasmParseError);
  EXPECT_THROW(
      (void)io::parseQasmString("OPENQASM 2.0; qreg q[2]; cx q[0];"),
      io::QasmParseError);
}

TEST(QasmWriter, RoundTripPreservesFunctionality) {
  ir::QuantumComputation qc(3, "roundtrip");
  qc.h(0);
  qc.cx(0, 1);
  qc.rz(0.7, 2);
  qc.ccx(0, 1, 2);
  qc.swap(0, 2);
  qc.u3(0.1, 0.2, 0.3, 1);
  qc.phase(0.9, 2, {ir::Control{0, true}});

  const std::string text = io::toQasmString(qc);
  const auto parsed = io::parseQasmString(text);
  const ec::ConstructionChecker checker;
  EXPECT_EQ(checker.run(qc, parsed).equivalence, ec::Equivalence::Equivalent);
}

TEST(QasmWriter, PhaseEquivalentGatesRoundTrip) {
  ir::QuantumComputation qc(1);
  qc.v(0);
  qc.sy(0);
  qc.vdg(0);
  qc.sydg(0);
  const auto parsed = io::parseQasmString(io::toQasmString(qc));
  const ec::ConstructionChecker checker;
  EXPECT_TRUE(ec::provedEquivalent(checker.run(qc, parsed).equivalence));
}

TEST(QasmWriter, RejectsInexpressibleGates) {
  ir::QuantumComputation qc(4);
  qc.x(0, {ir::Control{1, true}, ir::Control{2, true}, ir::Control{3, true}});
  EXPECT_THROW(io::toQasmString(qc), std::domain_error);

  ir::QuantumComputation neg(2);
  neg.x(0, {ir::Control{1, false}});
  EXPECT_THROW(io::toQasmString(neg), std::domain_error);
}

TEST(RealParser, ToffoliGates) {
  const auto qc = io::parseRealString(R"(
# a comment
.version 2.0
.numvars 3
.variables a b c
.begin
t1 c
t2 a c
t3 a b c
f2 a b
.end
)");
  EXPECT_EQ(qc.qubits(), 3U);
  ASSERT_EQ(qc.size(), 4U);
  // first variable a = qubit 2 (MSB), c = qubit 0
  EXPECT_EQ(qc.at(0).type(), ir::OpType::X);
  EXPECT_EQ(qc.at(0).target(), 0);
  EXPECT_EQ(qc.at(1).controls()[0].qubit, 2);
  EXPECT_EQ(qc.at(2).controls().size(), 2U);
  EXPECT_EQ(qc.at(3).type(), ir::OpType::SWAP);
}

TEST(RealParser, NegativeControlsAndV) {
  const auto qc = io::parseRealString(R"(
.version 2.0
.numvars 2
.variables x1 x0
.begin
t2 -x1 x0
v2 x1 x0
v+2 x1 x0
.end
)");
  ASSERT_EQ(qc.size(), 3U);
  EXPECT_FALSE(qc.at(0).controls()[0].positive);
  EXPECT_EQ(qc.at(1).type(), ir::OpType::V);
  EXPECT_EQ(qc.at(2).type(), ir::OpType::Vdg);
}

TEST(RealParser, Errors) {
  EXPECT_THROW((void)io::parseRealString(".numvars 2\n.variables a\n"),
               io::RealParseError);
  EXPECT_THROW(
      (void)io::parseRealString(
          ".numvars 2\n.variables a b\n.begin\nt2 a z\n.end\n"),
      io::RealParseError);
  EXPECT_THROW((void)io::parseRealString(
                   ".numvars 2\n.variables a b\n.begin\nt1 a\n"),
               io::RealParseError);
}

TEST(RealWriter, RoundTrip) {
  ir::QuantumComputation qc(4, "revtest");
  qc.x(0);
  qc.cx(3, 1);
  qc.x(2, {ir::Control{0, true}, ir::Control{3, false}});
  qc.swap(1, 2, {ir::Control{0, true}});
  qc.v(1, {ir::Control{2, true}});
  qc.vdg(1);

  const std::string text = io::toRealString(qc);
  const auto parsed = io::parseRealString(text);
  ASSERT_EQ(parsed.size(), qc.size());
  const ec::ConstructionChecker checker;
  EXPECT_EQ(checker.run(qc, parsed).equivalence, ec::Equivalence::Equivalent);
}

TEST(RealWriter, RejectsNonReversibleGates) {
  ir::QuantumComputation qc(1);
  qc.h(0);
  EXPECT_THROW(io::toRealString(qc), std::domain_error);
}

// --- line endings and comments ---------------------------------------------
// CRLF files parse like LF files, comments are skipped, and error lines are
// counted the same either way.

TEST(LineEndings, QasmCrlfAndComments) {
  const std::string text = "OPENQASM 2.0;\r\n"
                           "// a comment line\r\n"
                           "qreg q[2]; // a trailing comment\r\n"
                           "h q[0];\r\n"
                           "cx q[0],q[1];\r\n";
  const auto qc = io::parseQasmString(text);
  ASSERT_EQ(qc.size(), 2U);
  EXPECT_EQ(qc.at(1).target(), 1U);
  try {
    (void)io::parseQasmString(text + "bogus q[0];\r\n");
    FAIL() << "expected QasmParseError";
  } catch (const io::QasmParseError& e) {
    EXPECT_EQ(e.line(), 6U);
  }
}

TEST(LineEndings, RealCrlfAndComments) {
  const std::string text = ".version 2.0\r\n"
                           "# a comment line\r\n"
                           ".numvars 2\r\n"
                           ".variables a b\r\n"
                           ".begin\r\n"
                           "t2 a b # a trailing comment\r\n"
                           "t1 b\r\n"
                           ".end\r\n";
  const auto qc = io::parseRealString(text);
  ASSERT_EQ(qc.size(), 2U);
  EXPECT_EQ(qc.at(0).target(), 0U);
  ASSERT_EQ(qc.at(0).controls().size(), 1U);
  EXPECT_EQ(qc.at(0).controls()[0].qubit, 1U);
  try {
    (void)io::parseRealString(text.substr(0, text.find("t1 b")) + "t1 z\r\n");
    FAIL() << "expected RealParseError";
  } catch (const io::RealParseError& e) {
    EXPECT_EQ(e.line(), 7U);
  }
}

TEST(LineEndings, TfcCrlfAndComments) {
  const std::string text = "# a comment line\r\n"
                           ".v a,b\r\n"
                           "BEGIN\r\n"
                           "t2 a,b # a trailing comment\r\n"
                           "t1 b\r\n"
                           "END\r\n";
  const auto qc = io::parseTfcString(text);
  ASSERT_EQ(qc.size(), 2U);
  EXPECT_EQ(qc.at(0).target(), 0U);
  ASSERT_EQ(qc.at(0).controls().size(), 1U);
  EXPECT_EQ(qc.at(0).controls()[0].qubit, 1U);
  try {
    (void)io::parseTfcString(text.substr(0, text.find("t1 b")) + "t1 z\r\n");
    FAIL() << "expected TfcParseError";
  } catch (const io::TfcParseError& e) {
    EXPECT_EQ(e.line(), 5U);
  }
}
