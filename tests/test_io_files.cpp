// File-level I/O tests: golden circuit files from tests/data plus
// robustness (fuzz-ish) checks — malformed input must raise parse errors,
// never crash or silently succeed.

#include "analysis/analyzer.hpp"
#include "ec/construction_checker.hpp"
#include "gen/corpus.hpp"
#include "gen/grover.hpp"
#include "gen/qft.hpp"
#include "gen/revlib_like.hpp"
#include "gen/supremacy.hpp"
#include "io/qasm.hpp"
#include "io/real.hpp"
#include "io/tfc.hpp"
#include "sim/dd_simulator.hpp"
#include "transform/decomposition.hpp"
#include "transform/mapper.hpp"
#include "transform/optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <numbers>
#include <string>
#include <unistd.h>

using namespace qsimec;

namespace {
std::string dataPath(const std::string& name) {
  return std::string(QSIMEC_TESTDATA_DIR) + "/" + name;
}
} // namespace

TEST(GoldenFiles, BellQasm) {
  const auto qc = io::parseQasmFile(dataPath("bell.qasm"));
  EXPECT_EQ(qc.qubits(), 2U);
  EXPECT_EQ(qc.size(), 3U); // h, cx, u3 (barrier/measure ignored)
  dd::Package pkg(2);
  const auto out = sim::simulate(qc, pkg.makeZeroState(), pkg);
  EXPECT_NEAR(pkg.norm2(out), 1.0, 1e-9);
}

TEST(GoldenFiles, TeleportQasmUsesTwoRegisters) {
  const auto qc = io::parseQasmFile(dataPath("teleport.qasm"));
  EXPECT_EQ(qc.qubits(), 3U);
  EXPECT_EQ(qc.countType(ir::OpType::X), 3U); // the three CNOTs
  EXPECT_EQ(qc.countType(ir::OpType::Z), 1U); // the CZ
}

TEST(GoldenFiles, ToffoliChainWithGateDefinition) {
  const auto qc = io::parseQasmFile(dataPath("toffoli_chain.qasm"));
  EXPECT_EQ(qc.qubits(), 4U);
  // x + 2 * (cx, cx, ccx)
  EXPECT_EQ(qc.size(), 7U);
  EXPECT_EQ(qc.countType(ir::OpType::X), 7U);
}

TEST(GoldenFiles, PeresReal) {
  const auto qc = io::parseRealFile(dataPath("peres.real"));
  EXPECT_EQ(qc.qubits(), 3U);
  EXPECT_EQ(qc.size(), 6U);
  // the v / v+ pair cancels; check the circuit equals its X/SWAP prefix
  ir::QuantumComputation prefix(3);
  for (std::size_t i = 0; i < 4; ++i) {
    prefix.emplace(qc.at(i));
  }
  const ec::ConstructionChecker checker;
  EXPECT_EQ(checker.run(qc, prefix).equivalence,
            ec::Equivalence::Equivalent);
}

TEST(GoldenFiles, Toffoli3Tfc) {
  const auto qc = io::parseTfcFile(dataPath("tfc/toffoli3.tfc"));
  EXPECT_EQ(qc.qubits(), 3U);
  EXPECT_EQ(qc.size(), 3U);
  // first .v variable = most-significant qubit, matching .real
  EXPECT_EQ(qc.at(0).target(), 2U);          // t1 a
  EXPECT_EQ(qc.at(2).target(), 0U);          // t3 a,b,c targets c
  EXPECT_EQ(qc.at(2).controls().size(), 2U); // ... controlled on a,b
}

TEST(GoldenFiles, NegativeControlsAndVGatesTfc) {
  const auto qc = io::parseTfcFile(dataPath("tfc/negctl.tfc"));
  EXPECT_EQ(qc.qubits(), 4U);
  EXPECT_EQ(qc.size(), 4U);
  EXPECT_FALSE(qc.at(0).controls().front().positive); // t2 a',b
  EXPECT_EQ(qc.at(1).type(), ir::OpType::SWAP);       // f3 a,b,c
  // the v / v+ pair cancels: circuit equals its two-gate prefix
  ir::QuantumComputation prefix(4);
  prefix.emplace(qc.at(0));
  prefix.emplace(qc.at(1));
  const ec::ConstructionChecker checker;
  EXPECT_EQ(checker.run(qc, prefix).equivalence, ec::Equivalence::Equivalent);
}

TEST(GoldenFiles, TfcRoundTrip) {
  const auto qc = io::parseTfcFile(dataPath("tfc/negctl.tfc"));
  const auto back = io::parseTfcString(io::toTfcString(qc), "roundtrip");
  EXPECT_EQ(back.qubits(), qc.qubits());
  EXPECT_EQ(back.size(), qc.size());
  const ec::ConstructionChecker checker;
  EXPECT_EQ(checker.run(qc, back).equivalence, ec::Equivalence::Equivalent);
}

TEST(GoldenFiles, MissingFileThrows) {
  EXPECT_THROW((void)io::parseQasmFile(dataPath("nope.qasm")),
               std::runtime_error);
  EXPECT_THROW((void)io::parseRealFile(dataPath("nope.real")),
               std::runtime_error);
  EXPECT_THROW((void)io::parseTfcFile(dataPath("nope.tfc")),
               std::runtime_error);
}

// --- malformed fixture files ---------------------------------------------
// The bad_* fixtures exercise the validate/lint split on whole files: the
// default (validating) parse rejects them, the lint-mode parse admits them
// so `qsimec lint` can report structured diagnostics.

TEST(MalformedFiles, QasmOverlapRejectedByDefaultParse) {
  EXPECT_THROW((void)io::parseQasmFile(dataPath("bad_overlap.qasm")),
               io::QasmParseError);
  const auto qc =
      io::parseQasmFile(dataPath("bad_overlap.qasm"), {.validate = false});
  EXPECT_EQ(qc.size(), 2U); // h + the malformed cx, both admitted
}

TEST(MalformedFiles, QasmNonFiniteParamFailsAtItsLine) {
  try {
    (void)io::parseQasmFile(dataPath("bad_nonfinite.qasm"));
    FAIL() << "expected QasmParseError";
  } catch (const io::QasmParseError& e) {
    EXPECT_EQ(e.line(), 4U) << e.what();
  }
  const auto qc =
      io::parseQasmFile(dataPath("bad_nonfinite.qasm"), {.validate = false});
  EXPECT_EQ(qc.size(), 1U);
}

TEST(MalformedFiles, RealOverlapRejectedByDefaultParse) {
  EXPECT_THROW((void)io::parseRealFile(dataPath("bad_overlap.real")),
               io::RealParseError);
  const auto qc =
      io::parseRealFile(dataPath("bad_overlap.real"), {.validate = false});
  EXPECT_EQ(qc.size(), 1U);
}

TEST(MalformedFiles, TfcTruncatedBody) {
  try {
    (void)io::parseTfcFile(dataPath("tfc/bad_truncated.tfc"));
    FAIL() << "expected TfcParseError";
  } catch (const io::TfcParseError& e) {
    EXPECT_NE(std::string(e.what()).find("END"), std::string::npos);
  }
}

TEST(MalformedFiles, TfcUndeclaredWire) {
  try {
    (void)io::parseTfcFile(dataPath("tfc/bad_undeclared.tfc"));
    FAIL() << "expected TfcParseError";
  } catch (const io::TfcParseError& e) {
    EXPECT_NE(std::string(e.what()).find("undeclared"), std::string::npos);
  }
}

TEST(MalformedFiles, TfcBadConstant) {
  EXPECT_THROW((void)io::parseTfcFile(dataPath("tfc/bad_constants.tfc")),
               io::TfcParseError);
}

TEST(MalformedFiles, TfcOverlapRejectedByDefaultParse) {
  EXPECT_THROW((void)io::parseTfcFile(dataPath("tfc/bad_overlap.tfc")),
               io::TfcParseError);
  const auto qc =
      io::parseTfcFile(dataPath("tfc/bad_overlap.tfc"), {.validate = false});
  EXPECT_EQ(qc.size(), 1U); // the malformed t2 a,a, admitted for linting
}

// --- robustness ----------------------------------------------------------
// Each case names the line its parse error must carry. The printer keeps
// the test names those of the plain input strings.

struct FuzzCase {
  const char* text;
  std::size_t line;
};

void PrintTo(const FuzzCase& fuzzCase, std::ostream* os) {
  *os << ::testing::PrintToString(fuzzCase.text);
}

template <class Error, class Parse>
void expectParseErrorAt(Parse parse, const FuzzCase& fuzzCase) {
  try {
    (void)parse(fuzzCase.text);
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_EQ(e.line(), fuzzCase.line) << e.what();
  }
}

const FuzzCase kQasmFuzzCases[] = {
    FuzzCase{"", 1}, FuzzCase{"garbage", 1}, FuzzCase{"OPENQASM", 1},
    FuzzCase{"OPENQASM 2.0", 1}, FuzzCase{"OPENQASM 2.0;\nqreg", 2},
    FuzzCase{"OPENQASM 2.0;\nqreg q[2]\nh q[0];", 3}, // missing semicolon
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\nh q[0]", 3}, // missing final ;
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\nh q[2];", 3}, // out of range
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\ncx q[0];", 3}, // arity
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\nrx() q[0];", 3},
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\nrx(bogus) q[0];", 3},
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\nrx(1+) q[0];", 3},
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\nqreg q[3];", 3}, // duplicate
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\nh r[0];", 3}, // unknown register
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\ngate g a { x b; } g q[0];", 3},
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\ngate g a { g a; } g q[0];",
             3}, // recursion
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\nreset q[0];", 3},
    FuzzCase{"OPENQASM 2.0;\nqreg q[0];", 2},
    // register sizes and indices are unsigned integers, not reals
    FuzzCase{"OPENQASM 2.0;\nqreg q[2.7];", 2},
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\nx q[1.9];", 3},
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\nx q[-1];", 3},
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\nx q[1e0];", 3},
    FuzzCase{"OPENQASM 2.0;\nqreg q[99999999999999999999];", 2},
    FuzzCase{"OPENQASM 2.0;\nqreg q[2];\ncreg c[1.5];", 3},
    // widths past ir::Qubit's range fail where they are declared
    FuzzCase{"OPENQASM 2.0;\nqreg q[65537];", 2},
    FuzzCase{"OPENQASM 2.0;\nqreg q[70000];\nx q[65537];", 2},
    FuzzCase{"OPENQASM 2.0;\nqreg a[40000];\nqreg b[30000];", 3},
    FuzzCase{"OPENQASM 2.0;\nqreg a[1];\nqreg b[18446744073709551615];",
             3},
    // parameters must be finite, also through a user gate's body
    FuzzCase{"OPENQASM 2.0;\nqreg q[1];\nrx(1/0) q[0];", 3},
    FuzzCase{"OPENQASM 2.0;\nqreg q[1];\nrx(-1/0) q[0];", 3},
    FuzzCase{"OPENQASM 2.0;\nqreg q[1];\nrx(0/0) q[0];", 3},
    FuzzCase{"OPENQASM 2.0;\nqreg q[1];\n\nu3(0, 1e308*10, 0) q[0];", 4},
    FuzzCase{"OPENQASM 2.0;\nqreg q[1];\ngate g(a) x { rz(a) x; }\n"
             "g(1/0) q[0];",
             4},
    // zero width: no register declared
    FuzzCase{"OPENQASM 2.0;\ninclude \"qelib1.inc\";", 2}};

class QasmFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(QasmFuzzTest, MalformedInputRaisesParseError) {
  expectParseErrorAt<io::QasmParseError>(
      [](const std::string& text) { return io::parseQasmString(text); },
      GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cases, QasmFuzzTest,
                         ::testing::ValuesIn(kQasmFuzzCases));

const FuzzCase kRealFuzzCases[] = {
    FuzzCase{"", 0}, FuzzCase{".begin\n.end\n", 1},
    FuzzCase{".numvars 2\n.begin\nt1 a\n.end\n", 2},
    FuzzCase{".numvars 2\n.variables a\n", 2},
    FuzzCase{".numvars 2\n.variables a b\n.begin\nt1 z\n.end\n", 4},
    FuzzCase{".numvars 2\n.variables a b\n.begin\nq1 a\n.end\n", 4},
    FuzzCase{".numvars 2\n.variables a b\n.begin\nt3 a b\n.end\n", 4},
    FuzzCase{".numvars 2\n.variables a b\n.begin\nt2 a -b\n.end\n",
             4}, // negated target
    FuzzCase{".numvars 2\n.variables a b\n.begin\nt1 a\n", 4}, // no .end
    FuzzCase{".numvars 2\n.variables a a\n.begin\n.end\n", 2},
    // .numvars and gate arities are unsigned integers
    FuzzCase{".version 2.0\n.numvars abc\n", 2},
    FuzzCase{".numvars 99999999999999999999\n", 1},
    FuzzCase{".version 2.0\n.numvars 65537\n.variables a\n", 2},
    FuzzCase{".numvars 18446744073709551615\n", 1},
    FuzzCase{".numvars 2\n.variables a b\n.begin\ntz a\n.end\n", 4},
    FuzzCase{".numvars 2\n.variables a b\n.begin\nt1x a\n.end\n", 4},
    FuzzCase{".numvars 2\n.variables a b\n.begin\n"
             "t99999999999999999999999 a\n.end\n",
             4},
    FuzzCase{".version 2.0\n.numvars 0\n", 2}}; // zero width

class RealFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(RealFuzzTest, MalformedInputRaisesParseError) {
  expectParseErrorAt<io::RealParseError>(
      [](const std::string& text) { return io::parseRealString(text); },
      GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cases, RealFuzzTest,
                         ::testing::ValuesIn(kRealFuzzCases));

const FuzzCase kTfcFuzzCases[] = {
    FuzzCase{"", 0}, FuzzCase{"garbage\n", 1},
    FuzzCase{"BEGIN\nEND\n", 1},                     // body before .v
    FuzzCase{".v\nBEGIN\nEND\n", 1},                 // empty .v: no wires
    FuzzCase{".v a,a\nBEGIN\nEND\n", 1},             // duplicate variable
    FuzzCase{".v a,b\n.v c\nBEGIN\nEND\n", 2},       // duplicate .v
    FuzzCase{".v a,b\n.i a,c\nBEGIN\nEND\n", 2},     // undeclared input
    FuzzCase{".v a,b\n.o z\nBEGIN\nEND\n", 2},       // undeclared output
    FuzzCase{".v a,b\n.c 0,1,0\nBEGIN\nEND\n", 2},   // too many constants
    FuzzCase{".v a,b\n.i a\n.c 0,1\nBEGIN\nEND\n", 3}, // > non-inputs
    FuzzCase{".v a,b\n.c x\nBEGIN\nEND\n", 2},       // non-binary constant
    FuzzCase{".v a,b\nBEGIN\nt2 a,b\n", 3},          // missing END
    FuzzCase{".v a,b\nBEGIN\nt2 a\nEND\n", 3},       // arity mismatch
    FuzzCase{".v a,b\nBEGIN\nt2 a,z\nEND\n", 3},     // unknown operand
    FuzzCase{".v a,b\nBEGIN\nt2 a,b'\nEND\n", 3},    // negated target
    FuzzCase{".v a,b\nBEGIN\nt2 a,,b\nEND\n", 3},    // empty operand
    FuzzCase{".v a,b\nBEGIN\ng2 a,b\nEND\n", 3},     // unknown gate kind
    FuzzCase{".v a,b\nBEGIN\ntx a,b\nEND\n", 3},     // non-numeric arity
    FuzzCase{".v a,b,c\nBEGIN\nf1 a\nEND\n", 3},     // fredkin: 2 targets
    FuzzCase{".v a,b\nBEGIN\nf2 a,a\nEND\n", 3},     // swap on one wire
    // gate arities are unsigned integers
    FuzzCase{".v a,b\nBEGIN\nt99999999999999999999999 a,b\nEND\n", 3},
    FuzzCase{".v a,b\nBEGIN\nt-2 a,b\nEND\n", 3}};

class TfcFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(TfcFuzzTest, MalformedInputRaisesParseError) {
  expectParseErrorAt<io::TfcParseError>(
      [](const std::string& text) { return io::parseTfcString(text); },
      GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cases, TfcFuzzTest,
                         ::testing::ValuesIn(kTfcFuzzCases));

// A validating parse is the only validation a file gets before the flow's
// preflight, so whatever it accepts — the generated corpus, the fixture
// files, any fuzz case that parses — must be clean at the analyzer's error
// level, and whatever it rejects must fail with a line.
TEST(ParseValidation, ValidatedParseIsAnalyzerClean) {
  namespace fs = std::filesystem;
  const analysis::CircuitAnalyzer analyzer({.lint = false});
  std::size_t accepted = 0;
  const auto expectClean = [&](const auto& parse, const std::string& what) {
    try {
      const analysis::AnalysisReport report = analyzer.analyze(parse());
      ++accepted;
      EXPECT_FALSE(report.hasErrors())
          << what << ": " << analysis::toString(report.diagnostics.front());
    } catch (const io::ParseError&) {
      // rejected at its line: nothing reaches the analyzer
    }
  };
  for (const FuzzCase& c : kQasmFuzzCases) {
    expectClean([&] { return io::parseQasmString(c.text); }, c.text);
  }
  for (const FuzzCase& c : kRealFuzzCases) {
    expectClean([&] { return io::parseRealString(c.text); }, c.text);
  }
  for (const FuzzCase& c : kTfcFuzzCases) {
    expectClean([&] { return io::parseTfcString(c.text); }, c.text);
  }
  for (const auto& entry :
       fs::recursive_directory_iterator(QSIMEC_TESTDATA_DIR)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".qasm" || ext == ".real" || ext == ".tfc") {
      const std::string path = entry.path().string();
      expectClean([&] { return io::parseCircuitFile(path); }, path);
    }
  }
  EXPECT_GE(accepted, 6U); // the golden files of tests/data

  const fs::path dir = fs::temp_directory_path() /
                       ("qsimec_validated_" + std::to_string(::getpid()));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const gen::CorpusManifest corpus = gen::emitCorpus(
        {.dir = (dir / std::to_string(seed)).string(), .seed = seed});
    const std::size_t before = accepted;
    for (const gen::CorpusEntry& entry : corpus.entries) {
      for (const std::string& path : {entry.gPath, entry.gPrimePath}) {
        expectClean([&] { return io::parseCircuitFile(path); }, path);
      }
    }
    EXPECT_EQ(accepted - before, 2 * corpus.entries.size())
        << "every corpus file parses";
  }
  fs::remove_all(dir);
}

// ir::Qubit is 16 bits wide: a declared width above 65536 must fail at its
// declaring line whether or not the parse validates (batch and daemon parse
// leniently), and exactly 65536 still parses with the last index intact.
std::string wires(const char* prefix, std::size_t count) {
  std::string out;
  for (std::size_t i = 0; i < count; ++i) {
    out += (i == 0 ? "" : prefix) + ("w" + std::to_string(i));
  }
  return out;
}

TEST(MalformedFiles, WidthsPastTheQubitRangeFailAtTheirLine) {
  const std::string tfc = "# wide\n.v " + wires(",", 65537) + "\nBEGIN\nEND\n";
  const std::string real =
      ".version 2.0\n.numvars 65537\n.variables " + wires(" ", 65537) + "\n";
  for (const bool validate : {true, false}) {
    SCOPED_TRACE(validate ? "validate" : "lint");
    const io::ParseOptions options{.validate = validate};
    expectParseErrorAt<io::QasmParseError>(
        [&](const std::string& text) {
          return io::parseQasmString(text, "", options);
        },
        FuzzCase{"OPENQASM 2.0;\nqreg a[65000];\n\nqreg b[537];\n", 4});
    expectParseErrorAt<io::RealParseError>(
        [&](const std::string& text) {
          return io::parseRealString(text, "", options);
        },
        FuzzCase{real.c_str(), 2});
    expectParseErrorAt<io::TfcParseError>(
        [&](const std::string& text) {
          return io::parseTfcString(text, "", options);
        },
        FuzzCase{tfc.c_str(), 2});
  }
}

TEST(MalformedFiles, WidestCircuitKeepsItsLastQubit) {
  for (const bool validate : {true, false}) {
    const io::ParseOptions options{.validate = validate};
    const auto qasm = io::parseQasmString(
        "OPENQASM 2.0;\nqreg a[65535];\nqreg b[1];\nx b[0];\n", "", options);
    ASSERT_EQ(qasm.qubits(), 65536U);
    EXPECT_EQ(qasm.ops().front().targets().front(), 65535U);
    const auto tfc = io::parseTfcString(
        ".v " + wires(",", 65536) + "\nBEGIN\nt1 w0\nEND\n", "", options);
    ASSERT_EQ(tfc.qubits(), 65536U);
    EXPECT_EQ(tfc.ops().front().targets().front(), 65535U); // first = MSB
  }
}

// --- round-trip lock -------------------------------------------------------
// Every circuit of the generated corpus (seeds 1-4) and of the Table Ib
// recipes, written by the writer of its format, parses back op by op: the
// same types, targets and controls, and bit-identical parameters.

namespace {

void expectSameOps(const ir::QuantumComputation& expected,
                   const ir::QuantumComputation& actual,
                   const std::string& what) {
  ASSERT_EQ(actual.qubits(), expected.qubits()) << what;
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const ir::StandardOperation& e = expected.at(i);
    const ir::StandardOperation& a = actual.at(i);
    ASSERT_EQ(a.type(), e.type()) << what << ", op " << i;
    ASSERT_EQ(a.targets(), e.targets()) << what << ", op " << i;
    ASSERT_EQ(a.controls(), e.controls()) << what << ", op " << i;
    for (std::size_t k = 0; k < e.params().size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.params()[k]),
                std::bit_cast<std::uint64_t>(e.params()[k]))
          << what << ", op " << i << ", param " << k;
    }
  }
}

/// `qc` written by the writer of the format `extension` names, parsed back.
ir::QuantumComputation roundTrip(const ir::QuantumComputation& qc,
                                 const std::string& extension) {
  if (extension == ".real") {
    return io::parseRealString(io::toRealString(qc));
  }
  if (extension == ".tfc") {
    return io::parseTfcString(io::toTfcString(qc));
  }
  return io::parseQasmString(io::toQasmString(qc));
}

/// `qc` as writeQasm spells it: V, V†, SY and SY† become their
/// phase-equivalent qelib1 sequences (see io/qasm.hpp).
ir::QuantumComputation qelibSpelling(const ir::QuantumComputation& qc) {
  ir::QuantumComputation out(qc.qubits());
  for (const ir::StandardOperation& op : qc) {
    const ir::Qubit t = op.target();
    switch (op.type()) {
    case ir::OpType::V:
      out.sdg(t);
      out.h(t);
      out.sdg(t);
      break;
    case ir::OpType::Vdg:
      out.s(t);
      out.h(t);
      out.s(t);
      break;
    case ir::OpType::SY:
      out.ry(std::numbers::pi / 2, t);
      break;
    case ir::OpType::SYdg:
      out.ry(-std::numbers::pi / 2, t);
      break;
    default:
      out.emplace(op);
    }
  }
  return out;
}

bool reversibleOnly(const ir::QuantumComputation& qc) {
  return std::all_of(qc.begin(), qc.end(), [](const ir::StandardOperation& op) {
    return op.type() == ir::OpType::X || op.type() == ir::OpType::SWAP ||
           op.type() == ir::OpType::V || op.type() == ir::OpType::Vdg;
  });
}

} // namespace

TEST(RoundTripLock, CorpusCircuitsParseBackOpByOp) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("qsimec_roundtrip_" + std::to_string(::getpid()));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const gen::CorpusManifest corpus = gen::emitCorpus(
        {.dir = (dir / std::to_string(seed)).string(), .seed = seed});
    for (const gen::CorpusEntry& entry : corpus.entries) {
      for (const std::string& path : {entry.gPath, entry.gPrimePath}) {
        const ir::QuantumComputation qc = io::parseCircuitFile(path);
        expectSameOps(qc, roundTrip(qc, fs::path(path).extension().string()),
                      path);
      }
    }
  }
  fs::remove_all(dir);
}

TEST(RoundTripLock, TableIbRecipesParseBackOpByOp) {
  std::vector<std::pair<std::string, ir::QuantumComputation>> circuits;
  const auto add = [&circuits](const std::string& name,
                               const ir::QuantumComputation& g,
                               const ir::QuantumComputation& gPrime) {
    circuits.emplace_back(name + " G", g.withMaterializedLayouts());
    circuits.emplace_back(name + " G'", gPrime.withMaterializedLayouts());
  };
  const auto linear = [](const ir::QuantumComputation& g) {
    return tf::mapCircuit(g, tf::CouplingMap::linear(g.qubits())).circuit;
  };
  for (const auto& [k, marked] : {std::pair<std::size_t, std::uint64_t>{
                                      5, 0b10110},
                                  {6, 0b101101}}) {
    const auto g = tf::decompose(gen::grover(k, marked));
    add("Grover " + std::to_string(k), g, tf::optimize(g, {}));
  }
  const auto supremacy = gen::supremacy(4, 4, 5, 3);
  add("Supremacy 4x4 5", supremacy, linear(supremacy));
  const auto qft = gen::qft(8);
  add("QFT 8", qft, linear(qft));
  for (const auto& [name, g] :
       {std::pair{"hwb6", gen::hwbCircuit(6)},
        std::pair{"urf-like 6", gen::urfCircuit(6, 7)},
        std::pair{"adder8", gen::adderCircuit(8)},
        std::pair{"inc8", gen::incrementCircuit(8)}}) {
    add(name, g, tf::decompose(g));
  }

  for (const auto& [name, qc] : circuits) {
    if (reversibleOnly(qc)) {
      expectSameOps(qc, roundTrip(qc, ".real"), name + " (.real)");
      expectSameOps(qc, roundTrip(qc, ".tfc"), name + " (.tfc)");
    } else {
      expectSameOps(qelibSpelling(qc), roundTrip(qc, ".qasm"),
                    name + " (.qasm)");
    }
  }
}
