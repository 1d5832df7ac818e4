// End-to-end tests of the qsimec CLI binary (spawned as a subprocess):
// generate -> info -> convert -> check pipelines, exit codes, --json,
// --trace, and --metrics.

#include "util/json_parse.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct CommandResult {
  int exitCode{};
  std::string output;
};

CommandResult runCli(const std::string& args) {
  const std::string command =
      std::string(QSIMEC_CLI_PATH) + " " + args + " 2>&1";
  std::array<char, 4096> buffer{};
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    result.exitCode = -1;
    return result;
  }
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exitCode = WEXITSTATUS(status);
  return result;
}

class CliTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("qsimec_cli_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

} // namespace

TEST_F(CliTest, HelpExitsCleanly) {
  const auto result = runCli("help");
  EXPECT_EQ(result.exitCode, 0);
  EXPECT_NE(result.output.find("simulation-first equivalence checking"),
            std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(runCli("frobnicate").exitCode, 2);
  // `report` reads journals and postmortem dumps; these readers are gone
  for (const char* retired : {"journal-stats", "postmortem"}) {
    const auto result = runCli(std::string(retired) + " x.jsonl");
    EXPECT_EQ(result.exitCode, 2) << retired;
    EXPECT_NE(result.output.find("unknown command: " + std::string(retired)),
              std::string::npos)
        << result.output;
  }
}

TEST_F(CliTest, UnknownFlowOptionIsAUsageError) {
  // an unknown flag after the positional arguments is named, not ignored;
  // the retired rewriting stage's flag is one
  const std::string flag = std::string("--") + "rewriting";
  const std::string a = path("a.qasm");
  const std::string manifest = path("pairs.jsonl");
  ASSERT_EQ(runCli("gen ghz 3 " + a).exitCode, 0);
  std::ofstream(manifest) << R"({"g": ")" << a << R"(", "gp": ")" << a
                          << "\"}\n";
  for (const std::string& command :
       {"check " + a + " " + a, "batch " + manifest}) {
    const auto result = runCli(command + " " + flag);
    EXPECT_EQ(result.exitCode, 2) << command;
    EXPECT_NE(result.output.find("unknown option: " + flag), std::string::npos)
        << result.output;
  }
}

TEST_F(CliTest, GenerateInfoConvertCheckPipeline) {
  const std::string real = path("hwb.real");
  const std::string qasm = path("hwb.qasm");

  auto gen = runCli("gen hwb 4 " + real);
  ASSERT_EQ(gen.exitCode, 0) << gen.output;
  ASSERT_TRUE(fs::exists(real));

  auto info = runCli("info " + real);
  EXPECT_EQ(info.exitCode, 0);
  EXPECT_NE(info.output.find("qubits:  4"), std::string::npos);

  auto convert = runCli("convert " + real + " " + qasm);
  ASSERT_EQ(convert.exitCode, 0) << convert.output;
  ASSERT_TRUE(fs::exists(qasm));

  auto check = runCli("check " + real + " " + qasm + " --timeout 30");
  EXPECT_EQ(check.exitCode, 0) << check.output; // equivalent
  EXPECT_NE(check.output.find("equivalent"), std::string::npos);
}

// A file that cannot be read is a usage error (exit 2) like one that cannot
// be opened, in every format, and never an invalid circuit (exit 4).
TEST_F(CliTest, UnreadableCircuitFileExitsWithTwo) {
  for (const char* name : {"d.qasm", "d.real", "d.tfc"}) {
    const std::string dir = path(name);
    fs::create_directories(dir);
    const auto info = runCli("info " + dir);
    EXPECT_EQ(info.exitCode, 2) << info.output;
    EXPECT_NE(info.output.find("cannot read " + dir + ": Is a directory"),
              std::string::npos)
        << info.output;
  }
}

TEST_F(CliTest, NonEquivalentPairExitsWithOne) {
  const std::string a = path("a.qasm");
  const std::string b = path("b.qasm");
  ASSERT_EQ(runCli("gen qft 4 " + a).exitCode, 0);
  {
    std::ofstream os(b);
    os << "OPENQASM 2.0;\nqreg q[4];\nh q[0];\n";
  }
  const auto check = runCli("check " + a + " " + b + " --sim-only");
  EXPECT_EQ(check.exitCode, 1);
  EXPECT_NE(check.output.find("not equivalent"), std::string::npos);
  EXPECT_NE(check.output.find("counterexample"), std::string::npos);

  // --stimuli and --strategy take the shorthands and the canonical names
  EXPECT_EQ(runCli("check " + a + " " + b +
                   " --sim-only --stimuli random-product --strategy naive")
                .exitCode,
            1);
  const auto badStimuli =
      runCli("check " + a + " " + b + " --stimuli bogus");
  EXPECT_EQ(badStimuli.exitCode, 2);
  EXPECT_NE(badStimuli.output.find("unknown stimuli kind: bogus"),
            std::string::npos);
  const auto badStrategy =
      runCli("check " + a + " " + b + " --strategy bogus");
  EXPECT_EQ(badStrategy.exitCode, 2);
  EXPECT_NE(badStrategy.output.find("unknown strategy: bogus"),
            std::string::npos);
}

TEST_F(CliTest, JsonOutputIsParseableShape) {
  const std::string a = path("g.qasm");
  ASSERT_EQ(runCli("gen ghz 3 " + a).exitCode, 0);
  const auto check = runCli("check " + a + " " + a + " --json --timeout 30");
  EXPECT_EQ(check.exitCode, 0);
  EXPECT_EQ(check.output.front(), '{');
  EXPECT_NE(check.output.find("\"equivalence\":\"equivalent\""),
            std::string::npos);
}

TEST_F(CliTest, SimCommandPrintsAmplitudes) {
  const std::string a = path("bell.qasm");
  {
    std::ofstream os(a);
    os << "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";
  }
  const auto sim = runCli("sim " + a);
  EXPECT_EQ(sim.exitCode, 0);
  EXPECT_NE(sim.output.find("|00>"), std::string::npos);
  EXPECT_NE(sim.output.find("|11>"), std::string::npos);
}

TEST_F(CliTest, LintCleanFileExitsZero) {
  const std::string a = path("clean.qasm");
  {
    std::ofstream os(a);
    os << "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";
  }
  const auto lint = runCli("lint " + a);
  EXPECT_EQ(lint.exitCode, 0) << lint.output;
  EXPECT_NE(lint.output.find("0 error(s)"), std::string::npos);
}

TEST_F(CliTest, LintMalformedFileReportsRulesAndExitsFour) {
  const std::string a = path("bad.qasm");
  {
    std::ofstream os(a);
    os << "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\nrx(1/0) q[1];\n";
  }
  const auto lint = runCli("lint " + a);
  EXPECT_EQ(lint.exitCode, 4);
  EXPECT_NE(lint.output.find("QA002"), std::string::npos);
  EXPECT_NE(lint.output.find("QA004"), std::string::npos);
}

TEST_F(CliTest, LintJsonShape) {
  const std::string a = path("warn.qasm");
  {
    std::ofstream os(a);
    os << "OPENQASM 2.0;\nqreg q[1];\nh q[0];\nh q[0];\n";
  }
  const auto lint = runCli("lint " + a + " --json");
  EXPECT_EQ(lint.exitCode, 0); // warnings do not fail the lint
  EXPECT_EQ(lint.output.front(), '{');
  EXPECT_NE(lint.output.find("\"diagnostics\":["), std::string::npos);
  EXPECT_NE(lint.output.find("QL001"), std::string::npos);
  EXPECT_NE(lint.output.find("\"errors\":0"), std::string::npos);
}

// The files array goes through the one JSON escaper: a file name with a
// tab (or a quote) in it still yields JSON that reads back as the name.
TEST_F(CliTest, LintJsonEscapesFileNames) {
  const std::string a = path("tab\tand \"quote\".qasm");
  {
    std::ofstream os(a);
    os << "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n";
  }
  const auto lint = runCli("lint '" + a + "' --json");
  EXPECT_EQ(lint.exitCode, 0) << lint.output;
  const qsimec::util::JsonValue doc = qsimec::util::parseJson(lint.output);
  ASSERT_EQ(doc.at("files").elements().size(), 1U);
  EXPECT_EQ(doc.at("files").elements()[0].asString(), a);
}

TEST_F(CliTest, LintPairReportsWidthMismatch) {
  const std::string narrow = path("ln.qasm");
  const std::string wide = path("lw.qasm");
  {
    std::ofstream os(narrow);
    os << "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[1];\n";
  }
  {
    std::ofstream os(wide);
    os << "OPENQASM 2.0;\nqreg q[3];\nh q[0];\nh q[1];\nh q[2];\n";
  }
  const auto lint = runCli("lint " + narrow + " " + wide);
  EXPECT_EQ(lint.exitCode, 4);
  EXPECT_NE(lint.output.find("QP001"), std::string::npos);
  // pair-level findings are attributed to both files, not just the first
  EXPECT_NE(lint.output.find(narrow + ", " + wide), std::string::npos);

  const auto json = runCli("lint " + narrow + " " + wide + " --json");
  EXPECT_NE(json.output.find("\"circuit\":\"pair\""), std::string::npos);
}

TEST_F(CliTest, ProfileCommandReportsGateSetAndTier) {
  const std::string ghz = path("ghz.qasm");
  const std::string qft = path("qft.qasm");
  ASSERT_EQ(runCli("gen ghz 3 " + ghz).exitCode, 0);
  ASSERT_EQ(runCli("gen qft 4 " + qft).exitCode, 0);

  const auto single = runCli("profile " + ghz);
  EXPECT_EQ(single.exitCode, 0) << single.output;
  EXPECT_NE(single.output.find("gate set:  clifford"), std::string::npos);

  // an identical Clifford pair strips to nothing: tier "static"
  const auto pair = runCli("profile " + ghz + " " + ghz);
  EXPECT_EQ(pair.exitCode, 0) << pair.output;
  EXPECT_NE(pair.output.find("tier:      static"), std::string::npos);
  EXPECT_NE(pair.output.find("verdict:   identical"), std::string::npos);

  const auto json = runCli("profile " + ghz + " " + qft + " --json");
  EXPECT_EQ(json.exitCode, 0) << json.output;
  EXPECT_TRUE(qsimec::util::isValidJson(json.output)) << json.output;
  EXPECT_NE(json.output.find("\"tier\":"), std::string::npos);
  EXPECT_NE(json.output.find("\"gate_set\":"), std::string::npos);
}

TEST_F(CliTest, CheckReportsStabilizerTierForCliffordPair) {
  const std::string a = path("sg.qasm");
  const std::string b = path("sb.qasm");
  {
    std::ofstream os(a);
    os << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
       << "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
  }
  {
    // an inserted x;x pair: Clifford-only, equivalent, but the residual
    // after prefix/suffix stripping is not statically decidable — the
    // stabilizer tier proves it
    std::ofstream os(b);
    os << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
       << "h q[0];\ncx q[0],q[1];\nx q[2];\nx q[2];\ncx q[1],q[2];\n";
  }
  const auto check = runCli("check " + a + " " + b + " --timeout 30");
  EXPECT_EQ(check.exitCode, 0) << check.output;
  EXPECT_NE(check.output.find("tier:        stabilizer"), std::string::npos);
}

TEST_F(CliTest, CheckOnMalformedFileExitsFour) {
  const std::string bad = path("bad.qasm");
  const std::string ok = path("ok.qasm");
  {
    std::ofstream os(bad);
    os << "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n";
  }
  {
    std::ofstream os(ok);
    os << "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n";
  }
  const auto check = runCli("check " + bad + " " + ok);
  EXPECT_EQ(check.exitCode, 4);
  EXPECT_NE(check.output.find("invalid input"), std::string::npos);
}

TEST_F(CliTest, MissingFileIsUsageErrorNotInvalidInput) {
  const auto lint = runCli("lint " + path("nope.qasm"));
  EXPECT_EQ(lint.exitCode, 2);
  const auto check =
      runCli("check " + path("nope.qasm") + " " + path("nope.qasm"));
  EXPECT_EQ(check.exitCode, 2);
}

TEST_F(CliTest, WidthMismatchIsPaddedAutomatically) {
  const std::string narrow = path("n.qasm");
  const std::string wide = path("w.qasm");
  {
    std::ofstream os(narrow);
    os << "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n";
  }
  {
    std::ofstream os(wide);
    os << "OPENQASM 2.0;\nqreg q[3];\nh q[0];\n";
  }
  const auto check = runCli("check " + narrow + " " + wide + " --timeout 30");
  EXPECT_EQ(check.exitCode, 0) << check.output;
}

TEST_F(CliTest, JsonOutputCarriesMetrics) {
  const std::string a = path("g.qasm");
  ASSERT_EQ(runCli("gen ghz 3 " + a).exitCode, 0);
  // --no-prescreen: ghz vs itself is otherwise decided statically, and
  // this test pins the general flow's metrics rollup
  const auto check =
      runCli("check " + a + " " + a + " --json --no-prescreen --timeout 30");
  EXPECT_EQ(check.exitCode, 0);
  EXPECT_TRUE(qsimec::util::isValidJson(check.output)) << check.output;
  EXPECT_NE(check.output.find("\"metrics\""), std::string::npos);
  EXPECT_NE(check.output.find("\"simulation.runs\""), std::string::npos);
  EXPECT_NE(check.output.find("\"complete.dd.nodes_peak_live\""),
            std::string::npos);
  EXPECT_NE(check.output.find("\"preflight_seconds\""), std::string::npos);
}

TEST_F(CliTest, TraceFlagWritesChromeTraceFile) {
  const std::string a = path("g.qasm");
  const std::string trace = path("trace.json");
  ASSERT_EQ(runCli("gen ghz 3 " + a).exitCode, 0);
  const auto check = runCli("check " + a + " " + a + " --trace " + trace +
                            " --no-prescreen --timeout 30");
  EXPECT_EQ(check.exitCode, 0) << check.output;
  EXPECT_NE(check.output.find("trace:"), std::string::npos);

  ASSERT_TRUE(fs::exists(trace));
  std::ifstream is(trace);
  const std::string content((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
  EXPECT_TRUE(qsimec::util::isValidJson(content)) << content;
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"flow\""), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"checker.simulation\""),
            std::string::npos);
  EXPECT_NE(content.find("\"name\":\"sim.stimulus\""), std::string::npos);
}

TEST_F(CliTest, MetricsFlagPrintsMetricsJson) {
  const std::string a = path("g.qasm");
  ASSERT_EQ(runCli("gen ghz 3 " + a).exitCode, 0);
  const auto check = runCli("check " + a + " " + a + " --metrics --timeout 30");
  EXPECT_EQ(check.exitCode, 0) << check.output;
  const std::size_t at = check.output.find("metrics:     ");
  ASSERT_NE(at, std::string::npos);
  std::string json = check.output.substr(at + 13);
  if (const std::size_t newline = json.find('\n');
      newline != std::string::npos) {
    json.resize(newline);
  }
  EXPECT_TRUE(qsimec::util::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"total.seconds\""), std::string::npos);
}

TEST_F(CliTest, JournalFlagWritesJsonlFile) {
  const std::string a = path("g.qasm");
  const std::string journal = path("run.jsonl");
  ASSERT_EQ(runCli("gen ghz 3 " + a).exitCode, 0);
  const auto check =
      runCli("check " + a + " " + a + " --journal " + journal + " --timeout 30");
  EXPECT_EQ(check.exitCode, 0) << check.output;
  EXPECT_NE(check.output.find("journal:"), std::string::npos);

  ASSERT_TRUE(fs::exists(journal));
  std::ifstream is(journal);
  std::string line;
  std::size_t lines = 0;
  bool sawVerdict = false;
  while (std::getline(is, line)) {
    EXPECT_TRUE(qsimec::util::isValidJson(line)) << line;
    sawVerdict = sawVerdict ||
                 line.find("\"event\":\"flow.verdict\"") != std::string::npos;
    ++lines;
  }
  EXPECT_GT(lines, 0U);
  EXPECT_TRUE(sawVerdict);
}

TEST_F(CliTest, SampleFlagWritesCsvAndCountersLandInTrace) {
  const std::string a = path("g.qasm");
  const std::string csv = path("samples.csv");
  const std::string trace = path("trace.json");
  ASSERT_EQ(runCli("gen qft 6 " + a).exitCode, 0);
  const auto check = runCli("check " + a + " " + a + " --sample " + csv +
                            " --trace " + trace +
                            " --threads 2 --timeout 30");
  EXPECT_EQ(check.exitCode, 0) << check.output;
  EXPECT_NE(check.output.find("samples:"), std::string::npos);

  ASSERT_TRUE(fs::exists(csv));
  std::ifstream is(csv);
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_EQ(header, "ts_micros,probe,value");
  const std::vector<std::string> probes{"dd.nodes_live", "dd.unique_fill",
                                        "sim.stimuli_completed",
                                        "process.rss_bytes"};
  std::vector<bool> seen(probes.size(), false);
  std::string row;
  while (std::getline(is, row)) {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      seen[i] = seen[i] ||
                row.find("," + probes[i] + ",") != std::string::npos;
    }
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_TRUE(seen[i]) << probes[i];
  }

  // the sampler mirrors its samples into the Chrome trace as counter events
  ASSERT_TRUE(fs::exists(trace));
  std::ifstream ts(trace);
  const std::string content((std::istreambuf_iterator<char>(ts)),
                            std::istreambuf_iterator<char>());
  EXPECT_TRUE(qsimec::util::isValidJson(content));
  EXPECT_NE(content.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"dd.nodes_live\""), std::string::npos);
}

TEST_F(CliTest, BenchDiffGatesOnRegressionsAndPassesSelfComparison) {
  const auto writeReport = [this](const std::string& name,
                                  const std::string& outcome, double seconds,
                                  std::uint64_t addOps) {
    const std::string file = path(name);
    std::ofstream os(file);
    os << R"({"schema":"qsimec-bench-v1","harness":"flow_baseline",)"
       << R"("timeout_seconds":10,"simulations":10,"seed":42,"threads":1,)"
       << R"("paper_scale":false,"results":[{"name":"Grover 5","qubits":9,)"
       << R"("gates_g":100,"gates_g_prime":90,"outcome":")" << outcome
       << R"(","metrics":{"counters":{"complete.dd.add_ops":)" << addOps
       << R"(},"gauges":{"total.seconds":)" << seconds << "}}}]}";
    return file;
  };
  const std::string base = writeReport("base.json", "equivalent", 0.5, 1000);
  const std::string flipped =
      writeReport("flipped.json", "not equivalent", 0.5, 1000);
  const std::string slow = writeReport("slow.json", "equivalent", 1.0, 1000);

  const auto same = runCli("bench-diff " + base + " " + base);
  EXPECT_EQ(same.exitCode, 0) << same.output;
  EXPECT_NE(same.output.find("bench-diff: OK"), std::string::npos);

  const auto flip = runCli("bench-diff " + base + " " + flipped);
  EXPECT_EQ(flip.exitCode, 1) << flip.output;
  EXPECT_NE(flip.output.find("verdict flipped"), std::string::npos);
  EXPECT_NE(flip.output.find("bench-diff: REGRESSION"), std::string::npos);

  const auto slower = runCli("bench-diff " + base + " " + slow);
  EXPECT_EQ(slower.exitCode, 1) << slower.output;

  // ...but the same slowdown passes under a wide-enough tolerance
  const auto tolerated =
      runCli("bench-diff " + base + " " + slow + " --tolerance 1.5");
  EXPECT_EQ(tolerated.exitCode, 0) << tolerated.output;

  const auto missing = runCli("bench-diff " + base + " " + path("nope.json"));
  EXPECT_EQ(missing.exitCode, 2) << missing.output;
}

TEST_F(CliTest, BatchChecksManifestAndMirrorsCheckExitCodes) {
  const std::string a = path("a.qasm");
  const std::string b = path("b.qasm");
  const std::string add = path("add.real");
  const std::string inc = path("inc.real");
  ASSERT_EQ(runCli("gen qft 3 " + a).exitCode, 0);
  ASSERT_EQ(runCli("gen qft-alt 3 " + b).exitCode, 0);
  ASSERT_EQ(runCli("gen adder 4 " + add).exitCode, 0);
  ASSERT_EQ(runCli("gen inc 4 " + inc).exitCode, 0);

  const std::string equivalentOnly = path("eq.jsonl");
  {
    std::ofstream os(equivalentOnly);
    os << R"({"g": ")" << a << R"(", "gp": ")" << b << "\"}\n"
       << R"({"g": ")" << add << R"(", "gp": ")" << add << "\"}\n";
  }
  const auto eq = runCli("batch " + equivalentOnly + " --timeout 60");
  EXPECT_EQ(eq.exitCode, 0) << eq.output;
  EXPECT_NE(eq.output.find("pairs: 2"), std::string::npos) << eq.output;

  // one non-equivalent pair flips the batch exit code to 1, like check's
  const std::string mixed = path("mixed.jsonl");
  {
    std::ofstream os(mixed);
    os << R"({"g": ")" << a << R"(", "gp": ")" << b << "\"}\n"
       << R"({"g": ")" << add << R"(", "gp": ")" << inc << "\"}\n";
  }
  const auto ne = runCli("batch " + mixed + " --timeout 60 --json");
  EXPECT_EQ(ne.exitCode, 1) << ne.output;
  // every line of --json output is a valid, schema-tagged JSON object
  std::istringstream lines(ne.output);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(qsimec::util::isValidJson(line)) << line;
    EXPECT_NE(line.find("\"schema\":\"qsimec-batch-v1\""), std::string::npos);
    ++count;
  }
  EXPECT_EQ(count, 3U); // two pairs + summary

  const auto missing = runCli("batch " + path("nope.jsonl"));
  EXPECT_EQ(missing.exitCode, 2) << missing.output;
}

TEST_F(CliTest, BatchWarmCacheRerunAnswersFromCache) {
  const std::string a = path("wa.qasm");
  const std::string b = path("wb.qasm");
  ASSERT_EQ(runCli("gen qft 3 " + a).exitCode, 0);
  ASSERT_EQ(runCli("gen qft-alt 3 " + b).exitCode, 0);
  const std::string manifest = path("warm.jsonl");
  {
    std::ofstream os(manifest);
    os << R"({"g": ")" << a << R"(", "gp": ")" << b << "\"}\n"
       << R"({"g": ")" << a << R"(", "gp": ")" << a << "\"}\n";
  }
  const std::string cache = path("cache.jsonl");
  const std::string cmd =
      "batch " + manifest + " --cache " + cache + " --timeout 60 --json";

  const auto cold = runCli(cmd);
  EXPECT_EQ(cold.exitCode, 0) << cold.output;
  EXPECT_NE(cold.output.find("\"cache_hits\":0"), std::string::npos);
  EXPECT_NE(cold.output.find("\"cache_stores\":2"), std::string::npos);

  const auto warm = runCli(cmd);
  EXPECT_EQ(warm.exitCode, 0) << warm.output;
  EXPECT_NE(warm.output.find("\"cache_hits\":2"), std::string::npos)
      << warm.output;
  EXPECT_NE(warm.output.find("\"cache_stores\":0"), std::string::npos);

  // the verdict sequence is identical whether computed or replayed
  const auto verdicts = [](const std::string& s) {
    std::vector<std::string> found;
    const std::string needle = "\"equivalence\":\"";
    for (std::size_t at = s.find(needle); at != std::string::npos;
         at = s.find(needle, at + 1)) {
      const std::size_t begin = at + needle.size();
      found.push_back(s.substr(begin, s.find('"', begin) - begin));
    }
    return found;
  };
  EXPECT_EQ(verdicts(cold.output), verdicts(warm.output));
}

// --- .tfc support ---------------------------------------------------------

TEST_F(CliTest, TfcLintProfileAndCheckPipeline) {
  const std::string tfc = path("mct.tfc");
  {
    std::ofstream os(tfc);
    os << ".v a,b,c\n.i a,b,c\nBEGIN\nt1 a\nt2 a,b\nt3 a,b,c\nEND\n";
  }
  const auto lint = runCli("lint " + tfc);
  EXPECT_EQ(lint.exitCode, 0) << lint.output;
  EXPECT_NE(lint.output.find("0 error(s)"), std::string::npos);

  const auto profile = runCli("profile " + tfc);
  EXPECT_EQ(profile.exitCode, 0) << profile.output;
  EXPECT_NE(profile.output.find("gate set:"), std::string::npos);

  // convert .tfc -> .real -> back, then check the round-trip is equivalent
  const std::string real = path("mct.real");
  ASSERT_EQ(runCli("convert " + tfc + " " + real).exitCode, 0);
  const auto check = runCli("check " + tfc + " " + real + " --timeout 30");
  EXPECT_EQ(check.exitCode, 0) << check.output;
}

TEST_F(CliTest, TfcParseErrorsExitFour) {
  const std::string truncated = path("truncated.tfc");
  {
    std::ofstream os(truncated);
    os << ".v a,b\nBEGIN\nt2 a,b\n"; // no END
  }
  const auto lint = runCli("lint " + truncated);
  EXPECT_EQ(lint.exitCode, 4) << lint.output;
  EXPECT_NE(lint.output.find("invalid input"), std::string::npos);
  EXPECT_EQ(runCli("profile " + truncated).exitCode, 4);

  const std::string overlap = path("overlap.tfc");
  {
    std::ofstream os(overlap);
    os << ".v a,b\nBEGIN\nt2 a,a\nEND\n"; // control == target
  }
  // lint admits the malformed gate and reports a structured error
  const auto overlapLint = runCli("lint " + overlap);
  EXPECT_EQ(overlapLint.exitCode, 4) << overlapLint.output;
}

// --- corpus + fuzz --------------------------------------------------------

TEST_F(CliTest, GenCorpusEmitsBatchableManifest) {
  const std::string dir = path("corpus");
  const auto gen = runCli("gen corpus " + dir + " --seed 1");
  ASSERT_EQ(gen.exitCode, 0) << gen.output;
  ASSERT_TRUE(fs::exists(dir + "/manifest.jsonl"));
  ASSERT_TRUE(fs::exists(dir + "/corpus.json"));

  // the corpus deliberately contains error-injected pairs, so batch exits 1
  const auto batch =
      runCli("batch " + dir + "/manifest.jsonl --timeout 60 --threads 1");
  EXPECT_EQ(batch.exitCode, 1) << batch.output;
  EXPECT_NE(batch.output.find("not equivalent"), std::string::npos);
}

TEST_F(CliTest, FuzzSmokeIsDeterministicAndClean) {
  const std::string cmd = "fuzz --seed 11 --pairs 2 --max-qubits 4";
  const auto first = runCli(cmd);
  EXPECT_EQ(first.exitCode, 0) << first.output;
  EXPECT_NE(first.output.find("disagreements:     0"), std::string::npos);
  const auto second = runCli(cmd);
  EXPECT_EQ(second.output, first.output); // byte-identical rerun
}

TEST_F(CliTest, FuzzReplaysCommittedRegressionCorpus) {
  const std::string corpus =
      std::string(QSIMEC_TESTDATA_DIR) + "/fuzz/corpus.jsonl";
  const auto replay = runCli("fuzz --replay " + corpus);
  EXPECT_EQ(replay.exitCode, 0) << replay.output;
  EXPECT_NE(replay.output.find("replay clean"), std::string::npos);
}
