// bench-diff tests: the JSON reader (util::parseJson + the qsimec-bench-v1
// loader) and the regression-gate comparison rules — identical reports pass,
// verdict flips and deterministic-counter drift hard-fail, wall-time growth
// fails beyond the tolerance, timed-out records are exempt.

#include "obs/bench_diff.hpp"
#include "obs/bench_report.hpp"
#include "util/json_parse.hpp"

#include <gtest/gtest.h>

#include <string>

using namespace qsimec;

namespace {

/// A minimal but complete qsimec-bench-v1 report with one record.
obs::BenchReportFile makeReport(const std::string& outcome, double seconds,
                                std::uint64_t addOps,
                                std::uint64_t timedOut = 0) {
  obs::BenchReportFile report;
  report.harness = "flow_baseline";
  report.timeoutSeconds = 10.0;
  report.simulations = 10;
  report.seed = 42;
  report.threads = 1;
  report.paperScale = false;
  obs::BenchReportRecord record;
  record.name = "Grover 5";
  record.qubits = 9;
  record.gatesG = 100;
  record.gatesGPrime = 90;
  record.outcome = outcome;
  record.metrics.counters["complete.dd.add_ops"] = addOps;
  record.metrics.counters["complete.timed_out"] = timedOut;
  record.metrics.counters["flow.counterexample"] =
      outcome == "not equivalent" ? 1 : 0;
  record.metrics.gauges["total.seconds"] = seconds;
  record.metrics.gauges["complete.seconds"] = seconds / 2;
  report.records.push_back(std::move(record));
  return report;
}

} // namespace

TEST(JsonParse, ParsesTheBasicShapes) {
  const util::JsonValue v = util::parseJson(
      R"({"s":"aA\n","n":-2.5e-1,"b":true,"x":null,"a":[1,2,3],"o":{"k":7}})");
  EXPECT_EQ(v.at("s").asString(), "aA\n");
  EXPECT_DOUBLE_EQ(v.at("n").asNumber(), -0.25);
  EXPECT_TRUE(v.at("b").asBool());
  EXPECT_TRUE(v.at("x").isNull());
  ASSERT_EQ(v.at("a").elements().size(), 3U);
  EXPECT_EQ(v.at("a").elements()[1].asUint(), 2U);
  EXPECT_EQ(v.at("o").at("k").asUint(), 7U);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), util::JsonParseError);
  EXPECT_THROW((void)v.at("s").asNumber(), util::JsonParseError);

  // member order is preserved
  EXPECT_EQ(v.members()[0].first, "s");
  EXPECT_EQ(v.members()[5].first, "o");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW((void)util::parseJson(""), util::JsonParseError);
  EXPECT_THROW((void)util::parseJson("{"), util::JsonParseError);
  EXPECT_THROW((void)util::parseJson("{\"a\":1,}"), util::JsonParseError);
  EXPECT_THROW((void)util::parseJson("{'a':1}"), util::JsonParseError);
  EXPECT_THROW((void)util::parseJson("[1,2] junk"), util::JsonParseError);
  EXPECT_THROW((void)util::parseJson("\"unterminated"), util::JsonParseError);
  // depth bomb
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW((void)util::parseJson(deep), util::JsonParseError);
  // 65 nested arrays reach depth 64, the limit; one more is too deep
  EXPECT_NO_THROW((void)util::parseJson(std::string(65, '[') +
                                        std::string(65, ']')));
  EXPECT_THROW((void)util::parseJson(std::string(66, '[') +
                                     std::string(66, ']')),
               util::JsonParseError);

  // RFC 8259 number grammar, including forms std::stod would accept
  for (const char* bad :
       {"01", "-01", "[00]", "+1", "-", ".5", "1.", "1.e3", "1e", "1e+",
        "1.5e3.2", "NaN", "nan", "Infinity", "-inf", "0x1F", "1e999"}) {
    EXPECT_THROW((void)util::parseJson(bad), util::JsonParseError) << bad;
  }
  // trailing commas and raw control characters in strings
  for (const char* bad : {"[1,]", "[,1]", "{\"a\":1,}", "\"a\tb\"",
                          "\"a\x01\"", "\"\\x\"", "\"\\u12G4\""}) {
    EXPECT_THROW((void)util::parseJson(bad), util::JsonParseError) << bad;
  }
  for (const char* good : {"0", "-0", "10", "-0.5", "1e3", "1E-3", "2.5e+1"}) {
    EXPECT_NO_THROW((void)util::parseJson(good)) << good;
  }
}

TEST(JsonParse, IntegersReadBackExactly) {
  // 2^63 + 1 and 2^64 - 1 have no exact double
  EXPECT_EQ(util::parseJson("9223372036854775809").asUint(),
            9223372036854775809ULL);
  EXPECT_EQ(util::parseJson("18446744073709551615").asUint(),
            18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(util::parseJson("9223372036854775809").asNumber(),
                   9223372036854775808.0);
  // anything but an exact unsigned 64-bit integer is an error, not a
  // rounded value
  for (const char* bad : {"18446744073709551616", "-1", "-0", "1.5", "2.0",
                          "1e3"}) {
    EXPECT_THROW((void)util::parseJson(bad).asUint(), util::JsonParseError)
        << bad;
  }
}

TEST(BenchReport, ParsesTheV1Schema) {
  const std::string json = R"({
    "schema":"qsimec-bench-v1","harness":"flow_baseline",
    "timeout_seconds":10,"simulations":10,"seed":42,"threads":1,
    "paper_scale":false,
    "results":[{"name":"Grover 5","qubits":9,"gates_g":100,
      "gates_g_prime":90,"outcome":"equivalent",
      "metrics":{"counters":{"complete.dd.add_ops":1234},
                 "gauges":{"total.seconds":0.5},
                 "histograms":{"sim.f":{"count":2,"sum":2.0,"min":1.0,"max":1.0}}}}]})";
  const obs::BenchReportFile report = obs::parseBenchReport(json);
  EXPECT_EQ(report.harness, "flow_baseline");
  EXPECT_EQ(report.simulations, 10U);
  ASSERT_EQ(report.records.size(), 1U);
  const obs::BenchReportRecord* record = report.find("Grover 5");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->qubits, 9U);
  EXPECT_EQ(record->outcome, "equivalent");
  EXPECT_EQ(record->metrics.counters.at("complete.dd.add_ops"), 1234U);
  EXPECT_DOUBLE_EQ(record->metrics.gauges.at("total.seconds"), 0.5);
  EXPECT_EQ(record->metrics.histograms.at("sim.f").count, 2U);
  EXPECT_EQ(report.find("nope"), nullptr);
}

TEST(BenchReport, RejectsWrongSchema) {
  EXPECT_THROW(
      (void)obs::parseBenchReport(
          R"({"schema":"qsimec-bench-v2","harness":"x","timeout_seconds":1,
              "simulations":1,"seed":1,"threads":1,"paper_scale":false,
              "results":[]})"),
      util::JsonParseError);
  EXPECT_THROW((void)obs::parseBenchReport("{}"), util::JsonParseError);
  EXPECT_THROW((void)obs::loadBenchReport("/nonexistent/report.json"),
               std::runtime_error);
}

TEST(BenchDiff, IdenticalReportsPass) {
  const obs::BenchReportFile report = makeReport("equivalent", 0.5, 1000);
  const obs::BenchDiffResult result = obs::diffBenchReports(report, report);
  EXPECT_FALSE(result.hasRegression());
  ASSERT_EQ(result.rows.size(), 1U);
  EXPECT_FALSE(result.rows[0].regression);
  EXPECT_FALSE(obs::formatBenchDiff(result).empty());
}

TEST(BenchDiff, TwoTimesSlowdownIsCaught) {
  const obs::BenchReportFile baseline = makeReport("equivalent", 0.5, 1000);
  const obs::BenchReportFile current = makeReport("equivalent", 1.0, 1000);
  const obs::BenchDiffResult result = obs::diffBenchReports(baseline, current);
  EXPECT_TRUE(result.hasRegression());
  ASSERT_EQ(result.rows.size(), 1U);
  EXPECT_TRUE(result.rows[0].regression);

  // ...and the same delta within tolerance passes
  const obs::BenchDiffOptions loose{.timeTolerance = 1.5};
  EXPECT_FALSE(
      obs::diffBenchReports(baseline, current, loose).hasRegression());
}

TEST(BenchDiff, PerThreadSecondsColumnsAreGatedToo) {
  // parallel_sweep reports wall-times as "sim.seconds.tN" (a ".seconds."
  // segment, not a suffix); those columns must be gated as well.
  obs::BenchReportFile baseline = makeReport("equivalent", 0.5, 1000);
  baseline.records[0].metrics.gauges.erase("total.seconds");
  baseline.records[0].metrics.gauges.erase("complete.seconds");
  baseline.records[0].metrics.gauges["sim.seconds.t2"] = 0.5;
  obs::BenchReportFile current = baseline;
  current.records[0].metrics.gauges["sim.seconds.t2"] = 1.0;
  const obs::BenchDiffResult result = obs::diffBenchReports(baseline, current);
  EXPECT_TRUE(result.hasRegression());
  ASSERT_EQ(result.rows.size(), 1U);
  EXPECT_DOUBLE_EQ(result.rows[0].baseSeconds, 0.5);
  EXPECT_DOUBLE_EQ(result.rows[0].currentSeconds, 1.0);
}

TEST(BenchDiff, FlippedVerdictIsCaught) {
  const obs::BenchReportFile baseline = makeReport("equivalent", 0.5, 1000);
  obs::BenchReportFile current = makeReport("not equivalent", 0.5, 1000);
  const obs::BenchDiffResult result = obs::diffBenchReports(baseline, current);
  EXPECT_TRUE(result.hasRegression());
  bool sawFlip = false;
  for (const obs::DiffFinding& finding : result.findings) {
    sawFlip = sawFlip ||
              (finding.severity == obs::DiffSeverity::Regression &&
               finding.message.find("verdict flipped") != std::string::npos);
  }
  EXPECT_TRUE(sawFlip);
}

TEST(BenchDiff, DeterministicCounterDriftIsCaught) {
  const obs::BenchReportFile baseline = makeReport("equivalent", 0.5, 1000);
  const obs::BenchReportFile current = makeReport("equivalent", 0.5, 1001);
  // default: exact equality required
  EXPECT_TRUE(obs::diffBenchReports(baseline, current).hasRegression());
  // a relative tolerance admits the drift
  const obs::BenchDiffOptions loose{.counterTolerance = 0.01};
  EXPECT_FALSE(
      obs::diffBenchReports(baseline, current, loose).hasRegression());
  // ...but never for the counterexample indicator
  obs::BenchReportFile flipped = makeReport("equivalent", 0.5, 1000);
  flipped.records[0].metrics.counters["flow.counterexample"] = 1;
  EXPECT_TRUE(
      obs::diffBenchReports(baseline, flipped, loose).hasRegression());
}

TEST(BenchDiff, TimedOutRecordsAreExemptButNewTimeoutFails) {
  const obs::BenchReportFile slowBase = makeReport("equivalent", 0.5, 1000, 1);
  const obs::BenchReportFile slowCur =
      makeReport("equivalent", 5.0, 999999, 1);
  // both timed out: time and counter drift are exempt
  EXPECT_FALSE(obs::diffBenchReports(slowBase, slowCur).hasRegression());

  const obs::BenchReportFile goodBase = makeReport("equivalent", 0.5, 1000);
  const obs::BenchReportFile newTimeout =
      makeReport("equivalent", 0.5, 1000, 1);
  EXPECT_TRUE(obs::diffBenchReports(goodBase, newTimeout).hasRegression());
}

TEST(BenchDiff, ConfigAndRecordSetMismatchesFail) {
  const obs::BenchReportFile baseline = makeReport("equivalent", 0.5, 1000);
  obs::BenchReportFile otherSeed = makeReport("equivalent", 0.5, 1000);
  otherSeed.seed = 7;
  EXPECT_TRUE(obs::diffBenchReports(baseline, otherSeed).hasRegression());

  obs::BenchReportFile missing = makeReport("equivalent", 0.5, 1000);
  missing.records.clear();
  EXPECT_TRUE(obs::diffBenchReports(baseline, missing).hasRegression());
  // extra records in current are informational only
  obs::BenchReportFile extra = makeReport("equivalent", 0.5, 1000);
  obs::BenchReportRecord added;
  added.name = "New bench";
  added.outcome = "equivalent";
  extra.records.push_back(added);
  EXPECT_FALSE(obs::diffBenchReports(baseline, extra).hasRegression());
}

TEST(BenchReport, HardwareConcurrencyIsOptional) {
  // reports that predate the field parse with hardwareConcurrency == 0
  const std::string withoutField = R"({
    "schema":"qsimec-bench-v1","harness":"h","timeout_seconds":10,
    "simulations":10,"seed":42,"threads":1,"paper_scale":false,
    "results":[]})";
  EXPECT_EQ(obs::parseBenchReport(withoutField).hardwareConcurrency, 0U);

  const std::string withField = R"({
    "schema":"qsimec-bench-v1","harness":"h","timeout_seconds":10,
    "simulations":10,"seed":42,"threads":1,"hardware_concurrency":16,
    "paper_scale":false,"results":[]})";
  EXPECT_EQ(obs::parseBenchReport(withField).hardwareConcurrency, 16U);
}

TEST(BenchDiff, CoreCountMismatchDowngradesPerThreadColumnsOnly) {
  // a tN column regression on a machine with a different core count is a
  // note, not a gate failure — but the plain ".seconds" totals still gate
  obs::BenchReportFile baseline = makeReport("equivalent", 0.5, 1000);
  baseline.hardwareConcurrency = 8;
  baseline.records[0].metrics.gauges["sim.seconds.t2"] = 0.5;

  obs::BenchReportFile current = baseline;
  current.hardwareConcurrency = 2;
  current.records[0].metrics.gauges["sim.seconds.t2"] = 2.0; // 4x slower

  obs::BenchDiffResult result = obs::diffBenchReports(baseline, current);
  EXPECT_FALSE(result.hasRegression());
  bool downgraded = false;
  for (const obs::DiffFinding& finding : result.findings) {
    downgraded = downgraded ||
                 (finding.severity == obs::DiffSeverity::Info &&
                  finding.message.find("sim.seconds.t2") != std::string::npos);
  }
  EXPECT_TRUE(downgraded);

  // the single-threaded totals are still comparable and still gate
  current.records[0].metrics.gauges["total.seconds"] = 5.0;
  result = obs::diffBenchReports(baseline, current);
  EXPECT_TRUE(result.hasRegression());

  // same core count (field present and equal): tN columns gate as before
  current.hardwareConcurrency = 8;
  current.records[0].metrics.gauges["total.seconds"] = 0.5;
  result = obs::diffBenchReports(baseline, current);
  EXPECT_TRUE(result.hasRegression());
}

TEST(BenchDiff, UnknownCoreCountAlsoDowngrades) {
  // baseline recorded before the field existed (0 = unknown) vs a current
  // report that has it: not comparable, downgrade rather than fail
  obs::BenchReportFile baseline = makeReport("equivalent", 0.5, 1000);
  baseline.records[0].metrics.gauges["sim.seconds.t4"] = 0.5;
  obs::BenchReportFile current = baseline;
  current.hardwareConcurrency = 4;
  current.records[0].metrics.gauges["sim.seconds.t4"] = 2.0;
  const obs::BenchDiffResult result = obs::diffBenchReports(baseline, current);
  EXPECT_FALSE(result.hasRegression());
}
