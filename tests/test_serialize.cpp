// JSON serialization tests: structure, escaping, and value fidelity.

#include "ec/serialize.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

#include <gtest/gtest.h>

using namespace qsimec;

TEST(JsonWriter, ObjectsAndFields) {
  util::JsonWriter json;
  json.beginObject()
      .field("name", "qsimec")
      .field("count", 42)
      .field("ratio", 0.5)
      .field("flag", true)
      .rawField("nested", "null")
      .endObject();
  EXPECT_EQ(json.str(), "{\"name\":\"qsimec\",\"count\":42,\"ratio\":0.5,"
                        "\"flag\":true,\"nested\":null}");
}

TEST(JsonWriter, EscapesStrings) {
  util::JsonWriter json;
  json.beginObject().field("s", "a\"b\\c\nd\te").endObject();
  EXPECT_EQ(json.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  util::JsonWriter json;
  json.beginObject()
      .field("inf", std::numeric_limits<double>::infinity())
      .field("nan", std::numeric_limits<double>::quiet_NaN())
      .endObject();
  EXPECT_EQ(json.str(), "{\"inf\":null,\"nan\":null}");
}

TEST(Serialize, CheckResultRoundTripsFields) {
  ec::CheckResult result;
  result.equivalence = ec::Equivalence::NotEquivalent;
  result.seconds = 1.5;
  result.simulations = 3;
  result.counterexample = ec::Counterexample{7, 0.25};
  const std::string json = toJson(result);
  EXPECT_NE(json.find("\"equivalence\":\"not equivalent\""), std::string::npos);
  EXPECT_NE(json.find("\"simulations\":3"), std::string::npos);
  EXPECT_NE(json.find("\"input\":7"), std::string::npos);
  EXPECT_NE(json.find("\"fidelity\":0.25"), std::string::npos);
}

TEST(Serialize, FlowResultWithoutCounterexample) {
  ec::FlowResult result;
  result.equivalence = ec::Equivalence::ProbablyEquivalent;
  result.simulations = 10;
  const std::string json = toJson(result);
  EXPECT_NE(json.find("\"equivalence\":\"probably equivalent\""),
            std::string::npos);
  EXPECT_NE(json.find("\"counterexample\":null"), std::string::npos);
}

TEST(Serialize, CheckResultCarriesDDSummary) {
  ec::CheckResult result;
  result.ddStats.vNodesPeakLive = 40;
  result.ddStats.mNodesPeakLive = 2;
  result.ddStats.gcRuns = 3;
  const std::string json = toJson(result);
  EXPECT_TRUE(util::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"dd\":{"), std::string::npos);
  EXPECT_NE(json.find("\"peak_nodes_live\":42"), std::string::npos);
  EXPECT_NE(json.find("\"gc_runs\":3"), std::string::npos);
}

TEST(Serialize, FlowResultCarriesMetricsAndPreflight) {
  ec::FlowResult result;
  result.preflightSeconds = 0.5;
  result.simulationSeconds = 1.0;
  result.metrics.counters["simulation.runs"] = 10;
  result.metrics.gauges["total.seconds"] = 1.5;
  const std::string json = toJson(result);
  EXPECT_TRUE(util::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"preflight_seconds\":0.5"), std::string::npos);
  // totalSeconds() folds the preflight stage in
  EXPECT_NE(json.find("\"total_seconds\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(json.find("\"simulation.runs\":10"), std::string::npos);
}
