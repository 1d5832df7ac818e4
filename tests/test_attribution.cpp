// The per-gate cost attribution profiler and its observability surface.
//
// The load-bearing properties: (1) per-gate samples are exact — node deltas
// sum to the aggregate delta and bound the peak-live trajectory; (2) the
// structural counters are a pure function of the logical run sequence, so
// the redacted serialization (wall nanos and the address-dependent cache
// counters dropped) is byte-identical across thread counts; (3)
// attribution never changes a verdict — disabling it leaves
// the flow result untouched; (4) the OpenMetrics exposition and the run
// report built from attr.* journal events round-trip through their own
// validators/parsers.

#include "journal_capture.hpp"

#include "dd/attribution.hpp"
#include "dd/package.hpp"
#include "ec/alternating_checker.hpp"
#include "ec/attribution.hpp"
#include "ec/flow.hpp"
#include "ec/serialize.hpp"
#include "ec/simulation_checker.hpp"
#include "gen/qft.hpp"
#include "gen/random_circuits.hpp"
#include "obs/context.hpp"
#include "obs/journal.hpp"
#include "obs/openmetrics.hpp"
#include "obs/run_report.hpp"
#include "sim/dd_simulator.hpp"
#include "transform/error_injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

namespace {

using namespace qsimec;

TEST(AttributionCollector, SamplesSumToAggregates) {
  const auto qc = gen::qft(5);
  dd::Package pkg(qc.qubits());
  dd::AttributionCollector collector(pkg);
  const auto out = sim::simulate(qc, pkg.makeBasisState(3), pkg, nullptr,
                                 &collector, dd::AttrSide::Left);
  ASSERT_GT(dd::Package::size(out), 0U);

  const dd::AttributionData data = collector.take();
  ASSERT_FALSE(data.empty());

  std::uint64_t applications = 0;
  std::int64_t deltaSum = 0;
  std::int64_t live = data.nodesLiveStart;
  std::int64_t maxPositivePrefix = data.nodesLiveStart;
  for (const dd::GateCostSample& sample : data.samples) {
    EXPECT_EQ(sample.side, dd::AttrSide::Left);
    EXPECT_GT(sample.applications, 0U);
    applications += sample.applications;
    deltaSum += sample.nodesDelta;
    live += std::max<std::int64_t>(sample.nodesDelta, 0);
    maxPositivePrefix = std::max(maxPositivePrefix, live);
  }
  EXPECT_EQ(applications, data.gatesApplied);
  // every applied gate contributed exactly one delta: the samples tile the
  // whole aggregate, nothing double-counted, nothing dropped
  EXPECT_EQ(deltaSum, data.nodesDeltaTotal);
  // the peak-live trajectory is bracketed by the per-gate deltas: at least
  // the start, at most the sum of all growth steps
  EXPECT_GE(static_cast<std::int64_t>(data.peakNodesLive),
            data.nodesLiveStart);
  EXPECT_LE(static_cast<std::int64_t>(data.peakNodesLive),
            maxPositivePrefix);
  // take() resets: a second take is empty
  EXPECT_TRUE(collector.take().empty());
}

TEST(AttributionCollector, MergePoolsPerGateSamples) {
  const auto qc = gen::qft(4);
  dd::AttributionData merged;
  std::uint64_t totalGates = 0;
  for (int round = 0; round < 3; ++round) {
    dd::Package pkg(qc.qubits());
    dd::AttributionCollector collector(pkg);
    (void)sim::simulate(qc, pkg.makeBasisState(round), pkg, nullptr,
                        &collector, dd::AttrSide::Right);
    dd::AttributionData data = collector.take();
    totalGates += data.gatesApplied;
    merged.mergeFrom(data);
  }
  EXPECT_EQ(merged.gatesApplied, totalGates);
  // identical circuit each round: the merged per-gate table has one row
  // per gate index with applications == 3
  for (const dd::GateCostSample& sample : merged.samples) {
    EXPECT_EQ(sample.applications, 3U);
    EXPECT_EQ(sample.side, dd::AttrSide::Right);
  }
  const std::int64_t deltaSum = std::accumulate(
      merged.samples.begin(), merged.samples.end(), std::int64_t{0},
      [](std::int64_t acc, const dd::GateCostSample& s) {
        return acc + s.nodesDelta;
      });
  EXPECT_EQ(deltaSum, merged.nodesDeltaTotal);
}

TEST(AttributionProfile, HotspotsAreRankedAndCapped) {
  const auto g = gen::qft(5);
  const auto gPrime = gen::qftAlternative(5);
  ec::AlternatingConfiguration config;
  config.attribution.topK = 4;
  const ec::AlternatingChecker checker(config);
  const ec::CheckResult result = checker.run(g, gPrime);
  ASSERT_TRUE(result.attribution.has_value());

  const ec::AttributionProfile& profile = *result.attribution;
  EXPECT_EQ(profile.checker, "alternating");
  EXPECT_GT(profile.gatesApplied, 0U);
  EXPECT_LE(profile.hotspots.size(), 4U);
  // ranking is nodesDelta-first and wall-time-free (determinism)
  for (std::size_t i = 0; i + 1 < profile.hotspots.size(); ++i) {
    EXPECT_GE(profile.hotspots[i].nodesDelta,
              profile.hotspots[i + 1].nodesDelta);
  }
  // the alternating checker consumed gates from both sides
  EXPECT_GT(profile.advancesLeft, 0U);
  EXPECT_GT(profile.advancesRight, 0U);
  EXPECT_EQ(profile.nodesDeltaLeft + profile.nodesDeltaRight,
            profile.nodesDeltaTotal);
}

TEST(AttributionProfile, PortfolioStimuliCoverEveryRun) {
  const auto g = gen::randomCircuit(5, 30, 11);
  ec::SimulationConfiguration config;
  config.maxSimulations = 6;
  config.numThreads = 3;
  config.seed = 5;
  const ec::SimulationChecker checker(config);
  const ec::CheckResult result = checker.run(g, g);
  ASSERT_TRUE(result.attribution.has_value());

  const ec::AttributionProfile& profile = *result.attribution;
  EXPECT_EQ(profile.checker, "simulation");
  // equivalent pair: every configured run completes, so the per-stimulus
  // table covers the full logical sequence 0..r-1
  ASSERT_EQ(profile.stimuli.size(), 6U);
  for (std::size_t i = 0; i < profile.stimuli.size(); ++i) {
    EXPECT_EQ(profile.stimuli[i].runIndex, i);
    EXPECT_GT(profile.stimuli[i].gatesApplied, 0U);
  }
}

TEST(AttributionProfile, DisabledChangesNothingButTheProfile) {
  const auto g = gen::randomCircuit(5, 40, 3);
  tf::ErrorInjector injector(3);
  const auto injected = injector.injectRandom(g);
  const ec::SerializeOptions verdictOnly{.verdictOnly = true};

  for (const auto* gPrime : {&g, &injected.circuit}) {
    ec::FlowConfiguration enabled;
    enabled.simulation.seed = 9;
    ec::FlowConfiguration disabled = enabled;
    disabled.simulation.attribution.enabled = false;
    disabled.complete.attribution.enabled = false;

    const ec::FlowResult on =
        ec::EquivalenceCheckingFlow(enabled).run(g, *gPrime);
    const ec::FlowResult off =
        ec::EquivalenceCheckingFlow(disabled).run(g, *gPrime);

    EXPECT_EQ(on.equivalence, off.equivalence);
    EXPECT_EQ(on.simulations, off.simulations);
    EXPECT_EQ(on.counterexample.has_value(), off.counterexample.has_value());
    if (on.counterexample && off.counterexample) {
      EXPECT_EQ(on.counterexample->input, off.counterexample->input);
    }
    EXPECT_EQ(ec::toJson(on, verdictOnly), ec::toJson(off, verdictOnly));
    EXPECT_FALSE(off.simulationAttribution.has_value());
    EXPECT_FALSE(off.completeAttribution.has_value());
  }
}

TEST(AttributionProfile, RedactedJsonIsIdenticalAcrossThreadCounts) {
  const auto g = gen::randomCircuit(5, 40, 21);
  const ec::SerializeOptions redact{.redactProfile = true};
  std::string reference;
  for (const unsigned threads : {1U, 2U, 8U}) {
    ec::FlowConfiguration config;
    config.simulation.seed = 31;
    config.simulation.numThreads = threads;
    // identical circuits resolve statically otherwise — force the general
    // simulation + DD path so both attribution profiles are exercised
    config.prescreen.enabled = false;
    const ec::FlowResult result =
        ec::EquivalenceCheckingFlow(config).run(g, g);
    ASSERT_TRUE(result.simulationAttribution.has_value());
    const std::string json = ec::toJson(result, redact);
    // the redacted serialization still carries the attribution profiles —
    // the byte comparison below covers them, not just the verdict
    EXPECT_NE(json.find("\"simulation_attribution\""), std::string::npos);
    EXPECT_EQ(json.find("wall_nanos"), std::string::npos);
    // cache counters follow the node address layout (compute/unique tables
    // hash pointers), so redaction must drop them too
    EXPECT_EQ(json.find("compute_lookups"), std::string::npos);
    EXPECT_EQ(json.find("unique_lookups"), std::string::npos);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "threads=" << threads;
    }
  }
}

TEST(OpenMetrics, RenderedExpositionValidatesCleanly) {
  obs::MetricsRegistry registry;
  registry.add("simulation.runs", 6);
  registry.add("complete.dd.apply_ops", 123);
  registry.set("dd.nodes_live", 42.5);
  for (const double v : {0.001, 0.002, 0.004, 0.5, 3.0}) {
    registry.observe("pair.seconds", v);
  }

  const std::string text = obs::renderOpenMetrics(registry.snapshot());
  EXPECT_NE(text.find("qsimec_simulation_runs_total 6"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qsimec_pair_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 5"), std::string::npos);
  EXPECT_NE(text.find("# EOF"), std::string::npos);

  const std::vector<obs::OpenMetricsIssue> issues =
      obs::validateOpenMetrics(text);
  for (const obs::OpenMetricsIssue& issue : issues) {
    ADD_FAILURE() << "line " << issue.line << ": " << issue.message;
  }
}

TEST(OpenMetrics, ValidatorRejectsBrokenExpositions) {
  // missing # EOF
  EXPECT_FALSE(obs::validateOpenMetrics("# TYPE a counter\na_total 1\n")
                   .empty());
  // counter sample without the _total suffix
  EXPECT_FALSE(
      obs::validateOpenMetrics("# TYPE a counter\na 1\n# EOF\n").empty());
  // sample without TYPE metadata
  EXPECT_FALSE(obs::validateOpenMetrics("b 1\n# EOF\n").empty());
  // histogram with non-cumulative buckets
  EXPECT_FALSE(obs::validateOpenMetrics("# TYPE h histogram\n"
                                        "h_bucket{le=\"1\"} 5\n"
                                        "h_bucket{le=\"+Inf\"} 3\n"
                                        "h_sum 1\nh_count 3\n# EOF\n")
                   .empty());
  // content after EOF
  EXPECT_FALSE(obs::validateOpenMetrics("# EOF\nx 1\n").empty());
  // a clean minimal exposition passes
  EXPECT_TRUE(obs::validateOpenMetrics("# TYPE a counter\n# HELP a help\n"
                                       "a_total 1\n# EOF\n")
                  .empty());
}

TEST(OpenMetrics, SanitizesDottedAndLeadingDigitNames) {
  EXPECT_EQ(obs::sanitizeMetricName("simulation.dd.apply_ops"),
            "simulation_dd_apply_ops");
  EXPECT_EQ(obs::sanitizeMetricName("0weird"), "_0weird");
  EXPECT_EQ(obs::sanitizeMetricName(""), "_");
}

TEST(RunReport, FoldsRealJournalIntoHotspotsAndStages) {
  const auto g = gen::qft(5);
  const auto gPrime = gen::qftAlternative(5);
  testutil::CapturedJournal captured;
  const obs::Context obsContext = captured.context();

  ec::FlowConfiguration config;
  config.simulation.maxSimulations = 3;
  config.prescreen.enabled = false; // route through both DD checkers
  const ec::FlowResult result =
      ec::EquivalenceCheckingFlow(config).run(g, gPrime, obsContext);
  ASSERT_TRUE(result.completeAttribution.has_value());

  const obs::RunReport report = obs::parseRunJournal(captured.lines());
  EXPECT_EQ(report.malformedLines, 0U);
  EXPECT_GT(report.events, 0U);
  EXPECT_FALSE(report.interleaved);
  EXPECT_FALSE(report.stages.empty());
  EXPECT_EQ(report.verdictCounts.count("equivalent"), 1U);
  ASSERT_FALSE(report.hotspots.empty());
  // hotspots aggregate attr.hotspot events; ranking is nodesDelta-first
  for (std::size_t i = 0; i + 1 < report.hotspots.size(); ++i) {
    EXPECT_GE(report.hotspots[i].nodesDelta,
              report.hotspots[i + 1].nodesDelta);
  }

  // GC pauses are a duration family of their own
  const auto gc = report.familySeconds.find("dd.gc");
  ASSERT_NE(gc, report.familySeconds.end());
  EXPECT_EQ(gc->second.count, report.eventCounts.at("dd.gc"));

  const std::string markdown = obs::renderRunReport(report);
  const auto occurrences = [&markdown](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = markdown.find(needle); at != std::string::npos;
         at = markdown.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  for (const char* heading :
       {"## Stage waterfall\n", "## Tier routing (flow seconds)\n",
        "## Verdicts\n", "## Hotspot gates\n",
        "## Latency by event family (seconds)\n",
        "## Stimulus fidelity deviations\n", "## Event counts\n"}) {
    EXPECT_EQ(occurrences(heading), 1U) << heading;
  }
  EXPECT_EQ(occurrences("\n## "), 7U) << markdown;
  EXPECT_EQ(occurrences("\n| dd.gc | "), 2U) << markdown; // latency + count
  obs::RunReportOptions html;
  html.format = obs::RunReportOptions::Format::Html;
  EXPECT_NE(obs::renderRunReport(report, html).find("<!DOCTYPE html>"),
            std::string::npos);
}

TEST(RunReport, JournalStatsGroupLatenciesByFamilyAndTier) {
  const std::vector<std::string> lines = {
      R"({"ts_micros":1,"level":"info","event":"flow.start"})",
      R"({"ts_micros":2,"level":"info","event":"flow.verdict",)"
      R"("outcome":"equivalent","tier":"general","total_seconds":0.25})",
      R"({"ts_micros":3,"level":"info","event":"svc.pair.verdict",)"
      R"("outcome":"equivalent","seconds":0.125})",
      "not json at all",
      "",
  };
  EXPECT_TRUE(obs::isRunJournal(lines));
  const obs::RunReport report = obs::parseRunJournal(lines);
  EXPECT_EQ(report.events, 3U);
  EXPECT_EQ(report.malformedLines, 1U);

  const auto family = report.familySeconds.find("svc.pair.verdict");
  ASSERT_NE(family, report.familySeconds.end());
  EXPECT_EQ(family->second.count, 1U);
  EXPECT_DOUBLE_EQ(family->second.sum, 0.125);

  ASSERT_EQ(report.tierSeconds.size(), 1U);
  EXPECT_EQ(report.tierSeconds.begin()->first, "general");
  EXPECT_DOUBLE_EQ(report.tierSeconds.begin()->second.sum, 0.25);

  const std::string rendered = obs::renderRunReport(report);
  EXPECT_NE(rendered.find("| tier | count | mean | p50 | p90 | p99 |"),
            std::string::npos);
  EXPECT_NE(rendered.find("| general | 1 | 0.25 |"), std::string::npos);
}

} // namespace
