// Observability tests: metrics registry semantics, span nesting and Chrome
// trace export, the null-sink fast path, DD package profiling counters, and
// the flow's per-stage metrics rollup.

#include "dd/package.hpp"
#include "dd/stats.hpp"
#include "ec/flow.hpp"
#include "ec/simulation_checker.hpp"
#include "gen/qft.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/dd_simulator.hpp"
#include "util/json_parse.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>

using namespace qsimec;

namespace {

/// G: the 3-qubit example circuit from Fig. 1b of the paper.
ir::QuantumComputation paperCircuitG() {
  ir::QuantumComputation qc(3, "fig1b");
  qc.h(1);
  qc.cx(1, 0);
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
  qc.cx(1, 2);
  qc.swap(1, 2);
  qc.h(2);
  qc.cx(2, 1);
  qc.cx(1, 0);
  return qc;
}

/// G' with one wrong gate: a counterexample exists on (almost) every input.
ir::QuantumComputation paperCircuitBroken() {
  ir::QuantumComputation qc = paperCircuitGPrime();
  qc.x(0);
  return qc;
}

} // namespace

TEST(Metrics, RegistryRecordsValues) {
  obs::MetricsRegistry registry;
  registry.add("a.count");
  registry.add("a.count", 4);
  registry.set("g.value", 2.5);
  registry.set("g.value", 3.5); // last write wins
  registry.setMax("g.peak", 7.0);
  registry.setMax("g.peak", 5.0); // smaller: ignored
  registry.observe("h.obs", 1.0);
  registry.observe("h.obs", 3.0);

  const obs::MetricsSnapshot& s = registry.snapshot();
  EXPECT_EQ(s.counters.at("a.count"), 5U);
  EXPECT_DOUBLE_EQ(s.gauges.at("g.value"), 3.5);
  EXPECT_DOUBLE_EQ(s.gauges.at("g.peak"), 7.0);
  EXPECT_EQ(s.histograms.at("h.obs").count, 2U);
  EXPECT_DOUBLE_EQ(s.histograms.at("h.obs").sum, 4.0);
  EXPECT_DOUBLE_EQ(s.histograms.at("h.obs").min, 1.0);
  EXPECT_DOUBLE_EQ(s.histograms.at("h.obs").max, 3.0);
  EXPECT_DOUBLE_EQ(s.histograms.at("h.obs").mean(), 2.0);

  registry.clear();
  EXPECT_TRUE(registry.snapshot().empty());
}

TEST(Metrics, MergeSemantics) {
  obs::MetricsSnapshot a;
  a.counters["c"] = 2;
  a.gauges["g"] = 1.0;
  a.histograms["h"] = {2, 10.0, 4.0, 6.0};

  obs::MetricsSnapshot b;
  b.counters["c"] = 3;
  b.gauges["g"] = 9.0;
  b.histograms["h"] = {1, 1.0, 1.0, 1.0};

  a.merge(b);
  EXPECT_EQ(a.counters.at("c"), 5U);          // counters add
  EXPECT_DOUBLE_EQ(a.gauges.at("g"), 9.0);    // gauges overwrite
  EXPECT_EQ(a.histograms.at("h").count, 3U);  // histograms pool
  EXPECT_DOUBLE_EQ(a.histograms.at("h").sum, 11.0);
  EXPECT_DOUBLE_EQ(a.histograms.at("h").min, 1.0);
  EXPECT_DOUBLE_EQ(a.histograms.at("h").max, 6.0);
}

TEST(Metrics, SnapshotJsonIsValid) {
  obs::MetricsSnapshot s;
  s.counters["flow.runs"] = 3;
  s.gauges["total.seconds"] = 0.25;
  s.histograms["sim.fidelity"] = {2, 2.0, 1.0, 1.0};

  const std::string json = obs::toJson(s);
  EXPECT_TRUE(util::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"flow.runs\":3"), std::string::npos);
  EXPECT_NE(json.find("\"mean\""), std::string::npos);

  EXPECT_TRUE(util::isValidJson(obs::toJson(obs::MetricsSnapshot{})));
}

TEST(Metrics, HistogramBucketsAreExactAndMergeable) {
  obs::HistogramSnapshot h;
  // bucket boundaries are powers of two: 1.0 sits exactly on a boundary
  // (inclusive upper bound), 1.5 in the next bucket up
  h.observe(1.0);
  h.observe(1.5);
  h.observe(1.5);
  EXPECT_EQ(h.buckets[obs::HistogramSnapshot::bucketIndex(1.0)], 1U);
  EXPECT_EQ(h.buckets[obs::HistogramSnapshot::bucketIndex(1.5)], 2U);
  EXPECT_LT(obs::HistogramSnapshot::bucketIndex(1.0),
            obs::HistogramSnapshot::bucketIndex(1.5));
  EXPECT_DOUBLE_EQ(
      obs::HistogramSnapshot::bucketUpperBound(
          obs::HistogramSnapshot::bucketIndex(1.0)),
      1.0);
  // zero and negatives land in the first bucket; huge values in the +Inf
  // overflow bucket
  EXPECT_EQ(obs::HistogramSnapshot::bucketIndex(0.0), 0U);
  EXPECT_EQ(obs::HistogramSnapshot::bucketIndex(-3.0), 0U);
  EXPECT_EQ(obs::HistogramSnapshot::bucketIndex(1e300),
            obs::HistogramSnapshot::kBucketCount - 1);

  obs::HistogramSnapshot other;
  other.observe(1.5);
  h.mergeFrom(other);
  EXPECT_EQ(h.count, 4U);
  EXPECT_EQ(h.buckets[obs::HistogramSnapshot::bucketIndex(1.5)], 3U);

  std::uint64_t bucketSum = 0;
  for (const std::uint64_t b : h.buckets) {
    bucketSum += b;
  }
  EXPECT_EQ(bucketSum, h.count); // merge is lossless
}

TEST(Metrics, HistogramPercentilesClampToObservedRange) {
  obs::HistogramSnapshot h;
  for (int i = 0; i < 90; ++i) {
    h.observe(0.010); // bucket upper bound ~0.0156
  }
  for (int i = 0; i < 10; ++i) {
    h.observe(10.0);
  }
  // p50 falls in the dense low bucket: bucket-resolution answer, clamped
  // below by min
  const double p50 = h.percentile(0.50);
  EXPECT_GE(p50, h.min);
  EXPECT_LE(p50, 0.016);
  // p99 reaches the sparse top bucket and clamps to the observed max
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 10.0);
  EXPECT_GE(h.percentile(0.0), h.min);
  EXPECT_LE(h.percentile(0.0), 0.016);
  EXPECT_DOUBLE_EQ(obs::HistogramSnapshot{}.percentile(0.5), 0.0);

  const std::string json = obs::toJson(h);
  EXPECT_TRUE(util::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[["), std::string::npos);
}

TEST(JsonLint, AcceptsAndRejects) {
  EXPECT_TRUE(util::isValidJson("{}"));
  EXPECT_TRUE(util::isValidJson(R"({"a":[1,2.5e-3,"x\n",true,null]})"));
  EXPECT_TRUE(util::isValidJson(" 42 "));
  EXPECT_FALSE(util::isValidJson(""));
  EXPECT_FALSE(util::isValidJson("{"));
  EXPECT_FALSE(util::isValidJson("{'a':1}"));
  EXPECT_FALSE(util::isValidJson("{\"a\":1,}"));
  EXPECT_FALSE(util::isValidJson("01"));
  EXPECT_FALSE(util::isValidJson("{\"a\":1} trailing"));
}

TEST(Tracer, SpansNestAndContain) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan outer(&tracer, "outer", "test");
    outer.arg("label", std::string_view("root"));
    {
      obs::ScopedSpan inner(&tracer, "inner", "test");
      inner.arg("index", std::uint64_t{7});
    }
    obs::ScopedSpan sibling(&tracer, "sibling", "test");
  }
  ASSERT_EQ(tracer.events().size(), 3U);
  EXPECT_EQ(tracer.openSpans(), 0);

  const obs::SpanEvent& outer = tracer.events()[0];
  const obs::SpanEvent& inner = tracer.events()[1];
  const obs::SpanEvent& sibling = tracer.events()[2];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(sibling.depth, 1);

  // begin-order monotonicity and interval containment
  EXPECT_LE(outer.tsMicros, inner.tsMicros);
  EXPECT_LE(inner.tsMicros, sibling.tsMicros);
  EXPECT_GE(outer.durMicros, 0.0);
  EXPECT_GE(inner.durMicros, 0.0);
  EXPECT_LE(inner.tsMicros + inner.durMicros,
            outer.tsMicros + outer.durMicros);
  EXPECT_LE(sibling.tsMicros + sibling.durMicros,
            outer.tsMicros + outer.durMicros);

  ASSERT_EQ(inner.args.size(), 1U);
  EXPECT_EQ(inner.args[0].key, "index");
  EXPECT_EQ(inner.args[0].value, "7");
  EXPECT_FALSE(inner.args[0].quoted);
}

TEST(Tracer, ChromeTraceJsonIsValid) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan span(&tracer, "flow", "flow");
    span.arg("outcome", std::string_view("he said \"equivalent\""));
    obs::ScopedSpan child(&tracer, "stage", "stage");
  }
  const std::string json = tracer.toChromeTraceJson();
  EXPECT_TRUE(util::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\\\"equivalent\\\""), std::string::npos);
}

TEST(Tracer, OpenSpansExportWithNonNegativeDuration) {
  obs::Tracer tracer;
  const std::size_t index = tracer.beginSpan("open", "test");
  EXPECT_EQ(tracer.openSpans(), 1);
  const std::string json = tracer.toChromeTraceJson();
  EXPECT_TRUE(util::isValidJson(json)) << json;
  EXPECT_EQ(json.find("\"dur\":-"), std::string::npos);
  tracer.endSpan(index);
  EXPECT_EQ(tracer.openSpans(), 0);
}

TEST(Tracer, MidFlightMultiThreadExportIsValidWithStableTids) {
  // Satellite of the observability PR: exporting while spans are still open
  // on several threads must yield valid JSON, and each thread must keep one
  // stable tid across all of its spans.
  obs::Tracer tracer;
  const std::size_t mainSpan = tracer.beginSpan("main.open", "test");

  std::string midFlightJson;
  {
    std::jthread worker([&tracer, &midFlightJson] {
      obs::ScopedSpan first(&tracer, "worker.first", "test");
      {
        obs::ScopedSpan nested(&tracer, "worker.nested", "test");
      }
      // export while this thread's span and the main thread's span are open
      midFlightJson = tracer.toChromeTraceJson();
    });
  }
  {
    obs::ScopedSpan second(&tracer, "main.second", "test");
  }
  tracer.endSpan(mainSpan);

  EXPECT_TRUE(util::isValidJson(midFlightJson)) << midFlightJson;
  EXPECT_EQ(midFlightJson.find("\"dur\":-"), std::string::npos);
  EXPECT_TRUE(util::isValidJson(tracer.toChromeTraceJson()));
  EXPECT_EQ(tracer.openSpans(), 0);

  // tids: one per thread, stable across that thread's spans
  int mainTid = -1;
  int workerTid = -1;
  for (const obs::SpanEvent& event : tracer.events()) {
    if (event.name.rfind("main.", 0) == 0) {
      EXPECT_TRUE(mainTid == -1 || mainTid == event.tid);
      mainTid = event.tid;
    } else {
      EXPECT_TRUE(workerTid == -1 || workerTid == event.tid);
      workerTid = event.tid;
    }
  }
  EXPECT_NE(mainTid, -1);
  EXPECT_NE(workerTid, -1);
  EXPECT_NE(mainTid, workerTid);
  // the worker's spans nest on the worker's own lane
  for (const obs::SpanEvent& event : tracer.events()) {
    if (event.name == "worker.first") {
      EXPECT_EQ(event.depth, 0);
    }
    if (event.name == "worker.nested") {
      EXPECT_EQ(event.depth, 1);
    }
  }
}

TEST(Tracer, CounterEventsExportAsChromeCounterTrack) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan span(&tracer, "flow", "flow");
    tracer.counter("dd.nodes_live", 128.0);
    tracer.counter("dd.nodes_live", 256.5);
  }
  tracer.counter("dd.nodes_live",
                 std::numeric_limits<double>::quiet_NaN()); // dropped

  ASSERT_EQ(tracer.counterEvents().size(), 2U);
  EXPECT_EQ(tracer.counterEvents()[0].name, "dd.nodes_live");
  EXPECT_DOUBLE_EQ(tracer.counterEvents()[0].value, 128.0);
  EXPECT_LE(tracer.counterEvents()[0].tsMicros,
            tracer.counterEvents()[1].tsMicros);

  const std::string json = tracer.toChromeTraceJson();
  EXPECT_TRUE(util::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":256.5}"), std::string::npos);
}

TEST(Tracer, NullSinkRecordsNothing) {
  // a null tracer must be safe for every ScopedSpan member
  obs::ScopedSpan span(nullptr, "noop", "test");
  span.arg("k", std::string_view("v"));
  span.arg("d", 1.5);
  span.arg("u", std::uint64_t{2});

  // a null context must be safe for every helper
  const obs::Context context;
  EXPECT_FALSE(context.active());
  context.count("c");
  context.gauge("g", 1.0);
  context.observe("h", 1.0);

  // and an instrumented checker run without sinks must behave identically
  const ec::SimulationChecker checker;
  const auto result = checker.run(paperCircuitG(), paperCircuitGPrime());
  EXPECT_EQ(result.equivalence, ec::Equivalence::ProbablyEquivalent);
}

TEST(PackageStats, ProfilesSimulation) {
  const ir::QuantumComputation qc = gen::qft(6);
  dd::Package pkg(qc.qubits());
  const auto out = sim::simulate(qc, pkg.makeBasisState(5), pkg);
  ASSERT_NE(out.p, nullptr);

  const dd::PackageStats stats = pkg.stats();
  EXPECT_GT(stats.vNodesPeakLive, 0U);
  EXPECT_GE(stats.vNodesPeakLive, stats.vNodesLive);
  EXPECT_GE(stats.vNodesAllocated, stats.vNodesPeakLive);
  EXPECT_GT(stats.peakNodesLive(), 0U);
  EXPECT_GT(stats.vUnique.lookups, 0U);
  EXPECT_GT(stats.multMV.lookups, 0U);
  EXPECT_GE(stats.multMV.hitRate(), 0.0);
  EXPECT_LE(stats.multMV.hitRate(), 1.0);

  obs::MetricsSnapshot snapshot;
  dd::appendPackageStats(snapshot, "sim.dd", stats);
  EXPECT_EQ(snapshot.counters.at("sim.dd.v_nodes_peak_live"),
            stats.vNodesPeakLive);
  EXPECT_EQ(snapshot.counters.at("sim.dd.unique_lookups"),
            stats.vUnique.lookups + stats.mUnique.lookups);
  EXPECT_TRUE(snapshot.gauges.contains("sim.dd.compute_hit_rate"));
}

TEST(PackageStats, GarbageCollectionIsTimedAndTraced) {
  obs::Tracer tracer;
  dd::Package pkg(3);
  pkg.setTracer(&tracer);
  // churn through enough transient vectors to trigger a forced collection
  const ir::QuantumComputation qc = paperCircuitG();
  for (int round = 0; round < 4; ++round) {
    const auto out = sim::simulate(qc, pkg.makeBasisState(0), pkg);
    ASSERT_NE(out.p, nullptr);
    pkg.garbageCollect(/*force=*/true);
  }
  pkg.setTracer(nullptr);

  const dd::PackageStats stats = pkg.stats();
  EXPECT_GE(stats.gcRuns, 4U);
  EXPECT_GE(stats.gcSeconds, 0.0);
  EXPECT_GE(stats.gcSeconds, stats.gcMaxPauseSeconds);

  bool sawGcSpan = false;
  for (const obs::SpanEvent& event : tracer.events()) {
    sawGcSpan = sawGcSpan || event.name == "dd.gc";
  }
  EXPECT_TRUE(sawGcSpan);
}

// The FlowMetrics tests pin the general simulation + DD path: the paper
// circuits are Clifford-only, so the prescreen (which would route them to
// the stabilizer tier) is disabled here.
ec::FlowConfiguration generalFlowConfig() {
  ec::FlowConfiguration config;
  config.prescreen.enabled = false;
  return config;
}

TEST(FlowMetrics, RollupOnEquivalentPair) {
  const ec::EquivalenceCheckingFlow flow(generalFlowConfig());
  const ec::FlowResult result =
      flow.run(paperCircuitG(), paperCircuitGPrime());
  EXPECT_EQ(result.equivalence, ec::Equivalence::Equivalent);

  const obs::MetricsSnapshot& m = result.metrics;
  EXPECT_EQ(m.counters.at("simulation.runs"), result.simulations);
  EXPECT_GT(m.counters.at("simulation.dd.apply_ops"), 0U);
  EXPECT_GT(m.counters.at("complete.dd.apply_ops"), 0U);
  EXPECT_GT(m.counters.at("simulation.dd.nodes_peak_live"), 0U);
  EXPECT_DOUBLE_EQ(m.gauges.at("total.seconds"), result.totalSeconds());
  EXPECT_DOUBLE_EQ(m.gauges.at("preflight.seconds"), result.preflightSeconds);
  // preflight always runs and is part of the total
  EXPECT_GT(result.preflightSeconds, 0.0);
  EXPECT_GE(result.totalSeconds(), result.preflightSeconds);
}

TEST(FlowMetrics, EarlyExitCounterexampleStillReportsSimulationCost) {
  const ec::EquivalenceCheckingFlow flow(generalFlowConfig());
  const ec::FlowResult result =
      flow.run(paperCircuitG(), paperCircuitBroken());
  ASSERT_EQ(result.equivalence, ec::Equivalence::NotEquivalent);
  ASSERT_TRUE(result.counterexample.has_value());

  // regression: the early counterexample exit must not drop the stage
  // timings or the metrics rollup
  EXPECT_GT(result.simulationSeconds, 0.0);
  EXPECT_GE(result.totalSeconds(), result.simulationSeconds);
  EXPECT_EQ(result.metrics.counters.at("flow.counterexample"), 1U);
  EXPECT_EQ(result.metrics.counters.at("simulation.runs"),
            result.simulations);
  EXPECT_GT(result.metrics.counters.at("simulation.dd.apply_ops"), 0U);
  // the complete check never ran
  EXPECT_FALSE(result.metrics.counters.contains("complete.dd.apply_ops"));
}

TEST(FlowMetrics, ContextSinksReceiveSpansAndMetrics) {
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  const obs::Context context{&tracer, &registry};

  const ec::EquivalenceCheckingFlow flow(generalFlowConfig());
  const ec::FlowResult result =
      flow.run(paperCircuitG(), paperCircuitGPrime(), context);
  EXPECT_EQ(result.equivalence, ec::Equivalence::Equivalent);

  // the registry mirrors the result's rollup (plus per-run observations)
  EXPECT_EQ(registry.snapshot().counters.at("simulation.runs"),
            result.simulations);
  EXPECT_EQ(
      registry.snapshot().histograms.at("simulation.fidelity_deviation").count,
      result.simulations);

  ASSERT_FALSE(tracer.events().empty());
  const obs::SpanEvent& root = tracer.events()[0];
  EXPECT_EQ(root.name, "flow");
  EXPECT_EQ(root.depth, 0);
  std::size_t stimulusSpans = 0;
  bool sawSimChecker = false;
  bool sawCompleteChecker = false;
  for (const obs::SpanEvent& event : tracer.events()) {
    stimulusSpans += event.name == "sim.stimulus" ? 1U : 0U;
    sawSimChecker = sawSimChecker || event.name == "checker.simulation";
    sawCompleteChecker =
        sawCompleteChecker || event.name == "checker.alternating";
    // every span is contained in the root flow span
    EXPECT_GE(event.tsMicros, root.tsMicros);
    EXPECT_LE(event.tsMicros + event.durMicros,
              root.tsMicros + root.durMicros + 1e-3);
  }
  EXPECT_EQ(stimulusSpans, result.simulations);
  EXPECT_TRUE(sawSimChecker);
  EXPECT_TRUE(sawCompleteChecker);
}
