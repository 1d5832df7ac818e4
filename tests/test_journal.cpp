// Journal and Sampler tests: every committed line is valid JSON with the
// deterministic header/key order, the null path records nothing, the flow
// and the DD package emit the documented events, and the sampler's
// time-series/CSV/counter-mirror exports hold together.

#include "dd/package.hpp"
#include "ec/flow.hpp"
#include "gen/qft.hpp"
#include "obs/context.hpp"
#include "obs/sampler.hpp"
#include "sim/dd_simulator.hpp"
#include "util/json_parse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <latch>
#include <sstream>
#include <thread>
#include <vector>

using namespace qsimec;

namespace {

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

ir::QuantumComputation paperCircuitBroken() {
  ir::QuantumComputation qc = paperCircuitG();
  qc.x(0);
  return qc;
}

} // namespace

TEST(Journal, LinesAreValidJsonWithDeterministicKeyOrder) {
  obs::Journal journal;
  journal.event(obs::JournalLevel::Info, "unit.test")
      .str("name", "qft")
      .num("qubits", std::uint64_t{8})
      .num("fidelity", 0.5)
      .flag("ok", true);
  journal.event(obs::JournalLevel::Warn, "esc\"api\ng").str("k", "a\\b\tc");

  const std::vector<std::string> lines = journal.lines();
  ASSERT_EQ(lines.size(), 2U);
  for (const std::string& line : lines) {
    EXPECT_TRUE(util::isValidJson(line)) << line;
  }

  // fixed header first, then caller fields in call order
  const util::JsonValue first = util::parseJson(lines[0]);
  const auto& members = first.members();
  ASSERT_EQ(members.size(), 7U);
  EXPECT_EQ(members[0].first, "ts_micros");
  EXPECT_EQ(members[1].first, "level");
  EXPECT_EQ(members[2].first, "event");
  EXPECT_EQ(members[3].first, "name");
  EXPECT_EQ(members[4].first, "qubits");
  EXPECT_EQ(members[5].first, "fidelity");
  EXPECT_EQ(members[6].first, "ok");
  EXPECT_EQ(first.at("level").asString(), "info");
  EXPECT_EQ(first.at("event").asString(), "unit.test");
  EXPECT_EQ(first.at("qubits").asUint(), 8U);
  EXPECT_TRUE(first.at("ok").asBool());
  EXPECT_GE(first.at("ts_micros").asNumber(), 0.0);

  // escapes round-trip through the parser
  const util::JsonValue second = util::parseJson(lines[1]);
  EXPECT_EQ(second.at("event").asString(), "esc\"api\ng");
  EXPECT_EQ(second.at("k").asString(), "a\\b\tc");
}

TEST(Journal, TimestampsAreMonotonic) {
  obs::Journal journal;
  for (int i = 0; i < 5; ++i) {
    journal.event(obs::JournalLevel::Debug, "tick")
        .num("i", static_cast<std::uint64_t>(i));
  }
  const std::vector<std::string> lines = journal.lines();
  double previous = -1.0;
  for (const std::string& line : lines) {
    const double ts = util::parseJson(line).at("ts_micros").asNumber();
    EXPECT_GE(ts, previous);
    previous = ts;
  }
}

TEST(Journal, NullJournalRecordsNothingAndIsSafe) {
  obs::JournalEvent event(nullptr, obs::JournalLevel::Error, "noop");
  event.str("s", "v").num("d", 1.5).num("u", std::uint64_t{2}).flag("b", true);

  const obs::Context context;
  context.log(obs::JournalLevel::Info, "also.noop").num("k", 1.0);
}

TEST(Journal, StreamMirrorsCommittedLines) {
  std::ostringstream sink;
  obs::Journal journal;
  journal.streamTo(&sink);
  (void)journal.event(obs::JournalLevel::Info, "one");
  (void)journal.event(obs::JournalLevel::Info, "two");
  journal.streamTo(nullptr);
  // after the detach: recorded but not mirrored
  (void)journal.event(obs::JournalLevel::Info, "three");

  EXPECT_EQ(journal.lineCount(), 3U);
  std::istringstream lines(sink.str());
  std::string line;
  std::size_t streamed = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(util::isValidJson(line)) << line;
    ++streamed;
  }
  EXPECT_EQ(streamed, 2U);
  EXPECT_EQ(journal.dump(),
            journal.lines()[0] + "\n" + journal.lines()[1] + "\n" +
                journal.lines()[2] + "\n");
}

TEST(Journal, StreamOnlyJournalKeepsNoLines) {
  std::ostringstream sink;
  obs::Journal journal(/*keepLines=*/false);
  journal.streamTo(&sink);
  (void)journal.event(obs::JournalLevel::Info, "one");
  (void)journal.event(obs::JournalLevel::Info, "two");
  journal.streamTo(nullptr);

  EXPECT_EQ(journal.lineCount(), 0U);
  EXPECT_TRUE(journal.dump().empty());
  const std::string streamed = sink.str();
  EXPECT_EQ(std::count(streamed.begin(), streamed.end(), '\n'), 2);
}

TEST(Journal, ConcurrentCommitsStayLineAtomic) {
  obs::Journal journal;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&journal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          journal.event(obs::JournalLevel::Info, "worker")
              .num("thread", static_cast<std::uint64_t>(t))
              .num("i", static_cast<std::uint64_t>(i));
        }
      });
    }
  }
  const std::vector<std::string> lines = journal.lines();
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const std::string& line : lines) {
    EXPECT_TRUE(util::isValidJson(line)) << line;
  }
}

TEST(Journal, FlowEmitsStageAndVerdictEvents) {
  obs::Journal journal;
  obs::Context context;
  context.journal = &journal;

  // pin the general flow's journal stream — Clifford-only pairs would
  // otherwise be routed to the stabilizer tier and emit no sim.stimulus
  ec::FlowConfiguration config;
  config.prescreen.enabled = false;
  const ec::EquivalenceCheckingFlow flow(config);
  const ec::FlowResult result =
      flow.run(paperCircuitG(), paperCircuitBroken(), context);
  ASSERT_EQ(result.equivalence, ec::Equivalence::NotEquivalent);

  bool sawStart = false;
  bool sawSimulationStage = false;
  bool sawVerdict = false;
  std::size_t stimulusLines = 0;
  bool sawMismatch = false;
  for (const std::string& line : journal.lines()) {
    ASSERT_TRUE(util::isValidJson(line)) << line;
    const util::JsonValue v = util::parseJson(line);
    const std::string& event = v.at("event").asString();
    sawStart = sawStart || event == "flow.start";
    if (event == "flow.stage") {
      sawSimulationStage =
          sawSimulationStage || v.at("stage").asString() == "simulation";
    }
    if (event == "sim.stimulus") {
      ++stimulusLines;
      sawMismatch = sawMismatch || v.at("mismatch").asBool();
    }
    if (event == "flow.verdict") {
      sawVerdict = true;
      EXPECT_EQ(v.at("outcome").asString(), "not equivalent");
    }
  }
  EXPECT_TRUE(sawStart);
  EXPECT_TRUE(sawSimulationStage);
  EXPECT_TRUE(sawVerdict);
  EXPECT_GT(stimulusLines, 0U);
  EXPECT_TRUE(sawMismatch);
}

TEST(Journal, FlowEmitsTierEvent) {
  obs::Journal journal;
  obs::Context context;
  context.journal = &journal;

  const ec::EquivalenceCheckingFlow flow;
  const ec::FlowResult result =
      flow.run(paperCircuitG(), paperCircuitG(), context);
  ASSERT_EQ(result.equivalence, ec::Equivalence::Equivalent);
  ASSERT_EQ(result.tier, analysis::TierHint::Static);

  bool sawTier = false;
  for (const std::string& line : journal.lines()) {
    ASSERT_TRUE(util::isValidJson(line)) << line;
    const util::JsonValue v = util::parseJson(line);
    if (v.at("event").asString() != "flow.tier") {
      continue;
    }
    sawTier = true;
    EXPECT_EQ(v.at("tier").asString(), "static");
    EXPECT_EQ(v.at("gate_set").asString(), "clifford");
    EXPECT_EQ(v.at("verdict").asString(), "identical");
  }
  EXPECT_TRUE(sawTier);
}

TEST(Journal, PackageGcEmitsEvent) {
  obs::Journal journal;
  dd::Package pkg(3);
  pkg.attach({.journal = &journal});
  const ir::QuantumComputation qc = paperCircuitG();
  const auto out = sim::simulate(qc, pkg.makeBasisState(0), pkg);
  ASSERT_NE(out.p, nullptr);
  pkg.garbageCollect(/*force=*/true);

  bool sawGc = false;
  for (const std::string& line : journal.lines()) {
    ASSERT_TRUE(util::isValidJson(line)) << line;
    const util::JsonValue v = util::parseJson(line);
    if (v.at("event").asString() == "dd.gc") {
      sawGc = true;
      EXPECT_GE(v.at("pause_seconds").asNumber(), 0.0);
    }
  }
  EXPECT_TRUE(sawGc);
}

TEST(Sampler, PollsProbesIntoSeriesAndCsv) {
  obs::Sampler::Options options;
  options.period = std::chrono::milliseconds(1);
  obs::Sampler sampler(options);
  std::atomic<double> value{1.0};
  sampler.addProbe("test.value",
                   [&value] { return value.load(std::memory_order_relaxed); });
  sampler.start();
  EXPECT_TRUE(sampler.running());
  EXPECT_THROW(sampler.addProbe("late", [] { return 0.0; }), std::logic_error);
  value.store(2.0, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sampler.stop();
  EXPECT_FALSE(sampler.running());

  ASSERT_EQ(sampler.series().size(), 1U);
  const auto& samples = sampler.series()[0].samples;
  ASSERT_GE(samples.size(), 2U); // at least first + final sample
  EXPECT_EQ(sampler.sampleCount(), samples.size());
  double previousTs = -1.0;
  for (const auto& sample : samples) {
    EXPECT_GE(sample.tsMicros, previousTs);
    previousTs = sample.tsMicros;
    EXPECT_TRUE(sample.value == 1.0 || sample.value == 2.0);
  }
  EXPECT_EQ(samples.back().value, 2.0);

  const std::string csv = sampler.toCsv();
  EXPECT_EQ(csv.rfind("ts_micros,probe,value\n", 0), 0U);
  std::istringstream rows(csv);
  std::string row;
  std::size_t dataRows = 0;
  std::getline(rows, row); // header
  while (std::getline(rows, row)) {
    EXPECT_NE(row.find(",test.value,"), std::string::npos) << row;
    ++dataRows;
  }
  EXPECT_EQ(dataRows, samples.size());
}

TEST(Sampler, MirrorsSamplesAsTracerCounterEvents) {
  obs::Tracer tracer;
  obs::Sampler::Options options;
  options.period = std::chrono::milliseconds(1);
  obs::Sampler sampler(options);
  sampler.addProbe("mirrored", [] { return 42.0; });
  sampler.attachTracer(&tracer);
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sampler.stop();

  ASSERT_FALSE(tracer.counterEvents().empty());
  EXPECT_EQ(tracer.counterEvents().size(), sampler.sampleCount());
  for (const obs::CounterEvent& event : tracer.counterEvents()) {
    EXPECT_EQ(event.name, "mirrored");
    EXPECT_EQ(event.value, 42.0);
  }
  EXPECT_TRUE(util::isValidJson(tracer.toChromeTraceJson()));
}

// One attach call feeds every sink the package publishes into: the tracer
// and journal (with the lane) on each GC, and the flight recorder (ring and
// DD state cells) on each GC and interrupt poll — but never the metrics
// registry.
TEST(Sampler, FlightCellsAreFedByThePackage) {
  obs::Tracer tracer;
  obs::Journal journal;
  obs::FlightRecorder recorder;
  obs::MetricsRegistry metrics;
  dd::Package pkg(8);
  pkg.attach({.tracer = &tracer,
              .metrics = &metrics,
              .journal = &journal,
              .flight = &recorder},
             /*lane=*/3);
  const ir::QuantumComputation qc = gen::qft(8);
  const auto out = sim::simulate(qc, pkg.makeBasisState(1), pkg);
  ASSERT_NE(out.p, nullptr);
  pkg.garbageCollect(/*force=*/true); // publishes unconditionally
  pkg.attach({});
  pkg.garbageCollect(/*force=*/true); // detached: reaches no sink

  ASSERT_EQ(tracer.events().size(), 1U);
  EXPECT_EQ(tracer.events()[0].name, "dd.gc");
  ASSERT_EQ(journal.lineCount(), 1U);
  const util::JsonValue gc = util::parseJson(journal.lines()[0]);
  EXPECT_EQ(gc.at("event").asString(), "dd.gc");
  EXPECT_EQ(gc.at("lane").asNumber(), 3.0);
  EXPECT_TRUE(metrics.snapshot().counters.empty());

  // after a forced GC this thread's cells reflect the package's own stats
  ASSERT_EQ(recorder.threadsRegistered(), 1U);
  const obs::FlightRecorder::ThreadRing& ring = recorder.slot(0);
  const dd::PackageStats stats = pkg.stats();
  const auto live =
      static_cast<std::int64_t>(stats.vNodesLive + stats.mNodesLive);
  const auto allocated =
      static_cast<std::int64_t>(stats.vNodesAllocated + stats.mNodesAllocated);
  EXPECT_EQ(ring.nodesLive.load(), live);
  ASSERT_GT(allocated, 0);
  EXPECT_EQ(ring.uniqueFillPpm.load(), live * 1000000 / allocated);

  // the ring holds the poll heartbeat's gauge sample, then the GC's span
  // around its Gc event, all on this thread's slot: the GC's cell refresh
  // adds no event
  std::vector<std::pair<obs::FlightEventKind, std::string>> events;
  for (std::uint64_t i = 0; i < ring.head.load(); ++i) {
    events.emplace_back(static_cast<obs::FlightEventKind>(ring.events[i].kind),
                        ring.events[i].name);
  }
  using Kind = obs::FlightEventKind;
  const std::vector<std::pair<obs::FlightEventKind, std::string>> expected{
      {Kind::Gauge, "dd.gauges"},
      {Kind::SpanBegin, "dd.gc"},
      {Kind::Gc, "dd.gc"},
      {Kind::SpanEnd, "dd.gc"}};
  EXPECT_EQ(events, expected);
}

// dd.nodes_live sums the cells of every thread running a package, not the
// last writer's; dd.unique_fill pools them and stays a fraction.
TEST(Sampler, FlightProbesSumThePackagesOfEveryThread) {
  obs::FlightRecorder recorder;
  std::array<std::size_t, 2> live{};
  std::latch published(2);
  std::latch sampled(1);
  std::vector<std::jthread> workers;
  for (std::size_t t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      dd::Package pkg(6 + 2 * t);
      pkg.attach({.flight = &recorder});
      const ir::QuantumComputation qc = gen::qft(6 + 2 * t);
      const auto out = sim::simulate(qc, pkg.makeBasisState(1), pkg);
      pkg.incRef(out);
      pkg.garbageCollect(/*force=*/true);
      const dd::PackageStats stats = pkg.stats();
      live[t] = stats.vNodesLive + stats.mNodesLive;
      published.count_down();
      sampled.wait(); // keep the slot (and the package) alive
    });
  }
  published.wait();
  obs::Sampler sampler(obs::Sampler::Options{std::chrono::hours(1), 16});
  sampler.addFlightProbes(recorder);
  sampler.start();
  sampler.stop();
  sampled.count_down();

  ASSERT_EQ(sampler.series().size(), 3U);
  const obs::Sampler::Series& nodes = sampler.series()[0];
  const obs::Sampler::Series& fill = sampler.series()[1];
  EXPECT_EQ(nodes.name, "dd.nodes_live");
  EXPECT_EQ(fill.name, "dd.unique_fill");
  EXPECT_EQ(sampler.series()[2].name, "process.rss_bytes");
  ASSERT_FALSE(nodes.samples.empty());
  ASSERT_GT(live[0], 0U);
  ASSERT_GT(live[1], 0U);
  for (const obs::Sampler::Sample& sample : nodes.samples) {
    EXPECT_EQ(sample.value, static_cast<double>(live[0] + live[1]));
  }
  for (const obs::Sampler::Sample& sample : fill.samples) {
    EXPECT_GT(sample.value, 0.0);
    EXPECT_LE(sample.value, 1.0);
  }
}

// A destroyed package stops counting: its destructor resets its thread's
// cells (no heartbeat, no ring event), so dd.nodes_live reads 0 while the
// thread, and its slot, live on.
TEST(Sampler, FlightProbesForgetDestroyedPackages) {
  obs::FlightRecorder recorder;
  std::int64_t published = -1;
  std::uint64_t eventsBefore = 0;
  std::uint64_t beatBefore = 0;
  std::latch destroyed(1);
  std::latch sampled(1);
  std::jthread worker([&] {
    {
      dd::Package pkg(6);
      pkg.attach({.flight = &recorder});
      const auto out = sim::simulate(gen::qft(6), pkg.makeBasisState(1), pkg);
      pkg.incRef(out);
      pkg.garbageCollect(/*force=*/true); // publishes the live count
      const obs::FlightRecorder::ThreadRing& ring = recorder.slot(0);
      published = ring.nodesLive.load();
      eventsBefore = ring.head.load();
      beatBefore = ring.lastBeatMicros.load();
    }
    destroyed.count_down();
    sampled.wait(); // keep the slot in use
  });
  destroyed.wait();
  obs::Sampler sampler(obs::Sampler::Options{std::chrono::hours(1), 16});
  sampler.addFlightProbes(recorder);
  sampler.start();
  sampler.stop();
  sampled.count_down();
  worker.join();

  EXPECT_GT(published, 0);
  ASSERT_EQ(recorder.threadsRegistered(), 1U);
  const obs::FlightRecorder::ThreadRing& ring = recorder.slot(0);
  EXPECT_EQ(ring.nodesLive.load(), -1);
  EXPECT_EQ(ring.uniqueFillPpm.load(), -1);
  EXPECT_EQ(ring.head.load(), eventsBefore);
  EXPECT_EQ(ring.lastBeatMicros.load(), beatBefore);
  const obs::Sampler::Series& nodes = sampler.series()[0];
  ASSERT_EQ(nodes.name, "dd.nodes_live");
  ASSERT_FALSE(nodes.samples.empty());
  for (const obs::Sampler::Sample& sample : nodes.samples) {
    EXPECT_EQ(sample.value, 0.0);
  }
}

TEST(Sampler, ProcessRssIsPositiveOnLinux) {
#ifdef __linux__
  EXPECT_GT(obs::processRssBytes(), 0.0);
#else
  EXPECT_GE(obs::processRssBytes(), 0.0);
#endif
}
