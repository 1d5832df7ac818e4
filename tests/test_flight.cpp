// Tests of the flight recorder, stall watchdog and postmortem diagnostics
// (src/obs/flight_recorder, src/obs/postmortem): ring semantics (drop
// oldest, global sequence numbers, per-thread slots), watchdog quiet/
// deadline triggers, dump render/parse roundtrips, redaction determinism,
// the batch scheduler's watchdog-backed stall containment, and the
// async-signal-safe fatal dump path (as a death test).

#include "ec/alternating_checker.hpp"
#include "ec/construction_checker.hpp"
#include "ec/flow.hpp"
#include "gen/qft.hpp"
#include "gen/random_circuits.hpp"
#include "io/qasm.hpp"
#include "obs/context.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/openmetrics.hpp"
#include "obs/postmortem.hpp"
#include "svc/batch.hpp"
#include "svc/verdict_cache.hpp"
#include "transform/mapper.hpp"
#include "util/json_parse.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace qsimec;
using namespace std::chrono_literals;
namespace fs = std::filesystem;

fs::path freshDir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("qsimec_flight_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------- rings

TEST(FlightRing, DropOldestKeepsTheNewestEvents) {
  obs::FlightRecorder recorder(
      obs::FlightRecorder::Options{.eventsPerThread = 8, .maxThreads = 4});
  for (int i = 0; i < 20; ++i) {
    recorder.record(obs::FlightEventKind::Journal, "e", i);
  }
  EXPECT_EQ(recorder.eventsRecorded(), 20U);
  EXPECT_EQ(recorder.eventsDropped(), 12U);
  ASSERT_GE(recorder.slotCount(), 1U);
  const auto& ring = recorder.slot(0);
  EXPECT_EQ(ring.head.load(), 20U);
  std::set<std::uint64_t> seqs;
  for (std::size_t k = 0; k < recorder.eventCapacity(); ++k) {
    seqs.insert(ring.events[k].seq);
  }
  // the survivors are exactly the last 8 recorded events
  EXPECT_EQ(seqs, (std::set<std::uint64_t>{12, 13, 14, 15, 16, 17, 18, 19}));
}

TEST(FlightRing, ConcurrentWritersGetPrivateRingsAndUniqueSeqs) {
  obs::FlightRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kEvents = 200;
  {
    // hold every writer alive until all have registered: an exited writer
    // releases its slot for reuse (by design), which would collapse the
    // distinct-slot assertion below
    std::latch allDone(kThreads);
    std::vector<std::jthread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&recorder, &allDone, t] {
        recorder.labelThread("writer." + std::to_string(t));
        for (int i = 0; i < kEvents; ++i) {
          recorder.record(obs::FlightEventKind::Mark, "w", t, i);
        }
        allDone.arrive_and_wait();
      });
    }
  }
  EXPECT_EQ(recorder.eventsRecorded(), kThreads * kEvents);
  EXPECT_EQ(recorder.eventsDropped(), 0U);
  EXPECT_EQ(recorder.threadsRegistered(), kThreads);
  std::set<std::uint64_t> seqs;
  for (std::size_t s = 0; s < recorder.slotCount(); ++s) {
    const auto& ring = recorder.slot(s);
    const std::uint64_t h = ring.head.load();
    for (std::uint64_t k = 0; k < h; ++k) {
      seqs.insert(ring.events[k & (recorder.eventCapacity() - 1)].seq);
    }
  }
  EXPECT_EQ(seqs.size(), static_cast<std::size_t>(kThreads * kEvents));
}

// Regression: the per-thread ring cache and the live-recorder registry key
// on a process-unique recorder id, not the recorder's address. A recorder
// constructed where a destroyed one lived (the classic stack-reuse pattern
// of a benchmark or test loop) must acquire a fresh ring, not revive the
// freed one.
TEST(FlightRing, FreshRecorderAtReusedAddressGetsAFreshRing) {
  for (int round = 0; round < 4; ++round) {
    obs::FlightRecorder recorder(
        obs::FlightRecorder::Options{.eventsPerThread = 64, .maxThreads = 4});
    for (int i = 0; i < 100; ++i) {
      recorder.record(obs::FlightEventKind::Journal, "round", round, i);
    }
    EXPECT_EQ(recorder.eventsRecorded(), 100U);
  }
}

TEST(FlightRing, GateWindowAndLabelLandInTheSlot) {
  obs::FlightRecorder recorder;
  recorder.labelThread("checker");
  recorder.noteGate(17, 23);
  const auto& ring = recorder.slot(0);
  EXPECT_EQ(ring.gateLeft.load(), 17);
  EXPECT_EQ(ring.gateRight.load(), 23);
  EXPECT_EQ(ring.labelState.load(), 2U);
  EXPECT_STREQ(ring.label, "checker");
}

TEST(FlightRing, PairNotesClaimReleaseAndExhaust) {
  obs::FlightRecorder recorder;
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < obs::FlightRecorder::kMaxPairNotes; ++i) {
    ids.push_back(recorder.notePair("pair " + std::to_string(i), "abcd"));
    EXPECT_EQ(ids.back(), i);
  }
  // exhausted: the overflow claim reports "no slot" instead of clobbering
  EXPECT_EQ(recorder.notePair("overflow", ""),
            obs::FlightRecorder::kMaxPairNotes);
  recorder.clearPair(ids[3]);
  EXPECT_EQ(recorder.notePair("reused", ""), 3U);
}

// Ring cells are allocated uninitialized: a dump must read only the cells
// record() wrote, and only the slots a thread claimed.
TEST(FlightRing, FreshRecorderDumpsExactlyTheWrittenEvents) {
  obs::FlightRecorder recorder;
  recorder.record(obs::FlightEventKind::Mark, "first", 1, 2);
  recorder.record(obs::FlightEventKind::Journal, "second", 3, 4);
  recorder.record(obs::FlightEventKind::Gate, "third", 5, 6);

  std::istringstream in(obs::renderPostmortem(recorder));
  const obs::PostmortemReport report = obs::parsePostmortem(in);
  ASSERT_TRUE(report.valid) << report.error;
  EXPECT_EQ(report.eventsRecorded, 3U);
  ASSERT_EQ(report.threads.size(), 1U);
  EXPECT_EQ(report.threads[0].events, 3U);
  ASSERT_EQ(report.events.size(), 3U);
  const std::array<std::string, 3> kinds{"mark", "journal", "gate"};
  const std::array<std::string, 3> names{"first", "second", "third"};
  for (std::size_t i = 0; i < report.events.size(); ++i) {
    const obs::PostmortemEvent& e = report.events[i];
    EXPECT_EQ(e.seq, i);
    EXPECT_EQ(e.slot, report.threads[0].slot);
    EXPECT_EQ(e.kind, kinds[i]);
    EXPECT_EQ(e.name, names[i]);
    EXPECT_EQ(e.a, static_cast<std::int64_t>(2 * i + 1));
    EXPECT_EQ(e.b, static_cast<std::int64_t>(2 * i + 2));
  }
}

// ------------------------------------------------------------------- watchdog

TEST(Watchdog, DeclaresAQuietHeartbeatStalled) {
  obs::FlightRecorder recorder;
  const std::atomic<std::uint64_t>* beat = recorder.heartbeatSlot();
  ASSERT_NE(beat, nullptr);
  obs::Watchdog watchdog(recorder);
  std::promise<obs::Watchdog::StallInfo> fired;
  auto future = fired.get_future();
  watchdog.watch("quiet.worker", beat, 0.15, 0.0,
                 [&fired](const obs::Watchdog::StallInfo& info) {
                   fired.set_value(info);
                 });
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  const obs::Watchdog::StallInfo info = future.get();
  EXPECT_EQ(info.reason, "quiet");
  EXPECT_EQ(info.label, "quiet.worker");
  EXPECT_GE(info.heartbeatAgeMicros, 150000U);
  // one-shot: the entry never fires twice
  std::this_thread::sleep_for(250ms);
  EXPECT_EQ(watchdog.stallsDeclared(), 1U);
}

TEST(Watchdog, DeclaresADeadlineOverrunDespiteHeartbeats) {
  obs::FlightRecorder recorder;
  const std::atomic<std::uint64_t>* beat = recorder.heartbeatSlot();
  obs::Watchdog watchdog(recorder);
  std::promise<obs::Watchdog::StallInfo> fired;
  auto future = fired.get_future();
  watchdog.watch("busy.worker", beat, 0.0, 0.15,
                 [&fired](const obs::Watchdog::StallInfo& info) {
                   fired.set_value(info);
                 });
  // keep beating the whole time: only the hard deadline can fire
  const auto until = std::chrono::steady_clock::now() + 3s;
  while (future.wait_for(0s) != std::future_status::ready &&
         std::chrono::steady_clock::now() < until) {
    recorder.beat();
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_EQ(future.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(future.get().reason, "deadline");
}

TEST(Watchdog, NeverFiresWhileTheHeartbeatIsFresh) {
  obs::FlightRecorder recorder;
  const std::atomic<std::uint64_t>* beat = recorder.heartbeatSlot();
  obs::Watchdog watchdog(recorder);
  const std::uint64_t id =
      watchdog.watch("healthy.worker", beat, 0.3, 0.0,
                     [](const obs::Watchdog::StallInfo&) { FAIL(); });
  const auto until = std::chrono::steady_clock::now() + 500ms;
  while (std::chrono::steady_clock::now() < until) {
    recorder.beat();
    std::this_thread::sleep_for(30ms);
  }
  EXPECT_EQ(watchdog.stallsDeclared(), 0U);
  watchdog.unwatch(id);
  // unwatched entries are gone: going quiet no longer counts
  std::this_thread::sleep_for(450ms);
  EXPECT_EQ(watchdog.stallsDeclared(), 0U);
}

// ----------------------------------------------------------------- postmortem

TEST(Postmortem, RenderParseRoundtrip) {
  obs::FlightRecorder recorder;
  recorder.labelThread("main");
  EXPECT_EQ(recorder.notePair("pair 0", "00ff00ff00ff00ff00ff00ff00ff00ff"),
            0U);
  recorder.record(obs::FlightEventKind::SpanBegin, "flow");
  recorder.record(obs::FlightEventKind::Journal, "flow.start", 1);
  recorder.record(obs::FlightEventKind::Gc, "dd.gc", 128, 900);
  recorder.record(obs::FlightEventKind::Mark, "flow.verdict", 0);
  recorder.record(obs::FlightEventKind::SpanEnd, "flow");
  recorder.noteGate(5, 7);

  obs::MetricsSnapshot metrics;
  metrics.counters["flight.events"] = recorder.eventsRecorded();
  obs::PostmortemOptions options;
  options.reason = "timeout";
  options.label = "roundtrip";
  options.metrics = &metrics;
  const std::string text = obs::renderPostmortem(recorder, options);

  std::istringstream in(text);
  const obs::PostmortemReport report = obs::parsePostmortem(in);
  ASSERT_TRUE(report.valid) << report.error;
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.reason, "timeout");
  EXPECT_EQ(report.label, "roundtrip");
  EXPECT_FALSE(report.redacted);
  EXPECT_EQ(report.eventsRecorded, 5U);
  ASSERT_EQ(report.pairs.size(), 1U);
  EXPECT_EQ(report.pairs[0].label, "pair 0");
  ASSERT_EQ(report.threads.size(), 1U);
  EXPECT_EQ(report.threads[0].label, "main");
  EXPECT_EQ(report.threads[0].gateLeft, 5);
  EXPECT_EQ(report.threads[0].gateRight, 7);
  ASSERT_EQ(report.events.size(), 5U);
  for (std::size_t i = 1; i < report.events.size(); ++i) {
    EXPECT_LT(report.events[i - 1].seq, report.events[i].seq);
  }
  EXPECT_EQ(report.events[2].kind, "gc");
  EXPECT_EQ(report.events[2].a, 128);
  EXPECT_FALSE(report.metricsJson.empty());

  // both inspector renderings accept the parsed report
  const std::string md = obs::renderPostmortemMarkdown(report);
  EXPECT_NE(md.find("## Timeline"), std::string::npos);
  EXPECT_NE(md.find("## Threads"), std::string::npos);
  EXPECT_NE(md.find("flow.verdict"), std::string::npos);
  const util::JsonValue json = util::parseJson(obs::renderPostmortemJson(report));
  EXPECT_EQ(json.at("reason").asString(), "timeout");
  EXPECT_EQ(json.at("events").elements().size(), 5U);
}

TEST(Postmortem, RedactedDumpKeepsOnlyTheDeterministicSubset) {
  obs::FlightRecorder recorder;
  recorder.labelThread("noisy");
  EXPECT_EQ(recorder.notePair("pair 0", "feed"), 0U);
  recorder.record(obs::FlightEventKind::Mark, "simulation", 1);
  recorder.record(obs::FlightEventKind::Journal, "wallclock.noise", 2);
  recorder.record(obs::FlightEventKind::Gauge, "dd.gauges", 3, 4);
  recorder.record(obs::FlightEventKind::Mark, "flow.verdict", 0);

  obs::PostmortemOptions options;
  options.redact = true;
  const std::string text = obs::renderPostmortem(recorder, options);
  EXPECT_EQ(text.find("wallclock.noise"), std::string::npos);
  EXPECT_EQ(text.find("ts_micros"), std::string::npos);
  EXPECT_EQ(text.find("\"type\":\"thread\""), std::string::npos);

  std::istringstream in(text);
  const obs::PostmortemReport report = obs::parsePostmortem(in);
  ASSERT_TRUE(report.valid) << report.error;
  EXPECT_TRUE(report.redacted);
  ASSERT_EQ(report.events.size(), 2U);
  EXPECT_EQ(report.events[0].kind, "mark");
  EXPECT_EQ(report.events[0].name, "simulation");
  EXPECT_EQ(report.events[1].name, "flow.verdict");
}

TEST(Postmortem, ParserRejectsGarbageAndFlagsTruncation) {
  std::istringstream garbage("this is not json\n");
  EXPECT_FALSE(obs::parsePostmortem(garbage).valid);

  std::istringstream wrongSchema(R"({"schema":"other-v1","x":1})"
                                 "\n");
  EXPECT_FALSE(obs::parsePostmortem(wrongSchema).valid);

  // a valid header without the end trailer parses but reports truncation —
  // the shape of a dump cut off mid-write by a dying process
  std::istringstream truncated(
      R"({"schema":"qsimec-postmortem-v1","version":1,"reason":"signal","label":"","redacted":false})"
      "\n");
  const obs::PostmortemReport report = obs::parsePostmortem(truncated);
  EXPECT_TRUE(report.valid);
  EXPECT_FALSE(report.complete);
  EXPECT_NE(obs::renderPostmortemMarkdown(report).find("WARNING"),
            std::string::npos);
}

// The acceptance tie between the ring and the attribution window: when the
// complete check dies on a budget, the slot still names the in-flight gate
// indices (noteGate is only cleared on clean exits).
TEST(Postmortem, GateIndexSurvivesABudgetDeath) {
  const ir::QuantumComputation qc = gen::qft(5);
  obs::FlightRecorder recorder;
  obs::Context obs;
  obs.flight = &recorder;
  ec::AlternatingConfiguration config;
  config.maxNodes = 8; // trips ResourceLimitExceeded mid-construction
  const ec::CheckResult result =
      ec::AlternatingChecker(config).run(qc, qc, obs);
  ASSERT_TRUE(result.timedOut);
  const auto& ring = recorder.slot(0);
  EXPECT_GE(ring.gateLeft.load(), 0);

  // and a clean run clears the window back to "nothing in flight"
  ec::AlternatingConfiguration clean;
  const ec::CheckResult ok = ec::AlternatingChecker(clean).run(qc, qc, obs);
  ASSERT_FALSE(ok.timedOut);
  EXPECT_EQ(ring.gateLeft.load(), -1);
  EXPECT_EQ(ring.gateRight.load(), -1);
}

// ------------------------------------------------------------ batch stalls

TEST(BatchStall, WatchdogResolvesTheWedgedPairAndTheBatchSurvives) {
  const fs::path dir = freshDir("batch");
  const ir::QuantumComputation big = gen::qft(4);
  ir::QuantumComputation small(2, "pair1");
  small.h(0);
  small.cx(0, 1);
  const std::string bigPath = (dir / "big.qasm").string();
  const std::string smallPath = (dir / "small.qasm").string();
  std::ofstream(bigPath) << io::toQasmString(big);
  std::ofstream(smallPath) << io::toQasmString(small);

  std::istringstream manifestText(
      "{\"g\": \"" + bigPath + "\", \"gp\": \"" + bigPath + "\"}\n" +
      "{\"g\": \"" + smallPath + "\", \"gp\": \"" + smallPath + "\"}\n");
  const svc::BatchManifest manifest =
      svc::parseManifest(manifestText, ec::FlowConfiguration{});

  obs::Journal journal;
  std::ostringstream journalOut;
  journal.streamTo(&journalOut);
  obs::Context obs;
  obs.journal = &journal;

  svc::BatchOptions options;
  options.threads = 2;
  options.stallQuietSeconds = 0.25;
  options.postmortemDir = dir.string();

  ASSERT_EQ(::setenv("QSIMEC_SELFTEST_STALL_WORKER", "0", 1), 0);
  const svc::BatchResult result =
      svc::BatchScheduler(options).run(manifest, obs);
  ::unsetenv("QSIMEC_SELFTEST_STALL_WORKER");
  journal.streamTo(nullptr);

  ASSERT_EQ(result.outcomes.size(), 2U);
  const svc::PairOutcome& stalled = result.outcomes[0];
  EXPECT_TRUE(stalled.stalled);
  EXPECT_EQ(stalled.equivalence, ec::Equivalence::NoInformation);
  ASSERT_FALSE(stalled.dumpRef.empty());
  const obs::PostmortemReport dump = obs::parsePostmortemFile(stalled.dumpRef);
  ASSERT_TRUE(dump.valid) << dump.error;
  EXPECT_EQ(dump.reason, "stall");

  // the rest of the batch finished normally
  const svc::PairOutcome& healthy = result.outcomes[1];
  EXPECT_FALSE(healthy.stalled);
  EXPECT_TRUE(ec::provedEquivalent(healthy.equivalence));
  EXPECT_EQ(result.summary.stalled, 1U);
  EXPECT_GE(result.summary.inconclusive, 1U);
  EXPECT_NE(journalOut.str().find("svc.pair.stalled"), std::string::npos);

  // stalled outcomes serialize their dump reference (unredacted only)
  const std::string line = svc::toJsonLine(stalled);
  EXPECT_NE(line.find("\"stalled\":true"), std::string::npos);
  EXPECT_NE(line.find("dump_ref"), std::string::npos);
  const std::string redacted =
      svc::toJsonLine(stalled, svc::BatchSerializeOptions{.redact = true});
  EXPECT_EQ(redacted.find("dump_ref"), std::string::npos);

  fs::remove_all(dir);
}

TEST(BatchStall, StallHookIsInertWithoutAnArmedWatchdog) {
  const fs::path dir = freshDir("inert");
  ir::QuantumComputation qc(2, "p");
  qc.h(0);
  const std::string path = (dir / "p.qasm").string();
  std::ofstream(path) << io::toQasmString(qc);
  std::istringstream manifestText("{\"g\": \"" + path + "\", \"gp\": \"" +
                                  path + "\"}\n");
  const svc::BatchManifest manifest =
      svc::parseManifest(manifestText, ec::FlowConfiguration{});

  // no stall/deadline options: the env hook must not wedge the batch
  ASSERT_EQ(::setenv("QSIMEC_SELFTEST_STALL_WORKER", "0", 1), 0);
  const svc::BatchResult result =
      svc::BatchScheduler(svc::BatchOptions{}).run(manifest);
  ::unsetenv("QSIMEC_SELFTEST_STALL_WORKER");
  ASSERT_EQ(result.outcomes.size(), 1U);
  EXPECT_FALSE(result.outcomes[0].stalled);
  EXPECT_EQ(result.summary.stalled, 0U);
  fs::remove_all(dir);
}

// ------------------------------------------------------------- span mirrors

/// Names of the `kind` events in every ring of `recorder`; callers assert
/// that nothing was dropped, so every ring holds its events at [0, head).
std::multiset<std::string> ringNames(const obs::FlightRecorder& recorder,
                                     obs::FlightEventKind kind) {
  std::multiset<std::string> names;
  for (std::size_t i = 0; i < recorder.slotCount(); ++i) {
    const obs::FlightRecorder::ThreadRing& ring = recorder.slot(i);
    for (std::uint64_t k = 0; k < ring.head.load(); ++k) {
      if (ring.events[k].kind == static_cast<std::uint8_t>(kind)) {
        names.emplace(ring.events[k].name);
      }
    }
  }
  return names;
}

// A span reaches every span sink its context carries: over flow runs that
// cross every span site of the flow (the stabilizer tier and the general
// tier with rewriting, simulation, the complete check and DD collections)
// and a batch whose second pass is served from the cache, the Chrome trace
// and the flight ring name the same spans.
TEST(SpanMirror, TraceAndFlightRingNameTheSameSpans) {
  obs::Tracer tracer;
  obs::FlightRecorder recorder;
  const obs::Context obs{.tracer = &tracer, .flight = &recorder};

  ir::QuantumComputation clifford(2, "clifford");
  clifford.cx(0, 1);
  clifford.cx(1, 0);
  clifford.cx(0, 1);
  ir::QuantumComputation swapped(2, "swapped");
  swapped.swap(0, 1);
  const ir::QuantumComputation qft = gen::qft(4);
  const ir::QuantumComputation mapped =
      tf::mapCircuit(qft, tf::CouplingMap::linear(4)).circuit;
  ec::FlowConfiguration config;
  config.tryRewriting = true;
  config.simulation.numThreads = 2;
  const ec::EquivalenceCheckingFlow flow(config);
  EXPECT_EQ(flow.run(clifford, swapped, obs).tier,
            analysis::TierHint::Stabilizer);
  EXPECT_EQ(flow.run(qft, mapped, obs).tier, analysis::TierHint::General);

  const fs::path dir = freshDir("spans");
  const std::string path = (dir / "qft.qasm").string();
  std::ofstream(path) << io::toQasmString(qft);
  std::istringstream manifestText("{\"g\": \"" + path + "\", \"gp\": \"" +
                                  path + "\"}\n");
  const svc::BatchManifest manifest =
      svc::parseManifest(manifestText, ec::FlowConfiguration{});
  svc::VerdictCache cache;
  svc::BatchOptions options;
  options.threads = 1;
  options.cache = &cache;
  EXPECT_EQ(svc::BatchScheduler(options).run(manifest, obs).summary.cacheHits,
            0U);
  EXPECT_EQ(svc::BatchScheduler(options).run(manifest, obs).summary.cacheHits,
            1U);
  fs::remove_all(dir);

  std::multiset<std::string> traced;
  for (const obs::SpanEvent& span : tracer.events()) {
    traced.insert(span.name);
  }
  for (const char* site :
       {"flow", "stage.preflight", "analysis.profile", "analysis.prescreen",
        "tier.stabilizer", "tier.stabilizer.run", "checker.rewriting",
        "checker.simulation", "sim.stimulus", "checker.alternating", "dd.gc",
        "svc.batch"}) {
    EXPECT_TRUE(traced.contains(site)) << site;
  }
  EXPECT_EQ(traced.count("svc.pair"), 2U); // the miss, then the cache hit
  ASSERT_EQ(recorder.eventsDropped(), 0U);
  EXPECT_EQ(ringNames(recorder, obs::FlightEventKind::SpanBegin), traced);
  EXPECT_EQ(ringNames(recorder, obs::FlightEventKind::SpanEnd), traced);
}

// ConstructionChecker attaches its package like every other checker, so
// the flight ring sees its span and every garbage collection it runs.
TEST(SpanMirror, ConstructionCheckerFeedsTheFlightRing) {
  // a dense unitary: its transient matrices outgrow the first GC threshold
  const ir::QuantumComputation qc = gen::randomCircuit(7, 100, 1);
  obs::FlightRecorder recorder;
  const ec::CheckResult result =
      ec::ConstructionChecker().run(qc, qc, {.flight = &recorder});
  ASSERT_EQ(recorder.eventsDropped(), 0U);
  EXPECT_EQ(
      ringNames(recorder, obs::FlightEventKind::SpanBegin).count(
          "checker.construction"),
      1U);
  EXPECT_GT(result.ddStats.gcRuns, 0U);
  EXPECT_EQ(ringNames(recorder, obs::FlightEventKind::Gc).size(),
            result.ddStats.gcRuns);
}

// ----------------------------------------------------------- signal dump path

TEST(SignalDumpDeathTest, AbortMidRunLeavesAParseableDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // the threadsafe death-test child re-execs and re-runs this body up to
  // EXPECT_EXIT with its own pid, so the directory must not embed one
  const fs::path dir = fs::temp_directory_path() / "qsimec_flight_sig_death";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string dumpPath = obs::signalDumpPath(dir.string());

  EXPECT_EXIT(
      {
        obs::FlightRecorder recorder;
        recorder.labelThread("doomed");
        if (recorder.notePair("pair 7", "00ff00ff00ff00ff00ff00ff00ff00ff") !=
            0U) {
          std::_Exit(1); // not the expected SIGABRT: the note was dropped
        }
        for (int i = 0; i < 100; ++i) {
          recorder.record(obs::FlightEventKind::Journal, "pre.crash", i);
        }
        recorder.noteGate(12, 34);
        obs::armSignalDump(&recorder, dir.string());
        std::raise(SIGABRT);
      },
      ::testing::KilledBySignal(SIGABRT), "");

  const obs::PostmortemReport report = obs::parsePostmortemFile(dumpPath);
  ASSERT_TRUE(report.valid) << report.error;
  EXPECT_EQ(report.reason, "signal");
  EXPECT_EQ(report.signal, SIGABRT);
  EXPECT_TRUE(report.complete);
  ASSERT_EQ(report.pairs.size(), 1U);
  EXPECT_EQ(report.pairs[0].label, "pair 7");
  ASSERT_GE(report.threads.size(), 1U);
  EXPECT_EQ(report.threads[0].gateLeft, 12);
  EXPECT_EQ(report.threads[0].gateRight, 34);
  bool sawPreCrash = false;
  for (const obs::PostmortemEvent& e : report.events) {
    sawPreCrash = sawPreCrash || e.name == "pre.crash";
  }
  EXPECT_TRUE(sawPreCrash);
  fs::remove_all(dir);
}

// ----------------------------------------------------------------- openmetrics

TEST(FlightMetrics, HealthCountersExportLintClean) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["flight.events"] = 4242;
  snapshot.counters["flight.events_dropped"] = 7;
  snapshot.gauges["watchdog.heartbeat_age_micros.t0"] = 1234.0;
  snapshot.gauges["watchdog.heartbeat_age_micros.t1"] = 88.0;
  const std::string text = obs::renderOpenMetrics(snapshot, {});
  EXPECT_TRUE(obs::validateOpenMetrics(text).empty());
  EXPECT_NE(text.find("flight_events_dropped"), std::string::npos);
  EXPECT_NE(text.find("watchdog_heartbeat_age_micros"), std::string::npos);
}

// ------------------------------------------------------------------ CLI level

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
  result.exitCode = WEXITSTATUS(pclose(pipe));
  return result;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

TEST(FlightCli, RedactedDumpIsByteIdenticalAcrossThreadCounts) {
  const fs::path dir = freshDir("cli");
  const std::string circuit = (dir / "c.qasm").string();
  ASSERT_EQ(runCli("gen random 5 60 " + circuit + " --seed 3").exitCode, 0);
  const auto checkWith = [&](const std::string& tag, unsigned threads) {
    const std::string pmDir = (dir / tag).string();
    const CommandResult result = runCli(
        "check " + circuit + " " + circuit + " --sims 6 --no-prescreen" +
        " --threads " + std::to_string(threads) + " --postmortem " + pmDir +
        " --postmortem-redact");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    return slurp(pmDir + "/postmortem-check.jsonl");
  };
  const std::string dump1 = checkWith("t1", 1);
  const std::string dump4 = checkWith("t4", 4);
  ASSERT_FALSE(dump1.empty());
  EXPECT_EQ(dump1, dump4);
  // the redacted dump still renders through the inspector
  const CommandResult render =
      runCli("postmortem " + (dir / "t1" / "postmortem-check.jsonl").string());
  EXPECT_EQ(render.exitCode, 0) << render.output;
  EXPECT_NE(render.output.find("redacted: true"), std::string::npos);
  fs::remove_all(dir);
}

TEST(FlightCli, InspectorRendersJsonAndRejectsGarbage) {
  const fs::path dir = freshDir("inspect");
  const std::string circuit = (dir / "c.qasm").string();
  ASSERT_EQ(runCli("gen qft 3 " + circuit).exitCode, 0);
  const std::string pmDir = (dir / "pm").string();
  ASSERT_EQ(runCli("check " + circuit + " " + circuit + " --sims 2" +
                   " --postmortem " + pmDir)
                .exitCode,
            0);
  const CommandResult json =
      runCli("postmortem " + pmDir + "/postmortem-check.jsonl --json");
  EXPECT_EQ(json.exitCode, 0) << json.output;
  const util::JsonValue doc = util::parseJson(json.output);
  EXPECT_EQ(doc.at("reason").asString(), "complete");

  const std::string garbage = (dir / "garbage.jsonl").string();
  std::ofstream(garbage) << "not a dump\n";
  EXPECT_EQ(runCli("postmortem " + garbage).exitCode, 2);
  fs::remove_all(dir);
}

} // namespace
