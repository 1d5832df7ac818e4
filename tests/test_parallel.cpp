// The parallel stimuli portfolio and the race-mode flow.
//
// The heart of this file is the determinism contract of
// docs/parallelism.md: for a fixed configuration seed, the verdict, the
// counterexample, the per-run fidelities, and the redacted JSON
// serialization are bit-identical for every thread count. The property
// tests sweep numThreads over {1, 2, 8} across all stimuli kinds and dozens
// of random circuit pairs.

#include "journal_capture.hpp"

#include "dd/package.hpp"
#include "ec/flow.hpp"
#include "ec/parallel.hpp"
#include "ec/serialize.hpp"
#include "ec/simulation_checker.hpp"
#include "gen/grover.hpp"
#include "gen/random_circuits.hpp"
#include "gen/revlib_like.hpp"
#include "obs/context.hpp"
#include "sim/dd_simulator.hpp"
#include "transform/decomposition.hpp"
#include "transform/error_injector.hpp"
#include "util/deadline.hpp"
#include "util/json_parse.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace qsimec;
using ec::Equivalence;

namespace {

#ifdef __linux__
/// Current thread count of this process, from /proc/self/status.
int processThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

/// The thread count once joined threads have left it. The kernel drops an
/// exiting thread from the count a moment after pthread_join returns, so a
/// read right after a join can still include it: poll until the count has
/// held for 20 consecutive 1 ms reads (at most 2 s). A thread that was never
/// joined stays in the count, so a leak still shows.
int settledThreadCount() {
  int count = processThreadCount();
  for (int stable = 0, polls = 0; stable < 20 && polls < 2000; ++polls) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const int next = processThreadCount();
    stable = next == count ? stable + 1 : 0;
    count = next;
  }
  return count;
}
#endif

} // namespace

// --- WorkerPool ----------------------------------------------------------

TEST(WorkerPool, RunsEveryTask) {
  ec::WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4U);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(WorkerPool, WaitIsReusable) {
  ec::WorkerPool pool(2);
  std::atomic<int> done{0};
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(done.load(), 1);
  pool.submit([&done] { done.fetch_add(1); });
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(done.load(), 3);
}

TEST(WorkerPool, ZeroRequestsStillGetOneWorker) {
  ec::WorkerPool pool(0);
  EXPECT_EQ(pool.threads(), 1U);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); });
  pool.wait();
  EXPECT_TRUE(ran.load());
}

TEST(Parallel, ResolveThreadCount) {
  EXPECT_GE(ec::defaultThreadCount(), 1U);
  EXPECT_EQ(ec::resolveThreadCount(4, 10), 4U);
  EXPECT_EQ(ec::resolveThreadCount(8, 3), 3U);  // capped at the run count
  EXPECT_EQ(ec::resolveThreadCount(1, 10), 1U);
  EXPECT_EQ(ec::resolveThreadCount(0, 1000), ec::defaultThreadCount());
  EXPECT_EQ(ec::resolveThreadCount(5, 0), 1U); // never zero workers
}

TEST(Parallel, PerRunSeedsAreStableAndDistinct) {
  const std::uint64_t a = ec::perRunStimulusSeed(42, 0);
  EXPECT_EQ(ec::perRunStimulusSeed(42, 0), a); // pure function
  // distinct across runs and across configuration seeds
  EXPECT_NE(ec::perRunStimulusSeed(42, 1), a);
  EXPECT_NE(ec::perRunStimulusSeed(43, 0), a);
}

// --- cancellation ----------------------------------------------------------

TEST(SimulationChecker, ExternalCancelFlagYieldsCancelledResult) {
  std::atomic<bool> cancel{true}; // already set: cancel before the first run
  ec::SimulationConfiguration config;
  config.maxSimulations = 10;
  config.seed = 3;
  config.cancelFlag = &cancel;
  config.numThreads = 2;
  const ec::SimulationChecker checker(config);
  const auto g = gen::randomCircuit(4, 30, 5);
  const auto result = checker.run(g, g);
  EXPECT_EQ(result.equivalence, Equivalence::NoInformation);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.simulations, 0U);
}

// --- the determinism contract --------------------------------------------

namespace {

/// Run the checker at the given thread count, also collecting the
/// fidelity-deviation histogram.
std::pair<ec::CheckResult, obs::HistogramSnapshot>
runAt(const ir::QuantumComputation& g, const ir::QuantumComputation& gPrime,
      ec::StimuliKind kind, std::uint64_t seed, unsigned threads) {
  ec::SimulationConfiguration config;
  config.maxSimulations = 10;
  config.seed = seed;
  config.stimuli = kind;
  config.numThreads = threads;
  obs::MetricsRegistry metrics;
  const ec::SimulationChecker checker(config);
  const auto result = checker.run(g, gPrime, {nullptr, &metrics});
  obs::HistogramSnapshot histogram;
  const auto& histograms = metrics.snapshot().histograms;
  if (const auto it = histograms.find("simulation.fidelity_deviation");
      it != histograms.end()) {
    histogram = it->second;
  }
  return {result, histogram};
}

void expectIdenticalAcrossThreadCounts(const ir::QuantumComputation& g,
                                       const ir::QuantumComputation& gPrime,
                                       ec::StimuliKind kind,
                                       std::uint64_t seed) {
  const auto [reference, referenceHist] = runAt(g, gPrime, kind, seed, 1);
  const std::string referenceJson =
      toJson(reference, ec::SerializeOptions{.redactProfile = true});
  for (const unsigned threads : {2U, 8U}) {
    const auto [result, hist] = runAt(g, gPrime, kind, seed, threads);
    EXPECT_EQ(result.equivalence, reference.equivalence);
    EXPECT_EQ(result.simulations, reference.simulations);
    EXPECT_EQ(result.counterexample.has_value(),
              reference.counterexample.has_value());
    if (result.counterexample && reference.counterexample) {
      // bit-identical, not approximately equal: the portfolio reruns the
      // exact float pipeline of the sequential sweep
      EXPECT_EQ(result.counterexample->input, reference.counterexample->input);
      EXPECT_EQ(result.counterexample->fidelity,
                reference.counterexample->fidelity);
      EXPECT_EQ(result.counterexample->stimuli,
                reference.counterexample->stimuli);
    }
    EXPECT_EQ(toJson(result, ec::SerializeOptions{.redactProfile = true}),
              referenceJson)
        << "thread count " << threads << " changed the redacted JSON";
    EXPECT_EQ(hist.count, referenceHist.count);
    EXPECT_EQ(hist.sum, referenceHist.sum);
    EXPECT_EQ(hist.min, referenceHist.min);
    EXPECT_EQ(hist.max, referenceHist.max);
  }
}

} // namespace

class PortfolioDeterminism
    : public ::testing::TestWithParam<ec::StimuliKind> {};

TEST_P(PortfolioDeterminism, NonEquivalentPairsMatchAcrossThreadCounts) {
  const ec::StimuliKind kind = GetParam();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto g = gen::randomCircuit(5, 40, seed + 100);
    tf::ErrorInjector injector(seed + 7);
    const auto injected = injector.injectRandom(g);
    expectIdenticalAcrossThreadCounts(g, injected.circuit, kind, seed);
  }
}

TEST_P(PortfolioDeterminism, EquivalentPairsMatchAcrossThreadCounts) {
  const ec::StimuliKind kind = GetParam();
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    const auto g = gen::randomCircuit(5, 40, seed + 200);
    expectIdenticalAcrossThreadCounts(g, g, kind, seed);
  }
}

// The "_indep" suffix (G and G' simulated independently) is the name these
// cases have always had; it is kept so their history stays comparable.
INSTANTIATE_TEST_SUITE_P(
    AllKindsAndModes, PortfolioDeterminism,
    ::testing::Values(ec::StimuliKind::ComputationalBasis,
                      ec::StimuliKind::RandomProduct,
                      ec::StimuliKind::RandomStabilizer),
    [](const auto& info) {
      std::string name{toString(info.param)};
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name + "_indep";
    });

TEST(Parallel, ReportsEffectiveThreadCount) {
  ec::SimulationConfiguration config;
  config.maxSimulations = 3;
  config.numThreads = 8; // more workers than runs: capped
  const ec::SimulationChecker checker(config);
  const auto g = gen::randomCircuit(4, 20, 1);
  const auto result = checker.run(g, g);
  EXPECT_EQ(result.numThreads, 3U);
  EXPECT_EQ(result.equivalence, Equivalence::ProbablyEquivalent);
}

TEST(Flow, StagedJsonIsIdenticalAcrossThreadCounts) {
  const auto g = gen::randomCircuit(5, 40, 17);
  tf::ErrorInjector injector(17);
  const auto injected = injector.injectRandom(g);
  const ec::SerializeOptions redact{.redactProfile = true};
  for (const auto* gPrime : {&g, &injected.circuit}) {
    std::string reference;
    for (const unsigned threads : {1U, 2U, 8U}) {
      ec::FlowConfiguration config;
      config.simulation.seed = 23;
      config.simulation.numThreads = threads;
      const ec::EquivalenceCheckingFlow flow(config);
      const std::string json = toJson(flow.run(g, *gPrime), redact);
      if (reference.empty()) {
        reference = json;
      } else {
        EXPECT_EQ(json, reference) << "flow JSON changed at " << threads
                                   << " threads";
      }
    }
  }
}

// --- race mode -----------------------------------------------------------

TEST(Flow, RaceOnEquivalentPairIsWonByCompleteCheck) {
  const auto g = tf::decompose(gen::grover(4, 0b1011));
  ec::FlowConfiguration config;
  config.mode = ec::FlowMode::Race;
  config.simulation.seed = 5;
  config.complete.timeoutSeconds = 60.0;
  // g vs g would be decided statically by the prescreen; this test pins
  // the race machinery itself
  config.prescreen.enabled = false;
  const ec::EquivalenceCheckingFlow flow(config);
  const auto result = flow.run(g, g);
  EXPECT_TRUE(provedEquivalent(result.equivalence));
  EXPECT_EQ(result.mode, ec::FlowMode::Race);
  EXPECT_EQ(result.winner, ec::RaceWinner::Complete);
  EXPECT_FALSE(result.completeCancelled);
}

// The complete checker's lines take a lane of their own: no portfolio
// worker's, so a reader of the journal never charges its GC pauses to a
// stimulus worker.
TEST(Flow, RaceCompleteCheckerJournalsOnItsOwnLane) {
  // G' = G·R·R⁻¹: equivalent, so the simulation cannot decide, and the
  // random R in the middle grows the complete checker's DD past the unique
  // table's GC threshold
  const auto g = gen::randomCircuit(9, 40, 3);
  auto gPrime = g;
  const auto r = gen::randomCircuit(9, 40, 4);
  gPrime.append(r);
  gPrime.append(r.inverse());
  ec::FlowConfiguration config;
  config.mode = ec::FlowMode::Race;
  config.simulation.numThreads = 2;
  config.simulation.maxSimulations = 4;
  config.complete.timeoutSeconds = 60.0;
  config.prescreen.enabled = false;
  testutil::CapturedJournal captured;
  const auto result =
      ec::EquivalenceCheckingFlow(config).run(g, gPrime, captured.context());
  ASSERT_EQ(result.mode, ec::FlowMode::Race);
  ASSERT_EQ(result.winner, ec::RaceWinner::Complete);

  std::set<std::uint64_t> stimulusLanes;
  std::set<std::uint64_t> gcLanes;
  for (const std::string& line : captured.lines()) {
    const util::JsonValue v = util::parseJson(line);
    const std::string& event = v.at("event").asString();
    if (event == "sim.stimulus" || event == "dd.gc") {
      ASSERT_NE(v.find("lane"), nullptr) << line;
      (event == "dd.gc" ? gcLanes : stimulusLanes)
          .insert(v.at("lane").asUint());
    }
  }
  // lanes 0 and 1 are the two portfolio workers; 2 is the complete checker
  EXPECT_EQ(gcLanes.count(2), 1U) << "the complete checker collected no GC";
  EXPECT_EQ(stimulusLanes.count(2), 0U);
  for (const std::uint64_t lane : stimulusLanes) {
    EXPECT_LE(lane, 1U);
  }
}

TEST(Flow, RaceDegeneratesToStagedWhenOneSideIsSkipped) {
  const auto g = gen::randomCircuit(4, 20, 9);
  ec::FlowConfiguration config;
  config.mode = ec::FlowMode::Race;
  config.skipComplete = true;
  config.prescreen.enabled = false; // g vs g is otherwise decided statically
  const ec::EquivalenceCheckingFlow flow(config);
  const auto result = flow.run(g, g);
  EXPECT_EQ(result.mode, ec::FlowMode::Staged);
  EXPECT_EQ(result.winner, ec::RaceWinner::None);
  EXPECT_EQ(result.equivalence, Equivalence::ProbablyEquivalent);
}

TEST(Flow, ExternalCancelReachesBothModes) {
  // The caller's flag (the batch scheduler's per-pair cancel) reaches both
  // strategies in either mode: a pair cancelled before it starts leaves no
  // information and no proof.
  const auto g = tf::decompose(gen::grover(6, 0b101101));
  const std::atomic<bool> cancel{true};
  for (const ec::FlowMode mode : {ec::FlowMode::Staged, ec::FlowMode::Race}) {
    SCOPED_TRACE(toString(mode));
    ec::FlowConfiguration config;
    config.mode = mode;
    config.prescreen.enabled = false; // g vs g is otherwise decided statically
    config.simulation.cancelFlag = &cancel;
    config.complete.cancelFlag = &cancel;
    const auto result = ec::EquivalenceCheckingFlow(config).run(g, g);
    EXPECT_EQ(result.mode, mode);
    EXPECT_EQ(result.equivalence, Equivalence::NoInformation);
    EXPECT_FALSE(result.counterexample.has_value());
    EXPECT_EQ(result.winner, ec::RaceWinner::None);
    EXPECT_EQ(result.simulations, 0U);
    EXPECT_TRUE(result.simulationCancelled);
    EXPECT_TRUE(result.completeCancelled);
  }
}

TEST(Flow, RaceStressCancelsTheCompleteCheck) {
  // A pair built so the simulation reliably wins: an MCT circuit against
  // its elementary decomposition (|G'| >> |G|, the RevLib pattern) with an
  // injected error. One basis simulation finds the mismatch in ~0.1s; the
  // alternating check misaligns on the wildly different gate counts and
  // needs over a second — an order-of-magnitude margin, so its span must
  // end cancelled on every iteration.
  const auto base = gen::hwbCircuit(6);
  auto gPrime = tf::decompose(base);
  const auto g = tf::padQubits(base, gPrime.qubits());
  tf::ErrorInjector injector(13);
  const auto injected = injector.injectRandom(gPrime);

#ifdef __linux__
  // Spawn-and-join one throwaway thread first: sanitizer runtimes (TSan)
  // lazily start a permanent background thread on the first pthread_create,
  // which would otherwise show up as a false "leak" in the count below.
  std::thread([] {}).join();
  const int threadsBefore = settledThreadCount();
#endif

  ec::FlowConfiguration config;
  config.mode = ec::FlowMode::Race;
  config.simulation.seed = 29;
  config.simulation.numThreads = 2;
  config.complete.timeoutSeconds = 120.0; // cancellation, not timeout
  const ec::EquivalenceCheckingFlow flow(config);

  for (int iteration = 0; iteration < 50; ++iteration) {
    obs::Tracer tracer;
    const auto result = flow.run(g, injected.circuit, {&tracer, nullptr});
    ASSERT_EQ(result.equivalence, Equivalence::NotEquivalent)
        << "iteration " << iteration;
    ASSERT_TRUE(result.counterexample.has_value());
    ASSERT_EQ(result.winner, ec::RaceWinner::Simulation);
    ASSERT_TRUE(result.completeCancelled) << "iteration " << iteration;
    ASSERT_FALSE(result.completeTimedOut);

    // the loser's span must exist, be closed, and record its cancellation
    bool sawCancelledCompleteSpan = false;
    for (const auto& event : tracer.events()) {
      if (event.name != "checker.alternating") {
        continue;
      }
      EXPECT_GE(event.durMicros, 0.0) << "span leaked open";
      for (const auto& arg : event.args) {
        if (arg.key == "cancelled" && arg.value == "1") {
          sawCancelledCompleteSpan = true;
        }
      }
    }
    EXPECT_TRUE(sawCancelledCompleteSpan) << "iteration " << iteration;
    EXPECT_EQ(tracer.openSpans(), 0);
  }

#ifdef __linux__
  // every jthread (race loser + pool workers) must have been joined
  EXPECT_EQ(settledThreadCount(), threadsBefore);
#endif
}
