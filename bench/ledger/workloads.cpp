#include "workloads.hpp"

#include "inputs.hpp"

#include "analysis/analyzer.hpp"
#include "analysis/prescreen.hpp"
#include "analysis/profile.hpp"
#include "daemon/client.hpp"
#include "daemon/server.hpp"
#include "dd/package.hpp"
#include "ec/alternating_checker.hpp"
#include "ec/flow.hpp"
#include "ec/simulation_checker.hpp"
#include "ec/stabilizer_checker.hpp"
#include "sim/dd_simulator.hpp"
#include "svc/batch.hpp"
#include "svc/fingerprint.hpp"
#include "svc/verdict_cache.hpp"
#include "transform/error_injector.hpp"
#include "util/json_parse.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>

#include <sys/resource.h>

namespace qsimec::ledger {

namespace {

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Run one op, recording its wall and CPU time; returns what the op returns.
template <class Op> auto timeOp(OpLog& log, Op&& op) {
  const double cpuBefore = cpuSeconds();
  const auto start = std::chrono::steady_clock::now();
  auto result = op();
  log.latencies.push_back(secondsSince(start));
  log.cpuSeconds += cpuSeconds() - cpuBefore;
  ++log.ops;
  return result;
}

/// The configuration every workload checks under: one simulation thread,
/// a 30 s budget for the complete check, library defaults otherwise.
ec::FlowConfiguration baseConfig() {
  ec::FlowConfiguration config;
  config.simulation.numThreads = 1;
  config.complete.timeoutSeconds = 30.0;
  return config;
}

/// A batch pass on `threads` workers against `cache`.
svc::BatchResult runBatch(const svc::BatchManifest& manifest, unsigned threads,
                          svc::VerdictCache& cache) {
  svc::BatchOptions options;
  options.threads = threads;
  options.cache = &cache;
  return svc::BatchScheduler(options).run(manifest);
}

enum class Judgement { Ok, Inconclusive, Wrong };

Judgement judge(ec::Equivalence got, bool expectEquivalent) {
  if (got == ec::Equivalence::ProbablyEquivalent ||
      got == ec::Equivalence::NoInformation) {
    return Judgement::Inconclusive;
  }
  const bool right = expectEquivalent ? ec::provedEquivalent(got)
                                      : got == ec::Equivalence::NotEquivalent;
  return right ? Judgement::Ok : Judgement::Wrong;
}

void reportWrong(OpLog& log, const std::string& what) {
  ++log.wrong;
  std::fprintf(stderr, "ledger: wrong verdict: %s\n", what.c_str());
}

/// Judge one pair's verdict against its construction, reporting a wrong
/// one.
Judgement checkVerdict(OpLog& log, ec::Equivalence got, const PairFiles& pair,
                       const std::string& where) {
  const Judgement judgement = judge(got, pair.expectEquivalent);
  if (judgement == Judgement::Wrong) {
    reportWrong(log, where + ": " + pair.name + " (" + pair.gPath + ", " +
                         pair.gPrimePath + ") gave " +
                         std::string(ec::toString(got)) + ", built " +
                         (pair.expectEquivalent ? "equivalent"
                                                : "not equivalent"));
  }
  return judgement;
}

std::uint64_t fileBytes(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

/// DD-package traffic summed over the stage runs of one traced round.
struct DDTally {
  std::uint64_t applySteps{0};
  std::uint64_t computeHits{0};
  std::uint64_t uniqueLookups{0};
  std::uint64_t uniqueHits{0};
  std::uint64_t gcRuns{0};
  std::uint64_t nodesAllocated{0};
  std::uint64_t peakNodes{0};
  double gcSeconds{0.0};

  void add(const dd::PackageStats& stats) {
    const dd::TableStats compute = stats.computeTotals();
    applySteps += compute.lookups;
    computeHits += compute.hits;
    uniqueLookups += stats.vUnique.lookups + stats.mUnique.lookups;
    uniqueHits += stats.vUnique.hits + stats.mUnique.hits;
    gcRuns += stats.gcRuns;
    nodesAllocated += stats.vNodesAllocated + stats.mNodesAllocated;
    peakNodes = std::max<std::uint64_t>(peakNodes, stats.peakNodesLive());
    gcSeconds += stats.gcSeconds;
  }
};

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Per-layer numbers of one traced round, before the span times join them.
struct LayerTally {
  obs::MetricsSnapshot metrics; // counters filled while the round runs
  DDTally sim;
  DDTally complete;
  std::uint64_t counterexampleRuns{0};
  /// Σ over simulated pairs of gate-build seconds × stimulus runs: what
  /// rebuilding every gate DD once per run would cost.
  double rebuildSeconds{0.0};

  std::uint64_t& count(const char* name) { return metrics.counters[name]; }

  /// Fold in the span self times and derive the ratios. `endToEnd` names
  /// the spans of the real end-to-end call; `covered` the direct layer
  /// calls that replicate work inside it.
  obs::MetricsSnapshot finish(const SpanRecorder& spans, std::size_t from,
                              std::initializer_list<const char*> endToEnd,
                              std::initializer_list<const char*> covered) {
    obs::MetricsSnapshot m = std::move(metrics);
    const std::map<std::string, double> self = spans.selfSeconds(from);
    for (const auto& [name, seconds] : self) {
      if (name != "ledger.op") {
        m.gauges[name + "_s"] = seconds;
      }
    }
    const auto selfOf = [&self](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const auto sum = [&selfOf](std::initializer_list<const char*> names) {
      double total = 0.0;
      for (const char* name : names) {
        total += selfOf(name);
      }
      return total;
    };

    m.counters["dd.sim.gc_runs"] = sim.gcRuns;
    m.counters["dd.sim.apply_steps"] = sim.applySteps;
    m.counters["dd.sim.nodes_allocated"] = sim.nodesAllocated;
    m.counters["dd.sim.peak_nodes"] = sim.peakNodes;
    m.gauges["dd.sim.gc_s"] = sim.gcSeconds;
    m.gauges["dd.sim.compute_hit_rate"] = ratio(
        static_cast<double>(sim.computeHits), static_cast<double>(sim.applySteps));
    m.gauges["dd.sim.unique_hit_rate"] =
        ratio(static_cast<double>(sim.uniqueHits),
              static_cast<double>(sim.uniqueLookups));
    m.counters["dd.complete.apply_steps"] = complete.applySteps;
    m.counters["dd.complete.peak_nodes"] = complete.peakNodes;
    m.gauges["dd.complete.gc_s"] = complete.gcSeconds;
    m.gauges["dd.complete.compute_hit_rate"] =
        ratio(static_cast<double>(complete.computeHits),
              static_cast<double>(complete.applySteps));
    m.gauges["ec.runs_per_counterexample"] =
        ratio(static_cast<double>(counterexampleRuns),
              static_cast<double>(m.counters["ec.counterexamples"]));
    m.gauges["dd.gate_rebuild_share"] =
        ratio(rebuildSeconds, selfOf("ec.simulation"));

    const double flowStages =
        sum({"analysis.preflight", "analysis.prescreen", "ec.stabilizer",
             "ec.simulation", "ec.complete"});
    m.gauges["ec.flow_overhead_s"] =
        self.contains("ec.flow") ? selfOf("ec.flow") - flowStages : 0.0;
    m.gauges["obs.attribution_s"] =
        self.contains("obs.flow_noattr")
            ? selfOf("ec.flow") - selfOf("obs.flow_noattr")
            : 0.0;
    const double e2e = sum(endToEnd);
    const double replica = sum(covered);
    m.gauges["ledger.e2e_s"] = e2e;
    m.gauges["ledger.replica_s"] = replica;
    m.gauges["ledger.unattributed_frac"] = ratio(e2e - replica, e2e);

    // the ledger's own work between layer calls (bookkeeping, allocating
    // the gate-build package), as a share of the traced ops
    double opSeconds = 0.0;
    for (std::size_t i = from; i < spans.spans().size(); ++i) {
      const SpanRecorder::Span& span = spans.spans()[i];
      if (span.name == "ledger.op") {
        opSeconds += span.end - span.start;
      }
    }
    m.gauges["ledger.trace_overhead_frac"] =
        ratio(selfOf("ledger.op"), opSeconds);
    return m;
  }
};

/// A verdict with the counterexample that proved it, if any, and the
/// stimulus runs spent on it (0 when the simulation stage did not run).
struct Verdict {
  ec::Equivalence equivalence{ec::Equivalence::NoInformation};
  std::optional<ec::Counterexample> counterexample;
  std::size_t simulations{0};
};

/// The direct-layer replica of EquivalenceCheckingFlow::run's staged path
/// (src/ec/flow.cpp): the same public calls in the same order, each in its
/// own span. Returns the verdict the flow reaches.
Verdict replicateFlow(const ParsedPair& pair, const ec::FlowConfiguration& config,
                      SpanRecorder& spans, std::uint64_t op,
                      LayerTally& tally) {
  {
    ScopedSpan span(spans, "analysis.preflight", op);
    const analysis::CircuitAnalyzer analyzer({.lint = false});
    if (analyzer.analyzePair(pair.g, pair.gPrime).hasErrors()) {
      return {ec::Equivalence::InvalidInput, std::nullopt};
    }
  }
  analysis::PrescreenResult pre;
  analysis::TierHint tier = analysis::TierHint::General;
  {
    ScopedSpan span(spans, "analysis.prescreen", op);
    const analysis::PairProfile profile =
        analysis::profilePair(pair.g, pair.gPrime);
    pre = analysis::prescreenPair(pair.g, pair.gPrime);
    tier = analysis::routeTier(profile, pre);
  }
  tally.count("analysis.stripped_ops") +=
      pre.strippedPrefix + pre.strippedSuffix;

  if (tier == analysis::TierHint::Static) {
    ++tally.count("analysis.tier_static");
    switch (pre.verdict) {
    case analysis::StaticVerdict::Identical:
      return {ec::Equivalence::Equivalent, std::nullopt};
    case analysis::StaticVerdict::IdenticalUpToGlobalPhase:
      return {ec::Equivalence::EquivalentUpToGlobalPhase, std::nullopt};
    default:
      return {ec::Equivalence::NotEquivalent, std::nullopt};
    }
  }
  if (tier == analysis::TierHint::Stabilizer) {
    ++tally.count("analysis.tier_stabilizer");
    ec::StabilizerConfiguration stabilizer;
    stabilizer.maxSimulations = config.prescreen.stabilizerStimuli;
    stabilizer.seed = config.simulation.seed;
    stabilizer.phaseProbeMaxQubits = config.prescreen.phaseProbeMaxQubits;
    ec::CheckResult result;
    {
      ScopedSpan span(spans, "ec.stabilizer", op);
      result = ec::StabilizerChecker(stabilizer).run(pair.g, pair.gPrime);
    }
    // the dense phase probe runs exactly for proved pairs under the cap
    if (ec::provedEquivalent(result.equivalence) &&
        pair.g.qubits() <= stabilizer.phaseProbeMaxQubits) {
      ++tally.count("ec.stabilizer_phase_probes");
    }
    return {result.equivalence, result.counterexample};
  }
  ++tally.count("analysis.tier_general");

  ec::CheckResult sim;
  {
    ScopedSpan span(spans, "ec.simulation", op);
    sim = ec::SimulationChecker(config.simulation).run(pair.g, pair.gPrime);
  }
  tally.count("ec.simulation_runs") += sim.simulations;
  tally.sim.add(sim.ddStats);
  if (sim.equivalence == ec::Equivalence::NotEquivalent) {
    ++tally.count("ec.counterexamples");
    tally.counterexampleRuns += sim.simulations;
    return {ec::Equivalence::NotEquivalent, sim.counterexample,
            sim.simulations};
  }

  const bool residuals = config.prescreen.checkStrippedPair && pre.stripped();
  ec::CheckResult complete;
  {
    ScopedSpan span(spans, "ec.complete", op);
    complete = ec::AlternatingChecker(config.complete)
                   .run(residuals ? pre.residualG : pair.g,
                        residuals ? pre.residualGPrime : pair.gPrime);
  }
  tally.complete.add(complete.ddStats);
  if (complete.timedOut) {
    ++tally.count("ec.complete_timeouts");
    return {sim.simulations > 0 ? ec::Equivalence::ProbablyEquivalent
                                : ec::Equivalence::NoInformation,
            std::nullopt, sim.simulations};
  }
  return {complete.equivalence, std::nullopt, sim.simulations};
}

/// Build every gate DD of a simulated pair once in a fresh dd::Package:
/// what each stimulus run rebuilds. Called after the op's end-to-end call,
/// so that allocating the package (tens of MB of compute tables) does not
/// sit between the direct calls and the call they are compared with.
void buildGateDDs(const ParsedPair& pair, std::size_t runs, SpanRecorder& spans,
                  std::uint64_t op, LayerTally& tally) {
  if (runs == 0) {
    return;
  }
  dd::Package package(pair.g.qubits());
  ScopedSpan span(spans, "dd.gate_build", op);
  for (const ir::QuantumComputation* qc : {&pair.g, &pair.gPrime}) {
    for (const ir::StandardOperation& operation : *qc) {
      (void)sim::buildOperationDD(operation, package);
    }
  }
  tally.rebuildSeconds += span.close() * static_cast<double>(runs);
}

/// A manifest pair as the batch scheduler's pre-pass handles it: both files
/// parsed without validation and padded, then fingerprinted.
struct KeyedPair {
  ParsedPair pair;
  svc::PairKey key;
};

KeyedPair parseAndKey(const svc::BatchPairSpec& spec, SpanRecorder& spans,
                      std::uint64_t op, LayerTally& tally) {
  KeyedPair keyed;
  {
    ScopedSpan span(spans, "io.parse", op);
    keyed.pair = readPair(spec.gPath, spec.gPrimePath, false);
  }
  tally.count("io.bytes") += fileBytes(spec.gPath) + fileBytes(spec.gPrimePath);
  ScopedSpan span(spans, "svc.fingerprint", op);
  keyed.key = svc::PairKey{svc::fingerprint(keyed.pair.g),
                           svc::fingerprint(keyed.pair.gPrime),
                           svc::configDigest(spec.config)};
  return keyed;
}

// ---------------------------------------------------------------------------

class CheckWorkload final : public Workload {
public:
  CheckWorkload(std::uint64_t seed, bool injectErrors)
      : seed_(seed), injectErrors_(injectErrors) {}

  void prepare() override {
    pairs_ = writeCheckPairs("check");
    if (injectErrors_) {
      // An injected error in the ancilla-decomposed Grover 6 circuit sends
      // the DD simulation into a numerical blow-up in 2-5% of ops (over
      // 100k vector nodes on 9 qubits, up to 20 s for one stimulus): a
      // defect of the DD package this workload must not hinge on.
      std::erase_if(pairs_,
                    [](const PairFiles& pair) { return pair.name == "Grover 6"; });
    }
    gPrimes_.clear();
    for (PairFiles& pair : pairs_) {
      gPrimes_.push_back(readPair(pair.gPath, pair.gPrimePath).gPrime);
      pair.expectEquivalent = !injectErrors_;
    }
  }

  /// What `qsimec check` does before it checks: load every pair, and build
  /// a flow. (Each op parses its pair again, and each round builds its own
  /// flow for its stimuli seed.)
  double setup() override {
    const auto start = std::chrono::steady_clock::now();
    for (const PairFiles& pair : pairs_) {
      (void)readPair(pair.gPath, pair.gPrimePath);
    }
    const ec::EquivalenceCheckingFlow flow(configFor(0));
    return secondsSince(start);
  }

  void round(std::size_t index, OpLog& log) override {
    const ec::EquivalenceCheckingFlow flow(configFor(index));
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      const PairFiles pair = opPair(index, i);
      const ec::Equivalence got = timeOp(log, [&] {
        const ParsedPair parsed = readPair(pair.gPath, pair.gPrimePath);
        return flow.run(parsed.g, parsed.gPrime).equivalence;
      });
      log.pairs += 1;
      log.failed += checkVerdict(log, got, pair, where(index)) ==
                    Judgement::Inconclusive;
    }
  }

  obs::MetricsSnapshot tracedRound(std::size_t round, SpanRecorder& spans,
                                   OpLog& log) override {
    const std::size_t from = spans.spans().size();
    const ec::FlowConfiguration config = configFor(0);
    ec::FlowConfiguration noAttribution = config;
    noAttribution.simulation.attribution.enabled = false;
    noAttribution.complete.attribution.enabled = false;
    const ec::EquivalenceCheckingFlow flow(config);
    const ec::EquivalenceCheckingFlow flowNoAttribution(noAttribution);
    LayerTally tally;
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      const PairFiles pair = opPair(0, i);
      ScopedSpan opSpan(spans, "ledger.op", i);
      ParsedPair parsed;
      {
        ScopedSpan span(spans, "io.parse", i);
        parsed = readPair(pair.gPath, pair.gPrimePath);
      }
      tally.count("io.bytes") += fileBytes(pair.gPath) + fileBytes(pair.gPrimePath);
      Verdict replica;
      ec::Equivalence got = ec::Equivalence::NoInformation;
      // whichever of the three runs first runs on colder caches, so the
      // order rotates from op to op
      const std::function<void()> calls[] = {
          [&] { replica = replicateFlow(parsed, config, spans, i, tally); },
          [&] {
            ScopedSpan span(spans, "ec.flow", i);
            got = flow.run(parsed.g, parsed.gPrime).equivalence;
          },
          [&] {
            ScopedSpan span(spans, "obs.flow_noattr", i);
            (void)flowNoAttribution.run(parsed.g, parsed.gPrime);
          }};
      for (std::size_t k = 0; k < std::size(calls); ++k) {
        calls[(k + round + i) % std::size(calls)]();
      }
      buildGateDDs(parsed, replica.simulations, spans, i, tally);
      opSpan.close();
      ++log.ops;
      log.pairs += 1;
      log.failed +=
          checkVerdict(log, got, pair, where(0)) == Judgement::Inconclusive;
      if (replica.equivalence != got) {
        reportWrong(log, where(0) + ": " + pair.name +
                             ": direct layer calls gave " +
                             std::string(ec::toString(replica.equivalence)) +
                             ", flow.run gave " +
                             std::string(ec::toString(got)));
      }
      ++tally.count("ledger.ops");
    }
    return tally.finish(spans, from, {"ec.flow"},
                        {"analysis.preflight", "analysis.prescreen",
                         "ec.stabilizer", "ec.simulation", "ec.complete"});
  }

private:
  [[nodiscard]] ec::FlowConfiguration configFor(std::size_t round) const {
    ec::FlowConfiguration config = baseConfig();
    config.simulation.seed = seed_ + round;
    return config;
  }

  /// The files of op (round, i). With injected errors, G' gets one
  /// replaced gate, placed by a stream seeded from (seed, round, recipe)
  /// and written outside the timed op. The first stimulus catches 99% of
  /// such errors; removed or inserted gates in the reversible recipes are
  /// mostly phase-only, which basis stimuli cannot see, so a tenth of the
  /// ops would fall through to the complete check and put latency_p90_ms
  /// on the cliff between the two.
  [[nodiscard]] PairFiles opPair(std::size_t round, std::size_t i) const {
    PairFiles pair = pairs_[i];
    if (injectErrors_) {
      tf::ErrorInjector injector(mix(mix(mix(seed_) + round) + i));
      pair.gPrimePath = writeCircuit(
          injector.inject(gPrimes_[i], tf::ErrorKind::ReplaceGate).circuit,
          "check/injected" + std::to_string(i));
    }
    return pair;
  }

  [[nodiscard]] std::string where(std::size_t round) const {
    return std::string(injectErrors_ ? "check-nonequivalent"
                                     : "check-equivalent") +
           " seed " + std::to_string(seed_) + " round " +
           std::to_string(round);
  }

  std::uint64_t seed_;
  bool injectErrors_;
  std::vector<PairFiles> pairs_;
  std::vector<ir::QuantumComputation> gPrimes_; // as parsed back from disk
};

// ---------------------------------------------------------------------------

/// Judge every outcome of a batch pass; returns false if any was
/// inconclusive.
bool checkBatch(OpLog& log, const std::vector<svc::PairOutcome>& outcomes,
                const std::vector<PairFiles>& pairs, const std::string& where) {
  bool conclusive = true;
  for (const svc::PairOutcome& outcome : outcomes) {
    conclusive &= checkVerdict(log, outcome.equivalence, pairs[outcome.index],
                               where + " pair " +
                                   std::to_string(outcome.index)) !=
                  Judgement::Inconclusive;
  }
  return conclusive;
}

class BatchWorkload final : public Workload {
public:
  explicit BatchWorkload(std::uint64_t seed) : seed_(seed) {}

  void prepare() override { inputs_ = writeBatchInputs("batch", seed_); }

  /// Loading the manifest, as `qsimec batch` does before its pass.
  double setup() override {
    const auto start = std::chrono::steady_clock::now();
    svc::BatchManifest manifest =
        svc::loadManifestFile(inputs_.manifestPath, baseConfig());
    const double seconds = secondsSince(start);
    manifest_ = std::move(manifest);
    return seconds;
  }

  void round(std::size_t index, OpLog& log) override {
    const svc::BatchResult result = timeOp(log, [&] {
      svc::VerdictCache cache;
      return runBatch(manifest_, 2, cache);
    });
    log.pairs += result.outcomes.size();
    log.failed += !checkBatch(log, result.outcomes, inputs_.pairs,
                              where(index));
  }

  /// The scheduler's pre-pass (parse, fingerprint, cache lookup, dedup) and
  /// its jobs (the flow stages, cache store) replicated single-threaded,
  /// and BatchScheduler::run itself with one thread; the one that runs
  /// first runs on colder caches, so the order alternates between rounds.
  obs::MetricsSnapshot tracedRound(std::size_t round, SpanRecorder& spans,
                                   OpLog& log) override {
    const std::size_t from = spans.spans().size();
    constexpr std::uint64_t op = 0;
    LayerTally tally;
    const std::size_t total = manifest_.pairs.size();
    ScopedSpan opSpan(spans, "ledger.op", op);

    svc::BatchResult result;
    const auto endToEnd = [&] {
      ScopedSpan span(spans, "svc.batch", op);
      svc::VerdictCache fresh;
      result = runBatch(manifest_, 1, fresh);
    };
    if (round % 2 == 1) {
      endToEnd();
    }
    struct Job {
      std::size_t index;
      KeyedPair keyed;
      std::size_t runs{0}; // stimulus runs the flow stages spent
    };
    svc::VerdictCache cache;
    std::vector<Job> jobs;
    std::unordered_map<svc::PairKey, std::size_t, svc::PairKeyHash>
        representatives;
    std::vector<std::size_t> representativeOf(total, total);
    std::vector<ec::Equivalence> replica(total, ec::Equivalence::NoInformation);
    for (std::size_t i = 0; i < total; ++i) {
      KeyedPair keyed = parseAndKey(manifest_.pairs[i], spans, op, tally);
      {
        // the cache is fresh and stores come after the pre-pass, as in the
        // scheduler: every lookup misses
        ScopedSpan span(spans, "svc.cache_lookup", op);
        (void)cache.lookup(keyed.key);
      }
      if (const auto it = representatives.find(keyed.key);
          it != representatives.end()) {
        representativeOf[i] = jobs[it->second].index;
        ++tally.count("svc.deduped");
        continue;
      }
      representatives.emplace(keyed.key, jobs.size());
      jobs.push_back(Job{i, std::move(keyed)});
    }
    for (Job& job : jobs) {
      const Verdict verdict = replicateFlow(
          job.keyed.pair, manifest_.pairs[job.index].config, spans, op, tally);
      replica[job.index] = verdict.equivalence;
      job.runs = verdict.simulations;
      if (svc::isCacheable(verdict.equivalence)) {
        ScopedSpan span(spans, "svc.cache_store", op);
        cache.store(job.keyed.key,
                    svc::CachedVerdict{verdict.equivalence,
                                       verdict.counterexample, 0.0});
      }
    }
    for (std::size_t i = 0; i < total; ++i) {
      if (representativeOf[i] != total) {
        replica[i] = replica[representativeOf[i]];
      }
    }
    tally.count("svc.dispatched") += jobs.size();
    if (round % 2 == 0) {
      endToEnd();
    }
    for (const Job& job : jobs) {
      buildGateDDs(job.keyed.pair, job.runs, spans, op, tally);
    }
    opSpan.close();
    ++log.ops;
    log.pairs += total;
    log.failed += !checkBatch(log, result.outcomes, inputs_.pairs, where(0));
    for (std::size_t i = 0; i < total; ++i) {
      if (replica[i] != result.outcomes[i].equivalence) {
        reportWrong(log, where(0) + " pair " + std::to_string(i) +
                             ": direct layer calls gave " +
                             std::string(ec::toString(replica[i])) +
                             ", BatchScheduler::run gave " +
                             std::string(ec::toString(
                                 result.outcomes[i].equivalence)));
      }
    }
    ++tally.count("ledger.ops");
    obs::MetricsSnapshot m = tally.finish(
        spans, from, {"svc.batch"},
        {"io.parse", "svc.fingerprint", "svc.cache_lookup",
         "analysis.preflight", "analysis.prescreen", "ec.stabilizer",
         "ec.simulation", "ec.complete", "svc.cache_store"});
    m.gauges["svc.batch_overhead_s"] =
        m.gauges["ledger.e2e_s"] - m.gauges["ledger.replica_s"];
    m.gauges["svc.dedup_share"] =
        ratio(static_cast<double>(m.counters["svc.deduped"]),
              static_cast<double>(total));
    return m;
  }

private:
  [[nodiscard]] std::string where(std::size_t round) const {
    return "batch-cold seed " + std::to_string(seed_) + " round " +
           std::to_string(round);
  }

  std::uint64_t seed_;
  BatchInputs inputs_;
  svc::BatchManifest manifest_;
};

// ---------------------------------------------------------------------------

/// One daemon request, a slice of the manifest, and the lines it must be
/// answered with.
struct Slice {
  std::string text;
  std::size_t pairs{0};
  std::vector<std::string> expected; // result lines, then the summary
};

class DaemonWorkload final : public Workload {
public:
  explicit DaemonWorkload(std::uint64_t seed) : seed_(seed) {}

  /// The batch-cold inputs and one batch-cold pass: the reference verdicts,
  /// also written as the cache file set-up starts its daemons on. Then the
  /// daemon the ops talk to, started on an empty cache and warmed by one
  /// submit of the whole manifest through its socket.
  ///
  /// That daemon is warmed through its socket rather than started on the
  /// cache file because reloading the file currently changes 64-bit
  /// counterexample seeds (the JSONL reader parses them as doubles); a warm
  /// answer would then differ from the cold one.
  void prepare() override {
    inputs_ = writeBatchInputs("daemon", seed_);
    cache_ = std::make_unique<svc::VerdictCache>();
    std::vector<svc::PairOutcome> primed;
    {
      std::ofstream cacheFile(kPrimedCachePath);
      cache_->persistTo(&cacheFile);
      primed = runBatch(svc::loadManifestFile(inputs_.manifestPath,
                                              baseConfig()),
                        2, *cache_)
                   .outcomes;
      cache_->persistTo(nullptr);
    }
    for (const svc::PairOutcome& outcome : primed) {
      const PairFiles& pair = inputs_.pairs[outcome.index];
      if (judge(outcome.equivalence, pair.expectEquivalent) != Judgement::Ok) {
        throw WrongVerdict(where(0) + " reference pass: " + pair.name + " (" +
                           pair.gPath + ", " + pair.gPrimePath + ") gave " +
                           std::string(ec::toString(outcome.equivalence)));
      }
    }
    // One request per manifest block: a corpus seed plus two Clifford pairs
    // of widths (6, 10), (12, 16) or (32, 48). A round holds eight requests
    // of each kind, so p50 falls inside the middle kind and p90 inside the
    // widest, never on the step between two kinds.
    slices_.clear();
    const std::vector<std::size_t>& starts = inputs_.blockStarts;
    for (std::size_t b = 0; b < starts.size(); ++b) {
      const std::size_t end =
          b + 1 < starts.size() ? starts[b + 1] : primed.size();
      slices_.push_back(makeSlice(primed, starts[b], end - starts[b]));
    }

    daemon_ = std::make_unique<daemon::Daemon>(daemonOptions(kSocketPath, ""));
    daemon_->start();
    const Slice all = makeSlice(primed, 0, primed.size());
    const daemon::SubmitResult cold = submit(all);
    if (!cold.accepted || cold.lines != all.expected) {
      throw WrongVerdict(where(0) + ": the daemon's cold answer to the whole "
                                    "manifest differs from batch-cold");
    }
  }

  /// What `qsimec serve --cache FILE` does before it serves: construct the
  /// daemon, which loads the reference pass's cache file, and start() it.
  /// The daemon shuts down again after the return value is taken, untimed.
  double setup() override {
    daemon::DaemonOptions options =
        daemonOptions(kSetupSocketPath, kPrimedCachePath);
    const auto start = std::chrono::steady_clock::now();
    daemon::Daemon daemon(std::move(options));
    daemon.start();
    return secondsSince(start);
  }

  void round(std::size_t index, OpLog& log) override {
    for (std::size_t k = 0; k < slices_.size(); ++k) {
      const daemon::SubmitResult response =
          timeOp(log, [&] { return submit(slices_[k]); });
      checkResponse(log, response, k, index);
    }
  }

  /// Per request: the engine's manifest parse, circuit parses,
  /// fingerprints, cache lookups and result serialization replicated
  /// against the reference pass's cache, and the real socket round trip;
  /// the one that runs first runs on colder caches, so the order
  /// alternates between requests.
  obs::MetricsSnapshot tracedRound(std::size_t round, SpanRecorder& spans,
                                   OpLog& log) override {
    const std::size_t from = spans.spans().size();
    LayerTally tally;
    double engineSeconds = 0.0;
    for (std::size_t k = 0; k < slices_.size(); ++k) {
      ScopedSpan opSpan(spans, "ledger.op", k);
      daemon::SubmitResult response;
      const auto roundTrip = [&] {
        ScopedSpan span(spans, "daemon.roundtrip", k);
        response = submit(slices_[k]);
      };
      if ((round + k) % 2 == 1) {
        roundTrip();
      }
      if (replicateRequest(k, spans, tally) != slices_[k].expected) {
        reportWrong(log, where(0) + " request " + std::to_string(k) +
                             ": direct layer calls disagree with the "
                             "batch-cold verdicts");
      }
      if ((round + k) % 2 == 0) {
        roundTrip();
      }
      opSpan.close();
      ++log.ops;
      checkResponse(log, response, k, 0);
      tally.count("daemon.rejected") += !response.accepted;
      // the engine's own time for this request: the newest status record
      const util::JsonValue status = util::parseJson(daemon_->statusJson());
      engineSeconds +=
          status.at("recent").elements().at(0).at("seconds").asNumber();
      ++tally.count("ledger.ops");
    }
    obs::MetricsSnapshot m = tally.finish(
        spans, from, {"daemon.roundtrip"},
        {"svc.manifest", "io.parse", "svc.fingerprint", "svc.cache_lookup",
         "svc.serialize"});
    const double requests = static_cast<double>(slices_.size());
    const double roundtripMs = 1e3 * m.gauges["daemon.roundtrip_s"] / requests;
    const double engineMs = 1e3 * engineSeconds / requests;
    m.gauges["daemon.roundtrip_ms"] = roundtripMs;
    m.gauges["daemon.engine_ms"] = engineMs;
    m.gauges["daemon.overhead_ms"] = roundtripMs - engineMs;
    return m;
  }

private:
  static constexpr const char* kSocketPath = "daemon.sock";
  static constexpr const char* kSetupSocketPath = "setup.sock";
  static constexpr const char* kPrimedCachePath = "daemon/primed.jsonl";

  /// Two threads, otherwise the defaults; no cache file if `cachePath` is
  /// empty.
  static daemon::DaemonOptions daemonOptions(const char* socketPath,
                                             const char* cachePath) {
    daemon::DaemonOptions options;
    options.socketPath = socketPath;
    options.threads = 2;
    options.cachePath = cachePath;
    options.base = baseConfig();
    return options;
  }

  /// The engine's work for request k as direct calls; returns the response
  /// lines they produce.
  std::vector<std::string> replicateRequest(std::size_t k, SpanRecorder& spans,
                                            LayerTally& tally) {
    svc::BatchManifest manifest;
    {
      ScopedSpan span(spans, "svc.manifest", k);
      std::istringstream is(slices_[k].text);
      manifest = svc::parseManifest(is, baseConfig());
    }
    std::vector<svc::PairOutcome> outcomes;
    for (std::size_t i = 0; i < manifest.pairs.size(); ++i) {
      const svc::BatchPairSpec& spec = manifest.pairs[i];
      const KeyedPair keyed = parseAndKey(spec, spans, k, tally);
      std::optional<svc::CachedVerdict> hit;
      {
        ScopedSpan span(spans, "svc.cache_lookup", k);
        hit = cache_->lookup(keyed.key);
      }
      svc::PairOutcome outcome;
      outcome.index = i;
      outcome.gPath = spec.gPath;
      outcome.gPrimePath = spec.gPrimePath;
      if (hit) {
        ++tally.count("svc.cache_hits");
        outcome.equivalence = hit->equivalence;
        outcome.counterexample = hit->counterexample;
      } else {
        ++tally.count("svc.dispatched");
      }
      outcomes.push_back(std::move(outcome));
    }
    const svc::BatchSerializeOptions verdictOnly{.redact = true,
                                                 .verdictOnly = true};
    ScopedSpan span(spans, "svc.serialize", k);
    std::vector<std::string> lines;
    for (const svc::PairOutcome& outcome : outcomes) {
      lines.push_back(svc::toJsonLine(outcome, verdictOnly));
    }
    lines.push_back(svc::toJsonLine(summarize(outcomes), verdictOnly));
    return lines;
  }

  /// The verdict-only summary line batch serialization ends a response
  /// with, counted the way svc::BatchScheduler counts.
  static svc::BatchSummary
  summarize(const std::vector<svc::PairOutcome>& outcomes) {
    svc::BatchSummary summary;
    summary.pairs = outcomes.size();
    for (const svc::PairOutcome& outcome : outcomes) {
      switch (outcome.equivalence) {
      case ec::Equivalence::Equivalent:
      case ec::Equivalence::EquivalentUpToGlobalPhase:
      case ec::Equivalence::ProbablyEquivalent:
        ++summary.equivalent;
        break;
      case ec::Equivalence::NotEquivalent:
        ++summary.notEquivalent;
        break;
      case ec::Equivalence::InvalidInput:
        ++summary.invalid;
        break;
      case ec::Equivalence::NoInformation:
        ++summary.inconclusive;
        break;
      }
    }
    return summary;
  }

  /// Slice [first, first + count) of the manifest and the lines the daemon
  /// must answer it with: byte-identical to the batch-cold pass's
  /// verdict-only lines, indexed within the slice.
  Slice makeSlice(const std::vector<svc::PairOutcome>& primed,
                  std::size_t first, std::size_t count) const {
    const svc::BatchSerializeOptions verdictOnly{.redact = true,
                                                 .verdictOnly = true};
    Slice slice;
    slice.pairs = count;
    std::vector<svc::PairOutcome> outcomes;
    for (std::size_t i = first; i < first + count; ++i) {
      slice.text += inputs_.lines[i] + "\n";
      svc::PairOutcome outcome = primed[i];
      outcome.index = i - first;
      slice.expected.push_back(svc::toJsonLine(outcome, verdictOnly));
      outcomes.push_back(std::move(outcome));
    }
    slice.expected.push_back(svc::toJsonLine(summarize(outcomes), verdictOnly));
    return slice;
  }

  static daemon::SubmitResult submit(const Slice& slice) {
    return daemon::submitManifestText(
        kSocketPath, slice.text,
        {.client = "ledger", .redact = true, .timeoutSeconds = 60.0});
  }

  void checkResponse(OpLog& log, const daemon::SubmitResult& response,
                     std::size_t k, std::size_t round) {
    log.pairs += slices_[k].pairs;
    if (!response.accepted) {
      ++log.failed;
    } else if (response.lines != slices_[k].expected) {
      reportWrong(log, where(round) + " request " + std::to_string(k) +
                           ": response differs from the batch-cold "
                           "verdict-only lines");
    }
  }

  [[nodiscard]] std::string where(std::size_t round) const {
    return "daemon-warm seed " + std::to_string(seed_) + " round " +
           std::to_string(round);
  }

  std::uint64_t seed_;
  BatchInputs inputs_;
  std::unique_ptr<svc::VerdictCache> cache_; // the reference pass's proofs
  std::vector<Slice> slices_;
  std::unique_ptr<daemon::Daemon> daemon_;
};

} // namespace

std::unique_ptr<Workload> makeWorkload(std::string_view name,
                                       std::uint64_t seed) {
  if (name == "check-equivalent") {
    return std::make_unique<CheckWorkload>(seed, false);
  }
  if (name == "check-nonequivalent") {
    return std::make_unique<CheckWorkload>(seed, true);
  }
  if (name == "batch-cold") {
    return std::make_unique<BatchWorkload>(seed);
  }
  if (name == "daemon-warm") {
    return std::make_unique<DaemonWorkload>(seed);
  }
  return nullptr;
}

} // namespace qsimec::ledger
