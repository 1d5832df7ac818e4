#include "svc/batch.hpp"

#include "ec/parallel.hpp"
#include "ec/serialize.hpp"
#include "io/parse.hpp"
#include "obs/postmortem.hpp"
#include "transform/decomposition.hpp"
#include "util/deadline.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace qsimec::svc {

namespace {

[[noreturn]] void failLine(std::size_t lineNumber, const std::string& what) {
  throw std::runtime_error("manifest line " + std::to_string(lineNumber) +
                           ": " + what);
}

void applyOverride(ec::FlowConfiguration& config, const std::string& key,
                   const util::JsonValue& value, std::size_t lineNumber) {
  if (key == "sims") {
    config.simulation.maxSimulations = value.asUint();
  } else if (key == "seed") {
    config.simulation.seed = value.asUint();
  } else if (key == "timeout") {
    config.complete.timeoutSeconds = value.asNumber();
  } else if (key == "stimuli") {
    const auto kind = ec::parseStimuliKind(value.asString());
    if (!kind) {
      failLine(lineNumber, "unknown stimuli kind: " + value.asString());
    }
    config.simulation.stimuli = *kind;
  } else if (key == "strategy") {
    const auto strategy = ec::parseStrategy(value.asString());
    if (!strategy) {
      failLine(lineNumber, "unknown strategy: " + value.asString());
    }
    config.complete.strategy = *strategy;
  } else if (key == "strict_phase") {
    config.simulation.ignoreGlobalPhase = !value.asBool();
  } else if (key == "sim_only") {
    config.skipComplete = value.asBool();
  } else if (key == "race") {
    config.mode = value.asBool() ? ec::FlowMode::Race : ec::FlowMode::Staged;
  } else if (key == "attr") {
    // never part of the configDigest — attribution cannot change verdicts
    config.simulation.attribution.enabled = value.asBool();
    config.complete.attribution.enabled = value.asBool();
  } else {
    failLine(lineNumber, "unknown key: " + key);
  }
}

/// One dispatched (cache-missed) pair: the parsed circuits live here until
/// its run takes them, and are freed when that run ends, so only the queued
/// misses are resident at once.
struct Job {
  std::size_t index{0};
  ir::QuantumComputation g;
  ir::QuantumComputation gPrime;
  PairKey key;
  const ec::FlowConfiguration* config{nullptr};
  /// Manifest indices of later entries with the identical key; they get a
  /// copy of this job's verdict instead of a dispatch of their own.
  std::vector<std::size_t> duplicates;
};

/// The lenient parse of the pre-pass: the flow's preflight turns a
/// malformed circuit into its pair's InvalidInput with diagnostics, not a
/// throw that aborts the whole batch.
constexpr io::ParseOptions kLenient{.validate = false};

/// One circuit file as the pre-pass reads it: its format and its bytes.
struct CircuitBytes {
  io::CircuitFormat format{io::CircuitFormat::Qasm};
  std::string text;
};

/// The file at `path`, read once; its extension is checked before the
/// read, as io::parseCircuitFile does.
CircuitBytes readCircuitBytes(const std::string& path) {
  const io::CircuitFormat format = io::circuitFormat(path);
  return CircuitBytes{format, io::readFile(path)};
}

/// Both circuits of a pair, parsed from their bytes with their paths as
/// names, and padded to the wider one's width.
struct ParsedPair {
  ir::QuantumComputation g;
  ir::QuantumComputation gPrime;
};

ParsedPair parsePair(const BatchPairSpec& spec, const CircuitBytes& g,
                     const CircuitBytes& gPrime) {
  ParsedPair pair{io::parseCircuitText(spec.gPath, g.text, kLenient),
                  io::parseCircuitText(spec.gPrimePath, gPrime.text, kLenient)};
  // ancilla-adding flows produce different widths; pad the narrower one
  // (the same normalization `qsimec check` applies, so verdicts match)
  const std::size_t width = std::max(pair.g.qubits(), pair.gPrime.qubits());
  pair.g = tf::padQubits(pair.g, width);
  pair.gPrime = tf::padQubits(pair.gPrime, width);
  return pair;
}

/// Waits for the pool's jobs when it leaves scope (by an exception too), so
/// no job outlives the run state it refers to. Null: nothing to wait for.
class DrainOnExit {
public:
  explicit DrainOnExit(ec::WorkerPool*& pool) : pool_(pool) {}
  ~DrainOnExit() {
    if (pool_ != nullptr) {
      pool_->wait();
    }
  }
  DrainOnExit(const DrainOnExit&) = delete;
  DrainOnExit& operator=(const DrainOnExit&) = delete;

private:
  ec::WorkerPool*& pool_;
};

/// The batch's Context narrowed to one manifest entry: every line logged
/// through it carries the entry's `pair_id`.
obs::Context forPair(const obs::Context& obs, std::size_t index) {
  obs::Context pairObs = obs;
  pairObs.pairId = index;
  return pairObs;
}

} // namespace

BatchManifest parseManifest(std::istream& is,
                            const ec::FlowConfiguration& base) {
  BatchManifest manifest;
  std::string line;
  std::size_t lineNumber = 0;
  while (std::getline(is, line)) {
    ++lineNumber;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    util::JsonValue doc;
    try {
      doc = util::parseJson(line);
    } catch (const util::JsonParseError& e) {
      failLine(lineNumber, e.what());
    }
    if (!doc.isObject()) {
      failLine(lineNumber, "expected a JSON object");
    }
    BatchPairSpec spec;
    spec.config = base;
    try {
      for (const auto& [key, value] : doc.members()) {
        if (key == "g") {
          spec.gPath = value.asString();
        } else if (key == "gp") {
          spec.gPrimePath = value.asString();
        } else {
          applyOverride(spec.config, key, value, lineNumber);
        }
      }
    } catch (const util::JsonParseError& e) {
      failLine(lineNumber, e.what());
    }
    if (spec.gPath.empty() || spec.gPrimePath.empty()) {
      failLine(lineNumber, "missing \"g\" or \"gp\"");
    }
    manifest.pairs.push_back(std::move(spec));
  }
  return manifest;
}

BatchManifest loadManifestFile(const std::string& path,
                               const ec::FlowConfiguration& base) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open manifest: " + path);
  }
  return parseManifest(is, base);
}

void BatchScheduler::cancel() {
  cancelRequested_.store(true, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(flagsMutex_);
  if (activeFlags_ != nullptr) {
    for (std::atomic<bool>& flag : *activeFlags_) {
      flag.store(true, std::memory_order_relaxed);
    }
  }
}

BatchResult BatchScheduler::run(const BatchManifest& manifest,
                                const obs::Context& caller) {
  const std::size_t total = manifest.pairs.size();
  const unsigned threads =
      options_.pool != nullptr
          ? options_.pool->threads()
          : ec::resolveThreadCount(options_.threads,
                                   std::max<std::size_t>(total, 1));

  BatchResult result;
  result.outcomes.resize(total);
  result.summary.pairs = total;
  result.summary.threads = threads;

  // Stall containment wants a heartbeat source even when the caller did not
  // attach a flight recorder; a private one then lives for this run only,
  // attached to this run's copy of the caller's context.
  std::optional<obs::FlightRecorder> ownFlight;
  obs::Context obs = caller;
  const bool wantWatchdog =
      options_.stallQuietSeconds > 0 || options_.pairDeadlineSeconds > 0;
  if (obs.flight == nullptr && wantWatchdog) {
    obs.flight = &ownFlight.emplace();
  }
  // Started at the first dispatch (below): a batch served
  // entirely from the cache has nothing to watch and spawns no thread.
  std::optional<obs::Watchdog> watchdog;

  const util::Stopwatch watch;
  obs::ScopedSpan batchSpan(obs, "svc.batch", "svc");
  batchSpan.arg("pairs", static_cast<std::uint64_t>(total));
  batchSpan.arg("threads", static_cast<std::uint64_t>(threads));
  obs.log(obs::JournalLevel::Info, "svc.batch.start")
      .num("pairs", static_cast<std::uint64_t>(total))
      .num("threads", static_cast<std::uint64_t>(threads));

  std::vector<std::atomic<bool>> cancelFlags(total);
  {
    const std::lock_guard<std::mutex> lock(flagsMutex_);
    activeFlags_ = &cancelFlags;
    if (cancelRequested_.load(std::memory_order_relaxed)) {
      for (std::atomic<bool>& flag : cancelFlags) {
        flag.store(true, std::memory_order_relaxed);
      }
    }
  }

  // the count behind onPairDone is taken under its lock, so the callback sees
  // 1, 2, ... total in call order whichever thread resolved the pair
  std::size_t doneCount = 0;
  std::mutex progressMutex;
  const auto reportDone = [&] {
    if (options_.onPairDone) {
      const std::lock_guard<std::mutex> lock(progressMutex);
      options_.onPairDone(++doneCount, total);
    }
  };

  // Reserved up front: a submitted Job& must never move while the pre-pass
  // keeps appending.
  std::vector<Job> jobs;
  jobs.reserve(total);
  std::unordered_map<PairKey, std::size_t, PairKeyHash> representatives;
  std::size_t cacheHits = 0;
  std::size_t cacheMisses = 0;
  std::size_t digestHits = 0;
  std::size_t dedupedPairs = 0;
  std::atomic<std::size_t> cacheStores{0};
  std::atomic<std::size_t> stalledPairs{0};
  // Per-pair resolution claims: a dispatched pair is committed exactly once,
  // by whoever wins the exchange — the worker with its real verdict, or the
  // watchdog declaring a stall. The loser's write is discarded, so a late
  // result from a formerly-wedged worker cannot race the batch summary.
  std::vector<std::atomic<bool>> resolved(total);

  // Verdicts stored while the pre-pass still runs are held, and flushed in
  // job order when it ends: the pre-pass never sees a store made by this
  // batch, so every pair is classified as if the jobs ran after it, and a
  // small cache evicts as it would then.
  std::mutex storeMutex;
  bool holdStores = true;
  std::vector<std::pair<const Job*, CachedVerdict>> heldStores;
  const auto storeVerdict = [&](const Job& job, CachedVerdict verdict) {
    {
      const std::lock_guard<std::mutex> lock(storeMutex);
      if (holdStores) {
        heldStores.emplace_back(&job, std::move(verdict));
        return;
      }
    }
    options_.cache->store(job.key, verdict);
  };
  const auto flushHeldStores = [&] {
    const std::lock_guard<std::mutex> lock(storeMutex);
    holdStores = false;
    std::sort(heldStores.begin(), heldStores.end(),
              [](const auto& a, const auto& b) {
                return a.first->index < b.first->index;
              });
    for (const auto& [job, verdict] : heldStores) {
      options_.cache->store(job->key, verdict);
    }
  };

  const auto onStall = [&](std::size_t index,
                           const obs::Watchdog::StallInfo& info) {
    if (resolved[index].exchange(true, std::memory_order_acq_rel)) {
      return; // the worker committed in the same instant; not a stall
    }
    PairOutcome& outcome = result.outcomes[index];
    outcome.equivalence = ec::Equivalence::NoInformation;
    outcome.stalled = true;
    stalledPairs.fetch_add(1, std::memory_order_relaxed);
    if (!options_.postmortemDir.empty() && obs.flight != nullptr) {
      const std::string path = options_.postmortemDir + "/postmortem-pair-" +
                               std::to_string(index) + ".jsonl";
      obs::PostmortemOptions dumpOptions;
      dumpOptions.reason = "stall";
      dumpOptions.label = info.label;
      try {
        obs::writePostmortemFile(path, *obs.flight, dumpOptions);
        outcome.dumpRef = path;
      } catch (const std::exception&) {
        // a failed dump must not take the batch down with the pair
      }
    }
    forPair(obs, index)
        .log(obs::JournalLevel::Error, "svc.pair.stalled")
        .str("reason", info.reason)
        .num("heartbeat_age_micros", info.heartbeatAgeMicros)
        .num("run_micros", info.runMicros)
        .str("dump", outcome.dumpRef);
    // unwedge the worker if it is still polling; if it is not, the claim
    // above already freed the batch from waiting on its result
    cancelFlags[index].store(true, std::memory_order_relaxed);
    reportDone();
  };

  const auto runJob = [&](Job& job) {
    const std::size_t index = job.index;
    // the circuits leave the job here, so they are freed as soon as this
    // pair is done, not when the batch is
    const ir::QuantumComputation g = std::move(job.g);
    const ir::QuantumComputation gPrime = std::move(job.gPrime);
    PairOutcome local;
    local.index = index;
    local.gPath = manifest.pairs[index].gPath;
    local.gPrimePath = manifest.pairs[index].gPrimePath;
    const auto commit = [&](PairOutcome&& value) {
      if (!resolved[index].exchange(true, std::memory_order_acq_rel)) {
        result.outcomes[index] = std::move(value);
        reportDone();
        return true;
      }
      return false; // the watchdog already resolved this pair as stalled
    };
    if (cancelFlags[index].load(std::memory_order_relaxed)) {
      local.cancelled = true;
      commit(std::move(local));
      return;
    }
    std::size_t noteId = obs::FlightRecorder::kMaxPairNotes;
    std::uint64_t watchId = 0;
    if (obs.flight != nullptr) {
      // "pair N", or "request R pair N" under the daemon: the label of the
      // pair's note, its watch and so its stall dump
      std::string label;
      if (obs.requestId) {
        label = "request ";
        label += std::to_string(*obs.requestId);
        label += ' ';
      }
      label += "pair ";
      label += std::to_string(index);
      noteId = obs.flight->notePair(label, job.key.g.hex());
      if (watchdog) {
        if (const std::atomic<std::uint64_t>* beat =
                obs.flight->heartbeatSlot()) {
          watchId = watchdog->watch(
              label, beat,
              options_.stallQuietSeconds, options_.pairDeadlineSeconds,
              [&onStall, index](const obs::Watchdog::StallInfo& info) {
                onStall(index, info);
              });
        }
      }
    }
    const auto release = [&] {
      if (watchId != 0) {
        watchdog->unwatch(watchId);
      }
      if (obs.flight != nullptr) {
        obs.flight->clearPair(noteId);
      }
    };
    if (watchdog) {
      // self-test hook: wedge this worker without heartbeats until the
      // watchdog cancels the pair, proving detection and batch survival
      // end to end. Only honored while a watchdog is armed, so a stray
      // environment variable cannot hang a production batch.
      if (const char* stallEnv = std::getenv("QSIMEC_SELFTEST_STALL_WORKER");
          stallEnv != nullptr &&
          index == static_cast<std::size_t>(std::strtoul(stallEnv, nullptr,
                                                         10))) {
        while (!cancelFlags[index].load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        release();
        return; // the watchdog resolved the pair; nothing to commit
      }
    }
    // Workers share the thread-safe sinks (tracer, journal, flight) but
    // never the metrics registry, which is single-threaded.
    obs::Context workerObs = forPair(obs, index);
    workerObs.metrics = nullptr;
    obs::ScopedSpan pairSpan(workerObs, "svc.pair", "svc");
    pairSpan.arg("index", static_cast<std::uint64_t>(index));
    pairSpan.arg("cache_hit", std::uint64_t{0});
    ec::FlowConfiguration config = *job.config;
    config.simulation.cancelFlag = &cancelFlags[index];
    config.complete.cancelFlag = &cancelFlags[index];
    try {
      const ec::FlowResult flow =
          ec::EquivalenceCheckingFlow(config).run(g, gPrime, workerObs);
      local.equivalence = flow.equivalence;
      local.counterexample = flow.counterexample;
      local.completeTimedOut = flow.completeTimedOut;
      local.simulations = flow.simulations;
      local.seconds = flow.totalSeconds();
      local.tier = std::string(analysis::toString(flow.tier));
      if (flow.profile) {
        local.gateSet = std::string(toString(flow.profile->combined()));
      }
      const auto rollup = [&local](const std::optional<ec::AttributionProfile>&
                                       attr) {
        if (!attr) {
          return;
        }
        local.attrGatesApplied += attr->gatesApplied;
        local.attrPeakNodesLive =
            std::max(local.attrPeakNodesLive, attr->peakNodesLive);
        local.attrNodesDelta += attr->nodesDeltaTotal;
        local.attrWallNanos += attr->wallNanosTotal;
      };
      rollup(flow.simulationAttribution);
      rollup(flow.completeAttribution);
      local.cancelled = cancelFlags[index].load(std::memory_order_relaxed);
      if (options_.cache != nullptr && !local.cancelled &&
          isCacheable(local.equivalence)) {
        // the proof's wall-seconds ride along as its eviction cost —
        // cheapest-to-reprove entries leave a full cache first
        storeVerdict(job, CachedVerdict{local.equivalence,
                                        local.counterexample, local.seconds});
        cacheStores.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::exception& e) {
      local.equivalence = ec::Equivalence::NoInformation;
      local.error = e.what();
    }
    release();
    const ec::Equivalence verdict = local.equivalence;
    const std::size_t simulations = local.simulations;
    const double seconds = local.seconds;
    const bool wasCancelled = local.cancelled;
    if (commit(std::move(local))) {
      workerObs
          .log(verdict == ec::Equivalence::NotEquivalent
                   ? obs::JournalLevel::Warn
                   : obs::JournalLevel::Info,
               "svc.pair.verdict")
          .str("outcome", ec::toString(verdict))
          .num("simulations", static_cast<std::uint64_t>(simulations))
          .num("seconds", seconds)
          .flag("cancelled", wasCancelled);
    }
  };

  {
    // The pool the jobs run on, started at the first dispatch: the resident
    // one, or an own pool when more than one thread is wanted (with one, the
    // jobs run inline after the pre-pass). Leaving this block, by an
    // exception too, drains it before the state its jobs use goes away.
    std::optional<ec::WorkerPool> ownPool;
    ec::WorkerPool* pool = nullptr;
    const DrainOnExit drain(pool);
    const auto dispatch = [&](Job& job) {
      if (jobs.size() == 1) {
        if (wantWatchdog) {
          watchdog.emplace(*obs.flight);
        }
        if (options_.pool != nullptr) {
          // resident pool: the workers (and their flight-recorder slots)
          // belong to the caller and outlive this run
          pool = options_.pool;
        } else if (const std::size_t workers =
                       std::min<std::size_t>(threads, total - job.index);
                   workers > 1) {
          pool = &ownPool.emplace(static_cast<unsigned>(workers), obs.flight);
        }
      }
      if (pool != nullptr) {
        pool->submit([&runJob, &job] { runJob(job); });
      }
    };

    // Scheduler-thread pre-pass in manifest order: read both files, key the
    // pair (from the cache's byte front, or by a parse and fingerprint), and
    // consult the cache; a miss repeating an earlier miss's (fp(g), fp(gp),
    // configDigest) triple is coalesced onto the first occurrence's job, and
    // any other miss becomes a job, submitted at once, so the workers check
    // while this loop keys the rest. Only dispatched pairs need their
    // circuits, so only they are parsed after a byte-front hit.
    for (std::size_t i = 0; i < total; ++i) {
      const BatchPairSpec& spec = manifest.pairs[i];
      PairOutcome& outcome = result.outcomes[i];
      outcome.index = i;
      outcome.gPath = spec.gPath;
      outcome.gPrimePath = spec.gPrimePath;
      const obs::Context pairObs = forPair(obs, i);
      pairObs.log(obs::JournalLevel::Info, "svc.pair.start")
          .str("g", spec.gPath)
          .str("gp", spec.gPrimePath);
      if (cancelFlags[i].load(std::memory_order_relaxed)) {
        outcome.cancelled = true;
        reportDone();
        continue;
      }
      std::optional<Job> job;
      try {
        // each file is read once; a read error of gp comes second to a
        // parse error of g, as when the files are parsed one after the other
        const CircuitBytes gBytes = readCircuitBytes(spec.gPath);
        CircuitBytes gPrimeBytes;
        try {
          gPrimeBytes = readCircuitBytes(spec.gPrimePath);
        } catch (const std::exception&) {
          (void)io::parseCircuitText(spec.gPath, gBytes.text, kLenient);
          throw;
        }
        // the byte front keys an unchanged pair without parsing it; a miss
        // parses these same bytes and is remembered only once it succeeded
        std::optional<ParsedPair> parsed;
        std::optional<PairFingerprints> fingerprints;
        ByteKey byteKey;
        if (options_.cache != nullptr) {
          byteKey = ByteKey{contentDigest(gBytes.format, gBytes.text),
                            contentDigest(gPrimeBytes.format, gPrimeBytes.text)};
          fingerprints = options_.cache->lookupBytes(byteKey);
        }
        if (fingerprints) {
          ++digestHits;
        } else {
          parsed = parsePair(spec, gBytes, gPrimeBytes);
          fingerprints = PairFingerprints{fingerprint(parsed->g),
                                          fingerprint(parsed->gPrime)};
          if (options_.cache != nullptr) {
            options_.cache->rememberBytes(byteKey, *fingerprints);
          }
        }
        const PairKey key{fingerprints->g, fingerprints->gPrime,
                          configDigest(spec.config)};
        if (options_.cache != nullptr) {
          if (const auto hit = options_.cache->lookup(key)) {
            obs::ScopedSpan pairSpan(pairObs, "svc.pair", "svc");
            pairSpan.arg("index", static_cast<std::uint64_t>(i));
            pairSpan.arg("cache_hit", std::uint64_t{1});
            outcome.cacheHit = true;
            outcome.equivalence = hit->equivalence;
            outcome.counterexample = hit->counterexample;
            ++cacheHits;
            pairObs.log(obs::JournalLevel::Info, "svc.pair.cache_hit")
                .str("verdict", ec::toString(outcome.equivalence));
            reportDone();
            continue;
          }
          ++cacheMisses;
        }
        if (const auto rep = representatives.find(key);
            rep != representatives.end()) {
          jobs[rep->second].duplicates.push_back(i);
          outcome.deduped = true;
          ++dedupedPairs;
          pairObs.log(obs::JournalLevel::Info, "svc.pair.dedup")
              .num("representative",
                   static_cast<std::uint64_t>(jobs[rep->second].index));
          // resolved (and reported done) when the representative's verdict
          // fans out after the pool drains
          continue;
        }
        if (!parsed) {
          parsed = parsePair(spec, gBytes, gPrimeBytes);
        }
        job.emplace(Job{i, std::move(parsed->g), std::move(parsed->gPrime),
                        key, &spec.config, {}});
      } catch (const std::exception& e) {
        outcome.equivalence = ec::Equivalence::InvalidInput;
        outcome.error = e.what();
        pairObs.log(obs::JournalLevel::Error, "svc.pair.verdict")
            .str("outcome", ec::toString(outcome.equivalence))
            .str("error", outcome.error);
        reportDone();
        continue;
      }
      representatives.emplace(job->key, jobs.size());
      dispatch(jobs.emplace_back(std::move(*job)));
    }
    flushHeldStores();
    if (pool == nullptr) {
      for (Job& job : jobs) {
        runJob(job);
      }
    }
  } // the drain waits for the pool, then an own pool joins its workers

  // Join the watchdog thread before touching the outcomes: a stall callback
  // dispatched just before its unwatch may still be running, and it writes
  // result slots and counters this thread is about to read.
  watchdog.reset();

  // Fan the representative verdicts out to their deduplicated entries, in
  // manifest order (the jobs vector is manifest-ordered and so is each
  // duplicates list, so this loop is deterministic).
  for (const Job& job : jobs) {
    const PairOutcome& rep = result.outcomes[job.index];
    for (const std::size_t dup : job.duplicates) {
      // everything the representative found, under this entry's own
      // index and paths, and with no time of its own
      PairOutcome& outcome = result.outcomes[dup];
      PairOutcome copy = rep;
      copy.index = dup;
      copy.gPath = std::move(outcome.gPath);
      copy.gPrimePath = std::move(outcome.gPrimePath);
      copy.deduped = true;
      copy.seconds = 0.0;
      outcome = std::move(copy);
      forPair(obs, dup)
          .log(obs::JournalLevel::Info, "svc.pair.verdict")
          .str("outcome", ec::toString(outcome.equivalence))
          .flag("deduped", true);
      reportDone();
    }
  }

  {
    const std::lock_guard<std::mutex> lock(flagsMutex_);
    activeFlags_ = nullptr;
  }

  BatchSummary& summary = result.summary;
  summary.cacheHits = cacheHits;
  summary.cacheStores = cacheStores.load(std::memory_order_relaxed);
  summary.deduped = dedupedPairs;
  summary.stalled = stalledPairs.load(std::memory_order_relaxed);
  summary.dispatched = jobs.size();
  for (const PairOutcome& outcome : result.outcomes) {
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
  summary.seconds = watch.seconds();

  // rank the DD-heaviest pairs (wall time never participates, so the list
  // is deterministic for a fixed manifest and machine-independent modulo
  // timeouts)
  for (const PairOutcome& outcome : result.outcomes) {
    if (outcome.attrGatesApplied > 0) {
      summary.topExpensive.push_back(ExpensivePairRef{
          outcome.index, outcome.attrPeakNodesLive,
          outcome.attrGatesApplied});
    }
  }
  std::sort(summary.topExpensive.begin(), summary.topExpensive.end(),
            [](const ExpensivePairRef& a, const ExpensivePairRef& b) {
              if (a.peakNodesLive != b.peakNodesLive) {
                return a.peakNodesLive > b.peakNodesLive;
              }
              if (a.gatesApplied != b.gatesApplied) {
                return a.gatesApplied > b.gatesApplied;
              }
              return a.index < b.index;
            });
  if (summary.topExpensive.size() > kTopExpensivePairs) {
    summary.topExpensive.resize(kTopExpensivePairs);
  }

  batchSpan.arg("cache_hits", static_cast<std::uint64_t>(summary.cacheHits));
  batchSpan.arg("not_equivalent",
                static_cast<std::uint64_t>(summary.notEquivalent));
  obs.log(obs::JournalLevel::Info, "svc.batch.done")
      .num("pairs", static_cast<std::uint64_t>(summary.pairs))
      .num("equivalent", static_cast<std::uint64_t>(summary.equivalent))
      .num("not_equivalent",
           static_cast<std::uint64_t>(summary.notEquivalent))
      .num("inconclusive", static_cast<std::uint64_t>(summary.inconclusive))
      .num("invalid", static_cast<std::uint64_t>(summary.invalid))
      .num("cache_hits", static_cast<std::uint64_t>(summary.cacheHits))
      .num("cache_stores", static_cast<std::uint64_t>(summary.cacheStores))
      .num("deduped", static_cast<std::uint64_t>(summary.deduped))
      .num("stalled", static_cast<std::uint64_t>(summary.stalled))
      .num("seconds", summary.seconds);
  // Published from the scheduler thread only, after the pool has drained.
  obs.count("svc.pairs", summary.pairs);
  obs.count("svc.cache.hit", summary.cacheHits);
  obs.count("svc.cache.miss", cacheMisses);
  obs.count("svc.cache.store", summary.cacheStores);
  obs.count("svc.cache.digest_hit", digestHits);
  obs.count("svc.pairs.deduped", summary.deduped);
  obs.count("svc.pairs.stalled", summary.stalled);
  obs.count("svc.pairs.dispatched", summary.dispatched);
  obs.gauge("svc.batch.seconds", summary.seconds);
  if (options_.cache != nullptr) {
    // cumulative over the cache's lifetime (not this run): the re-proving
    // debt incurred by cost-aware eviction, and the current fill level
    obs.gauge("svc.cache.evicted_seconds", options_.cache->evictedSeconds());
    obs.gauge("svc.cache.size",
              static_cast<double>(options_.cache->size()));
  }
  // Recorder/watchdog health: how many events the black box kept vs. shed,
  // and how stale every worker slot's heartbeat is at batch end.
  if (obs.flight != nullptr) {
    obs.count("flight.events", obs.flight->eventsRecorded());
    obs.count("flight.events_dropped", obs.flight->eventsDropped());
    for (const auto& [slot, age] : obs.flight->heartbeatAges()) {
      obs.gauge("watchdog.heartbeat_age_micros.t" + std::to_string(slot),
                static_cast<double>(age));
    }
  }
  return result;
}

std::string toJsonLine(const PairOutcome& outcome,
                       const BatchSerializeOptions& options) {
  util::JsonWriter json;
  if (options.verdictOnly) {
    // provenance-free: a cache-served pair and a freshly-checked pair with
    // the same verdict serialize to the same bytes
    json.beginObject()
        .field("schema", "qsimec-batch-v1")
        .field("index", static_cast<std::uint64_t>(outcome.index))
        .field("g", outcome.gPath)
        .field("gp", outcome.gPrimePath)
        .field("equivalence", ec::toString(outcome.equivalence))
        .rawField("counterexample", ec::toJson(outcome.counterexample));
    if (!outcome.error.empty()) {
      json.field("error", outcome.error);
    }
    json.endObject();
    return json.str();
  }
  json.beginObject()
      .field("schema", "qsimec-batch-v1")
      .field("index", static_cast<std::uint64_t>(outcome.index))
      .field("g", outcome.gPath)
      .field("gp", outcome.gPrimePath)
      .field("equivalence", ec::toString(outcome.equivalence))
      .field("cache_hit", outcome.cacheHit)
      .field("deduped", outcome.deduped)
      .field("cancelled", outcome.cancelled)
      .field("simulations", static_cast<std::uint64_t>(outcome.simulations));
  if (!options.redact) {
    // stalls are timing-dependent, like timeouts: unredacted only
    json.field("stalled", outcome.stalled);
    if (!outcome.dumpRef.empty()) {
      json.field("dump_ref", outcome.dumpRef);
    }
  }
  if (!outcome.tier.empty()) {
    json.field("tier", outcome.tier);
  }
  if (!outcome.gateSet.empty()) {
    json.field("gate_set", outcome.gateSet);
  }
  if (!options.redact) {
    json.field("complete_timed_out", outcome.completeTimedOut)
        .field("seconds", outcome.seconds);
    if (outcome.attrGatesApplied > 0) {
      json.field("attr_gates_applied", outcome.attrGatesApplied)
          .field("attr_peak_nodes_live", outcome.attrPeakNodesLive)
          .field("attr_nodes_delta", outcome.attrNodesDelta)
          .field("attr_wall_nanos", outcome.attrWallNanos);
    }
  }
  json.rawField("counterexample", ec::toJson(outcome.counterexample));
  if (!outcome.error.empty()) {
    json.field("error", outcome.error);
  }
  json.endObject();
  return json.str();
}

std::string toJsonLine(const BatchSummary& summary,
                       const BatchSerializeOptions& options) {
  util::JsonWriter json;
  if (options.verdictOnly) {
    json.beginObject()
        .field("schema", "qsimec-batch-v1")
        .field("summary", true)
        .field("pairs", static_cast<std::uint64_t>(summary.pairs))
        .field("equivalent", static_cast<std::uint64_t>(summary.equivalent))
        .field("not_equivalent",
               static_cast<std::uint64_t>(summary.notEquivalent))
        .field("inconclusive",
               static_cast<std::uint64_t>(summary.inconclusive))
        .field("invalid", static_cast<std::uint64_t>(summary.invalid))
        .endObject();
    return json.str();
  }
  json.beginObject()
      .field("schema", "qsimec-batch-v1")
      .field("summary", true)
      .field("pairs", static_cast<std::uint64_t>(summary.pairs))
      .field("equivalent", static_cast<std::uint64_t>(summary.equivalent))
      .field("not_equivalent",
             static_cast<std::uint64_t>(summary.notEquivalent))
      .field("inconclusive", static_cast<std::uint64_t>(summary.inconclusive))
      .field("invalid", static_cast<std::uint64_t>(summary.invalid))
      .field("cache_hits", static_cast<std::uint64_t>(summary.cacheHits))
      .field("cache_stores",
             static_cast<std::uint64_t>(summary.cacheStores))
      .field("deduped", static_cast<std::uint64_t>(summary.deduped));
  if (!options.redact) {
    json.field("stalled", static_cast<std::uint64_t>(summary.stalled))
        .field("dispatched", static_cast<std::uint64_t>(summary.dispatched))
        .field("threads", summary.threads)
        .field("seconds", summary.seconds);
    if (!summary.topExpensive.empty()) {
      json.beginArray("top_expensive");
      for (const ExpensivePairRef& ref : summary.topExpensive) {
        json.beginObject()
            .field("index", static_cast<std::uint64_t>(ref.index))
            .field("peak_nodes_live", ref.peakNodesLive)
            .field("gates_applied", ref.gatesApplied)
            .endObject();
      }
      json.endArray();
    }
  }
  json.endObject();
  return json.str();
}

} // namespace qsimec::svc
