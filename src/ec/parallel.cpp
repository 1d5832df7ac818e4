#include "ec/parallel.hpp"

#include "dd/package.hpp"
#include "ec/stimuli.hpp"
#include "sim/dd_simulator.hpp"
#include "util/deadline.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>

namespace qsimec::ec {

unsigned defaultThreadCount() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1U : hw;
}

unsigned resolveThreadCount(unsigned requested, std::size_t runs) noexcept {
  unsigned threads = requested == 0 ? defaultThreadCount() : requested;
  if (runs < threads) {
    threads = static_cast<unsigned>(runs);
  }
  return std::max(threads, 1U);
}

WorkerPool::WorkerPool(unsigned threads, obs::FlightRecorder* flight)
    : flight_(flight) {
  const unsigned count = std::max(threads, 1U);
  workers_.reserve(count);
  for (unsigned t = 0; t < count; ++t) {
    workers_.emplace_back(
        [this, t](const std::stop_token& stop) { workerLoop(stop, t); });
  }
}

WorkerPool::~WorkerPool() {
  for (std::jthread& worker : workers_) {
    worker.request_stop();
  }
  taskReady_.notify_all();
  // the jthread destructors join
}

void WorkerPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  taskReady_.notify_one();
}

void WorkerPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && busy_ == 0; });
}

void WorkerPool::workerLoop(const std::stop_token& stop, unsigned index) {
  if (flight_ != nullptr) {
    flight_->labelThread("pool.worker." + std::to_string(index));
  }
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      taskReady_.wait(lock, stop, [this] { return !queue_.empty(); });
      if (queue_.empty()) {
        return; // stop requested and nothing left to do
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
    }
    if (flight_ != nullptr) {
      flight_->beat(); // picking up a task is liveness
    }
    task();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --busy_;
      if (queue_.empty() && busy_ == 0) {
        idle_.notify_all();
      }
    }
  }
}

std::uint64_t perRunStimulusSeed(std::uint64_t seed,
                                 std::size_t runIndex) noexcept {
  // splitmix64 over (seed, runIndex): statistically independent per-run
  // streams, and — unlike drawing run i's seed from one sequential
  // generator — run i's stimulus does not depend on how many draws
  // happened before, i.e. not on scheduling.
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(runIndex) + 1);
  z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31U);
}

namespace {

constexpr std::size_t NO_MISMATCH = std::numeric_limits<std::size_t>::max();

struct RunOutcome {
  bool completed{false};
  double fidelity{0.0};
  double deviation{0.0};
  std::uint64_t stimulusSeed{0};
};

} // namespace

CheckResult runStimuliPortfolio(const SimulationConfiguration& config,
                                const ir::QuantumComputation& qc1,
                                const ir::QuantumComputation& qc2,
                                const obs::Context& obs) {
  if (qc1.qubits() != qc2.qubits()) {
    throw std::invalid_argument(
        "equivalence checking requires equal qubit counts");
  }
  const std::size_t n = qc1.qubits();
  const std::size_t r = config.maxSimulations;
  const util::Deadline deadline =
      config.timeoutSeconds > 0
          ? util::Deadline::after(
                std::chrono::duration<double>(config.timeoutSeconds))
          : util::Deadline::never();
  const std::uint64_t mask = (n >= 64) ? ~0ULL : ((1ULL << n) - 1ULL);

  const unsigned threads = resolveThreadCount(config.numThreads, r);

  CheckResult result;
  result.numThreads = threads;
  const util::Stopwatch watch;
  obs::ScopedSpan checkerSpan(obs, "checker.simulation", "checker");
  checkerSpan.arg("max_simulations", static_cast<std::uint64_t>(r));
  checkerSpan.arg("stimuli", toString(config.stimuli));
  checkerSpan.arg("num_threads", static_cast<std::uint64_t>(threads));

  std::vector<RunOutcome> outcomes(r);
  // per-run attribution slots: each completed run i deposits the cost data
  // of its own package's gate applications here; the logical sequential
  // prefix is merged after the workers finish (same rule as the fidelity
  // histogram below), so the profile is thread-count invariant.
  std::vector<dd::AttributionData> runAttrs(
      config.attribution.enabled ? r : 0);
  std::vector<dd::PackageStats> workerStats(threads);
  std::atomic<std::size_t> nextRun{0};
  std::atomic<std::size_t> firstMismatch{NO_MISMATCH};
  std::atomic<std::size_t> completedRuns{0};
  std::atomic<bool> timedOut{false};
  std::atomic<bool> cancelled{false};
  std::mutex progressMutex; // serializes onRunCompleted across workers
  const CancelFlag externalCancel = config.cancelFlag;

  const auto workerBody = [&](unsigned workerIndex) {
    obs::Context laneObs = obs; // this worker's lines name its lane
    laneObs.lane = workerIndex;
    std::optional<dd::Package> pkg; // created on the first claimed run
    std::optional<dd::AttributionCollector> attr;
    std::size_t currentRun = 0;
    for (;;) {
      if (timedOut.load(std::memory_order_relaxed)) {
        break;
      }
      if (externalCancel.raised()) {
        cancelled.store(true, std::memory_order_relaxed);
        break;
      }
      const std::size_t i = nextRun.fetch_add(1, std::memory_order_relaxed);
      if (i >= r) {
        break;
      }
      if (firstMismatch.load(std::memory_order_relaxed) < i) {
        // a smaller run index already proved non-equivalence; this run can
        // no longer contribute to verdict or counterexample
        continue;
      }
      if (!pkg) {
        pkg.emplace(n);
        pkg->attach(laneObs);
        pkg->setInterruptHook(
            [&deadline, externalCancel, &firstMismatch, &currentRun] {
              deadline.check();
              if (externalCancel.raised()) {
                throw util::CancelledError();
              }
              if (firstMismatch.load(std::memory_order_relaxed) < currentRun) {
                throw util::CancelledError();
              }
            });
        if (config.attribution.enabled) {
          attr.emplace(*pkg);
        }
      }
      currentRun = i;
      if (attr) {
        (void)attr->take(); // drop residue from a cancelled earlier run
      }

      RunOutcome& outcome = outcomes[i];
      const std::uint64_t stimulusSeed =
          config.stimuli == StimuliKind::ComputationalBasis
              ? (perRunStimulusSeed(config.seed, i) & mask)
              : perRunStimulusSeed(config.seed, i);
      outcome.stimulusSeed = stimulusSeed;

      obs::ScopedSpan runSpan(obs, "sim.stimulus", "sim");
      runSpan.arg("index", static_cast<std::uint64_t>(i));
      runSpan.arg("seed", stimulusSeed);
      try {
        deadline.check();
        // determinism barrier: every run starts from the value-state of a
        // freshly constructed package (see header comment)
        pkg->resetComputationState();

        const dd::vEdge stimulus =
            makeStimulus(*pkg, config.stimuli, stimulusSeed);
        pkg->incRef(stimulus);

        dd::AttributionCollector* collect = attr ? &*attr : nullptr;
        const dd::vEdge out1 = sim::simulate(qc1, stimulus, *pkg, &deadline,
                                             collect, dd::AttrSide::Left);
        pkg->incRef(out1);
        const dd::vEdge out2 = sim::simulate(qc2, stimulus, *pkg, &deadline,
                                             collect, dd::AttrSide::Right);
        pkg->incRef(out2);
        pkg->decRef(stimulus);

        // Normalize by both state norms: long circuits accumulate tiny
        // floating-point norm drift that must not masquerade as
        // non-equivalence.
        const dd::ComplexValue overlap = pkg->innerProduct(out1, out2);
        const double n1 = pkg->innerProduct(out1, out1).re;
        const double n2 = pkg->innerProduct(out2, out2).re;
        const double fidelity = overlap.mag2() / (n1 * n2);
        const double cosine = overlap.re / std::sqrt(n1 * n2);
        const double deviation =
            config.ignoreGlobalPhase
                ? std::abs(1.0 - fidelity)
                : std::abs(1.0 - cosine) +
                      std::abs(overlap.im) / std::sqrt(n1 * n2);
        pkg->decRef(out1);
        pkg->decRef(out2);

        outcome.fidelity = fidelity;
        outcome.deviation = deviation;
        outcome.completed = true;
        if (attr) {
          runAttrs[i] = attr->take();
        }
        runSpan.arg("fidelity", fidelity);
        const bool mismatch = deviation > config.fidelityTolerance;
        laneObs
            .log(mismatch ? obs::JournalLevel::Warn : obs::JournalLevel::Info,
                 "sim.stimulus")
            .num("index", static_cast<std::uint64_t>(i))
            .num("seed", stimulusSeed)
            .num("fidelity", fidelity)
            .num("deviation", deviation)
            .flag("mismatch", mismatch);
        const std::size_t done =
            completedRuns.fetch_add(1, std::memory_order_relaxed) + 1;
        if (config.onRunCompleted) {
          const std::lock_guard<std::mutex> progressLock(progressMutex);
          config.onRunCompleted(done, r);
        }
        if (mismatch) {
          // publish the smallest mismatching index: exactly the run a
          // sequential sweep would have stopped at
          std::size_t expected = firstMismatch.load(std::memory_order_relaxed);
          while (i < expected && !firstMismatch.compare_exchange_weak(
                                     expected, i, std::memory_order_relaxed)) {
          }
        }
      } catch (const util::TimeoutError&) {
        timedOut.store(true, std::memory_order_relaxed);
        break;
      } catch (const dd::ResourceLimitExceeded&) {
        timedOut.store(true, std::memory_order_relaxed);
        break;
      } catch (const util::CancelledError&) {
        // outdated by a smaller mismatch index or an external stop; the
        // loop header decides which
        runSpan.arg("cancelled", std::uint64_t{1});
        laneObs.log(obs::JournalLevel::Debug, "sim.stimulus.cancelled")
            .num("index", static_cast<std::uint64_t>(i))
            .num("seed", stimulusSeed);
        continue;
      }
    }
    if (pkg) {
      workerStats[workerIndex] = pkg->stats();
    }
  };

  if (threads == 1) {
    workerBody(0);
  } else {
    WorkerPool pool(threads, obs.flight);
    for (unsigned t = 0; t < threads; ++t) {
      pool.submit([&workerBody, t] { workerBody(t); });
    }
    pool.wait();
  }

  // aggregate with sequential first-mismatch semantics
  const std::size_t mismatch = firstMismatch.load(std::memory_order_relaxed);
  if (mismatch != NO_MISMATCH) {
    result.equivalence = Equivalence::NotEquivalent;
    result.simulations = mismatch + 1;
    result.counterexample = Counterexample{outcomes[mismatch].stimulusSeed,
                                           outcomes[mismatch].fidelity,
                                           config.stimuli};
  } else if (timedOut.load(std::memory_order_relaxed)) {
    result.equivalence = Equivalence::NoInformation;
    result.timedOut = true;
    for (const RunOutcome& outcome : outcomes) {
      result.simulations += outcome.completed ? 1 : 0;
    }
  } else if (cancelled.load(std::memory_order_relaxed)) {
    result.equivalence = Equivalence::NoInformation;
    result.cancelled = true;
    checkerSpan.arg("cancelled", std::uint64_t{1});
    for (const RunOutcome& outcome : outcomes) {
      result.simulations += outcome.completed ? 1 : 0;
    }
  } else {
    result.equivalence = Equivalence::ProbablyEquivalent;
    result.simulations = r;
  }

  // observe the logical sequential prefix, in run order — the histogram is
  // then identical for every thread count (cancelled runs beyond the first
  // mismatch never contribute)
  for (std::size_t i = 0; i < result.simulations && i < r; ++i) {
    if (outcomes[i].completed) {
      obs.observe("simulation.fidelity_deviation", outcomes[i].deviation);
    }
  }
  for (const dd::PackageStats& stats : workerStats) {
    result.ddStats.mergeFrom(stats);
  }
  if (config.attribution.enabled && !result.cancelled) {
    // merge the same logical prefix the histogram saw; every run executed on
    // a freshly reset package, so the merged structural counters (minus
    // wall nanos and the address-dependent cache counters) are a pure
    // function of (circuits, seed, stimuli, r)
    dd::AttributionData merged;
    std::vector<StimulusCostSample> stimuli;
    for (std::size_t i = 0; i < result.simulations && i < r; ++i) {
      if (!outcomes[i].completed) {
        continue;
      }
      const dd::AttributionData& run = runAttrs[i];
      StimulusCostSample sample;
      sample.runIndex = i;
      sample.gatesApplied = run.gatesApplied;
      sample.nodesDelta = run.nodesDeltaTotal;
      for (const dd::GateCostSample& g : run.samples) {
        sample.computeLookups += g.computeLookups;
        sample.computeHits += g.computeHits;
      }
      sample.wallNanos = run.wallNanosTotal;
      stimuli.push_back(sample);
      merged.mergeFrom(run);
    }
    AttributionProfile profile =
        finalizeProfile("simulation", merged, config.attribution.topK);
    profile.stimuli = std::move(stimuli);
    result.attribution = std::move(profile);
    journalAttribution(obs, *result.attribution);
  }
  result.seconds = watch.seconds();
  return result;
}

} // namespace qsimec::ec
