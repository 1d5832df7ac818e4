#include "ec/flow.hpp"

#include "analysis/analyzer.hpp"
#include "dd/stats.hpp"
#include "ec/stabilizer_checker.hpp"
#include "util/deadline.hpp"

#include <atomic>
#include <cstdint>
#include <exception>
#include <optional>
#include <thread>

namespace qsimec::ec {

namespace {

/// Roll the per-stage fields of a finished FlowResult (plus the DD profiles
/// of the stages that ran) into FlowResult::metrics. Runs on every exit
/// path, so early-out counterexamples still report their simulation cost.
void buildMetrics(FlowResult& result, const std::optional<CheckResult>& sim,
                  const std::optional<CheckResult>& complete) {
  obs::MetricsSnapshot& m = result.metrics;
  m.counters["simulation.runs"] = result.simulations;
  m.counters["simulation.timed_out"] = result.simulationTimedOut ? 1 : 0;
  m.counters["simulation.cancelled"] = result.simulationCancelled ? 1 : 0;
  m.counters["simulation.threads"] = result.numThreads;
  m.counters["complete.timed_out"] = result.completeTimedOut ? 1 : 0;
  m.counters["complete.cancelled"] = result.completeCancelled ? 1 : 0;
  m.counters["rewriting.proved"] = result.provedByRewriting ? 1 : 0;
  m.counters["flow.diagnostics"] = result.diagnostics.size();
  m.counters["flow.counterexample"] = result.counterexample.has_value() ? 1 : 0;
  m.counters["prescreen.stripped_prefix"] = result.strippedPrefix;
  m.counters["prescreen.stripped_suffix"] = result.strippedSuffix;
  m.counters["prescreen.merged_rotations"] = result.mergedRotations;
  m.counters["tier.static"] =
      result.tier == analysis::TierHint::Static ? 1 : 0;
  m.counters["tier.stabilizer"] =
      result.tier == analysis::TierHint::Stabilizer ? 1 : 0;
  m.gauges["prescreen.seconds"] = result.prescreenSeconds;
  m.gauges["preflight.seconds"] = result.preflightSeconds;
  m.gauges["simulation.seconds"] = result.simulationSeconds;
  m.gauges["rewriting.seconds"] = result.rewritingSeconds;
  m.gauges["complete.seconds"] = result.completeSeconds;
  m.gauges["total.seconds"] = result.totalSeconds();
  if (sim) {
    dd::appendPackageStats(m, "simulation.dd", sim->ddStats);
  }
  if (complete) {
    dd::appendPackageStats(m, "complete.dd", complete->ddStats);
  }
  const auto appendAttribution =
      [&m](const char* prefix, const std::optional<AttributionProfile>& attr) {
        if (!attr) {
          return;
        }
        const std::string base(prefix);
        m.counters[base + ".attr.gates_applied"] = attr->gatesApplied;
        m.counters[base + ".attr.peak_nodes_live"] = attr->peakNodesLive;
        m.counters[base + ".attr.hotspots"] = attr->hotspots.size();
      };
  appendAttribution("simulation", result.simulationAttribution);
  appendAttribution("complete", result.completeAttribution);
}

/// Fold the general tier's stage results into `result` and apply the one
/// verdict rule of both modes: a simulation counterexample, else a finished
/// complete check, else the paper's third outcome.
void foldGeneralTier(FlowResult& result, std::optional<CheckResult>& sim,
                     std::optional<CheckResult>& complete) {
  const bool race = result.mode == FlowMode::Race;
  if (sim) {
    result.simulations = sim->simulations;
    result.simulationSeconds = sim->seconds;
    result.simulationTimedOut = sim->timedOut;
    result.simulationCancelled = sim->cancelled;
    result.numThreads = sim->numThreads;
    // checkers attach attribution only on non-cancelled exits, so a race
    // loser (whose partial profile depends on when the cancel landed)
    // contributes nothing here
    result.simulationAttribution = std::move(sim->attribution);
  }
  if (complete) {
    result.completeSeconds = complete->seconds;
    result.completeTimedOut = complete->timedOut;
    result.completeCancelled = complete->cancelled;
    result.completeAttribution = std::move(complete->attribution);
  }

  if (sim && sim->equivalence == Equivalence::NotEquivalent) {
    // A counterexample is a proof — and since the complete check can only
    // ever agree with it, preferring the simulation keeps the reported race
    // winner deterministic even when both finish.
    result.equivalence = Equivalence::NotEquivalent;
    result.counterexample = std::move(sim->counterexample);
    result.winner = race ? RaceWinner::Simulation : RaceWinner::None;
  } else if (complete && !complete->timedOut && !complete->cancelled) {
    result.equivalence = complete->equivalence;
    result.winner = race ? RaceWinner::Complete : RaceWinner::None;
  } else {
    // The paper's third outcome: the complete check timed out (or was
    // skipped) after unsuspicious simulations, a strong indication of
    // equivalence rather than "no information". A caller's cancel of the
    // complete check leaves no information.
    result.equivalence =
        result.simulations > 0 && !result.completeCancelled
            ? Equivalence::ProbablyEquivalent
            : Equivalence::NoInformation;
  }
}

} // namespace

FlowResult EquivalenceCheckingFlow::run(const ir::QuantumComputation& qc1,
                                        const ir::QuantumComputation& qc2,
                                        const obs::Context& obs) const {
  FlowResult result;
  std::optional<CheckResult> sim;
  std::optional<CheckResult> complete;

  // a zero stimulus budget skips the simulation stage (and the stabilizer
  // tier's randomized runs)
  const std::size_t simsTotal = config_.simulation.maxSimulations;
  // Written by portfolio workers (serialized), read by the flow thread only
  // between stages — atomic so neither side races.
  std::atomic<std::size_t> simsDone{0};
  const auto enterStage = [&](std::string_view stage) {
    // a Mark (not a plain ring event): stage entries happen on the flow
    // thread in program order, so redacted postmortems stay deterministic
    obs.flightMark(stage);
    obs.log(obs::JournalLevel::Info, "flow.stage").str("stage", stage);
    if (config_.progress) {
      config_.progress(FlowProgress{stage,
                                    simsDone.load(std::memory_order_relaxed),
                                    simsTotal, toString(result.tier)});
    }
  };
  {
    obs::ScopedSpan flowSpan(obs, "flow", "flow");
    flowSpan.arg("qubits", static_cast<std::uint64_t>(qc1.qubits()));
    flowSpan.arg("gates_g", static_cast<std::uint64_t>(qc1.size()));
    flowSpan.arg("gates_g_prime", static_cast<std::uint64_t>(qc2.size()));
    obs.log(obs::JournalLevel::Info, "flow.start")
        .num("qubits", static_cast<std::uint64_t>(qc1.qubits()))
        .num("gates_g", static_cast<std::uint64_t>(qc1.size()))
        .num("gates_g_prime", static_cast<std::uint64_t>(qc2.size()))
        .str("mode", toString(config_.mode));

    // The stage sequence lives in an immediately-invoked lambda so that
    // every early exit (invalid input, counterexample, rewriting proof)
    // still falls through to the metrics rollup and span finalization.
    [&] {
      // Fig. 3 front-loads cheap simulations before the expensive DD check;
      // the static analysis preflight is cheaper still: reject malformed
      // pairs in O(gates) before any simulator sees them.
      {
        enterStage("preflight");
        obs::ScopedSpan span(obs, "stage.preflight", "stage");
        const util::Stopwatch watch;
        const analysis::CircuitAnalyzer analyzer({.lint = false});
        analysis::AnalysisReport report = analyzer.analyzePair(qc1, qc2);
        result.preflightSeconds = watch.seconds();
        span.arg("diagnostics",
                 static_cast<std::uint64_t>(report.diagnostics.size()));
        const bool invalid = report.hasErrors();
        result.diagnostics = std::move(report.diagnostics);
        if (invalid) {
          result.equivalence = Equivalence::InvalidInput;
          return;
        }
      }

      // The complete checker's inputs: the originals unless the prescreen
      // produced a stripped residual pair. The simulation stage always
      // keeps the originals — counterexample stimuli of the residual pair
      // would not distinguish the original circuits as stated.
      const ir::QuantumComputation* completeG = &qc1;
      const ir::QuantumComputation* completeGPrime = &qc2;
      ir::QuantumComputation residualG;
      ir::QuantumComputation residualGPrime;

      if (config_.prescreen.enabled) {
        enterStage("prescreen");
        const util::Stopwatch watch;
        analysis::PairProfile profile;
        {
          obs::ScopedSpan span(obs, "analysis.profile", "analysis");
          profile = analysis::profilePair(qc1, qc2);
          span.arg("gate_set", std::string(toString(profile.combined())));
        }
        analysis::PrescreenResult pre;
        {
          obs::ScopedSpan span(obs, "analysis.prescreen", "analysis");
          pre = analysis::prescreenPair(qc1, qc2);
          span.arg("verdict", std::string(toString(pre.verdict)));
          span.arg("stripped", static_cast<std::uint64_t>(
                                   pre.strippedPrefix + pre.strippedSuffix));
        }
        result.tier = analysis::routeTier(profile, pre);
        result.prescreenSeconds = watch.seconds();
        result.strippedPrefix = pre.strippedPrefix;
        result.strippedSuffix = pre.strippedSuffix;
        result.mergedRotations = pre.mergedRotations;
        obs.log(obs::JournalLevel::Info, "flow.tier")
            .str("tier", toString(result.tier))
            .str("gate_set", toString(profile.combined()))
            .str("verdict", toString(pre.verdict))
            .num("stripped_prefix",
                 static_cast<std::uint64_t>(pre.strippedPrefix))
            .num("stripped_suffix",
                 static_cast<std::uint64_t>(pre.strippedSuffix));

        // only the verdict-level QS rules ride along in the flow result;
        // the stripping/merging notes surface via `qsimec profile`
        for (analysis::Diagnostic& d : pre.diagnostics) {
          if (d.rule == analysis::rules::StaticallyIdentical ||
              d.rule == analysis::rules::StaticallyDistinct ||
              d.rule == analysis::rules::StaticallyEqualUpToPhase) {
            result.diagnostics.push_back(std::move(d));
          }
        }
        result.profile = profile;

        if (result.tier == analysis::TierHint::Static) {
          switch (pre.verdict) {
          case analysis::StaticVerdict::Identical:
            result.equivalence = Equivalence::Equivalent;
            break;
          case analysis::StaticVerdict::IdenticalUpToGlobalPhase:
            result.equivalence = Equivalence::EquivalentUpToGlobalPhase;
            break;
          default:
            // Distinct: a static disproof. No counterexample — the proof
            // is the non-identity residual factor, not a stimulus.
            result.equivalence = Equivalence::NotEquivalent;
            break;
          }
          return;
        }

        if (result.tier == analysis::TierHint::Stabilizer &&
            !config_.skipComplete) {
          enterStage("stabilizer");
          StabilizerConfiguration stabConfig;
          // a zero stimulus budget means "no random stimuli" in every
          // tier; the exact conjugation check alone still decides the pair
          stabConfig.maxSimulations =
              simsTotal == 0 ? 0 : config_.prescreen.stabilizerStimuli;
          stabConfig.seed = config_.simulation.seed;
          stabConfig.phaseProbeMaxQubits =
              config_.prescreen.phaseProbeMaxQubits;
          // external cancellation (the batch scheduler) reaches every tier
          // through the complete check's flag
          stabConfig.cancelFlag = config_.complete.cancelFlag;
          const CheckResult stab =
              StabilizerChecker(stabConfig).run(qc1, qc2, obs);
          result.simulations = stab.simulations;
          result.completeSeconds = stab.seconds;
          result.counterexample = stab.counterexample;
          result.numThreads = stab.numThreads;
          result.equivalence = stab.equivalence;
          return;
        }

        if (config_.prescreen.checkStrippedPair && pre.stripped() &&
            !config_.skipComplete) {
          residualG = std::move(pre.residualG);
          residualGPrime = std::move(pre.residualGPrime);
          completeG = &residualG;
          completeGPrime = &residualGPrime;
        }
      }

      // Race degenerates to the staged flow when either strategy is
      // skipped — there is nothing to race against.
      const bool race = config_.mode == FlowMode::Race && simsTotal != 0 &&
                        !config_.skipComplete;
      result.mode = race ? FlowMode::Race : FlowMode::Staged;

      if (config_.tryRewriting) {
        // the syntactic proof attempt is cheap: run it before either
        // expensive strategy
        enterStage("rewriting");
        obs::ScopedSpan span(obs, "checker.rewriting", "checker");
        const CheckResult rewritten = RewritingChecker().run(qc1, qc2);
        result.rewritingSeconds = rewritten.seconds;
        span.arg("outcome", toString(rewritten.equivalence));
        if (provedEquivalent(rewritten.equivalence)) {
          result.equivalence = rewritten.equivalence;
          result.provedByRewriting = true;
          return;
        }
      }

      // Raised by the first strategy to reach a conclusive verdict. In race
      // mode it cancels the other one (the winner has already finished, so
      // one flag serves both sides); staged mode skips the complete check
      // after a counterexample. Each side still polls its caller's flag.
      std::atomic<bool> decided{false};
      const auto runSimulation = [&] {
        SimulationConfiguration simConfig = config_.simulation;
        simConfig.cancelFlag.local = &decided;
        // a completion callback feeds the progress stream (chaining any
        // caller-installed one); installed only when someone listens, so
        // the default path stays callback-free
        if (config_.progress || simConfig.onRunCompleted) {
          simConfig.onRunCompleted = [this, &simsDone, &result,
                                      inner = simConfig.onRunCompleted](
                                         std::size_t done, std::size_t total) {
            simsDone.store(done, std::memory_order_relaxed);
            if (inner) {
              inner(done, total);
            }
            if (config_.progress) {
              config_.progress(FlowProgress{"simulation", done, total,
                                            toString(result.tier)});
            }
          };
        }
        sim = SimulationChecker(simConfig).run(qc1, qc2, obs);
        if (sim->equivalence == Equivalence::NotEquivalent) {
          decided.store(true, std::memory_order_relaxed);
        }
      };
      const auto runComplete = [&] {
        AlternatingConfiguration completeConfig = config_.complete;
        completeConfig.cancelFlag.local = &decided;
        complete = AlternatingChecker(completeConfig)
                       .run(*completeG, *completeGPrime, obs);
        if (!complete->timedOut && !complete->cancelled) {
          decided.store(true, std::memory_order_relaxed);
        }
      };

      if (race) {
        enterStage("race");
        std::exception_ptr completeError;
        {
          // the complete check runs on its own thread, the simulation
          // portfolio on this one; the scope's closing brace joins
          std::jthread completeThread([&] {
            try {
              if (obs.flight != nullptr) {
                obs.flight->labelThread("race.complete");
              }
              runComplete();
            } catch (...) {
              completeError = std::current_exception();
              decided.store(true, std::memory_order_relaxed);
            }
          });
          try {
            runSimulation();
          } catch (...) {
            decided.store(true, std::memory_order_relaxed);
            throw; // completeThread joins during unwinding
          }
        }
        if (completeError) {
          std::rethrow_exception(completeError);
        }
        if (sim->cancelled) {
          obs.log(obs::JournalLevel::Info, "flow.race.cancelled")
              .str("loser", "simulation");
        }
        if (complete->cancelled) {
          obs.log(obs::JournalLevel::Info, "flow.race.cancelled")
              .str("loser", "complete");
        }
      } else {
        if (simsTotal != 0) {
          enterStage("simulation");
          runSimulation();
        }
        if (!config_.skipComplete && !decided.load()) {
          enterStage("complete");
          runComplete();
        }
      }
      foldGeneralTier(result, sim, complete);
    }();

    obs.flightMark("flow.verdict",
                   static_cast<std::int64_t>(result.equivalence));
    flowSpan.arg("outcome", toString(result.equivalence));
    flowSpan.arg("tier", std::string(toString(result.tier)));
    flowSpan.arg("mode", toString(result.mode));
    if (result.mode == FlowMode::Race) {
      flowSpan.arg("winner", toString(result.winner));
    }
    obs.log(obs::JournalLevel::Info, "flow.verdict")
        .str("outcome", toString(result.equivalence))
        .str("tier", toString(result.tier))
        .str("mode", toString(result.mode))
        .str("winner", toString(result.winner))
        .num("simulations", static_cast<std::uint64_t>(result.simulations))
        .num("total_seconds", result.totalSeconds());
    if (config_.progress) {
      config_.progress(FlowProgress{"done",
                                    simsDone.load(std::memory_order_relaxed),
                                    simsTotal, toString(result.tier)});
    }
  }

  buildMetrics(result, sim, complete);
  if (obs.metrics != nullptr) {
    obs.metrics->merge(result.metrics);
  }
  return result;
}

} // namespace qsimec::ec
