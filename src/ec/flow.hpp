// The combined equivalence checking flow of Fig. 3.
//
// First run r << 2^n random basis-state simulations; any mismatch proves
// non-equivalence immediately (with a counterexample). Otherwise fall back
// to a complete DD-based equivalence checking routine. Three outcomes:
//
//   * NotEquivalent         — a simulation (or the complete check) found a
//                             difference,
//   * Equivalent / EquivalentUpToGlobalPhase
//                           — the complete check finished and proved it,
//   * ProbablyEquivalent    — the complete check timed out, but the
//                             simulations give a strong indication of
//                             equivalence (stronger than the state of the
//                             art's "no information").
//
// Before either strategy, an error-level preflight rejects malformed pairs
// and the prescreen routes the pair to a tier (static verdict, stabilizer
// tableau, or this general flow). Besides the staged ordering, the flow
// offers a *race* mode that launches the complete check on its own thread
// next to the simulation portfolio and cancels the loser: whichever
// strategy reaches a conclusive verdict first decides. Both modes share
// every stage and one verdict rule (see docs/parallelism.md for the exact
// semantics).

#pragma once

#include "analysis/diagnostic.hpp"
#include "analysis/prescreen.hpp"
#include "analysis/profile.hpp"
#include "ec/alternating_checker.hpp"
#include "ec/result.hpp"
#include "ec/simulation_checker.hpp"
#include "ir/quantum_computation.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

namespace qsimec::ec {

/// How the flow schedules its two main strategies.
enum class FlowMode {
  /// Fig. 3: simulations first, complete check only if they find nothing.
  Staged,
  /// Simulations and complete check run concurrently; the first conclusive
  /// verdict wins and the loser is cancelled. Same verdicts as Staged for
  /// deterministic inputs — the difference is wall-clock, not outcome.
  Race,
};

[[nodiscard]] constexpr std::string_view toString(FlowMode m) noexcept {
  switch (m) {
  case FlowMode::Staged:
    return "staged";
  case FlowMode::Race:
    return "race";
  }
  return "?";
}

/// Which strategy produced the verdict of a race-mode flow.
enum class RaceWinner {
  /// Not a race (staged mode), or neither strategy was conclusive.
  None,
  Simulation,
  Complete,
};

[[nodiscard]] constexpr std::string_view toString(RaceWinner w) noexcept {
  switch (w) {
  case RaceWinner::None:
    return "none";
  case RaceWinner::Simulation:
    return "simulation";
  case RaceWinner::Complete:
    return "complete";
  }
  return "?";
}

/// Live progress snapshot handed to FlowConfiguration::progress.
struct FlowProgress {
  /// The stage that just started (or "done" once the verdict is in):
  /// "preflight", "prescreen", "stabilizer", "simulation", "complete",
  /// "race".
  std::string_view stage;
  /// Completed stimulus runs so far (monotonic across the whole flow).
  std::size_t simulationsDone{0};
  /// Configured stimulus runs (0 when the simulation stage is skipped).
  std::size_t simulationsTotal{0};
  /// The routed tier ("general" until the prescreen has run). Drives the
  /// `tier=` field of the CLI's --progress line.
  std::string_view tier{"general"};
};

/// The static-analysis front of the flow: pair profiling, the prefix/suffix
/// prescreen, and the tier router (docs/static-analysis.md). All of it is
/// deterministic — it looks only at the two operation streams — so routing
/// decisions are byte-stable across thread counts by construction.
struct PrescreenConfiguration {
  /// Run the profiler + prescreen after preflight. Off: every pair takes
  /// the general tier untouched (`--no-prescreen`).
  bool enabled{true};
  /// Randomized witness runs of the stabilizer tier.
  std::size_t stabilizerStimuli{8};
  /// Dense-probe cap for resolving the exact global phase in the
  /// stabilizer tier (see StabilizerConfiguration::phaseProbeMaxQubits).
  std::size_t phaseProbeMaxQubits{12};
  /// Feed the stripped residual pair (instead of the originals) to the
  /// complete checker. Sound for the verdict; the simulation stage always
  /// keeps the originals so counterexample stimuli stay meaningful.
  bool checkStrippedPair{true};
};

struct FlowConfiguration {
  /// The simulation stage. `simulation.maxSimulations == 0` skips it, and
  /// with it the stabilizer tier's randomized runs (for baseline
  /// measurements; the CLI's `--sims 0`).
  SimulationConfiguration simulation{};
  AlternatingConfiguration complete{};
  PrescreenConfiguration prescreen{};
  /// Staged (Fig. 3 ordering, the default) or Race (concurrent strategies,
  /// first conclusive verdict wins). Race degenerates to Staged when either
  /// strategy is skipped (a zero stimulus budget or skipComplete).
  FlowMode mode{FlowMode::Staged};
  /// Skip the complete check (simulation only; outcome is then either
  /// NotEquivalent or ProbablyEquivalent).
  bool skipComplete{false};
  /// Invoked on every stage transition and after every completed stimulus
  /// run (per-run calls come from portfolio worker threads, serialized —
  /// never concurrently with a stage-transition call). Keep the body cheap;
  /// it sits between a worker finishing a run and claiming the next. Drives
  /// the CLI's `--progress` line.
  std::function<void(const FlowProgress&)> progress;
};

struct FlowResult {
  Equivalence equivalence{Equivalence::NoInformation};
  std::size_t simulations{0};
  double preflightSeconds{0.0};
  double prescreenSeconds{0.0};
  double simulationSeconds{0.0};
  double completeSeconds{0.0};
  /// The tier the pair routed to (General when the prescreen is disabled).
  analysis::TierHint tier{analysis::TierHint::General};
  /// Prescreen statistics (all zero when the prescreen is disabled).
  std::size_t strippedPrefix{0};
  std::size_t strippedSuffix{0};
  std::size_t mergedRotations{0};
  /// The pair profile, when the prescreen ran.
  std::optional<analysis::PairProfile> profile;
  bool completeTimedOut{false};
  bool simulationTimedOut{false};
  /// The mode the flow actually ran in.
  FlowMode mode{FlowMode::Staged};
  /// Race mode only: the strategy whose verdict was adopted. The verdict is
  /// deterministic; whether the *loser* also finished before its
  /// cancellation landed is timing-dependent and not reported here.
  RaceWinner winner{RaceWinner::None};
  /// Worker threads the simulation stage used.
  unsigned numThreads{1};
  /// The stage was cancelled: by the caller's flag, or in race mode because
  /// the other strategy won.
  bool simulationCancelled{false};
  bool completeCancelled{false};
  std::optional<Counterexample> counterexample;
  /// Cost attribution of the simulation portfolio and the complete check
  /// (CheckResult::attribution passed through). Absent when the stage did
  /// not run, was cancelled (race losers report timing-dependent partial
  /// data), or attribution was disabled in the stage configuration.
  std::optional<AttributionProfile> simulationAttribution;
  std::optional<AttributionProfile> completeAttribution;
  /// Preflight findings; non-empty error-level entries imply the verdict
  /// Equivalence::InvalidInput.
  std::vector<analysis::Diagnostic> diagnostics;
  /// Per-stage observability rollup: stage timings/counters plus the DD
  /// package profile of every stage that ran ("simulation.dd.*",
  /// "complete.dd.*"). Always populated, even on early exits; serialized by
  /// ec/serialize.cpp and mirrored into obs::Context::metrics if attached.
  obs::MetricsSnapshot metrics;

  [[nodiscard]] double totalSeconds() const noexcept {
    return preflightSeconds + prescreenSeconds + simulationSeconds +
           completeSeconds;
  }
};

class EquivalenceCheckingFlow {
public:
  explicit EquivalenceCheckingFlow(FlowConfiguration config = {})
      : config_(config) {}

  /// Error-level static analysis always runs first: defects yield
  /// Equivalence::InvalidInput (with the diagnostics in
  /// FlowResult::diagnostics) instead of throws deep inside the simulators.
  /// An attached obs::Context records a root "flow" span enclosing one span
  /// per stage that runs (stage.preflight, checker.simulation,
  /// checker.alternating) and merges
  /// FlowResult::metrics into the registry.
  [[nodiscard]] FlowResult run(const ir::QuantumComputation& qc1,
                               const ir::QuantumComputation& qc2,
                               const obs::Context& obs = {}) const;

private:
  FlowConfiguration config_;
};

} // namespace qsimec::ec
