// Simulation-based (non-)equivalence checking — the paper's core technique.
//
// Both circuits are simulated with the same randomly chosen computational
// basis states |i>. By Sec. IV-A, <u_i|u'_i> = 1 must hold for every column i
// of equivalent circuits, so a single mismatching pair of output states is a
// counterexample proving non-equivalence at matrix-*vector* cost. If all r
// runs match, the circuits are "probably equivalent" (no guarantee — but a
// strong indication, since typical design-flow errors disturb almost all
// columns).

#pragma once

#include "ec/result.hpp"
#include "ir/quantum_computation.hpp"
#include "obs/context.hpp"

#include <atomic>
#include <cstdint>
#include <functional>

namespace qsimec::ec {

struct SimulationConfiguration {
  /// Number of random stimuli simulations r (the paper recommends 10).
  std::size_t maxSimulations{10};
  /// Stimuli family. The paper uses computational basis states; the richer
  /// families (see ec/stimuli.hpp) detect control-heavy errors with fewer
  /// runs at slightly higher per-run cost.
  StimuliKind stimuli{StimuliKind::ComputationalBasis};
  /// |1 - fidelity| above this proves non-equivalence.
  double fidelityTolerance{1e-8};
  /// Seed of the stimuli generator (same seed => same stimuli).
  std::uint64_t seed{0};
  /// Wall-clock budget in seconds (<= 0: unlimited).
  double timeoutSeconds{0.0};
  /// If true (default), ignore global phase: compare |<u|u'>| instead of
  /// requiring <u|u'> = 1 exactly.
  bool ignoreGlobalPhase{true};
  /// If true, simulate the *difference circuit* G'^-1 · G on each stimulus
  /// and compare the result against the stimulus itself (<i| G'^† G |i> = 1
  /// for equivalent circuits) instead of simulating both circuits
  /// independently. Same verdicts; the intermediate often collapses back
  /// towards the stimulus and stays smaller.
  bool simulateDifferenceCircuit{false};
  /// Worker threads for the stimuli runs; 0 = one per hardware thread
  /// (capped at maxSimulations). Verdict, counterexample and fidelities are
  /// bit-identical for every thread count — each run draws its stimulus
  /// from a (seed, runIndex)-derived stream and executes on a freshly reset
  /// package (see docs/parallelism.md).
  unsigned numThreads{0};
  /// Optional cancellation (the caller's flag, plus the race-mode flow's
  /// loser flag): once raised, workers abandon their runs at the next
  /// interrupt poll and the result reports cancelled=true.
  CancelFlag cancelFlag;
  /// Invoked as onRunCompleted(done, total) after every finished stimulus
  /// run (done counts completions, not run indices — workers finish out of
  /// order). Calls are serialized by the portfolio, but may come from any
  /// worker thread; keep the body cheap. Drives the flow's progress
  /// callback and the CLI's --progress line.
  std::function<void(std::size_t, std::size_t)> onRunCompleted;
  /// Per-gate and per-stimulus cost attribution (CheckResult::attribution),
  /// aggregated over the logical sequential prefix of runs so the profile
  /// is byte-stable across thread counts (minus wall nanoseconds and the
  /// address-dependent cache counters, which redaction drops).
  AttributionConfiguration attribution{};
};

class SimulationChecker {
public:
  explicit SimulationChecker(SimulationConfiguration config = {})
      : config_(config) {}

  /// Outcome is either NotEquivalent (with counterexample) or
  /// ProbablyEquivalent; NoInformation on timeout before the first
  /// completed comparison. An attached obs::Context records a
  /// "checker.simulation" span with one nested "sim.stimulus" span per run
  /// (plus "dd.gc" spans from the package); result.ddStats is filled either
  /// way.
  [[nodiscard]] CheckResult run(const ir::QuantumComputation& qc1,
                                const ir::QuantumComputation& qc2,
                                const obs::Context& obs = {}) const;

private:
  SimulationConfiguration config_;
};

} // namespace qsimec::ec
