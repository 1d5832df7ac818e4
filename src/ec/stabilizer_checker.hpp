// Stabilizer-tier equivalence checker for Clifford-only pairs.
//
// Clifford circuits do not need decision diagrams at all: the difference
// circuit D = G · G'^-1 is itself Clifford, and a CHP tableau tracks how D
// conjugates every Pauli generator in ceil(2n/64) word operations per gate
// column (sim/stabilizer_simulator.hpp). D is proportional to the identity
// iff it maps every X_i and Z_i to itself with a + sign — i.e. iff the
// tableau returns to its initial value with all phase bits clear
// (sim::StabilizerSimulator::isIdentityConjugation). That is an *exact,
// polynomial-time* equivalence decision up to global phase, where the
// general tier has to build a DD of worst-case exponential size.
//
// The checker runs two strategies in sequence on the calling thread:
//
//   * a portfolio of randomized stabilizer-state agreement runs: run r
//     applies P_r; G; G'^-1; P_r^-1 to |0..0> (P_r = the same pseudo-random
//     Clifford prefix ec::makeStimulus uses for StimuliKind::RandomStabilizer
//     at seed perRunStimulusSeed(seed, r)), then reads off the exact
//     fidelity |<0..0|psi>|^2 from forced measurements. Any fidelity < 1 is
//     a witness stimulus whose seed regenerates a counterexample, which the
//     exact check cannot provide;
//   * when no run found a witness, the exact tableau check.
//
// Determinism contract (docs/parallelism.md): the randomized runs stop only
// at the first witness or at the configured budget, so verdict,
// counterexample, and simulation count are reproducible.
//
// Global phase is invisible to a tableau, so an identity conjugation alone
// only proves EquivalentUpToGlobalPhase. For circuits up to
// phaseProbeMaxQubits the checker resolves the phase exactly with one dense
// simulation of D on |0..0> (the amplitude at index 0 *is* lambda when
// D = lambda * I); larger circuits keep the coarser verdict.

#pragma once

#include "ec/result.hpp"
#include "ir/quantum_computation.hpp"
#include "obs/context.hpp"

#include <cstdint>

namespace qsimec::ec {

struct StabilizerConfiguration {
  /// Randomized stabilizer agreement runs (the witness portfolio).
  std::size_t maxSimulations{8};
  /// Seed of the per-run stimulus stream (perRunStimulusSeed(seed, r)).
  std::uint64_t seed{0};
  /// Resolve the exact global phase with one dense |0..0> simulation for
  /// circuits up to this many qubits; above it, an identity conjugation is
  /// reported as EquivalentUpToGlobalPhase.
  std::size_t phaseProbeMaxQubits{12};
  /// Optional external cancellation (the flow's stop flag).
  CancelFlag cancelFlag;
};

class StabilizerChecker {
public:
  explicit StabilizerChecker(StabilizerConfiguration config = {})
      : config_(config) {}

  /// Both circuits must be Clifford-only (sim::StabilizerSimulator accepts
  /// every operation) and of equal width; throws std::invalid_argument /
  /// std::domain_error otherwise — the tier router guarantees this. An
  /// attached obs::Context records a "tier.stabilizer" span.
  /// result.ddStats stays zeroed: this tier builds no decision diagrams.
  [[nodiscard]] CheckResult run(const ir::QuantumComputation& qc1,
                                const ir::QuantumComputation& qc2,
                                const obs::Context& obs = {}) const;

private:
  StabilizerConfiguration config_;
};

} // namespace qsimec::ec
