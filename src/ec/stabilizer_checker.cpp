#include "ec/stabilizer_checker.hpp"

#include "ec/parallel.hpp" // perRunStimulusSeed
#include "sim/dense_simulator.hpp"
#include "sim/stabilizer_simulator.hpp"

#include <chrono>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

namespace qsimec::ec {

namespace {

struct PrefixGate {
  int kind; // 0 = H, 1 = S, 2 = CX, 3 = CZ
  std::size_t target;
  std::size_t control; // kind 2/3 only
};

void applyPrefixGate(sim::StabilizerSimulator& s, const PrefixGate& g,
                     bool inverse) {
  switch (g.kind) {
  case 0:
    s.h(g.target);
    break;
  case 1:
    inverse ? s.sdg(g.target) : s.s(g.target);
    break;
  case 2:
    s.cx(g.control, g.target);
    break;
  default:
    s.cz(g.control, g.target);
    break;
  }
}

/// Exact fidelity |<0..0|psi>|^2 of a stabilizer state, via forced-0
/// measurements: each qubit contributes a factor 1 (P(1)=0), 1/2 (random
/// outcome, forced to 0 before moving on), or 0 (P(1)=1 — orthogonal).
double zeroStateFidelity(sim::StabilizerSimulator& s) {
  double fidelity = 1.0;
  for (std::size_t q = 0; q < s.qubits(); ++q) {
    const double p1 = s.probabilityOfOne(q);
    if (p1 == 1.0) {
      return 0.0;
    }
    if (p1 == 0.5) {
      fidelity *= 0.5;
      // collapse onto the 0 branch so later qubits see the conditioned
      // state (coin 0.0 < 0.5 => outcome false)
      s.measureWithCoin(q, [] { return 0.0; });
    }
  }
  return fidelity;
}

} // namespace

CheckResult StabilizerChecker::run(const ir::QuantumComputation& qc1,
                                   const ir::QuantumComputation& qc2,
                                   const obs::Context& obs) const {
  const auto start = std::chrono::steady_clock::now();
  obs::ScopedSpan span(obs, "tier.stabilizer", "ec");

  const bool trivial1 = qc1.initialLayout().isIdentity() &&
                        qc1.outputPermutation().isIdentity();
  const bool trivial2 = qc2.initialLayout().isIdentity() &&
                        qc2.outputPermutation().isIdentity();
  const ir::QuantumComputation g = trivial1 ? qc1 : qc1.withMaterializedLayouts();
  const ir::QuantumComputation gp =
      trivial2 ? qc2 : qc2.withMaterializedLayouts();
  if (g.qubits() != gp.qubits() || g.qubits() == 0) {
    throw std::invalid_argument(
        "StabilizerChecker: circuits must have the same nonzero width");
  }
  const std::size_t n = g.qubits();
  const ir::QuantumComputation gpInverse = gp.inverse();

  CheckResult result;
  const auto finish = [&](Equivalence verdict) {
    result.equivalence = verdict;
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    span.arg("verdict", std::string(toString(verdict)));
    span.arg("simulations", static_cast<std::uint64_t>(result.simulations));
    return result;
  };
  const auto cancelled = [&] {
    result.cancelled = true;
    return finish(Equivalence::NoInformation);
  };

  // randomized stabilizer agreement runs first: they stop only at the first
  // witness or at the configured budget, so the witness (and the run count)
  // is deterministic
  for (std::size_t r = 0; r < config_.maxSimulations; ++r) {
    if (config_.cancelFlag.raised()) {
      return cancelled();
    }
    const std::uint64_t stimulusSeed = perRunStimulusSeed(config_.seed, r);
    obs::ScopedSpan runSpan(obs, "tier.stabilizer.run", "ec");
    runSpan.arg("index", static_cast<std::uint64_t>(r));
    runSpan.arg("seed", stimulusSeed);

    // same draw order as ec/stimuli.cpp randomStabilizerState: H layer,
    // then 2n gates from {H, S, CX, CZ} with control-collision bumping
    std::mt19937_64 rng(stimulusSeed);
    std::uniform_int_distribution<int> gateDist(0, 3);
    std::uniform_int_distribution<std::size_t> qubitDist(0, n - 1);
    std::vector<PrefixGate> prefix;
    prefix.reserve(3 * n);
    for (std::size_t q = 0; q < n; ++q) {
      prefix.push_back({0, q, 0});
    }
    for (std::size_t step = 0; step < 2 * n; ++step) {
      const std::size_t q = qubitDist(rng);
      const int kind = gateDist(rng);
      if (kind <= 1) {
        prefix.push_back({kind, q, 0});
      } else {
        std::size_t c = qubitDist(rng);
        if (c == q) {
          c = (c + 1) % n;
        }
        prefix.push_back({kind, q, c});
      }
    }

    sim::StabilizerSimulator state(n);
    for (const PrefixGate& pg : prefix) {
      applyPrefixGate(state, pg, /*inverse=*/false);
    }
    for (const ir::StandardOperation& op : g) {
      state.apply(op);
    }
    for (const ir::StandardOperation& op : gpInverse) {
      state.apply(op);
    }
    for (auto it = prefix.rbegin(); it != prefix.rend(); ++it) {
      applyPrefixGate(state, *it, /*inverse=*/true);
    }

    const double fidelity = zeroStateFidelity(state);
    ++result.simulations;
    if (fidelity < 1.0) {
      result.counterexample = Counterexample{stimulusSeed, fidelity,
                                             StimuliKind::RandomStabilizer};
      return finish(Equivalence::NotEquivalent);
    }
  }

  // no witness: the exact tableau check decides
  sim::StabilizerSimulator tableau(n);
  std::size_t opCount = 0;
  for (const ir::QuantumComputation* qc : {&g, &gpInverse}) {
    for (const ir::StandardOperation& op : *qc) {
      if (config_.cancelFlag.raised()) {
        return cancelled();
      }
      if (obs.flight != nullptr && (++opCount & 0x3FFU) == 0) {
        obs.flight->beat(); // tableaus have no DD interrupt poll
      }
      tableau.apply(op);
    }
  }
  if (config_.cancelFlag.raised()) {
    return cancelled();
  }

  if (!tableau.isIdentityConjugation()) {
    // complete disproof without a witness stimulus: the tableau shows some
    // Pauli generator is not preserved even though no randomized run
    // distinguished the pair within the budget
    return finish(Equivalence::NotEquivalent);
  }

  if (n <= config_.phaseProbeMaxQubits) {
    // D = lambda * I, so one dense run on |0..0> reads lambda directly
    ir::QuantumComputation diff(n);
    for (const ir::StandardOperation& op : g) {
      diff.emplace(op);
    }
    for (const ir::StandardOperation& op : gpInverse) {
      diff.emplace(op);
    }
    const sim::Amplitude lambda = sim::DenseSimulator::simulate(diff, 0)[0];
    return finish(std::abs(lambda - sim::Amplitude{1.0, 0.0}) <= 1e-9
                      ? Equivalence::Equivalent
                      : Equivalence::EquivalentUpToGlobalPhase);
  }
  return finish(Equivalence::EquivalentUpToGlobalPhase);
}

} // namespace qsimec::ec
