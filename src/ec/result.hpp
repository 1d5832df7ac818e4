// Shared result types of the equivalence checking module.

#pragma once

#include "dd/stats.hpp"
#include "ec/attribution.hpp"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>

namespace qsimec::ec {

/// Verdicts, matching the three outcomes of the paper's Fig. 3 flow (plus a
/// strict/global-phase distinction for the complete checkers).
enum class Equivalence {
  Equivalent,
  EquivalentUpToGlobalPhase,
  NotEquivalent,
  /// Simulations produced no counterexample but the complete check did not
  /// finish: a strong indication of equivalence, not a proof (Sec. IV-B).
  ProbablyEquivalent,
  /// Nothing conclusive (e.g. complete check alone timed out).
  NoInformation,
  /// The preflight static analysis found error-level defects (malformed
  /// operations, width mismatch, ...); no checking strategy was run. The
  /// diagnostics ride along in FlowResult::diagnostics.
  InvalidInput,
};

[[nodiscard]] constexpr std::string_view toString(Equivalence e) noexcept {
  switch (e) {
  case Equivalence::Equivalent:
    return "equivalent";
  case Equivalence::EquivalentUpToGlobalPhase:
    return "equivalent up to global phase";
  case Equivalence::NotEquivalent:
    return "not equivalent";
  case Equivalence::ProbablyEquivalent:
    return "probably equivalent";
  case Equivalence::NoInformation:
    return "no information";
  case Equivalence::InvalidInput:
    return "invalid input";
  }
  return "?";
}

[[nodiscard]] constexpr bool provedEquivalent(Equivalence e) noexcept {
  return e == Equivalence::Equivalent ||
         e == Equivalence::EquivalentUpToGlobalPhase;
}

/// The stimuli family driving the simulation checker (see ec/stimuli.hpp).
enum class StimuliKind {
  ComputationalBasis,
  RandomProduct,
  RandomStabilizer,
};

[[nodiscard]] constexpr std::string_view toString(StimuliKind k) noexcept {
  switch (k) {
  case StimuliKind::ComputationalBasis:
    return "computational-basis";
  case StimuliKind::RandomProduct:
    return "random-product";
  case StimuliKind::RandomStabilizer:
    return "random-stabilizer";
  }
  return "?";
}

/// Inverse of toString(StimuliKind), also accepting the CLI shorthands
/// "basis", "product" and "stabilizer"; std::nullopt on anything else.
[[nodiscard]] constexpr std::optional<StimuliKind>
parseStimuliKind(std::string_view s) noexcept {
  if (s == "basis" || s == toString(StimuliKind::ComputationalBasis)) {
    return StimuliKind::ComputationalBasis;
  }
  if (s == "product" || s == toString(StimuliKind::RandomProduct)) {
    return StimuliKind::RandomProduct;
  }
  if (s == "stabilizer" || s == toString(StimuliKind::RandomStabilizer)) {
    return StimuliKind::RandomStabilizer;
  }
  return std::nullopt;
}

/// A stimulus proving non-equivalence, together with the fidelity
/// |<u_i|u'_i>|^2 of the two output states it produced. For the
/// computational-basis kind, `input` is the basis-state index; for the
/// other kinds it is the seed that regenerates the stimulus via
/// ec::makeStimulus.
struct Counterexample {
  std::uint64_t input{};
  double fidelity{};
  StimuliKind stimuli{StimuliKind::ComputationalBasis};
};

/// Cooperative cancellation of a checker: raised once either flag is set.
/// A bare flag converts implicitly (`config.cancelFlag = &flag`); the
/// race-mode flow pairs the caller's flag with its own loser flag, so an
/// external cancel still reaches both racing strategies.
struct CancelFlag {
  CancelFlag(const std::atomic<bool>* callerFlag = nullptr,
             const std::atomic<bool>* localFlag = nullptr) noexcept
      : caller(callerFlag), local(localFlag) {}

  [[nodiscard]] bool raised() const noexcept {
    return (caller != nullptr && caller->load(std::memory_order_relaxed)) ||
           (local != nullptr && local->load(std::memory_order_relaxed));
  }

  const std::atomic<bool>* caller;
  const std::atomic<bool>* local;
};

struct CheckResult {
  Equivalence equivalence{Equivalence::NoInformation};
  double seconds{0.0};
  std::size_t simulations{0};
  std::optional<Counterexample> counterexample;
  bool timedOut{false};
  /// The check was abandoned because another strategy produced the verdict
  /// first (race-mode flow) or the caller cancelled it. Implies the verdict
  /// carries no information of its own.
  bool cancelled{false};
  /// Worker threads the check actually used (1 for the single-threaded
  /// checkers). Thread count never changes a verdict — see
  /// docs/parallelism.md for the determinism contract.
  unsigned numThreads{1};
  /// Profile of the DD package(s) the check ran on (zeroed for checkers
  /// that build no decision diagrams, e.g. the stabilizer checker; merged
  /// across workers for the parallel simulation portfolio).
  dd::PackageStats ddStats;
  /// Per-gate cost attribution, present when the checker ran with
  /// AttributionConfiguration::enabled and built decision diagrams.
  /// Deterministic except for its wall-nanosecond fields (ec/attribution.hpp).
  std::optional<AttributionProfile> attribution;
};

} // namespace qsimec::ec
