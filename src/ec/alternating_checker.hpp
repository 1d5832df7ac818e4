// Alternating DD-based equivalence checker ("G -> I <- G'" scheme of [22]).
//
// Instead of constructing U and U' separately, the checker keeps one matrix
// DD M (starting from the identity) and interleaves
//
//     M <- DD(g_i) · M          (consume the next gate of G), and
//     M <- M · DD(g'_j)†        (consume the next gate of G'),
//
// so that after both circuits are exhausted M = U · U'†. If the circuits are
// equivalent, M collapses back to the identity along the way and never grows
// to the full functionality — *if* the interleaving strategy keeps the two
// cursors aligned. Three strategies from [22] are provided.

#pragma once

#include "ec/result.hpp"
#include "ir/quantum_computation.hpp"
#include "obs/context.hpp"

#include <atomic>
#include <cstddef>
#include <optional>
#include <string_view>

namespace qsimec::ec {

enum class Strategy {
  /// strictly alternate one gate from each side
  Naive,
  /// keep the consumed fractions of both circuits equal (the default of [22])
  Proportional,
  /// try both sides, keep whichever intermediate DD is smaller
  Lookahead,
};

[[nodiscard]] constexpr std::string_view toString(Strategy s) noexcept {
  switch (s) {
  case Strategy::Naive:
    return "naive";
  case Strategy::Proportional:
    return "proportional";
  case Strategy::Lookahead:
    return "lookahead";
  }
  return "?";
}

/// Inverse of toString(Strategy); std::nullopt on unknown spellings.
[[nodiscard]] constexpr std::optional<Strategy>
parseStrategy(std::string_view s) noexcept {
  for (const Strategy strategy :
       {Strategy::Naive, Strategy::Proportional, Strategy::Lookahead}) {
    if (s == toString(strategy)) {
      return strategy;
    }
  }
  return std::nullopt;
}

struct AlternatingConfiguration {
  Strategy strategy{Strategy::Proportional};
  /// Wall-clock budget in seconds (<= 0: unlimited).
  double timeoutSeconds{0.0};
  /// Matrix-node budget (0: unlimited). Exhaustion counts as a timeout.
  std::size_t maxNodes{0};
  /// Optional cancellation (the caller's flag, plus the race-mode flow's
  /// loser flag): once raised, the checker abandons the construction at the
  /// next gate boundary or interrupt poll and reports cancelled=true.
  CancelFlag cancelFlag;
  /// Per-gate cost attribution (CheckResult::attribution). Never changes
  /// the verdict; lookahead iterations attribute the cost of probing both
  /// candidates to the gate that was actually consumed.
  AttributionConfiguration attribution{};
};

class AlternatingChecker {
public:
  explicit AlternatingChecker(AlternatingConfiguration config = {})
      : config_(config) {}

  /// An attached obs::Context records a "checker.alternating" span (with
  /// "dd.gc" spans from the package nested inside); result.ddStats is
  /// filled either way.
  [[nodiscard]] CheckResult run(const ir::QuantumComputation& qc1,
                                const ir::QuantumComputation& qc2,
                                const obs::Context& obs = {}) const;

private:
  AlternatingConfiguration config_;
};

} // namespace qsimec::ec
