// Rewriting-based equivalence checking in the spirit of [16] (Yamashita &
// Markov): concatenate G with G'^-1 and reduce the result with local,
// functionality-preserving rewrite rules (inverse-pair cancellation and
// rotation merging, sliding across commuting gates). If the whole circuit
// reduces to nothing — or to a bare global phase — equivalence is proved
// *syntactically*, without ever building a functional representation.
//
// The method is deliberately incomplete: a non-empty remainder proves
// nothing (NoInformation). It is extremely cheap, so the flow tries it
// before both the simulation stage and the DD-based complete check.

#pragma once

#include "ec/result.hpp"
#include "ir/quantum_computation.hpp"

namespace qsimec::ec {

/// Rewrites with tf::optimize's defaults, which slide cancellations across
/// commuting gates.
class RewritingChecker {
public:
  /// Equivalent / EquivalentUpToGlobalPhase if G · G'^-1 rewrites to the
  /// empty circuit (/ a global phase); NoInformation otherwise.
  [[nodiscard]] CheckResult run(const ir::QuantumComputation& qc1,
                                const ir::QuantumComputation& qc2) const;

  /// The rewritten remainder itself (for diagnostics): empty means proved.
  [[nodiscard]] ir::QuantumComputation
  remainder(const ir::QuantumComputation& qc1,
            const ir::QuantumComputation& qc2) const;
};

} // namespace qsimec::ec
