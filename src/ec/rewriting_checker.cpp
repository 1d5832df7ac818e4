#include "ec/rewriting_checker.hpp"

#include "dd/complex_value.hpp"
#include "transform/optimizer.hpp"
#include "util/deadline.hpp"

#include <cmath>
#include <stdexcept>

namespace qsimec::ec {

ir::QuantumComputation
RewritingChecker::remainder(const ir::QuantumComputation& qc1,
                            const ir::QuantumComputation& qc2) const {
  if (qc1.qubits() != qc2.qubits()) {
    throw std::invalid_argument(
        "equivalence checking requires equal qubit counts");
  }
  // build G · G'^-1 with layouts materialized as SWAP gates
  ir::QuantumComputation combined =
      qc1.withMaterializedLayouts();
  combined.append(qc2.inverse().withMaterializedLayouts());

  // iterate to a fixpoint: each pass may expose new opportunities
  std::size_t before = combined.size() + 1;
  while (combined.size() < before) {
    before = combined.size();
    combined = tf::optimize(combined);
  }
  return combined;
}

CheckResult RewritingChecker::run(const ir::QuantumComputation& qc1,
                                  const ir::QuantumComputation& qc2) const {
  CheckResult result;
  const util::Stopwatch watch;
  const ir::QuantumComputation rest = remainder(qc1, qc2);

  if (rest.empty()) {
    result.equivalence = Equivalence::Equivalent;
  } else {
    // only global-phase markers left?
    bool onlyPhases = true;
    double phase = 0;
    for (const ir::StandardOperation& op : rest) {
      if (op.type() == ir::OpType::GPhase && op.controls().empty()) {
        phase += op.param(0);
      } else {
        onlyPhases = false;
        break;
      }
    }
    if (onlyPhases) {
      result.equivalence = std::abs(std::remainder(phase, 2 * dd::PI)) < 1e-9
                               ? Equivalence::Equivalent
                               : Equivalence::EquivalentUpToGlobalPhase;
    } else {
      result.equivalence = Equivalence::NoInformation;
    }
  }
  result.seconds = watch.seconds();
  return result;
}

} // namespace qsimec::ec
