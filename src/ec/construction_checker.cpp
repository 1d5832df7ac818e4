#include "ec/construction_checker.hpp"

#include "sim/dd_simulator.hpp"

#include <cmath>
#include <stdexcept>

namespace qsimec::ec {

CheckResult ConstructionChecker::run(const ir::QuantumComputation& qc1,
                                     const ir::QuantumComputation& qc2,
                                     const obs::Context& obs) const {
  if (qc1.qubits() != qc2.qubits()) {
    throw std::invalid_argument(
        "equivalence checking requires equal qubit counts");
  }
  const util::Deadline deadline =
      config_.timeoutSeconds > 0
          ? util::Deadline::after(std::chrono::duration<double>(
                config_.timeoutSeconds))
          : util::Deadline::never();

  CheckResult result;
  const util::Stopwatch watch;
  obs::ScopedSpan checkerSpan(obs, "checker.construction", "checker");
  dd::Package pkg(qc1.qubits());
  pkg.setMatrixNodeLimit(config_.maxNodes);
  pkg.setInterruptHook([&deadline] { deadline.check(); });
  pkg.attach(obs);
  try {
    const dd::mEdge u1 = sim::buildFunctionality(qc1, pkg, &deadline);
    pkg.incRef(u1);
    const dd::mEdge u2 = sim::buildFunctionality(qc2, pkg, &deadline);

    if (u1 == u2) {
      result.equivalence = Equivalence::Equivalent;
    } else if (u1.p == u2.p) {
      // same structure, weights differing by a unit scalar => global phase
      const double ratio = u2.w.value().mag2() / u1.w.value().mag2();
      result.equivalence = std::abs(ratio - 1.0) < 1e-9
                               ? Equivalence::EquivalentUpToGlobalPhase
                               : Equivalence::NotEquivalent;
    } else {
      result.equivalence = Equivalence::NotEquivalent;
    }
    pkg.decRef(u1);
  } catch (const util::TimeoutError&) {
    result.equivalence = Equivalence::NoInformation;
    result.timedOut = true;
  } catch (const dd::ResourceLimitExceeded&) {
    result.equivalence = Equivalence::NoInformation;
    result.timedOut = true;
  }
  result.seconds = watch.seconds();
  result.ddStats = pkg.stats();
  return result;
}

} // namespace qsimec::ec
