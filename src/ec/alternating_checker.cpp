#include "ec/alternating_checker.hpp"

#include "sim/dd_simulator.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

namespace qsimec::ec {

namespace {

dd::mEdge gateDD(const sim::ElementaryGate& g, dd::Package& pkg) {
  return pkg.makeGateDD(g.matrix, g.target, g.controls);
}

dd::mEdge gateInverseDD(const sim::ElementaryGate& g, dd::Package& pkg) {
#ifdef QSIMEC_SELFTEST_BREAK_ALTERNATING
  // Deliberately wrong (gate instead of its adjoint): a build flipped with
  // -DQSIMEC_SELFTEST_BREAK_ALTERNATING=ON exists only to prove the
  // differential fuzzer catches a broken complete checker end to end
  // (find -> shrink -> replay). Never enable this in a production build.
  return pkg.makeGateDD(g.matrix, g.target, g.controls);
#else
  return pkg.makeGateDD(dd::adjoint(g.matrix), g.target, g.controls);
#endif
}

} // namespace

CheckResult AlternatingChecker::run(const ir::QuantumComputation& qc1,
                                    const ir::QuantumComputation& qc2,
                                    const obs::Context& obs) const {
  if (qc1.qubits() != qc2.qubits()) {
    throw std::invalid_argument(
        "equivalence checking requires equal qubit counts");
  }
  const util::Deadline deadline =
      config_.timeoutSeconds > 0
          ? util::Deadline::after(
                std::chrono::duration<double>(config_.timeoutSeconds))
          : util::Deadline::never();

  const std::vector<sim::ElementaryGate> left = sim::flattenToElementary(qc1);
  const std::vector<sim::ElementaryGate> right = sim::flattenToElementary(qc2);

  CheckResult result;
  const util::Stopwatch watch;
  obs::ScopedSpan checkerSpan(obs, "checker.alternating", "checker");
  checkerSpan.arg("strategy", toString(config_.strategy));
  checkerSpan.arg("gates_left", static_cast<std::uint64_t>(left.size()));
  checkerSpan.arg("gates_right", static_cast<std::uint64_t>(right.size()));
  dd::Package pkg(qc1.qubits());
  pkg.setMatrixNodeLimit(config_.maxNodes);
  const CancelFlag cancel = config_.cancelFlag;
  const auto poll = [&deadline, cancel] {
    deadline.check();
    if (cancel.raised()) {
      throw util::CancelledError();
    }
  };
  pkg.setInterruptHook(poll);
  pkg.attach(obs);

  std::optional<dd::AttributionCollector> attr;
  if (config_.attribution.enabled) {
    attr.emplace(pkg);
  }
  try {
    dd::mEdge m = pkg.makeIdent();
    pkg.incRef(m);
    const auto replace = [&pkg, &m](const dd::mEdge& next) {
      pkg.incRef(next);
      pkg.decRef(m);
      m = next;
      pkg.garbageCollect();
    };

    std::size_t i = 0;
    std::size_t j = 0;
    while (i < left.size() || j < right.size()) {
      poll();
      if (obs.flight != nullptr) {
        // the in-flight gate indices: a postmortem taken mid-multiply
        // reports exactly the gates the attribution window was pricing
        obs.flight->noteGate(
            i < left.size() ? static_cast<std::int64_t>(i) : -1,
            j < right.size() ? static_cast<std::int64_t>(j) : -1);
      }
      if (attr) {
        attr->beginGate();
      }
      bool takeLeft = false;
      if (i >= left.size()) {
        takeLeft = false;
      } else if (j >= right.size()) {
        takeLeft = true;
      } else {
        switch (config_.strategy) {
        case Strategy::Naive:
          takeLeft = (i <= j);
          break;
        case Strategy::Proportional:
          // advance the side that lags in consumed fraction
          takeLeft = (i * right.size() <= j * left.size());
          break;
        case Strategy::Lookahead: {
          const dd::mEdge viaLeft = pkg.multiply(gateDD(left[i], pkg), m);
          const dd::mEdge viaRight =
              pkg.multiply(m, gateInverseDD(right[j], pkg));
          if (dd::Package::size(viaLeft) <= dd::Package::size(viaRight)) {
            replace(viaLeft);
            // the discarded candidate's cost is attributed to the gate
            // that was consumed — the strategy paid for both probes
            if (attr) {
              attr->endGate(dd::AttrSide::Left,
                            static_cast<std::uint32_t>(i));
            }
            ++i;
          } else {
            replace(viaRight);
            if (attr) {
              attr->endGate(dd::AttrSide::Right,
                            static_cast<std::uint32_t>(j));
            }
            ++j;
          }
          continue;
        }
        }
      }
      if (takeLeft) {
        replace(pkg.multiply(gateDD(left[i], pkg), m));
        if (attr) {
          attr->endGate(dd::AttrSide::Left, static_cast<std::uint32_t>(i));
        }
        ++i;
      } else {
        replace(pkg.multiply(m, gateInverseDD(right[j], pkg)));
        if (attr) {
          attr->endGate(dd::AttrSide::Right, static_cast<std::uint32_t>(j));
        }
        ++j;
      }
    }

    const dd::mEdge ident = pkg.makeIdent();
    if (m == ident) {
      result.equivalence = Equivalence::Equivalent;
    } else if (m.p == ident.p &&
               std::abs(m.w.value().mag2() - 1.0) < 1e-9) {
      result.equivalence = Equivalence::EquivalentUpToGlobalPhase;
    } else {
      result.equivalence = Equivalence::NotEquivalent;
    }
    pkg.decRef(m);
  } catch (const util::TimeoutError&) {
    result.equivalence = Equivalence::NoInformation;
    result.timedOut = true;
  } catch (const dd::ResourceLimitExceeded&) {
    result.equivalence = Equivalence::NoInformation;
    result.timedOut = true;
  } catch (const util::CancelledError&) {
    result.equivalence = Equivalence::NoInformation;
    result.cancelled = true;
    checkerSpan.arg("cancelled", std::uint64_t{1});
  }
  if (obs.flight != nullptr && !result.timedOut && !result.cancelled) {
    // both sides retired; on the failure paths the last in-flight indices
    // stay published so a late postmortem still shows the gate at death
    obs.flight->noteGate(-1, -1);
  }
  result.seconds = watch.seconds();
  result.ddStats = pkg.stats();
  if (attr && !result.cancelled) {
    result.attribution = finalizeProfile("alternating", attr->take(),
                                         config_.attribution.topK);
    journalAttribution(obs, *result.attribution);
  }
  return result;
}

} // namespace qsimec::ec
