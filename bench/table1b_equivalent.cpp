// Table Ib — equivalent benchmarks.
//
// For each pair (G, G') of equivalent realizations, two measurements:
//   t_ec  — the stand-alone complete equivalence check with timeout,
//   t_sim — r random basis-state simulations (the up-front stage of the
//           proposed flow).
//
// Expected shape (cf. the paper): t_sim is a negligible overhead relative
// to t_ec, and where t_ec times out the simulations still finish and lend
// the "probably equivalent" indication.

#include "common.hpp"

#include "dd/stats.hpp"
#include "ec/construction_checker.hpp"
#include "ec/flow.hpp"

#include <cinttypes>
#include <cstdio>

using namespace qsimec;

int main(int argc, char** argv) {
  const bench::HarnessOptions options = bench::parseOptions(argc, argv);
  const auto suite = bench::benchmarkSuite(options);
  bench::BenchReport report("table1b_equivalent", options);

  std::printf("Table Ib: equivalent benchmarks (timeout %.1fs, r=%zu, seed "
              "%" PRIu64 ")\n",
              options.timeoutSeconds, options.simulations, options.seed);
  std::printf("%-18s %4s %8s %8s | %10s %10s | %-20s\n", "benchmark", "n",
              "|G|", "|G'|", "t_ec [s]", "t_sim [s]", "flow outcome");
  bench::printRule(100);

  for (const auto& pair : suite) {
    // t_ec: the construct-and-compare baseline (the paper's routine [26])
    ec::ConstructionConfiguration ecConfig;
    ecConfig.timeoutSeconds = options.timeoutSeconds;
    const ec::ConstructionChecker checker(ecConfig);
    const auto ecResult = checker.run(pair.g, pair.gPrime);

    ec::SimulationConfiguration simConfig;
    simConfig.maxSimulations = options.simulations;
    simConfig.seed = options.seed;
    simConfig.numThreads = options.numThreads;
    // see table1a: t_sim is reported in full
    simConfig.timeoutSeconds = 20 * options.timeoutSeconds;
    const ec::SimulationChecker sim(simConfig);
    const auto simResult = sim.run(pair.g, pair.gPrime);

    // the flow's overall verdict for this pair
    const std::string outcome =
        ecResult.timedOut
            ? std::string(
                  simResult.equivalence == ec::Equivalence::ProbablyEquivalent
                      ? "probably equivalent"
                      : "no information")
            : std::string(toString(ecResult.equivalence));

    char ecTime[32];
    if (ecResult.timedOut) {
      std::snprintf(ecTime, sizeof(ecTime), "> %.0f", options.timeoutSeconds);
    } else {
      std::snprintf(ecTime, sizeof(ecTime), "%.3f", ecResult.seconds);
    }

    std::printf("%-18s %4zu %8zu %8zu | %10s %10.3f | %-20s\n",
                pair.name.c_str(), pair.g.qubits(), pair.g.size(),
                pair.gPrime.size(), ecTime, simResult.seconds,
                outcome.c_str());
    std::fflush(stdout);

    bench::BenchRecord record{pair.name, pair.g.qubits(), pair.g.size(),
                              pair.gPrime.size(), outcome, {}};
    record.metrics.gauges["ec.seconds"] = ecResult.seconds;
    record.metrics.gauges["sim.seconds"] = simResult.seconds;
    record.metrics.counters["ec.timed_out"] = ecResult.timedOut ? 1 : 0;
    record.metrics.counters["sim.runs"] = simResult.simulations;
    dd::appendPackageStats(record.metrics, "ec.dd", ecResult.ddStats);
    dd::appendPackageStats(record.metrics, "sim.dd", simResult.ddStats);
    report.add(std::move(record));
  }
  report.writeIfRequested();
  return 0;
}
