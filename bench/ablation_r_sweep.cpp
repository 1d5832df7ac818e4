// Ablation: the paper's "r = 10 suffices in practice" recommendation
// (Sec. V). For each error model we inject many random instances and sweep
// the number of simulations r, reporting the empirical miss rate (fraction
// of non-equivalent instances that r simulations fail to expose).

#include "common.hpp"

#include "ec/diff_analysis.hpp"
#include "ec/simulation_checker.hpp"
#include "gen/random_circuits.hpp"
#include "transform/error_injector.hpp"

#include <cstdio>
#include <vector>

using namespace qsimec;

int main(int argc, char** argv) {
  // only --threads applies; the workload is fixed
  const bench::HarnessOptions options = bench::parseOptions(argc, argv);
  const std::size_t n = 7;
  const std::size_t instances = 25;
  const std::vector<std::size_t> rValues{1, 2, 5, 10, 20};

  std::printf("Ablation (Sec. V): miss rate of r-simulation checking, "
              "n=%zu, %zu instances per error kind\n",
              n, instances);
  std::printf("%-24s", "error kind");
  for (const std::size_t r : rValues) {
    std::printf("  r=%-4zu", r);
  }
  std::printf("  %s\n", "basis-invisible");

  const std::vector<tf::ErrorKind> kinds{
      tf::ErrorKind::RemoveGate,          tf::ErrorKind::InsertGate,
      tf::ErrorKind::WrongTargetCX,       tf::ErrorKind::FlipControlTargetCX,
      tf::ErrorKind::AngleOffset,         tf::ErrorKind::ReplaceGate};

  for (const tf::ErrorKind kind : kinds) {
    std::printf("%-24s", std::string(toString(kind)).c_str());

    // some injections are *invisible to any basis stimulus* (e.g. an extra
    // phase gate on a wire that is classical in every column: every column
    // changes only by a phase). Identify those up front and report them
    // separately — they bound what basis-state simulation can ever catch.
    std::vector<ir::QuantumComputation> originals;
    std::vector<ir::QuantumComputation> injecteds;
    std::vector<bool> detectable;
    std::size_t invisible = 0;
    for (std::size_t inst = 0; inst < instances; ++inst) {
      originals.push_back(gen::randomCircuit(n, 60, 500 + inst));
      tf::ErrorInjector injector(900 + inst);
      injecteds.push_back(injector.inject(originals.back(), kind).circuit);
      const bool vis =
          ec::analyzeDifference(originals.back(), injecteds.back())
              .differingColumns > 0;
      detectable.push_back(vis);
      if (!vis) {
        ++invisible;
      }
    }

    for (const std::size_t r : rValues) {
      std::size_t misses = 0;
      std::size_t considered = 0;
      for (std::size_t inst = 0; inst < instances; ++inst) {
        if (!detectable[inst]) {
          continue;
        }
        ++considered;
        ec::SimulationConfiguration config;
        config.maxSimulations = r;
        config.seed = 7000 + inst;
        config.numThreads = options.numThreads;
        const ec::SimulationChecker checker(config);
        if (checker.run(originals[inst], injecteds[inst]).equivalence !=
            ec::Equivalence::NotEquivalent) {
          ++misses;
        }
      }
      std::printf("  %6.2f", considered == 0
                                 ? 0.0
                                 : static_cast<double>(misses) /
                                       static_cast<double>(considered));
    }
    std::printf("  %zu/%zu\n", invisible, instances);
    std::fflush(stdout);
  }
  std::printf(
      "\nMiss rates are over the basis-detectable instances; the last\n"
      "column counts instances invisible to every basis stimulus (phase-\n"
      "only differences — the blind spot the richer stimuli of\n"
      "ec/stimuli.hpp close). Expected shape: single-qubit error kinds are\n"
      "caught by the first simulation; CX-related kinds decay\n"
      "geometrically with r; r=10 leaves a negligible miss rate.\n");
  return 0;
}
