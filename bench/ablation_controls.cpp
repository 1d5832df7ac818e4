// Ablation: Sec. IV-A theory — a difference gate with c controls affects
// 2^(n-c) columns of the unitary, so a random basis-state simulation detects
// it with probability 2^-c.
//
// For each control count c we build G = random circuit, G~ = G plus one
// (c-controlled) X appended, measure (a) the exact fraction of differing
// columns (via full construction on small n) and (b) the empirical number
// of simulations until detection, averaged over trials.

#include "common.hpp"

#include "ec/diff_analysis.hpp"
#include "ec/simulation_checker.hpp"
#include "gen/random_circuits.hpp"

#include <cstdio>

using namespace qsimec;

int main(int argc, char** argv) {
  // only --threads applies; the workload is fixed
  const bench::HarnessOptions options = bench::parseOptions(argc, argv);
  const std::size_t n = 8;
  const std::size_t trials = 20;
  std::printf("Ablation (Sec. IV-A): difference gate with c controls on "
              "n=%zu qubits\n",
              n);
  std::printf("%3s %18s %18s %20s\n", "c", "differing columns",
              "theory 2^(n-c)/2^n", "mean #sims to detect");
  for (std::size_t c = 0; c < n; ++c) {
    // G~ = G with an extra c-controlled X prepended
    const auto g = gen::randomCircuit(n, 40, 1234);
    auto bad = g;
    std::vector<ir::Control> controls;
    for (std::size_t q = 1; q <= c; ++q) {
      controls.push_back(ir::Control{static_cast<ir::Qubit>(q), true});
    }
    // prepend: the difference D = U^dag U' is then exactly the
    // c-controlled X, affecting the 2^(n-c) columns of Sec. IV-A
    bad.ops().insert(bad.ops().begin(),
                     ir::StandardOperation(ir::OpType::X, {0}, controls));

    const double fraction = ec::analyzeDifference(g, bad).fraction();

    // empirical detection: run the simulation checker with many different
    // seeds, record how many stimuli it needed (cap at 2^n)
    double totalSims = 0;
    std::size_t detected = 0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      ec::SimulationConfiguration config;
      config.maxSimulations = 1ULL << n;
      config.seed = 1000 + trial;
      config.numThreads = options.numThreads;
      const ec::SimulationChecker checker(config);
      const auto result = checker.run(g, bad);
      if (result.equivalence == ec::Equivalence::NotEquivalent) {
        totalSims += static_cast<double>(result.simulations);
        ++detected;
      }
    }
    const double meanSims =
        detected > 0 ? totalSims / static_cast<double>(detected) : -1.0;
    std::printf("%3zu %18.4f %18.4f %20.2f\n", c, fraction,
                1.0 / static_cast<double>(1ULL << c), meanSims);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: fraction tracks 2^-c; the mean number of\n"
              "simulations to detection tracks 2^c (geometric with p=2^-c).\n");
  return 0;
}
