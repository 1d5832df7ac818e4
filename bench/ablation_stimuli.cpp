// Ablation (extension): stimuli families vs error control count.
//
// The paper's Sec. IV-A shows computational basis stimuli detect an error
// behind c controls with probability 2^-c. The richer families implemented
// in ec/stimuli.hpp — random product (single-qubit stabilizer) states and
// random stabilizer states — make every control "half-fire", so the
// detection probability decays much more slowly. This harness measures the
// empirical detection rate of r = 4 simulations per family as the control
// count grows.

#include "common.hpp"

#include "ec/simulation_checker.hpp"
#include "gen/random_circuits.hpp"

#include <cstdio>

using namespace qsimec;

int main(int argc, char** argv) {
  // only --threads applies; the workload is fixed
  const bench::HarnessOptions options = bench::parseOptions(argc, argv);
  const std::size_t n = 8;
  const std::size_t trials = 20;
  const std::size_t r = 4;

  std::printf("Ablation: detection rate of r=%zu simulations by stimuli "
              "family, error = c-controlled X on n=%zu qubits, %zu trials\n",
              r, n, trials);
  std::printf("%3s %22s %22s %22s\n", "c", "computational-basis",
              "random-product", "random-stabilizer");

  for (std::size_t c = 0; c < n; ++c) {
    const auto g = gen::randomCircuit(n, 40, 77);
    auto bad = g;
    std::vector<ir::Control> controls;
    for (std::size_t q = 1; q <= c; ++q) {
      controls.push_back(ir::Control{static_cast<ir::Qubit>(q), true});
    }
    // prepend: the difference D = U^dag U' is then exactly the
    // c-controlled X, affecting the 2^(n-c) columns of Sec. IV-A
    bad.ops().insert(bad.ops().begin(),
                     ir::StandardOperation(ir::OpType::X, {0}, controls));

    std::printf("%3zu", c);
    for (const ec::StimuliKind kind :
         {ec::StimuliKind::ComputationalBasis, ec::StimuliKind::RandomProduct,
          ec::StimuliKind::RandomStabilizer}) {
      std::size_t detected = 0;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        ec::SimulationConfiguration config;
        config.maxSimulations = r;
        config.seed = 4000 + trial;
        config.stimuli = kind;
        config.numThreads = options.numThreads;
        if (ec::SimulationChecker(config).run(g, bad).equivalence ==
            ec::Equivalence::NotEquivalent) {
          ++detected;
        }
      }
      std::printf(" %22.2f",
                  static_cast<double>(detected) / static_cast<double>(trials));
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: the basis column decays like 1-(1-2^-c)^r\n"
              "(every control must be |1>); product/stabilizer stimuli decay\n"
              "far more slowly (each control only 'half-fires') and keep a\n"
              "solid detection rate even when all other qubits control the\n"
              "error.\n");
  return 0;
}
