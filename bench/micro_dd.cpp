// Micro-benchmarks of the decision-diagram substrate (google-benchmark):
// package construction, a cold package's first run and the between-runs
// barrier, node construction, gate DDs (fresh and rebuilt), matrix-vector
// application, inner products, full functionality construction, DD vs
// dense simulation, and the stabilizer tier's tableau and checker.

#include "ec/stabilizer_checker.hpp"
#include "gen/ansatz.hpp"
#include "gen/qft.hpp"
#include "gen/random_circuits.hpp"
#include "gen/supremacy.hpp"
#include "sim/dd_simulator.hpp"
#include "sim/dense_simulator.hpp"
#include "sim/stabilizer_simulator.hpp"
#include "transform/mapper.hpp"

#include <benchmark/benchmark.h>

using namespace qsimec;

namespace {

// What a package costs before it does any work: its tables are sized by
// demand, so this stays flat in n and small next to a simulation.
void BM_PackageConstruct(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    dd::Package pkg(n);
    benchmark::DoNotOptimize(pkg.makeZeroState());
  }
}
BENCHMARK(BM_PackageConstruct)->Arg(8)->Arg(16)->Arg(32);

// The cold-package cost of the paper's common case, a non-equivalent pair
// settled by its first stimulus: construct a package and push one basis
// state through a small rotation-layer circuit. Unlike BM_PackageConstruct
// this includes the compute tables' first inserts.
void BM_PackageFirstRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto qc = gen::hardwareEfficientAnsatz(n, {.layers = 2, .seed = 1});
  for (auto _ : state) {
    dd::Package pkg(n);
    benchmark::DoNotOptimize(sim::simulate(qc, pkg.makeBasisState(1), pkg));
  }
}
BENCHMARK(BM_PackageFirstRun)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// One stimulus run's fixed costs around a small simulation: construct,
// simulate, then the run barrier (resetComputationState: forced GC, table
// invalidation, id rewind). The barrier sweeps only what the run left
// behind, so its share stays small as n grows.
void BM_RunBarrier(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto qc = gen::randomCircuit(n, 40, 11);
  for (auto _ : state) {
    dd::Package pkg(n);
    const dd::vEdge out = sim::simulate(qc, pkg.makeZeroState(), pkg);
    benchmark::DoNotOptimize(out);
    pkg.resetComputationState();
  }
}
BENCHMARK(BM_RunBarrier)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_MakeBasisState(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dd::Package pkg(n);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkg.makeBasisState(i++ % (1ULL << (n - 1))));
    pkg.garbageCollect();
  }
}
BENCHMARK(BM_MakeBasisState)->Arg(8)->Arg(16)->Arg(32);

void BM_MakeGateDD(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dd::Package pkg(n);
  double angle = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkg.makeGateDD(
        dd::rzMat(angle += 0.001), static_cast<dd::Var>(n / 2),
        {dd::Control{0, true}}));
    pkg.garbageCollect();
  }
}
BENCHMARK(BM_MakeGateDD)->Arg(8)->Arg(16)->Arg(32);

// Rebuilding a gate whose nodes are all in the unique table, as a circuit
// does for every repeat of a gate: each level ends in a hash-cons hit, so
// this prices the construction work itself, not node allocation.
void BM_RebuildGateDD(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dd::Package pkg(n);
  const dd::GateMatrix mat = dd::rzMat(0.25);
  const auto target = static_cast<dd::Var>(n / 2);
  const std::vector<dd::Control> controls{dd::Control{0, true}};
  const dd::mEdge first = pkg.makeGateDD(mat, target, controls);
  pkg.incRef(first);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkg.makeGateDD(mat, target, controls));
  }
  pkg.decRef(first);
}
BENCHMARK(BM_RebuildGateDD)->Arg(8)->Arg(16)->Arg(32);

// NOTE: applying the *same* gate to the *same* state every iteration makes
// this a measurement of the memoized (compute-table hit) path — tens of
// nanoseconds. The cold-path cost of a gate application on an entangled
// state is what BM_SimulateRandomDD amortizes per gate.
void BM_ApplyGateToEntangledState(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dd::Package pkg(n);
  const auto qc = gen::supremacy(2, n / 2, 8, 3);
  dd::vEdge psi = sim::simulate(qc, pkg.makeZeroState(), pkg);
  pkg.incRef(psi);
  const auto h = pkg.makeGateDD(dd::Hmat, static_cast<dd::Var>(n / 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkg.multiply(h, psi));
    pkg.garbageCollect();
  }
  pkg.decRef(psi);
}
BENCHMARK(BM_ApplyGateToEntangledState)->Arg(8)->Arg(12)->Arg(16);

void BM_InnerProduct(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dd::Package pkg(n);
  const auto qc = gen::supremacy(2, n / 2, 8, 5);
  dd::vEdge psi = sim::simulate(qc, pkg.makeZeroState(), pkg);
  pkg.incRef(psi);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkg.innerProduct(psi, psi));
    pkg.garbageCollect();
  }
  pkg.decRef(psi);
}
BENCHMARK(BM_InnerProduct)->Arg(8)->Arg(12)->Arg(16);

void BM_SimulateQftBasisState(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // swap-free QFT: the product-state regime behind the paper's
  // "QFT 64 simulates in 0.21 s" observation (the final bit-reversal
  // swaps trade purely in numerics, not in structure)
  const auto qc = gen::qft(n, false);
  for (auto _ : state) {
    dd::Package pkg(n);
    benchmark::DoNotOptimize(
        sim::simulate(qc, pkg.makeBasisState(123 % (1ULL << (n - 1))), pkg));
  }
}
BENCHMARK(BM_SimulateQftBasisState)->Arg(16)->Arg(32)->Arg(48)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_SimulateRandomDD(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto qc = gen::randomCircuit(n, 100, 11);
  for (auto _ : state) {
    dd::Package pkg(n);
    benchmark::DoNotOptimize(sim::simulate(qc, pkg.makeZeroState(), pkg));
  }
}
BENCHMARK(BM_SimulateRandomDD)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_SimulateRandomDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto qc = gen::randomCircuit(n, 100, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::DenseSimulator::simulate(qc, 0));
  }
}
BENCHMARK(BM_SimulateRandomDense)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_BuildFunctionality(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto qc = gen::randomCircuit(n, 60, 13);
  for (auto _ : state) {
    dd::Package pkg(n);
    benchmark::DoNotOptimize(sim::buildFunctionality(qc, pkg));
  }
}
BENCHMARK(BM_BuildFunctionality)->Arg(6)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMillisecond);

// One CNOT on a scrambled n-qubit tableau: the packed columns make it
// ceil(2n/64) word operations on each of four columns and the phase column.
void BM_TableauCx(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StabilizerSimulator tableau(n);
  tableau.run(gen::randomClifford(n, 8 * n, 5));
  std::size_t c = 0;
  for (auto _ : state) {
    tableau.cx(c, (c + 1) % n);
    c = (c + 1) % n;
  }
  benchmark::DoNotOptimize(tableau.isIdentityConjugation());
}
BENCHMARK(BM_TableauCx)->Arg(16)->Arg(48)->Arg(128);

// The stabilizer tier on a batch benchmark recipe: a random Clifford
// circuit against its copy routed onto a line, an equivalent pair, so all
// eight randomized runs and the exact tableau check run.
void BM_StabilizerCheck(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = gen::randomClifford(n, 8 * n, 1000 + n);
  const auto gPrime = tf::mapCircuit(g, tf::CouplingMap::linear(n)).circuit;
  const ec::StabilizerChecker checker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.run(g, gPrime));
  }
}
BENCHMARK(BM_StabilizerCheck)->Arg(16)->Arg(48)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
