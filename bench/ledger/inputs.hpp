// Inputs of the layer ledger, all derived from the workload seed: the eight
// Table Ib recipes of the check workloads, and the batch manifest (24 seeds
// of the generator corpus plus 48 Clifford pairs) shared by the batch and
// daemon workloads. Every circuit is written to a file, because parsing is
// one of the layers the ledger measures.

#pragma once

#include "ir/quantum_computation.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace qsimec::ledger {

/// splitmix64 finalizer: derives independent sub-seeds from (seed, ...).
[[nodiscard]] std::uint64_t mix(std::uint64_t x);

/// A (G, G') pair as written to disk, with the verdict class it was built
/// to have.
struct PairFiles {
  std::string name;
  std::string gPath;
  std::string gPrimePath;
  bool expectEquivalent{true};
};

/// Write `qc` (layouts materialized) to `stem` plus the extension of the
/// format that can hold it: .real for X/SWAP/V/Vdg-only circuits, else
/// .qasm. Returns the path.
std::string writeCircuit(const ir::QuantumComputation& qc,
                         const std::string& stem);

/// Parse a circuit file by extension.
[[nodiscard]] ir::QuantumComputation readCircuit(const std::string& path,
                                                 bool validate = true);

/// Parse both files of a pair and pad the narrower circuit, as `qsimec
/// check` and the batch scheduler do.
struct ParsedPair {
  ir::QuantumComputation g;
  ir::QuantumComputation gPrime;
};
[[nodiscard]] ParsedPair readPair(const std::string& gPath,
                                  const std::string& gPrimePath,
                                  bool validate = true);

/// The eight equivalent recipes of the check workloads, written under
/// `dir`: Grover 5 and 6, Supremacy 4x4 5, hwb6, urf-like 6, adder8, inc8
/// and QFT 8 (mapped), with the Table Ib harness's marked elements and
/// circuit seeds. They take no workload seed: the Grover 6 check alone
/// varies by 1.7x across marked elements, which would drown a 10% bound;
/// the seed drives the stimuli and the injected errors instead.
std::vector<PairFiles> writeCheckPairs(const std::string& dir);

/// The batch manifest: 24 blocks, block s holding the generator corpus of
/// seed + s followed by two Clifford pairs (a random Clifford circuit
/// against its linear-mapped copy, n in {6, 10, 12, 16, 32, 48}, every
/// third pair with one Clifford-preserving injected error). 312 lines in
/// all.
struct BatchInputs {
  std::string manifestPath;
  std::vector<std::string> lines;
  std::vector<PairFiles> pairs;         // manifest order
  std::vector<std::size_t> blockStarts; // first line of each block
};
BatchInputs writeBatchInputs(const std::string& dir, std::uint64_t seed);

} // namespace qsimec::ledger
