#include "inputs.hpp"

#include "gen/corpus.hpp"
#include "gen/grover.hpp"
#include "gen/qft.hpp"
#include "gen/random_circuits.hpp"
#include "gen/revlib_like.hpp"
#include "gen/supremacy.hpp"
#include "io/qasm.hpp"
#include "io/real.hpp"
#include "io/tfc.hpp"
#include "transform/decomposition.hpp"
#include "transform/error_injector.hpp"
#include "transform/mapper.hpp"
#include "transform/optimizer.hpp"
#include "util/json.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace qsimec::ledger {

namespace {

// The Table Ib recipes, as the table1b_equivalent harness derives G' from G.
// They are kept here rather than shared, so that the benchmark's inputs
// change only with the benchmark.

struct Recipe {
  std::string name;
  ir::QuantumComputation g;
  ir::QuantumComputation gPrime;
};

/// G' = decomposition into elementary gates; G padded to its width.
Recipe revlibRecipe(std::string name, const ir::QuantumComputation& g) {
  ir::QuantumComputation gPrime = tf::decompose(g);
  return {std::move(name), tf::padQubits(g, gPrime.qubits()), std::move(gPrime)};
}

/// G = decomposed Grover, G' = its peephole-optimized variant.
Recipe groverRecipe(std::size_t k, std::uint64_t marked) {
  ir::QuantumComputation g = tf::decompose(gen::grover(k, marked));
  ir::QuantumComputation gPrime = tf::optimize(g, tf::OptimizerOptions{});
  return {"Grover " + std::to_string(k), std::move(g), std::move(gPrime)};
}

/// G' = G routed onto a linear architecture.
Recipe mappedRecipe(std::string name, ir::QuantumComputation g) {
  ir::QuantumComputation gPrime =
      tf::mapCircuit(g, tf::CouplingMap::linear(g.qubits())).circuit;
  return {std::move(name), std::move(g), std::move(gPrime)};
}

bool reversibleOnly(const ir::QuantumComputation& qc) {
  return std::all_of(qc.begin(), qc.end(), [](const ir::StandardOperation& op) {
    switch (op.type()) {
    case ir::OpType::X:
    case ir::OpType::SWAP:
    case ir::OpType::V:
    case ir::OpType::Vdg:
      return true;
    default:
      return false;
    }
  });
}

constexpr std::size_t kCorpusSeeds = 24;
constexpr std::size_t kCliffordPerSeed = 2;
constexpr std::size_t kCliffordWidths[] = {6, 10, 12, 16, 32, 48};

/// Clifford pair i of the batch manifest: a random Clifford circuit against
/// its linear-mapped copy. Widths straddle the stabilizer tier's 12-qubit
/// phase-probe cap; errors keep the pair Clifford, so it stays in that tier.
PairFiles writeCliffordPair(const std::string& dir, std::uint64_t seed,
                            std::size_t i) {
  constexpr std::size_t widthCount = std::size(kCliffordWidths);
  const std::size_t n = kCliffordWidths[i % widthCount];
  const std::size_t variant = i / widthCount;
  const std::uint64_t pairSeed = mix(seed * 1000 + i);
  const ir::QuantumComputation g = gen::randomClifford(n, 8 * n, pairSeed);
  ir::QuantumComputation gPrime =
      tf::mapCircuit(g, tf::CouplingMap::linear(n)).circuit;
  // a third of the pairs, two or three at every width
  const bool inject = (variant + i % widthCount) % 3 == 2;
  if (inject) {
    constexpr tf::ErrorKind kinds[] = {tf::ErrorKind::RemoveGate,
                                       tf::ErrorKind::WrongTargetCX,
                                       tf::ErrorKind::FlipControlTargetCX};
    tf::ErrorInjector injector(pairSeed);
    gPrime = injector
                 .inject(gPrime.withMaterializedLayouts(),
                         kinds[pairSeed % std::size(kinds)])
                 .circuit;
  }
  const std::string stem = dir + "/clifford" + std::to_string(i);
  return PairFiles{"clifford " + std::to_string(n) + (inject ? " bug" : ""),
                   writeCircuit(g, stem + "_g"),
                   writeCircuit(gPrime, stem + "_gp"), !inject};
}

} // namespace

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string writeCircuit(const ir::QuantumComputation& qc,
                         const std::string& stem) {
  const ir::QuantumComputation flat = qc.withMaterializedLayouts();
  const bool real = reversibleOnly(flat);
  const std::string path = stem + (real ? ".real" : ".qasm");
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot write " + path);
  }
  if (real) {
    io::writeReal(flat, os);
  } else {
    io::writeQasm(flat, os);
  }
  return path;
}

ir::QuantumComputation readCircuit(const std::string& path, bool validate) {
  const io::ParseOptions options{.validate = validate};
  if (path.ends_with(".real")) {
    return io::parseRealFile(path, options);
  }
  if (path.ends_with(".tfc")) {
    return io::parseTfcFile(path, options);
  }
  return io::parseQasmFile(path, options);
}

ParsedPair readPair(const std::string& gPath, const std::string& gPrimePath,
                    bool validate) {
  ParsedPair pair{readCircuit(gPath, validate),
                  readCircuit(gPrimePath, validate)};
  const std::size_t width = std::max(pair.g.qubits(), pair.gPrime.qubits());
  pair.g = tf::padQubits(pair.g, width);
  pair.gPrime = tf::padQubits(pair.gPrime, width);
  return pair;
}

std::vector<PairFiles> writeCheckPairs(const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::vector<Recipe> recipes;
  recipes.push_back(groverRecipe(5, 0b10110));
  recipes.push_back(groverRecipe(6, 0b101101));
  recipes.push_back(
      mappedRecipe("Supremacy 4x4 5", gen::supremacy(4, 4, 5, 3)));
  recipes.push_back(revlibRecipe("hwb6", gen::hwbCircuit(6)));
  recipes.push_back(revlibRecipe("urf-like 6", gen::urfCircuit(6, 7)));
  recipes.push_back(revlibRecipe("adder8", gen::adderCircuit(8)));
  recipes.push_back(revlibRecipe("inc8", gen::incrementCircuit(8)));
  recipes.push_back(mappedRecipe("QFT 8 (mapped)", gen::qft(8)));
  std::vector<PairFiles> pairs;
  for (std::size_t i = 0; i < recipes.size(); ++i) {
    const std::string stem = dir + "/p" + std::to_string(i);
    pairs.push_back(PairFiles{recipes[i].name,
                              writeCircuit(recipes[i].g, stem + "_g"),
                              writeCircuit(recipes[i].gPrime, stem + "_gp"),
                              true});
  }
  return pairs;
}

BatchInputs writeBatchInputs(const std::string& dir, std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  BatchInputs inputs;
  for (std::size_t s = 0; s < kCorpusSeeds; ++s) {
    inputs.blockStarts.push_back(inputs.pairs.size());
    const std::string corpusDir = dir + "/c" + std::to_string(s);
    const gen::CorpusManifest corpus = gen::emitCorpus(
        {.dir = corpusDir, .seed = seed + s, .includeErrorPairs = true});
    for (const gen::CorpusEntry& entry : corpus.entries) {
      inputs.pairs.push_back(PairFiles{entry.family + " (" + entry.derivation +
                                           ")",
                                       entry.gPath, entry.gPrimePath,
                                       entry.expectEquivalent});
    }
    for (std::size_t c = 0; c < kCliffordPerSeed; ++c) {
      inputs.pairs.push_back(
          writeCliffordPair(dir, seed, s * kCliffordPerSeed + c));
    }
  }
  inputs.manifestPath = dir + "/manifest.jsonl";
  std::ofstream os(inputs.manifestPath);
  if (!os) {
    throw std::runtime_error("cannot write " + inputs.manifestPath);
  }
  for (const PairFiles& pair : inputs.pairs) {
    util::JsonWriter json;
    json.beginObject()
        .field("g", pair.gPath)
        .field("gp", pair.gPrimePath)
        .endObject();
    inputs.lines.push_back(json.str());
    os << inputs.lines.back() << "\n";
  }
  return inputs;
}

} // namespace qsimec::ledger
