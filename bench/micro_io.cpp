// Micro-benchmarks of the circuit parsers (src/io): each parses a circuit
// text generated in memory, so disk reads do not enter the timing.
//
// BM_ParseQasm runs at 1,000, 10,000 and 100,000 gates; parsing is linear
// in the text, so its bytes_per_second should hold steady across the three
// sizes. BM_ParseReal and BM_ParseTfc parse 10,000 gates of the reversible
// formats. Every parse validates (the default ParseOptions), as `qsimec
// check` does.
//
// BM_DigestQasm/10000 digests the text of BM_ParseQasm/10000 with
// svc::contentDigest, the key of the verdict cache's byte front: the
// per-byte price a warm batch or daemon pair pays in place of its parse.

#include "io/qasm.hpp"
#include "io/real.hpp"
#include "io/tfc.hpp"
#include "svc/fingerprint.hpp"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

using namespace qsimec;

namespace {

constexpr std::size_t kQubits = 16;
constexpr std::size_t kReversibleVars = 8;

/// A deterministic stream of distinct wire indices below `n`.
class Wires {
public:
  explicit Wires(std::size_t n) : n_(n) {}
  /// Three distinct wires.
  void next(std::size_t& a, std::size_t& b, std::size_t& c) {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    a = (state_ >> 33) % n_;
    b = (a + 1 + (state_ >> 17) % (n_ - 1)) % n_;
    c = b;
    while (c == a || c == b) {
      c = (c + 1) % n_;
    }
  }

private:
  std::size_t n_;
  std::uint64_t state_{42};
};

/// An OpenQASM circuit of `gates` gates: a mix of one-qubit, controlled,
/// parameterised and Toffoli gates.
std::string qasmText(std::size_t gates) {
  std::string text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
                     std::to_string(kQubits) + "];\n";
  Wires wires(kQubits);
  const auto q = [](std::size_t i) { return "q[" + std::to_string(i) + "]"; };
  for (std::size_t g = 0; g < gates; ++g) {
    std::size_t a = 0;
    std::size_t b = 0;
    std::size_t c = 0;
    wires.next(a, b, c);
    switch (g % 5) {
    case 0:
      text += "h " + q(a) + ";\n";
      break;
    case 1:
      text += "cx " + q(a) + "," + q(b) + ";\n";
      break;
    case 2:
      text += "rz(0.78539816339744828) " + q(a) + ";\n";
      break;
    case 3:
      text += "ccx " + q(a) + "," + q(b) + "," + q(c) + ";\n";
      break;
    default:
      text += "u3(pi/2,-0.25,1.5e-3) " + q(a) + ";\n";
    }
  }
  return text;
}

/// The gate lines of a reversible circuit over variables x0..x7, with
/// `separator` between operands and `negation` marking a negative control
/// as prefix ('-', .real) or suffix ('\'', .tfc).
std::string reversibleGates(std::size_t gates, const std::string& separator,
                            bool prefixNegation) {
  std::string text;
  Wires wires(kReversibleVars);
  const auto var = [](std::size_t i) {
    return std::string("x").append(std::to_string(i));
  };
  const auto negated = [&](std::size_t i) {
    return prefixNegation ? std::string("-").append(var(i)) : var(i) + "'";
  };
  for (std::size_t g = 0; g < gates; ++g) {
    std::size_t a = 0;
    std::size_t b = 0;
    std::size_t c = 0;
    wires.next(a, b, c);
    switch (g % 4) {
    case 0:
      text += "t1 " + var(a) + "\n";
      break;
    case 1:
      text += "t2 " + var(a) + separator + var(b) + "\n";
      break;
    case 2:
      text += "t3 " + var(a) + separator + negated(b) + separator + var(c) +
              "\n";
      break;
    default:
      text += "f3 " + var(a) + separator + var(b) + separator + var(c) + "\n";
    }
  }
  return text;
}

std::string realText(std::size_t gates) {
  std::string text = ".version 2.0\n.numvars " +
                     std::to_string(kReversibleVars) + "\n.variables";
  for (std::size_t i = 0; i < kReversibleVars; ++i) {
    text += " x" + std::to_string(i);
  }
  return text + "\n.begin\n" + reversibleGates(gates, " ", true) + ".end\n";
}

std::string tfcText(std::size_t gates) {
  std::string text = ".v x0";
  for (std::size_t i = 1; i < kReversibleVars; ++i) {
    text += ",x" + std::to_string(i);
  }
  return text + "\nBEGIN\n" + reversibleGates(gates, ",", false) + "END\n";
}

template <class Work>
void runOnText(benchmark::State& state, const std::string& text, Work work) {
  for (auto _ : state) {
    auto result = work(text);
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.counters["bytes"] = static_cast<double>(text.size());
}

void BM_ParseQasm(benchmark::State& state) {
  runOnText(state, qasmText(static_cast<std::size_t>(state.range(0))),
           [](const std::string& text) { return io::parseQasmString(text); });
}
BENCHMARK(BM_ParseQasm)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_DigestQasm(benchmark::State& state) {
  runOnText(state, qasmText(static_cast<std::size_t>(state.range(0))),
           [](const std::string& text) {
             return svc::contentDigest(io::CircuitFormat::Qasm, text);
           });
}
BENCHMARK(BM_DigestQasm)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_ParseReal(benchmark::State& state) {
  runOnText(state, realText(static_cast<std::size_t>(state.range(0))),
           [](const std::string& text) { return io::parseRealString(text); });
}
BENCHMARK(BM_ParseReal)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_ParseTfc(benchmark::State& state) {
  runOnText(state, tfcText(static_cast<std::size_t>(state.range(0))),
           [](const std::string& text) { return io::parseTfcString(text); });
}
BENCHMARK(BM_ParseTfc)->Arg(10000)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
