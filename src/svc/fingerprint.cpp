#include "svc/fingerprint.hpp"

#include <cmath>
#include <cstdio>

namespace qsimec::svc {

namespace {

/// splitmix64 finalizer — the same mixer ec/parallel.cpp derives per-run
/// stimulus seeds with. Full-avalanche: any single-bit change in the input
/// flips each output bit with probability ~1/2.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31U);
}

/// One 64-bit absorbing lane: order-sensitive (the running state is mixed
/// into every absorbed word), so swapping two equal-weight gates changes
/// the digest.
class HashLane {
public:
  explicit constexpr HashLane(std::uint64_t seed) : state_(mix64(seed)) {}

  constexpr void absorb(std::uint64_t word) noexcept {
    state_ = mix64(state_ ^ word);
  }

  [[nodiscard]] constexpr std::uint64_t digest() const noexcept {
    return mix64(state_);
  }

private:
  std::uint64_t state_;
};

/// Two independently seeded lanes absorbed in lockstep.
class Hasher {
public:
  void absorb(std::uint64_t word) noexcept {
    hi_.absorb(word);
    lo_.absorb(word);
  }
  void absorb(double value) noexcept {
    // Quantize to the documented epsilon grid. llround ties away from zero;
    // +0.0 and -0.0 share bucket 0.
    absorb(static_cast<std::uint64_t>(std::llround(value / kParamEpsilon)));
  }

  [[nodiscard]] Fingerprint digest() const noexcept {
    return Fingerprint{hi_.digest(), lo_.digest()};
  }

private:
  // Distinct seeds decouple the lanes: a 64-bit collision in one leaves the
  // other unconstrained.
  HashLane hi_{0x71c9fe0cbf0a5c3bULL};
  HashLane lo_{0x2b99f18bf1a3a7e5ULL};
};

void absorbPermutation(Hasher& h, const ir::Permutation& p) {
  h.absorb(static_cast<std::uint64_t>(p.size()));
  // identity layouts are the overwhelmingly common case; collapsing them to
  // one word keeps fingerprints of plain (unmapped) circuits cheap
  if (p.isIdentity()) {
    h.absorb(std::uint64_t{1});
    return;
  }
  h.absorb(std::uint64_t{0});
  for (std::size_t i = 0; i < p.size(); ++i) {
    h.absorb(static_cast<std::uint64_t>(p[i]));
  }
}

} // namespace

std::string Fingerprint::hex() const {
  char buffer[33];
  std::snprintf(buffer, sizeof(buffer), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buffer;
}

Fingerprint fingerprint(const ir::QuantumComputation& qc) {
  Hasher h;
  h.absorb(static_cast<std::uint64_t>(qc.qubits()));
  absorbPermutation(h, qc.initialLayout());
  absorbPermutation(h, qc.outputPermutation());
  h.absorb(static_cast<std::uint64_t>(qc.size()));
  for (const ir::StandardOperation& op : qc) {
    h.absorb(static_cast<std::uint64_t>(op.type()));
    h.absorb(static_cast<std::uint64_t>(op.targets().size()));
    for (const ir::Qubit t : op.targets()) {
      h.absorb(static_cast<std::uint64_t>(t));
    }
    h.absorb(static_cast<std::uint64_t>(op.controls().size()));
    for (const ir::Control& c : op.controls()) {
      h.absorb((static_cast<std::uint64_t>(c.qubit) << 1U) |
               (c.positive ? 1U : 0U));
    }
    for (const double p : op.params()) {
      h.absorb(p);
    }
  }
  return h.digest();
}

std::optional<Fingerprint> parseFingerprint(std::string_view hex) {
  if (hex.size() != 32) {
    return std::nullopt;
  }
  std::uint64_t words[2] = {0, 0};
  for (std::size_t i = 0; i < 32; ++i) {
    const char c = hex[i];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    words[i / 16] = (words[i / 16] << 4U) | nibble;
  }
  return Fingerprint{words[0], words[1]};
}

std::uint64_t configDigest(const ec::FlowConfiguration& config) {
  Hasher h;
  // schema 2: added the prescreen/tier-routing fields below — the tier a
  // pair routes to changes how a verdict is produced, so cached verdicts
  // from flows with different routing must not collide
  h.absorb(std::uint64_t{2}); // digest schema version
  h.absorb(static_cast<std::uint64_t>(config.simulation.maxSimulations));
  h.absorb(static_cast<std::uint64_t>(config.simulation.stimuli));
  h.absorb(config.simulation.fidelityTolerance);
  h.absorb(config.simulation.seed);
  h.absorb(config.simulation.ignoreGlobalPhase ? std::uint64_t{1}
                                               : std::uint64_t{0});
  // slot of the removed difference-circuit knob (never set outside tests):
  // its old default keeps every digest valid
  h.absorb(std::uint64_t{0});
  // slot of the removed simulation-skip flag, which every CLI run and
  // manifest derived from a zero stimulus budget — the condition that now
  // skips the stage
  h.absorb(config.simulation.maxSimulations == 0 ? std::uint64_t{1}
                                                 : std::uint64_t{0});
  h.absorb(config.skipComplete ? std::uint64_t{1} : std::uint64_t{0});
  h.absorb(config.tryRewriting ? std::uint64_t{1} : std::uint64_t{0});
  // slot of the removed validateInputs knob: preflight always runs, as it
  // did by default, so absorbing its old default keeps every digest (and
  // every existing cache file) valid
  h.absorb(std::uint64_t{1});
  h.absorb(config.prescreen.enabled ? std::uint64_t{1} : std::uint64_t{0});
  // slot of the removed prescreen.stabilizerTier knob (default on), kept
  // for the same reason
  h.absorb(std::uint64_t{1});
  h.absorb(static_cast<std::uint64_t>(config.prescreen.stabilizerStimuli));
  h.absorb(static_cast<std::uint64_t>(config.prescreen.phaseProbeMaxQubits));
  return h.digest().lo;
}

} // namespace qsimec::svc
