// Canonical structural fingerprints of parsed circuits — the identity half
// of the batch service's pair keys.
//
// A fingerprint is an order-stable 128-bit hash over everything that
// determines a circuit's checked functionality: the qubit count, the gate
// sequence (operation type, targets in order, controls with polarity), the
// angle parameters, and the two layout permutations. It deliberately
// excludes presentation metadata (the circuit name, the file it was parsed
// from, comment text), so the same circuit parsed from a .qasm and a .real
// file fingerprints identically as long as the parsers produce the same
// operation stream.
//
// Parameters are quantized to integer multiples of kParamEpsilon before
// hashing: two circuits whose angles differ by less than half a grid step
// (and land in the same bucket) share a fingerprint, while a difference of
// one full step or more is guaranteed to change the hashed word. The grid
// is far below the 1e-8 fidelity tolerance the simulation checker proves
// verdicts against, so two circuits the checker could distinguish never
// share a bucket by construction.
//
// The two 64-bit lanes are independently seeded streams of the same
// splitmix64-style mixer; a near-collision (one swapped pair of gates, one
// flipped control polarity, one off-by-epsilon parameter) flips both lanes
// with overwhelming probability, which tests/test_svc.cpp pins down on
// adversarial pairs.

#pragma once

#include "ec/flow.hpp"
#include "ir/quantum_computation.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace qsimec::svc {

/// Quantization grid for gate parameters: angles are snapped to integer
/// multiples of this before hashing (see file comment).
inline constexpr double kParamEpsilon = 1e-9;

/// 128-bit structural hash, rendered as 32 lowercase hex digits for JSONL
/// persistence.
struct Fingerprint {
  std::uint64_t hi{0};
  std::uint64_t lo{0};

  [[nodiscard]] bool operator==(const Fingerprint&) const = default;

  [[nodiscard]] std::string hex() const;
};

/// Fingerprint a parsed circuit (see file comment for what is hashed).
[[nodiscard]] Fingerprint fingerprint(const ir::QuantumComputation& qc);

/// Parse the 32-hex-digit form back (for cache files); std::nullopt on
/// malformed input.
[[nodiscard]] std::optional<Fingerprint> parseFingerprint(std::string_view hex);

/// Digest of the verdict-relevant fields of a flow configuration — the third
/// component of a pair key. Covers every knob that can change a *proved*
/// verdict or its counterexample (stimuli family and seed, simulation count,
/// fidelity tolerance, global-phase handling, the stage skips, and the
/// rewriting toggle) and deliberately excludes pure-performance fields:
/// thread counts, timeouts, node budgets, the staged/race mode, and progress
/// callbacks change how fast a proof is found, never which proof is found
/// (docs/service.md spells out the safety argument).
[[nodiscard]] std::uint64_t configDigest(const ec::FlowConfiguration& config);

} // namespace qsimec::svc
