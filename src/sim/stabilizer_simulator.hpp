// Stabilizer (CHP tableau) simulator, Aaronson-Gottesman style.
//
// An *independent* substrate used to cross-validate the DD simulator at
// sizes the dense oracle cannot reach (tests compare single-qubit
// measurement probabilities on random 16+-qubit Clifford circuits), to
// reason about the stabilizer stimuli of ec/stimuli.hpp, and as the engine
// of the stabilizer tier (ec/stabilizer_checker.hpp).
//
// Storage is a flat, column-major, bit-packed tableau: for every qubit q the
// X and Z bits of all 2n rows form one bitset each, and the phase bits r one
// more, each ceil(2n/64) words long. A gate touches only the columns of its
// qubits, so it costs ceil(2n/64) word operations per column (cx is
// `r ^= xc & zt & ~(xt ^ zc); xt ^= xc; zc ^= zt` per word). A row is read
// by bit extraction across the columns: rowsum and a deterministic
// measurement cost O(n) per row they touch, a random measurement O(n^2).
//
// Supported operations: H, X, Y, Z, S, Sdg, V, Vdg, SY, SYdg, CX, CY, CZ,
// SWAP, GPhase, I, and Phase/RZ whose angle is a multiple of pi/2. Anything
// else throws std::domain_error.

#pragma once

#include "ir/quantum_computation.hpp"

#include <cstdint>
#include <functional>
#include <random>
#include <vector>

namespace qsimec::sim {

class StabilizerSimulator {
public:
  explicit StabilizerSimulator(std::size_t nqubits);

  [[nodiscard]] std::size_t qubits() const noexcept { return n_; }

  // --- elementary Clifford gates -------------------------------------------
  void h(std::size_t q);
  void s(std::size_t q);
  void sdg(std::size_t q);
  void x(std::size_t q);
  void y(std::size_t q);
  void z(std::size_t q);
  void cx(std::size_t control, std::size_t target);
  void cz(std::size_t control, std::size_t target);
  void cy(std::size_t control, std::size_t target);
  void swap(std::size_t a, std::size_t b);

  /// Apply an IR operation (throws std::domain_error if not Clifford).
  void apply(const ir::StandardOperation& op) { applyOp(op, false); }
  /// Apply the inverse of an IR operation, the same tableau update as
  /// apply(op.inverse()) without building the inverse operation.
  void applyInverse(const ir::StandardOperation& op) { applyOp(op, true); }
  /// Run a whole circuit (layouts must be trivial).
  void run(const ir::QuantumComputation& qc);

  /// True if every operation of the circuit is in the supported set.
  [[nodiscard]] static bool isClifford(const ir::QuantumComputation& qc);

  /// True iff the Clifford unitary U applied so far is proportional to the
  /// identity. Row i of the tableau tracks U X_i U^dag (destabilizers) and
  /// row n+i tracks U Z_i U^dag; U ~ I iff every generator is mapped to
  /// itself with a + sign, i.e. the tableau equals its initial value and
  /// every phase bit is clear. The overall global phase is invisible to the
  /// tableau, so "proportional to" is the strongest statement available.
  [[nodiscard]] bool isIdentityConjugation() const noexcept;

  // --- measurement ---------------------------------------------------------
  /// P(measuring qubit q gives 1): always 0, 0.5, or 1 for stabilizer
  /// states. Does not collapse the state.
  [[nodiscard]] double probabilityOfOne(std::size_t q) const;

  /// Measure qubit q (collapses). `random01` supplies the coin for the
  /// random-outcome branch.
  bool measureWithCoin(std::size_t q, const std::function<double()>& random01);
  template <class Rng> bool measure(std::size_t q, Rng&& rng) {
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    return measureWithCoin(q, [&]() { return u01(rng); });
  }

private:
  using Word = std::uint64_t;

  void applyOp(const ir::StandardOperation& op, bool inverse);

  // column bitsets over rows 0..n-1 (destabilizers) and n..2n-1
  // (stabilizers); bit i of a column lives in word i / 64, bit i % 64
  [[nodiscard]] Word* xs(std::size_t q) noexcept {
    return &bits_[2 * q * words_];
  }
  [[nodiscard]] Word* zs(std::size_t q) noexcept {
    return &bits_[(2 * q + 1) * words_];
  }
  [[nodiscard]] Word* rs() noexcept { return &bits_[2 * n_ * words_]; }
  [[nodiscard]] const Word* xs(std::size_t q) const noexcept {
    return &bits_[2 * q * words_];
  }
  [[nodiscard]] const Word* zs(std::size_t q) const noexcept {
    return &bits_[(2 * q + 1) * words_];
  }
  [[nodiscard]] const Word* rs() const noexcept {
    return &bits_[2 * n_ * words_];
  }
  [[nodiscard]] static bool bit(const Word* column, std::size_t row) noexcept {
    return ((column[row / 64] >> (row % 64)) & 1U) != 0U;
  }
  static void flip(Word* column, std::size_t row) noexcept {
    column[row / 64] ^= Word{1} << (row % 64);
  }
  static void assign(Word* column, std::size_t row, bool value) noexcept {
    const Word mask = Word{1} << (row % 64);
    column[row / 64] = value ? column[row / 64] | mask
                             : column[row / 64] & ~mask;
  }

  void rowsum(std::size_t h, std::size_t i);
  void rowcopy(std::size_t dst, std::size_t src);
  void rowclear(std::size_t row);
  /// First stabilizer row whose X bit on qubit q is set, or 2n if none.
  [[nodiscard]] std::size_t firstAnticommutingStabilizer(std::size_t q) const;
  [[nodiscard]] int deterministicOutcome(std::size_t q) const;

  std::size_t n_;
  std::size_t words_; // ceil(2n / 64)
  /// X(0), Z(0), X(1), Z(1), ..., X(n-1), Z(n-1), r: 2n + 1 columns
  std::vector<Word> bits_;
};

} // namespace qsimec::sim
