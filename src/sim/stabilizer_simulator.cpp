#include "sim/stabilizer_simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace qsimec::sim {

namespace {

/// Phase exponent contribution g(x1,z1,x2,z2) of multiplying Pauli
/// (x1,z1) into (x2,z2) — Aaronson & Gottesman, Eq. for rowsum.
int phaseG(int x1, int z1, int x2, int z2) {
  if (x1 == 0 && z1 == 0) {
    return 0;
  }
  if (x1 == 1 && z1 == 1) {
    return z2 - x2;
  }
  if (x1 == 1 && z1 == 0) {
    return z2 * (2 * x2 - 1);
  }
  return x2 * (1 - 2 * z2);
}

/// Angle reduced to a multiple of pi/2 in [0,4); throws if not Clifford.
int quarterTurns(double angle) {
  const double turns = angle / (std::numbers::pi / 2);
  const double rounded = std::round(turns);
  if (std::abs(turns - rounded) > 1e-9) {
    throw std::domain_error(
        "StabilizerSimulator: phase angle is not a multiple of pi/2");
  }
  int q = static_cast<int>(std::llround(rounded)) % 4;
  if (q < 0) {
    q += 4;
  }
  return q;
}

} // namespace

StabilizerSimulator::StabilizerSimulator(std::size_t nqubits)
    : n_(nqubits), words_((2 * nqubits + 63) / 64) {
  if (nqubits == 0) {
    throw std::invalid_argument("StabilizerSimulator: need at least 1 qubit");
  }
  bits_.assign((2 * n_ + 1) * words_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    flip(xs(i), i);      // destabilizer X_i
    flip(zs(i), n_ + i); // stabilizer Z_i
  }
}

void StabilizerSimulator::rowsum(std::size_t h, std::size_t i) {
  int phase = 2 * static_cast<int>(bit(rs(), h)) +
              2 * static_cast<int>(bit(rs(), i));
  for (std::size_t j = 0; j < n_; ++j) {
    const bool xi = bit(xs(j), i);
    const bool zi = bit(zs(j), i);
    if (!xi && !zi) {
      continue; // identity factor: no phase, nothing to multiply in
    }
    phase += phaseG(xi, zi, bit(xs(j), h), bit(zs(j), h));
    if (xi) {
      flip(xs(j), h);
    }
    if (zi) {
      flip(zs(j), h);
    }
  }
  phase = ((phase % 4) + 4) % 4;
  assign(rs(), h, phase / 2 != 0);
}

void StabilizerSimulator::rowcopy(std::size_t dst, std::size_t src) {
  for (std::size_t j = 0; j < n_; ++j) {
    assign(xs(j), dst, bit(xs(j), src));
    assign(zs(j), dst, bit(zs(j), src));
  }
  assign(rs(), dst, bit(rs(), src));
}

void StabilizerSimulator::rowclear(std::size_t row) {
  for (std::size_t j = 0; j < n_; ++j) {
    assign(xs(j), row, false);
    assign(zs(j), row, false);
  }
  assign(rs(), row, false);
}

void StabilizerSimulator::h(std::size_t q) {
  Word* xq = xs(q);
  Word* zq = zs(q);
  Word* r = rs();
  for (std::size_t w = 0; w < words_; ++w) {
    r[w] ^= xq[w] & zq[w];
    std::swap(xq[w], zq[w]);
  }
}

void StabilizerSimulator::s(std::size_t q) {
  Word* xq = xs(q);
  Word* zq = zs(q);
  Word* r = rs();
  for (std::size_t w = 0; w < words_; ++w) {
    r[w] ^= xq[w] & zq[w];
    zq[w] ^= xq[w];
  }
}

void StabilizerSimulator::sdg(std::size_t q) {
  // the tableau update of S applied three times
  Word* xq = xs(q);
  Word* zq = zs(q);
  Word* r = rs();
  for (std::size_t w = 0; w < words_; ++w) {
    r[w] ^= xq[w] & ~zq[w];
    zq[w] ^= xq[w];
  }
}

void StabilizerSimulator::x(std::size_t q) {
  const Word* zq = zs(q);
  Word* r = rs();
  for (std::size_t w = 0; w < words_; ++w) {
    r[w] ^= zq[w];
  }
}

void StabilizerSimulator::z(std::size_t q) {
  const Word* xq = xs(q);
  Word* r = rs();
  for (std::size_t w = 0; w < words_; ++w) {
    r[w] ^= xq[w];
  }
}

void StabilizerSimulator::y(std::size_t q) {
  const Word* xq = xs(q);
  const Word* zq = zs(q);
  Word* r = rs();
  for (std::size_t w = 0; w < words_; ++w) {
    r[w] ^= xq[w] ^ zq[w];
  }
}

void StabilizerSimulator::cx(std::size_t control, std::size_t target) {
  const Word* xc = xs(control);
  Word* zc = zs(control);
  Word* xt = xs(target);
  const Word* zt = zs(target);
  Word* r = rs();
  for (std::size_t w = 0; w < words_; ++w) {
    r[w] ^= xc[w] & zt[w] & ~(xt[w] ^ zc[w]);
    xt[w] ^= xc[w];
    zc[w] ^= zt[w];
  }
}

void StabilizerSimulator::cz(std::size_t control, std::size_t target) {
  // the tableau update of H(target) CX(control, target) H(target)
  const Word* xc = xs(control);
  Word* zc = zs(control);
  const Word* xt = xs(target);
  Word* zt = zs(target);
  Word* r = rs();
  for (std::size_t w = 0; w < words_; ++w) {
    r[w] ^= xc[w] & xt[w] & (zc[w] ^ zt[w]);
    zc[w] ^= xt[w];
    zt[w] ^= xc[w];
  }
}

void StabilizerSimulator::cy(std::size_t control, std::size_t target) {
  sdg(target);
  cx(control, target);
  s(target);
}

void StabilizerSimulator::swap(std::size_t a, std::size_t b) {
  // CX(a,b) CX(b,a) CX(a,b) permutes the columns and leaves every sign
  std::swap_ranges(xs(a), xs(a) + 2 * words_, xs(b));
}

void StabilizerSimulator::applyOp(const ir::StandardOperation& op,
                                  bool inverse) {
  using ir::OpType;
  const auto& controls = op.controls();
  if (controls.size() > 1) {
    throw std::domain_error(
        "StabilizerSimulator: multi-controlled gates are not Clifford");
  }

  if (controls.size() == 1) {
    // controlled X, Y and Z are self-inverse
    void (StabilizerSimulator::*gate)(std::size_t, std::size_t) = nullptr;
    switch (op.type()) {
    case OpType::X:
      gate = &StabilizerSimulator::cx;
      break;
    case OpType::Y:
      gate = &StabilizerSimulator::cy;
      break;
    case OpType::Z:
      gate = &StabilizerSimulator::cz;
      break;
    default:
      throw std::domain_error(
          "StabilizerSimulator: unsupported controlled gate");
    }
    const ir::Control c = controls.front();
    if (!c.positive) {
      x(c.qubit); // wrap a negative control with X
    }
    (this->*gate)(c.qubit, op.target());
    if (!c.positive) {
      x(c.qubit);
    }
    return;
  }

  const std::size_t t = op.target();
  switch (op.type()) {
  case OpType::I:
  case OpType::GPhase: // global phase is invisible to stabilizer states
    return;
  case OpType::H:
    h(t);
    return;
  case OpType::X:
    x(t);
    return;
  case OpType::Y:
    y(t);
    return;
  case OpType::Z:
    z(t);
    return;
  case OpType::S:
  case OpType::Sdg:
    if ((op.type() == OpType::S) != inverse) {
      s(t);
    } else {
      sdg(t);
    }
    return;
  case OpType::V: // sqrt(X) = H S H exactly
  case OpType::Vdg:
    h(t);
    if ((op.type() == OpType::V) != inverse) {
      s(t);
    } else {
      sdg(t);
    }
    h(t);
    return;
  case OpType::SY: // sqrt(Y) ∝ H·Z (Z first)
  case OpType::SYdg:
    if ((op.type() == OpType::SY) != inverse) {
      z(t);
      h(t);
    } else {
      h(t);
      z(t);
    }
    return;
  case OpType::SWAP:
    swap(op.targets()[0], op.targets()[1]);
    return;
  case OpType::Phase:
  case OpType::RZ: {
    // multiples of pi/2 reduce to {I, S, Z, Sdg} up to global phase
    switch (quarterTurns(inverse ? -op.param(0) : op.param(0))) {
    case 0:
      return;
    case 1:
      s(t);
      return;
    case 2:
      z(t);
      return;
    default:
      sdg(t);
      return;
    }
  }
  default:
    throw std::domain_error("StabilizerSimulator: non-Clifford operation " +
                            std::string(ir::toString(op.type())));
  }
}

void StabilizerSimulator::run(const ir::QuantumComputation& qc) {
  if (qc.qubits() != n_) {
    throw std::invalid_argument("StabilizerSimulator: qubit count mismatch");
  }
  if (!qc.initialLayout().isIdentity() ||
      !qc.outputPermutation().isIdentity()) {
    throw std::invalid_argument(
        "StabilizerSimulator: layouts must be materialized");
  }
  for (const ir::StandardOperation& op : qc) {
    apply(op);
  }
}

bool StabilizerSimulator::isClifford(const ir::QuantumComputation& qc) {
  StabilizerSimulator probe(qc.qubits());
  try {
    probe.run(qc);
  } catch (const std::domain_error&) {
    return false;
  }
  return true;
}

bool StabilizerSimulator::isIdentityConjugation() const noexcept {
  // initial tableau: column X(q) holds row q alone, Z(q) row n+q alone, and
  // every phase bit is clear
  const auto isUnit = [this](const Word* column, std::size_t row) {
    for (std::size_t w = 0; w < words_; ++w) {
      const Word want = w == row / 64 ? Word{1} << (row % 64) : Word{0};
      if (column[w] != want) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t q = 0; q < n_; ++q) {
    if (!isUnit(xs(q), q) || !isUnit(zs(q), n_ + q)) {
      return false;
    }
  }
  const Word* r = rs();
  return std::all_of(r, r + words_, [](Word w) { return w == 0; });
}

std::size_t
StabilizerSimulator::firstAnticommutingStabilizer(std::size_t q) const {
  const Word* xq = xs(q);
  for (std::size_t w = n_ / 64; w < words_; ++w) {
    Word word = xq[w];
    if (w == n_ / 64) {
      word &= ~Word{0} << (n_ % 64); // destabilizer rows are not candidates
    }
    if (word != 0) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
    }
  }
  return 2 * n_;
}

int StabilizerSimulator::deterministicOutcome(std::size_t q) const {
  // accumulate the product of stabilizers whose destabilizer partner
  // anticommutes with Z_q, into a local scratch row
  std::vector<std::uint8_t> sx(n_, 0);
  std::vector<std::uint8_t> sz(n_, 0);
  int phase = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!bit(xs(q), i)) {
      continue;
    }
    const std::size_t stab = n_ + i;
    phase += 2 * static_cast<int>(bit(rs(), stab));
    for (std::size_t j = 0; j < n_; ++j) {
      const bool x = bit(xs(j), stab);
      const bool z = bit(zs(j), stab);
      if (!x && !z) {
        continue;
      }
      phase += phaseG(x, z, sx[j], sz[j]);
      sx[j] ^= static_cast<std::uint8_t>(x);
      sz[j] ^= static_cast<std::uint8_t>(z);
    }
  }
  phase = ((phase % 4) + 4) % 4;
  return phase / 2;
}

double StabilizerSimulator::probabilityOfOne(std::size_t q) const {
  if (firstAnticommutingStabilizer(q) < 2 * n_) {
    return 0.5; // some stabilizer anticommutes with Z_q: random outcome
  }
  return deterministicOutcome(q) == 1 ? 1.0 : 0.0;
}

bool StabilizerSimulator::measureWithCoin(
    std::size_t q, const std::function<double()>& random01) {
  const std::size_t p = firstAnticommutingStabilizer(q);
  if (p == 2 * n_) {
    return deterministicOutcome(q) == 1;
  }

  // random outcome: update every other row that anticommutes with Z_q.
  // rowsum(i, p) changes row i alone, so a word of column X(q) read before
  // its rows are visited still names the rows to update.
  for (std::size_t w = 0; w < words_; ++w) {
    Word rowsToUpdate = xs(q)[w];
    while (rowsToUpdate != 0) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(std::countr_zero(rowsToUpdate));
      rowsToUpdate &= rowsToUpdate - 1;
      if (i != p) {
        rowsum(i, p);
      }
    }
  }
  rowcopy(p - n_, p);
  rowclear(p);
  const bool outcome = random01() >= 0.5;
  assign(zs(q), p, true);
  assign(rs(), p, outcome);
  return outcome;
}

} // namespace qsimec::sim
