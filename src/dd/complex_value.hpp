// Plain complex value type used throughout the decision-diagram package.
//
// `ComplexValue` is a trivially copyable (re, im) pair with the arithmetic
// needed by DD normalization and gate definitions. Canonicalized, shareable
// complex numbers (pointers into the RealTable) are represented by
// `dd::Complex` (see complex.hpp); `ComplexValue` is the transient,
// computation-side representation.

#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <numbers>
#include <ostream>

namespace qsimec::dd {

/// Numerical tolerance shared by the whole package. Two reals closer than
/// this are considered the same number and will be canonicalized to a single
/// table entry.
///
/// It must sit well above accumulated round-off (~1e-15 per chain of
/// operations) but well below the smallest angle structure circuits
/// produce: e.g. the deepest QFT-64 rotation has 1 - cos(2 pi / 2^64) far
/// below any representable threshold, and snapping such a value to 1 while
/// keeping its sine breaks node sharing. 1e-13 keeps equal-by-math weights
/// pointer-equal without aliasing distinct ones.
inline constexpr double TOLERANCE = 1e-13;

struct ComplexValue {
  double re{0.0};
  double im{0.0};

  constexpr ComplexValue() = default;
  constexpr ComplexValue(double r, double i) : re(r), im(i) {}
  constexpr explicit ComplexValue(double r) : re(r) {}

  [[nodiscard]] constexpr ComplexValue operator+(const ComplexValue& o) const {
    return {re + o.re, im + o.im};
  }
  [[nodiscard]] constexpr ComplexValue operator-(const ComplexValue& o) const {
    return {re - o.re, im - o.im};
  }
  [[nodiscard]] constexpr ComplexValue operator*(const ComplexValue& o) const {
    return {re * o.re - im * o.im, re * o.im + im * o.re};
  }
  [[nodiscard]] constexpr ComplexValue operator-() const { return {-re, -im}; }

  [[nodiscard]] ComplexValue operator/(const ComplexValue& o) const {
    const double d = o.re * o.re + o.im * o.im;
    return {(re * o.re + im * o.im) / d, (im * o.re - re * o.im) / d};
  }

  ComplexValue& operator+=(const ComplexValue& o) {
    re += o.re;
    im += o.im;
    return *this;
  }
  ComplexValue& operator*=(const ComplexValue& o) {
    *this = *this * o;
    return *this;
  }

  [[nodiscard]] constexpr ComplexValue conj() const { return {re, -im}; }
  [[nodiscard]] double mag2() const { return re * re + im * im; }
  [[nodiscard]] double mag() const { return std::hypot(re, im); }

  [[nodiscard]] bool approximatelyEquals(const ComplexValue& o) const {
    return std::abs(re - o.re) <= TOLERANCE &&
           std::abs(im - o.im) <= TOLERANCE;
  }
  [[nodiscard]] bool approximatelyZero() const {
    return std::abs(re) <= TOLERANCE && std::abs(im) <= TOLERANCE;
  }
  [[nodiscard]] bool approximatelyOne() const {
    return approximatelyEquals(ComplexValue{1.0, 0.0});
  }

  /// Exact comparison — used only for hashing/assertions, not numerics.
  [[nodiscard]] bool operator==(const ComplexValue& o) const = default;

  [[nodiscard]] static ComplexValue fromPolar(double r, double theta) {
    return {r * std::cos(theta), r * std::sin(theta)};
  }
};

inline std::ostream& operator<<(std::ostream& os, const ComplexValue& c) {
  os << c.re;
  if (c.im >= 0) {
    os << "+" << c.im << "i";
  } else {
    os << "-" << -c.im << "i";
  }
  return os;
}

inline constexpr double SQRT1_2 = std::numbers::sqrt2 / 2.0;
inline constexpr double PI = std::numbers::pi;

} // namespace qsimec::dd
