// Structured diagnostics emitted by the circuit static-analysis pass.
//
// A Diagnostic pins one finding to a rule ID (see docs/static-analysis.md for
// the catalog), a severity, and — where it concerns a single operation — a
// gate index. Pair-level rules (QP...) reference the circuit pair as a whole.
// Diagnostics are plain values; the analyzer never throws on findings, so
// callers decide whether errors are fatal (the EC flow's preflight) or
// merely reported (the `qsimec lint` CLI).

#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace qsimec::analysis {

enum class Severity : std::uint8_t {
  Error,   // the circuit (pair) is malformed; checking it is meaningless
  Warning, // suspicious but well-defined (e.g. an empty circuit)
  Note,    // stylistic / informational lint finding
};

[[nodiscard]] constexpr std::string_view toString(Severity s) noexcept {
  switch (s) {
  case Severity::Error:
    return "error";
  case Severity::Warning:
    return "warning";
  case Severity::Note:
    return "note";
  }
  return "?";
}

struct Diagnostic {
  /// Rule identifier, e.g. "QA001" (circuit errors), "QL001" (lint),
  /// "QP001" (pair rules).
  std::string rule;
  Severity severity{Severity::Error};
  /// Index of the offending operation, when the finding is gate-level.
  std::optional<std::size_t> gate;
  /// Which circuit of an analyzed pair the finding belongs to (0 or 1);
  /// always 0 for single-circuit analysis and for pair-level rules.
  std::size_t circuit{0};
  std::string message;
  /// True for pair-level findings (QP/QS verdict rules) that concern the
  /// pair as a whole rather than either circuit; `circuit` is then 0 and
  /// carries no meaning. JSON renders circuit as "left"/"right"/"pair".
  bool pair{false};

  [[nodiscard]] bool operator==(const Diagnostic&) const = default;
};

/// "error[QA001] gate #3: qubit index 5 out of range ..." — one line, no
/// trailing newline.
[[nodiscard]] std::string toString(const Diagnostic& d);
std::ostream& operator<<(std::ostream& os, const Diagnostic& d);

/// JSON object / array renderings (via util::JsonWriter; self-contained
/// valid JSON suitable for JsonWriter::rawField).
[[nodiscard]] std::string toJson(const Diagnostic& d);
[[nodiscard]] std::string toJson(const std::vector<Diagnostic>& ds);

/// The outcome of one analyzer run: every finding, in circuit order.
struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] std::size_t count(Severity s) const noexcept;
  [[nodiscard]] bool hasErrors() const noexcept {
    return count(Severity::Error) > 0;
  }
  [[nodiscard]] bool empty() const noexcept { return diagnostics.empty(); }

  /// Append another report's findings, tagging them as belonging to
  /// circuit `circuit` of a pair.
  void absorb(AnalysisReport other, std::size_t circuit);
};

} // namespace qsimec::analysis
