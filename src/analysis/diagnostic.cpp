#include "analysis/diagnostic.hpp"

#include "util/json.hpp"

#include <algorithm>
#include <sstream>

namespace qsimec::analysis {

std::string toString(const Diagnostic& d) {
  std::ostringstream ss;
  ss << toString(d.severity) << "[" << d.rule << "]";
  if (d.pair) {
    ss << " pair";
  }
  if (d.gate) {
    ss << " gate #" << *d.gate;
  }
  ss << ": " << d.message;
  return ss.str();
}

std::ostream& operator<<(std::ostream& os, const Diagnostic& d) {
  return os << toString(d);
}

std::string toJson(const Diagnostic& d) {
  util::JsonWriter json;
  json.beginObject()
      .field("rule", d.rule)
      .field("severity", toString(d.severity));
  if (d.gate) {
    json.field("gate", *d.gate);
  } else {
    json.rawField("gate", "null");
  }
  const std::string_view attribution =
      d.pair ? "pair" : (d.circuit == 0 ? "left" : "right");
  json.field("circuit", attribution).field("message", d.message).endObject();
  return json.str();
}

std::string toJson(const std::vector<Diagnostic>& ds) {
  std::string out = "[";
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += toJson(ds[i]);
  }
  out += ']';
  return out;
}

std::size_t AnalysisReport::count(Severity s) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

void AnalysisReport::absorb(AnalysisReport other, std::size_t circuit) {
  for (Diagnostic& d : other.diagnostics) {
    d.circuit = circuit;
    diagnostics.push_back(std::move(d));
  }
}

} // namespace qsimec::analysis
